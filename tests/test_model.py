"""System model: channel draws, real stacking, modulation, noise scaling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chemp import draw_channels, modulate, noise_variance, real_stack


def test_channel_shape_and_variance(rng):
    hc = draw_channels(rng, 64, 32)
    assert hc.shape == (64, 32)
    assert np.iscomplexobj(hc)
    # unit-variance complex entries: per-component variance 1/2
    v = np.var(hc.real) + np.var(hc.imag)
    assert abs(v - 1.0) < 0.1
    assert draw_channels(rng, 8, 4, 5).shape == (5, 8, 4)
    assert draw_channels(rng, 8, 4, (2, 3)).shape == (2, 3, 8, 4)
    with pytest.raises(ValueError):
        draw_channels(rng, 16, 32)  # overloaded


def test_real_stacking_block_structure(rng):
    hc = draw_channels(rng, 8, 4)
    H = real_stack(hc)
    A, B = hc.real, hc.imag
    assert H.shape == (16, 8)
    np.testing.assert_allclose(H[:8, :4], A)
    np.testing.assert_allclose(H[:8, 4:], -B)
    np.testing.assert_allclose(H[8:, :4], B)
    np.testing.assert_allclose(H[8:, 4:], A)


def test_real_stacking_commutes_with_matvec(rng):
    hc = draw_channels(rng, 16, 8)
    xc = rng.standard_normal(8) + 1j * rng.standard_normal(8)

    def stack_vec(v):
        return np.concatenate([v.real, v.imag])

    lhs = stack_vec(hc @ xc)
    rhs = real_stack(hc) @ stack_vec(xc)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_real_stacking_batched(rng):
    hc = draw_channels(rng, 8, 4, (2, 3))
    H = real_stack(hc)
    assert H.shape == (2, 3, 16, 8)
    np.testing.assert_array_equal(H[1, 2], real_stack(hc[1, 2]))


@given(st.integers(1, 64), st.floats(-10.0, 30.0))
def test_noise_variance_formula(k, snr_db):
    nv = noise_variance(snr_db, k)
    assert nv == pytest.approx(k * 2.0 / (2.0 * 10.0 ** (snr_db / 10.0)))


def test_modulate_demodulate_round_trip(rng):
    bits = rng.integers(0, 2, size=200)
    x = modulate(bits)
    assert set(np.unique(x)) <= {-1.0, 1.0}
    np.testing.assert_array_equal((x < 0).astype(int), bits)


def test_modulation_polarity():
    # bit 0 -> +1, bit 1 -> -1
    np.testing.assert_allclose(modulate(np.array([0, 1])), [1.0, -1.0])
