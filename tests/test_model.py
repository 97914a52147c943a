"""System model: channel draws, real stacking, modulation, noise scaling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

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


@pytest.mark.parametrize("seed", range(5))
def test_channel_draw_matches_summed_expression(seed):
    # the draw is the polar expression sqrt(E) (cos theta + j sin theta),
    # E the float64 exponential rounded once and theta = 2 pi U in float32,
    # written out with the same ufuncs: bit for bit, signs of zeros
    # included, and the generator left as after the two plain draws
    shape = (4, 16, 8)
    rng = np.random.default_rng(seed)
    new = draw_channels(rng, 16, 8, 4)
    ref = np.random.default_rng(seed)
    r = np.sqrt(ref.standard_exponential(shape).astype(np.float32))
    th = ref.random(shape, dtype=np.float32) * np.float32(2 * np.pi)
    parts = {"real": np.cos(th) * r, "imag": r * np.sin(th)}
    assert new.dtype == np.complex64
    for name, want in parts.items():
        got = getattr(new, name)
        assert want.dtype == np.float32
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


def eigenvalue_quantiles(hc, q):
    hc = hc.astype(complex)
    return np.quantile(np.linalg.eigvalsh(np.conj(np.swapaxes(hc, -1, -2)) @ hc / hc.shape[-2]), q)


def test_channel_draw_distribution():
    # about 10^6 gains of one seed: |h|^2 ~ Exp(1) and the phase ~ U[0, 2 pi)
    # by Kolmogorov-Smirnov (critical value 1.9e-3 at p = 1e-3), per-component
    # variance 1/2, circular (E[h^2] = 0), and Gram eigenvalue quantiles
    # those of Grams drawn as (a + j b) / sqrt(2) from standard normals.
    # Largest misfits over seeds 0-11: KS 1.2e-3 and 1.1e-3, variance 1.3e-3,
    # |E[h^2]| 1.8e-3, quantiles 1.3e-2 (at the 0.95 quantile, about 2.38)
    hc = draw_channels(np.random.default_rng(77), 64, 32, 500)
    h = hc.astype(complex).ravel()
    assert stats.kstest(np.abs(h) ** 2, "expon").statistic < 2e-3
    phase = np.mod(np.angle(h), 2 * np.pi)
    assert stats.kstest(phase, "uniform", args=(0.0, 2 * np.pi)).statistic < 2e-3
    assert np.var(h.real) == pytest.approx(0.5, abs=4e-3)
    assert np.var(h.imag) == pytest.approx(0.5, abs=4e-3)
    assert abs(np.mean(h ** 2)) < 5e-3
    q = (0.05, 0.25, 0.5, 0.75, 0.95)
    ref = np.random.default_rng(78)
    old = (ref.standard_normal(hc.shape) + 1j * ref.standard_normal(hc.shape)) / np.sqrt(2.0)
    np.testing.assert_allclose(eigenvalue_quantiles(hc, q), eigenvalue_quantiles(old, q),
                               rtol=0, atol=0.03)


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


@pytest.mark.parametrize("bits", [[0, 1, 1], [True, False], [0.0, 1.0], np.zeros((2, 3), np.uint8)])
def test_modulate_accepts_zero_one_values(bits):
    np.testing.assert_array_equal(modulate(bits), 1.0 - 2.0 * np.asarray(bits, dtype=float))


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_modulate_rejects_other_values(bad):
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        modulate(np.array([0, 1, bad]))
