"""Reference detectors and the single-antenna error-rate benchmark."""

import itertools

import numpy as np
import pytest

from chemp import (
    draw_channels,
    map_oracle,
    mmse_detect,
    modulate,
    noise_variance,
    qfunc,
    real_stack,
    siso_awgn_ber,
)


def test_mmse_noiseless_recovery(rng):
    H = real_stack(draw_channels(rng, 32, 8))
    x = modulate(rng.integers(0, 2, 16))
    xhat, s = mmse_detect(H, H @ x, 1e-12)
    np.testing.assert_array_equal(xhat, x)
    np.testing.assert_allclose(s, x, atol=1e-5)


def test_mmse_batched_matches_loop(rng):
    Hs = np.stack([real_stack(draw_channels(rng, 16, 4)) for _ in range(6)])
    ys = rng.standard_normal((6, 32))
    xb, sb = mmse_detect(Hs, ys, 0.7)
    for i in range(6):
        xi, si = mmse_detect(Hs[i], ys[i], 0.7)
        np.testing.assert_array_equal(xb[i], xi)
        np.testing.assert_allclose(sb[i], si, atol=1e-12)


def test_mmse_regularization_shrinks_estimate(rng):
    H = real_stack(draw_channels(rng, 16, 8))
    y = rng.standard_normal(32)
    _, s_small = mmse_detect(H, y, 1e-9)
    _, s_large = mmse_detect(H, y, 100.0)
    assert np.linalg.norm(s_large) < np.linalg.norm(s_small)


def test_map_oracle_matches_enumeration(rng):
    H = real_stack(draw_channels(rng, 8, 2))
    nv = noise_variance(6.0, 2)
    x = modulate(rng.integers(0, 2, 4))
    y = H @ x + rng.normal(0, np.sqrt(nv), 16)
    best, best_d = None, np.inf
    for cand in itertools.product([-1.0, 1.0], repeat=4):
        d = np.sum((y - H @ np.array(cand)) ** 2)
        if d < best_d:
            best, best_d = np.array(cand), d
    np.testing.assert_array_equal(map_oracle(H, y, nv), best)


def test_map_oracle_batched(rng):
    Hs = np.stack([real_stack(draw_channels(rng, 8, 2)) for _ in range(4)])
    ys = rng.standard_normal((4, 16))
    out = map_oracle(Hs, ys)
    assert out.shape == (4, 4)
    for i in range(4):
        np.testing.assert_array_equal(out[i], map_oracle(Hs[i], ys[i]))


def test_map_oracle_size_guard(rng):
    H = real_stack(draw_channels(rng, 16, 9))
    with pytest.raises(ValueError):
        map_oracle(H, np.zeros(32))


def test_map_oracle_noiseless_exact(rng):
    H = real_stack(draw_channels(rng, 8, 4))
    x = modulate(rng.integers(0, 2, 8))
    np.testing.assert_array_equal(map_oracle(H, H @ x), x)


def test_qfunc_values():
    assert qfunc(0.0) == pytest.approx(0.5)
    assert qfunc(1.96) == pytest.approx(0.025, abs=1e-3)
    assert qfunc(np.inf) == 0.0
    assert qfunc(-np.inf) == 1.0


def test_siso_awgn_ber_formula():
    # argument is in dB; BER = Q(sqrt(snr_linear)) for antipodal signaling
    for db in [0.0, 6.0, 9.6]:
        lin = 10.0 ** (db / 10.0)
        assert siso_awgn_ber(db) == pytest.approx(qfunc(np.sqrt(lin)))


def test_siso_awgn_ber_monotone():
    snr_db = np.linspace(-5.0, 13.0, 50)
    ber = siso_awgn_ber(snr_db)
    assert np.all(np.diff(ber) < 0)
