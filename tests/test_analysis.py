"""Convergence diagnostics and the LLR perturbation bound."""

import numpy as np
import pytest

from chemp import (
    MpdConfig,
    convergence_condition,
    draw_channels,
    fixed_point_residuals,
    llr_mse_bound,
    llr_mse_empirical,
    matched_filter,
    modulate,
    mpd_detect,
    noise_variance,
    real_stack,
)


def test_convergence_condition_identity():
    rep = convergence_condition(np.eye(8))
    assert rep.diagonal_dominance_fraction == 1.0
    assert rep.anti_dominance_fraction == 0.0


def test_convergence_condition_constructed():
    J = np.array([[1.0, 0.6], [0.6, 1.0]])
    rep = convergence_condition(J)
    # rows satisfy both d > R and d - R < R for d=1, R=0.6
    assert rep.diagonal_dominance_fraction == 1.0
    assert rep.anti_dominance_fraction == 1.0


def test_convergence_condition_hardening_improves_with_antennas(rng):
    def frac(n, k):
        H = real_stack(draw_channels(rng, n, k))
        return convergence_condition(H.T @ H / n).diagonal_dominance_fraction

    assert frac(256, 32) >= frac(32, 32)


def test_fixed_point_residuals_decrease(rng):
    hc = draw_channels(rng, 64, 16)
    x = modulate(rng.integers(0, 2, 32))
    nv = noise_variance(12.0, 16)
    y = real_stack(hc) @ x + rng.normal(0, np.sqrt(nv), 128)
    state = mpd_detect(matched_filter(hc, y[:64] + 1j * y[64:], nv),
                       MpdConfig(iterations=20, track_history=True))
    res = fixed_point_residuals(state)
    assert res.shape == (20,)
    assert res[-1] < res[0]
    assert res[-1] < 1e-3


def test_fixed_point_residuals_requires_history(rng):
    hc = draw_channels(rng, 16, 4)
    y = rng.standard_normal(32)
    state = mpd_detect(matched_filter(hc, y[:16] + 1j * y[16:], 0.5), MpdConfig(iterations=5))
    with pytest.raises(ValueError):
        fixed_point_residuals(state)


def test_fixed_point_residuals_accepts_raw_history():
    hist = [np.array([0.5, 0.5]), np.array([0.6, 0.4]), np.array([0.62, 0.38])]
    res = fixed_point_residuals(hist)
    np.testing.assert_allclose(res, [0.1, 0.02])


def test_llr_mse_bound_positive_and_increasing_in_pilot_noise():
    z = np.array([0.8, -0.5])
    mu = np.zeros(2)
    s2 = np.array([0.3, 0.3])
    lo = llr_mse_bound(0.01, 1.0, 64, z, mu, s2)
    hi = llr_mse_bound(0.05, 1.0, 64, z, mu, s2)
    assert np.all(lo > 0)
    assert np.all(hi > lo)


def test_llr_mse_bound_validation():
    with pytest.raises(ValueError):
        llr_mse_bound(-0.1, 1.0, 64, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        llr_mse_bound(0.1, 1.5, 64, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        llr_mse_bound(0.1, 1.0, 64, 0.0, 0.0, 0.0)


def test_llr_mse_empirical_below_bound(rng):
    mse, bound = llr_mse_empirical(32, 32, 10.0, trials=200, rng=rng,
                                   with_bound=True)
    assert mse > 0
    assert mse <= bound


def test_llr_mse_empirical_decreases_with_snr(rng):
    lo = llr_mse_empirical(32, 32, 6.0, trials=150, rng=rng)
    hi = llr_mse_empirical(32, 32, 14.0, trials=150, rng=rng)
    assert hi < lo
