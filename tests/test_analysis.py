"""Convergence diagnostics and the LLR perturbation bound."""

import numpy as np
import pytest

from chemp import (
    MpdConfig,
    MpdEngine,
    convergence_condition,
    draw_channels,
    fixed_point_residuals,
    gram,
    llr_mse_bound,
    llr_mse_empirical,
    matched_filter,
    noise_variance,
    transmit,
)


def test_convergence_condition_identity():
    rep = convergence_condition(np.eye(8))
    assert np.all(rep.diagonal_dominance)
    assert not np.any(rep.anti_dominance)


def test_convergence_condition_constructed():
    J = np.array([[1.0, 0.6], [0.6, 1.0]])
    rep = convergence_condition(J)
    # rows satisfy both d > R and d - R < R for d=1, R=0.6
    assert np.all(rep.diagonal_dominance)
    assert np.all(rep.anti_dominance)


def test_convergence_condition_hardening_improves_with_antennas(rng):
    def frac(n, k):
        return np.mean(convergence_condition(gram(draw_channels(rng, n, k))).diagonal_dominance)

    assert frac(256, 32) >= frac(32, 32)


def test_fixed_point_residuals_decrease(rng):
    hc = draw_channels(rng, 64, 16, 3)
    nv = noise_variance(12.0, 16)
    engine = MpdEngine(matched_filter(hc, transmit(rng, hc, nv)[1], nv))
    res = fixed_point_residuals(engine, MpdConfig(iterations=20))
    assert res.shape == (20, 3, 1)
    assert np.all(res[-1] < res[0])
    assert np.all(res[-1] < 1e-3)


@pytest.mark.parametrize("aitken", [False, True])
def test_fixed_point_residuals_match_the_iterates(rng, aitken):
    # the sup-norm differences of the whole belief sequence, bit for bit
    hc = draw_channels(rng, 16, 4, 5)
    nv = noise_variance(6.0, 4)
    engine = MpdEngine(matched_filter(hc, transmit(rng, hc, nv)[1], nv))
    cfg = MpdConfig(iterations=9, aitken=aitken)
    beliefs = np.stack([engine.uniform_beliefs()] + [p for _, p in engine.iterate(cfg)])
    want = np.max(np.abs(beliefs[1:] - beliefs[:-1]), axis=-1)
    assert np.array_equal(fixed_point_residuals(engine, cfg), want)


def test_fixed_point_residuals_need_a_step(rng):
    hc = draw_channels(rng, 16, 4)
    y = rng.standard_normal((1, 32))
    engine = MpdEngine(matched_filter(hc, y[:, :16] + 1j * y[:, 16:], 0.5))
    with pytest.raises(ValueError):
        fixed_point_residuals(engine, MpdConfig(iterations=0))


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
    mse, bound = llr_mse_empirical(32, 32, 10.0, trials=200, rng=rng)
    assert mse > 0
    assert mse <= bound


def test_llr_mse_empirical_decreases_with_snr(rng):
    lo, _ = llr_mse_empirical(32, 32, 6.0, trials=150, rng=rng)
    hi, _ = llr_mse_empirical(32, 32, 14.0, trials=150, rng=rng)
    assert hi < lo


@pytest.mark.parametrize("trials", [0, -3])
def test_llr_mse_empirical_needs_a_trial(rng, trials):
    with pytest.raises(ValueError, match="at least one trial"):
        llr_mse_empirical(8, 4, 10.0, trials=trials, rng=rng)
