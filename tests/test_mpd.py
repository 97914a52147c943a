"""Message passing detector: filtering, iteration, damping, acceleration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chemp import (
    GramObservation,
    MpdConfig,
    MpdEngine,
    aitken_step,
    draw_channels,
    hard_decision,
    matched_filter,
    modulate,
    mpd_detect,
    noise_variance,
    real_stack,
)


def observation(n, k, snr_db, rng, x=None):
    H = real_stack(draw_channels(rng, n, k))
    if x is None:
        x = modulate(rng.integers(0, 2, 2 * k))
    nv = noise_variance(snr_db, k)
    w = rng.normal(0.0, np.sqrt(nv), 2 * n)
    y = H @ x + w
    return matched_filter(H, y, nv, n), H, x, y, nv


def test_matched_filter_fields(rng):
    obs, H, x, y, nv = observation(32, 16, 10.0, rng)
    np.testing.assert_allclose(obs.J, H.T @ H / 32, atol=1e-12)
    np.testing.assert_allclose(obs.z, H.T @ y / 32, atol=1e-12)
    assert obs.sigma_v_sq == pytest.approx(nv / 32)


def test_matched_filter_default_antenna_count(rng):
    H = real_stack(draw_channels(rng, 16, 8))
    y = rng.standard_normal(32)
    a = matched_filter(H, y, 0.5)
    b = matched_filter(H, y, 0.5, 16)
    np.testing.assert_allclose(a.J, b.J)
    np.testing.assert_allclose(a.z, b.z)


def test_matched_filter_batched(rng):
    Hs = np.stack([real_stack(draw_channels(rng, 16, 8)) for _ in range(5)])
    ys = rng.standard_normal((5, 32))
    obs = matched_filter(Hs, ys, 0.3, 16)
    assert obs.J.shape == (5, 16, 16)
    assert obs.z.shape == (5, 16)
    single = matched_filter(Hs[2], ys[2], 0.3, 16)
    np.testing.assert_allclose(obs.J[2], single.J)
    np.testing.assert_allclose(obs.z[2], single.z)


def test_noiseless_single_user_exact(rng):
    # 300 dB: numerically noiseless while keeping a positive variance estimate
    obs, H, x, y, _ = observation(4, 1, 300.0, rng)
    state = mpd_detect(obs, MpdConfig(iterations=10, damping=0.0))
    np.testing.assert_array_equal(hard_decision(state), x)


def test_high_snr_detection_recovers_symbols(rng):
    obs, H, x, *_ = observation(64, 16, 14.0, rng)
    state = mpd_detect(obs, MpdConfig())
    np.testing.assert_array_equal(hard_decision(state), x)


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 0.9))
def test_beliefs_stay_in_unit_interval(seed, damping):
    rng = np.random.default_rng(seed)
    obs, *_ = observation(16, 8, 6.0, rng)
    state = mpd_detect(obs, MpdConfig(iterations=8, damping=damping))
    assert np.all(state.p >= 0.0) and np.all(state.p <= 1.0)
    assert np.all(np.abs(state.llr) <= 50.0 + 1e-9)


@given(st.integers(0, 2 ** 31 - 1))
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    obs, H, x, y, nv = observation(16, 4, 8.0, rng)
    perm = rng.permutation(8)
    obs_p = matched_filter(H[:, perm], y, nv, 16)
    cfg = MpdConfig(iterations=6)
    a = mpd_detect(obs, cfg).p
    b = mpd_detect(obs_p, cfg).p
    np.testing.assert_allclose(b, a[perm], atol=1e-10)


@given(st.integers(0, 2 ** 31 - 1))
def test_sign_flip_symmetry(seed):
    rng = np.random.default_rng(seed)
    obs, H, x, y, nv = observation(16, 4, 8.0, rng)
    signs = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    obs_f = matched_filter(H * signs, y, nv, 16)
    cfg = MpdConfig(iterations=6)
    a = mpd_detect(obs, cfg).p
    b = mpd_detect(obs_f, cfg).p
    # flipping column i relabels symbol i, so beliefs reflect: p' = p or 1-p
    np.testing.assert_allclose(np.where(signs > 0, a, 1.0 - a), b, atol=1e-10)


def test_uniform_beliefs_shape(rng):
    obs, *_ = observation(8, 4, 8.0, rng)
    engine = MpdEngine(obs)
    p = engine.uniform_beliefs()
    assert p.shape == (8,)
    np.testing.assert_allclose(p, 0.5)


def test_engine_batched_uses(rng):
    # one Gram matrix shared by several filtered observations
    H = real_stack(draw_channels(rng, 16, 4))
    nv = noise_variance(8.0, 4)
    xs = modulate(rng.integers(0, 2, (3, 8)))
    ys = np.stack([H @ x + rng.normal(0, np.sqrt(nv), 32) for x in xs])
    obs_all = matched_filter(np.broadcast_to(H, (3, 32, 8)), ys, nv, 16)
    state = mpd_detect(obs_all, MpdConfig(iterations=6))
    for u in range(3):
        single = matched_filter(H, ys[u], nv, 16)
        ref = mpd_detect(single, MpdConfig(iterations=6))
        np.testing.assert_allclose(state.p[u], ref.p, atol=1e-12)


def test_zero_iterations_returns_uniform(rng):
    obs, *_ = observation(8, 4, 8.0, rng)
    state = mpd_detect(obs, MpdConfig(iterations=0))
    np.testing.assert_allclose(state.p, 0.5)
    assert state.iteration == 0


def test_damping_blends_iterates(rng):
    obs, *_ = observation(16, 8, 8.0, rng)
    engine = MpdEngine(obs)
    p0 = engine.uniform_beliefs()
    _, p_free = engine.step(p0, 0.0)
    _, p_damped = engine.step(p0, 0.4)
    np.testing.assert_allclose(p_damped, 0.6 * p_free + 0.4 * p0, atol=1e-12)


def test_history_tracking(rng):
    obs, *_ = observation(16, 8, 8.0, rng)
    state = mpd_detect(obs, MpdConfig(iterations=5, track_history=True))
    assert state.history is not None
    assert len(state.history) == 6  # initial beliefs plus one snapshot per step
    np.testing.assert_allclose(state.history[0], 0.5)
    np.testing.assert_allclose(state.history[-1], state.p)


def test_convergence_tolerance_stops_early(rng):
    obs, *_ = observation(64, 8, 16.0, rng)
    state = mpd_detect(obs, MpdConfig(iterations=50, convergence_tol=1e-8))
    assert state.iteration < 50


def test_multi_start_fixed_point(rng):
    # at high hardening the iteration lands on the same decisions from any start
    obs, H, x, *_ = observation(64, 16, 12.0, rng)
    cfg = MpdConfig(iterations=30)
    base = mpd_detect(obs, cfg)
    for _ in range(3):
        init = rng.random(32)
        other = mpd_detect(obs, cfg, p_init=init)
        np.testing.assert_array_equal(hard_decision(base), hard_decision(other))


def test_aitken_step_exact_on_geometric():
    # for p_t = p* + c r^t the extrapolation returns p* exactly
    p_star, c, r = 0.7, 0.2, 0.5
    seq = [p_star + c * r ** t for t in range(3)]
    out = aitken_step(np.array([seq[0]]), np.array([seq[1]]), np.array([seq[2]]))
    assert out[0] == pytest.approx(p_star, abs=1e-12)


def test_aitken_detection_stays_valid(rng):
    obs, H, x, *_ = observation(64, 16, 12.0, rng)
    state = mpd_detect(obs, MpdConfig(iterations=20, aitken=True))
    assert np.all(state.p >= 0.0) and np.all(state.p <= 1.0)
    np.testing.assert_array_equal(hard_decision(state), x)


def test_extrinsic_prior_shifts_beliefs(rng):
    obs, H, x, *_ = observation(16, 8, 6.0, rng)
    engine = MpdEngine(obs)
    p0 = engine.uniform_beliefs()
    prior = 8.0 * x  # strong correct prior
    _, p1 = engine.step(p0, 0.0, extrinsic_llr=prior)
    np.testing.assert_array_equal(np.where(p1 >= 0.5, 1.0, -1.0), x)


def test_hard_decision_tie_goes_positive():
    np.testing.assert_array_equal(hard_decision(np.array([0.5, 0.49, 0.51])),
                                  [1.0, -1.0, 1.0])


def test_config_validation():
    with pytest.raises(ValueError):
        MpdConfig(iterations=-1)
    with pytest.raises(ValueError):
        MpdConfig(damping=1.0)
    with pytest.raises(ValueError):
        MpdConfig(llr_clip=0.0)


def test_gram_observation_validation():
    with pytest.raises(ValueError):
        GramObservation(J=np.zeros((4, 5)), z=np.zeros(4), sigma_v_sq=0.1)
    with pytest.raises(ValueError):
        GramObservation(J=np.zeros((4, 4)), z=np.zeros(5), sigma_v_sq=0.1)
