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


# The engine runs in float32 (unit roundoff 6e-8) over sums of 2K = 16 terms;
# its LLRs and beliefs are compared with a float64 reference (or with the same
# engine summing in another order) at that precision. Over 1,000 seeds the
# largest misfits were 1.6e-6 for one LLR and 2.1e-5 after 10 steps (both
# relative to max(|L|, 1)), and 4.1e-6 for beliefs after 10 steps.
STEP_TOL = dict(rtol=1e-5, atol=1e-5)
RUN_LLR_TOL = dict(rtol=1e-4, atol=1e-4)
RUN_P_TOL = dict(rtol=0.0, atol=2e-5)


def complex_halves(v):
    """[Re, Im] stacked vector(s) (..., 2L) as complex (..., L)."""
    half = v.shape[-1] // 2
    return v[..., :half] + 1j * v[..., half:]


def observation(n, k, snr_db, rng, x=None, dtype=np.complex64):
    hc = draw_channels(rng, n, k).astype(dtype)
    if x is None:
        x = modulate(rng.integers(0, 2, 2 * k))
    nv = noise_variance(snr_db, k)
    w = rng.normal(0.0, np.sqrt(nv), 2 * n)
    yc = hc @ complex_halves(x) + complex_halves(w)
    return matched_filter(hc, yc, nv), hc, x, yc, nv


def test_matched_filter_fields(rng):
    obs, hc, x, yc, nv = observation(32, 16, 10.0, rng, dtype=complex)
    np.testing.assert_allclose(obs.G, hc.conj().T @ hc / 32, atol=1e-12)
    np.testing.assert_allclose(obs.G, obs.G.conj().T)
    # the complex front end equals the real-stacked one
    H = real_stack(hc)
    y = np.concatenate([yc.real, yc.imag])
    np.testing.assert_allclose(obs.J, H.T @ H / 32, atol=1e-12)
    np.testing.assert_allclose(obs.z, H.T @ y / 32, atol=1e-12)
    assert obs.sigma_v_sq == pytest.approx(nv / 32)


def test_matched_filter_batched(rng):
    hcs = draw_channels(rng, 16, 8, 5)
    ycs = complex_halves(rng.standard_normal((5, 32)))
    obs = matched_filter(hcs, ycs, 0.3)
    assert obs.G.shape == (5, 8, 8)
    assert obs.J.shape == (5, 16, 16)
    assert obs.z.shape == (5, 16)
    single = matched_filter(hcs[2], ycs[2], 0.3)
    np.testing.assert_allclose(obs.G[2], single.G)
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
    # permuting the users permutes both halves of the real symbol vector
    rng = np.random.default_rng(seed)
    obs, hc, x, yc, nv = observation(16, 4, 8.0, rng, dtype=complex)
    perm = rng.permutation(4)
    obs_p = matched_filter(hc[:, perm], yc, nv)
    cfg = MpdConfig(iterations=6)
    a = mpd_detect(obs, cfg).p
    b = mpd_detect(obs_p, cfg).p
    # the float32 engine sums in permuted order, so the beliefs agree to a few
    # ulps rather than exactly: over seeds 0-1,999 the largest misfit was 3.0e-8
    np.testing.assert_allclose(b, a[np.concatenate([perm, perm + 4])], rtol=0.0, atol=1e-7)


@given(st.integers(0, 2 ** 31 - 1))
def test_sign_flip_symmetry(seed):
    # rotating user i's column by c in {1, j, -1, -j} relabels its symbol as
    # conj(c) xc_i: beliefs stay, swap halves, or reflect (p' = 1 - p)
    rng = np.random.default_rng(seed)
    obs, hc, x, yc, nv = observation(16, 4, 8.0, rng)
    turn = rng.integers(0, 4, 4)
    obs_f = matched_filter(hc * np.array([1, 1j, -1, -1j])[turn], yc, nv)
    cfg = MpdConfig(iterations=6)
    a = mpd_detect(obs, cfg).p
    b = mpd_detect(obs_f, cfg).p
    re, im = a[:4], a[4:]
    want_re = np.choose(turn, [re, im, 1.0 - re, 1.0 - im])
    want_im = np.choose(turn, [im, 1.0 - re, 1.0 - im, re])
    np.testing.assert_allclose(b, np.concatenate([want_re, want_im]), **RUN_P_TOL)


def test_uniform_beliefs_shape(rng):
    obs, *_ = observation(8, 4, 8.0, rng)
    engine = MpdEngine(obs)
    p = engine.uniform_beliefs()
    assert p.shape == (8,)
    np.testing.assert_allclose(p, 0.5)


def test_engine_batched_uses(rng):
    # one Gram matrix shared by several filtered observations
    hc = draw_channels(rng, 16, 4)
    nv = noise_variance(8.0, 4)
    xs = modulate(rng.integers(0, 2, (3, 8)))
    ys = np.stack([hc @ complex_halves(x) + complex_halves(rng.normal(0, np.sqrt(nv), 32))
                   for x in xs])
    obs_all = matched_filter(np.broadcast_to(hc, (3, 16, 4)), ys, nv)
    state = mpd_detect(obs_all, MpdConfig(iterations=6))
    for u in range(3):
        single = matched_filter(hc, ys[u], nv)
        ref = mpd_detect(single, MpdConfig(iterations=6))
        np.testing.assert_allclose(state.p[u], ref.p, atol=1e-12)


def test_engine_shared_gram_matches_tiled(rng):
    # G (B, 1, K, K) shared by U uses takes one matrix product per Gram; the
    # same Gram tiled per use (B, U, K, K) takes one two-row product per use
    b, u, n, k = 3, 10, 16, 8
    hc = draw_channels(rng, n, k, (b,))
    nv = noise_variance(6.0, k)
    x = modulate(rng.integers(0, 2, (b, u, 2 * k)))
    w = rng.normal(0.0, np.sqrt(nv), (b, u, 2 * n))
    yc = complex_halves(x) @ np.swapaxes(hc, -1, -2) + complex_halves(w)
    shared = matched_filter(hc[:, None], yc, nv)
    assert shared.G.shape == (b, 1, k, k)
    tiled = GramObservation(G=np.repeat(shared.G, u, axis=1), z=shared.z,
                            sigma_v_sq=shared.sigma_v_sq)
    engine = MpdEngine(shared)
    p = rng.uniform(0.05, 0.95, shared.z.shape).astype(np.float32)
    np.testing.assert_allclose(engine.llr(p), MpdEngine(tiled).llr(p), **STEP_TOL)
    cfg = MpdConfig(iterations=10)
    a, c = mpd_detect(shared, cfg), mpd_detect(tiled, cfg)
    np.testing.assert_allclose(a.llr, c.llr, **RUN_LLR_TOL)
    np.testing.assert_allclose(a.p, c.p, **RUN_P_TOL)
    np.testing.assert_array_equal(hard_decision(a), hard_decision(c))
    # shared, the engine keeps the zero-diagonal J^T and its square once per Gram;
    # per use, V + W hold 2 K x 2K reals per Gram; every real is a 4-byte float32
    per_use = MpdEngine(tiled)
    for eng, grams, reals in ((engine, b, 2 * (2 * k) ** 2), (per_use, b * u, 2 * k * 2 * k)):
        state = sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))
        assert eng.v.nbytes + eng.w.nbytes == grams * reals * 4
        assert state == grams * reals * 4 + eng.diag.nbytes + shared.z.size * 4


@pytest.mark.parametrize("shared", [False, True], ids=["per-use", "shared-gram"])
@pytest.mark.parametrize("aitken", [False, True])
def test_batch_mates_do_not_change_a_result(rng, shared, aitken):
    # a trial detected inside a batch gets exactly the beliefs and LLRs it
    # gets alone: the loop runs a fixed step count with no batch-wide test
    b, u, n, k = 6, 5, 16, 8
    use = (u,) if shared else ()
    hc = draw_channels(rng, n, k, b)
    nv = noise_variance(4.0, k)
    x = modulate(rng.integers(0, 2, (b,) + use + (2 * k,)))
    w = rng.normal(0.0, np.sqrt(nv), (b,) + use + (2 * n,))
    h = hc[:, None] if shared else hc
    yc = (h @ complex_halves(x)[..., None])[..., 0] + complex_halves(w)
    obs = matched_filter(h, yc, nv)
    assert MpdEngine(obs).shared == shared
    cfg = MpdConfig(iterations=20, aitken=aitken)
    batch = mpd_detect(obs, cfg)
    for i in range(b):
        alone = mpd_detect(GramObservation(G=obs.G[i], z=obs.z[i],
                                           sigma_v_sq=obs.sigma_v_sq), cfg)
        assert np.array_equal(batch.p[i], alone.p)
        assert np.array_equal(batch.llr[i], alone.llr)


def dense_reference_llr(obs, p, clip=50.0):
    """The detector's LLR from the full real-stacked Gram J, as J s per use,
    in float64; a Gram shared by a use axis (G (..., 1, K, K) or (K, K))
    broadcasts over it."""
    p = np.asarray(p, dtype=float)
    off = real_stack(obs.G)
    d = np.diagonal(off, axis1=-2, axis2=-1).copy()
    idx = np.arange(off.shape[-1])
    off[..., idx, idx] = 0.0
    mu = (off @ (2.0 * p - 1.0)[..., None])[..., 0]
    var = ((off ** 2) @ (4.0 * p * (1.0 - p))[..., None])[..., 0] + obs.sigma_v_sq
    return np.clip(2.0 * d * (obs.z - mu) / var, -clip, clip)


@pytest.mark.parametrize("batch", [(), (7,)])
def test_engine_per_use_matches_dense_reference(rng, batch):
    n, k = 16, 8
    hc = draw_channels(rng, n, k, batch)
    nv = noise_variance(6.0, k)
    x = modulate(rng.integers(0, 2, batch + (2 * k,)))
    w = rng.normal(0.0, np.sqrt(nv), batch + (2 * n,))
    yc = (hc @ complex_halves(x)[..., None])[..., 0] + complex_halves(w)
    obs = matched_filter(hc, yc, nv)
    engine = MpdEngine(obs)
    assert engine.v.shape == batch + (k, 2 * k)
    p = rng.uniform(0.05, 0.95, obs.z.shape).astype(np.float32)
    np.testing.assert_allclose(engine.llr(p), dense_reference_llr(obs, p), **STEP_TOL)
    cfg = MpdConfig(iterations=10)
    state = mpd_detect(obs, cfg)
    p = np.full(obs.z.shape, 0.5)
    for _ in range(cfg.iterations):
        L = dense_reference_llr(obs, p)
        p = (1.0 - cfg.damping) / (1.0 + np.exp(-L)) + cfg.damping * p
    np.testing.assert_allclose(state.llr, L, **RUN_LLR_TOL)
    np.testing.assert_allclose(state.p, p, **RUN_P_TOL)


@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-hermitian"])
def test_engine_shared_gram_matches_dense_reference(rng, hermitian):
    # the shared engine keeps J^T and forms s J^T; storing J there gives
    # J^T s, which equals J s only for a Hermitian G
    b, u, n, k = 3, 7, 16, 8
    hc = draw_channels(rng, n, k, b)
    yc = complex_halves(rng.standard_normal((b, u, 2 * n)))
    obs = matched_filter(hc[:, None], yc, noise_variance(6.0, k))
    if not hermitian:
        skew = complex_halves(rng.standard_normal((b, 1, k, 2 * k))) / np.sqrt(n)
        obs = GramObservation(G=obs.G + skew, z=obs.z, sigma_v_sq=obs.sigma_v_sq)
        assert not np.allclose(obs.G, np.conj(np.swapaxes(obs.G, -1, -2)), atol=0.1)
    engine = MpdEngine(obs)
    assert engine.shared and engine.v.shape == (b, 1, 2 * k, 2 * k)
    p = rng.uniform(0.05, 0.95, obs.z.shape).astype(np.float32)
    np.testing.assert_allclose(engine.llr(p), dense_reference_llr(obs, p), **STEP_TOL)


@pytest.mark.parametrize("shared", [False, True], ids=["per-use", "shared-gram"])
def test_engine_runs_in_float32(rng, shared):
    # the engine's state, LLRs and beliefs are float32 from a float64
    # observation (a complex128 channel's), through Aitken extrapolation and
    # a float64 prior
    b, u, n, k = 3, 6, 16, 8
    use = (u,) if shared else ()
    hc = draw_channels(rng, n, k, b).astype(complex)
    h = hc[:, None] if shared else hc
    yc = complex_halves(rng.standard_normal((b,) + use + (2 * n,)))
    obs = matched_filter(h, yc, 0.5)
    assert obs.G.dtype == complex and obs.z.dtype == float
    engine = MpdEngine(obs)
    assert engine.shared == shared
    for a in (engine.v, engine.w, engine.diag, engine.z, engine.uniform_beliefs()):
        assert a.dtype == np.float32
    assert engine.llr(engine.uniform_beliefs()).dtype == np.float32
    prior = rng.standard_normal(obs.z.shape)
    assert prior.dtype == float
    # llr and step cast float64 beliefs and priors, as run does
    p64 = rng.uniform(0.05, 0.95, obs.z.shape)
    p32 = p64.astype(np.float32)
    L = engine.llr(p64)
    assert L.dtype == np.float32 and np.array_equal(L, engine.llr(p32))
    for got, want in zip(engine.step(p64, 0.33, prior),
                         engine.step(p32, 0.33, prior.astype(np.float32))):
        assert got.dtype == np.float32 and np.array_equal(got, want)
    cfg = MpdConfig(iterations=7, aitken=True, track_history=True)
    for p0 in (None, np.full(obs.z.shape, 0.3)):
        state = engine.run(cfg, p=p0, prior=prior)
        assert state.p.dtype == state.llr.dtype == np.float32
        assert all(snap.dtype == np.float32 for snap in state.history)
    assert mpd_detect(obs, MpdConfig(iterations=0)).llr.dtype == np.float32


def test_aitken_step_keeps_dtype():
    seq = [np.array([0.7 + 0.2 * 0.5 ** t], dtype=np.float32) for t in range(3)]
    assert aitken_step(*seq).dtype == np.float32
    assert aitken_step(*(s.astype(float) for s in seq)).dtype == float
    assert aitken_step(np.array([0]), np.array([1]), np.array([1])).dtype == float


def test_zero_iterations_returns_uniform(rng):
    obs, *_ = observation(8, 4, 8.0, rng)
    state = mpd_detect(obs, MpdConfig(iterations=0))
    np.testing.assert_allclose(state.p, 0.5)
    np.testing.assert_array_equal(state.llr, 0.0)


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


def test_multi_start_fixed_point(rng):
    # at high hardening the iteration lands on the same decisions from any start
    obs, H, x, *_ = observation(64, 16, 12.0, rng)
    cfg = MpdConfig(iterations=30)
    base = mpd_detect(obs, cfg)
    for _ in range(3):
        init = rng.random(32)
        other = MpdEngine(obs).run(cfg, p=init)
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


def test_gram_observation_validation():
    with pytest.raises(ValueError):
        GramObservation(G=np.zeros((4, 5)), z=np.zeros(8), sigma_v_sq=0.1)
    with pytest.raises(ValueError):
        GramObservation(G=np.zeros((4, 4)), z=np.zeros(4), sigma_v_sq=0.1)
