"""Message passing detector: filtering, iteration, damping, acceleration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chemp import (
    GramObservation,
    MpdConfig,
    MpdEngine,
    draw_channels,
    hard_decision,
    matched_filter,
    modulate,
    mpd_detect,
    noise_variance,
    real_stack,
)
from chemp.mpd import _guarded_aitken


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
    """One channel and one use: x (1, 2K) and yc (1, N)."""
    hc = draw_channels(rng, n, k).astype(dtype)
    if x is None:
        x = modulate(rng.integers(0, 2, (1, 2 * k)))
    nv = noise_variance(snr_db, k)
    w = rng.normal(0.0, np.sqrt(nv), (1, 2 * n))
    yc = complex_halves(x) @ hc.T + complex_halves(w)
    return matched_filter(hc, yc, nv), hc, x, yc, nv


def test_matched_filter_fields(rng):
    obs, hc, x, yc, nv = observation(32, 16, 10.0, rng, dtype=complex)
    np.testing.assert_allclose(obs.G, hc.conj().T @ hc / 32, atol=1e-12)
    np.testing.assert_allclose(obs.G, obs.G.conj().T)
    # the complex front end equals the real-stacked one
    H = real_stack(hc)
    y = np.concatenate([yc.real, yc.imag], axis=-1)
    np.testing.assert_allclose(obs.J, H.T @ H / 32, atol=1e-12)
    np.testing.assert_allclose(obs.z, y @ H / 32, atol=1e-12)
    assert obs.sigma_v_sq == pytest.approx(nv / 32)


def test_matched_filter_batched(rng):
    hcs = draw_channels(rng, 16, 8, 5)
    ycs = complex_halves(rng.standard_normal((5, 1, 32)))
    obs = matched_filter(hcs, ycs, 0.3)
    assert obs.G.shape == (5, 8, 8)
    assert obs.J.shape == (5, 16, 16)
    assert obs.z.shape == (5, 1, 16)
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
    np.testing.assert_allclose(b, a[..., np.concatenate([perm, perm + 4])], rtol=0.0, atol=1e-7)


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
    re, im = a[0, :4], a[0, 4:]
    want_re = np.choose(turn, [re, im, 1.0 - re, 1.0 - im])
    want_im = np.choose(turn, [im, 1.0 - re, 1.0 - im, re])
    np.testing.assert_allclose(b[0], np.concatenate([want_re, want_im]), **RUN_P_TOL)


def test_uniform_beliefs_shape(rng):
    obs, *_ = observation(8, 4, 8.0, rng)
    engine = MpdEngine(obs)
    p = engine.uniform_beliefs()
    assert p.shape == (1, 8)
    np.testing.assert_allclose(p, 0.5)


def test_engine_batched_uses(rng):
    # one Gram matrix copied to several channels, one filtered use each
    hc = draw_channels(rng, 16, 4)
    nv = noise_variance(8.0, 4)
    xs = modulate(rng.integers(0, 2, (3, 8)))
    ys = np.stack([hc @ complex_halves(x) + complex_halves(rng.normal(0, np.sqrt(nv), 32))
                   for x in xs])
    obs_all = matched_filter(np.broadcast_to(hc, (3, 16, 4)), ys.reshape(3, 1, 16), nv)
    state = mpd_detect(obs_all, MpdConfig(iterations=6))
    for u in range(3):
        single = matched_filter(hc, ys[u:u + 1], nv)
        ref = mpd_detect(single, MpdConfig(iterations=6))
        np.testing.assert_allclose(state.p[u], ref.p, atol=1e-12)


def test_engine_shared_gram_matches_tiled(rng):
    # G (B, K, K) shared by U uses takes one matrix product per Gram; the
    # same Gram tiled per use (B, U, K, K), z (B, U, 1, 2K), takes one
    # two-row product per use
    b, u, n, k = 3, 10, 16, 8
    hc = draw_channels(rng, n, k, (b,))
    nv = noise_variance(6.0, k)
    x = modulate(rng.integers(0, 2, (b, u, 2 * k)))
    w = rng.normal(0.0, np.sqrt(nv), (b, u, 2 * n))
    yc = complex_halves(x) @ np.swapaxes(hc, -1, -2) + complex_halves(w)
    shared = matched_filter(hc, yc, nv)
    assert shared.G.shape == (b, k, k)
    tiled = GramObservation(G=np.repeat(shared.G[:, None], u, axis=1),
                            z=shared.z[..., None, :], sigma_v_sq=shared.sigma_v_sq)
    engine = MpdEngine(shared)
    p = rng.uniform(0.05, 0.95, shared.z.shape).astype(np.float32)
    per_use_llr = MpdEngine(tiled).llr(p[..., None, :]).reshape(p.shape)
    np.testing.assert_allclose(engine.llr(p), per_use_llr, **STEP_TOL)
    cfg = MpdConfig(iterations=10)
    a, c = mpd_detect(shared, cfg), mpd_detect(tiled, cfg)
    np.testing.assert_allclose(a.llr, c.llr.reshape(a.llr.shape), **RUN_LLR_TOL)
    np.testing.assert_allclose(a.p, c.p.reshape(a.p.shape), **RUN_P_TOL)
    np.testing.assert_array_equal(hard_decision(a), hard_decision(c).reshape(a.p.shape))
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
    # gets alone, unbatched or as a batch of one: the loop runs a fixed step
    # count with no batch-wide test, and the step follows the use count only
    b, u, n, k = 6, 5, 16, 8
    use = u if shared else 1
    hc = draw_channels(rng, n, k, b)
    nv = noise_variance(4.0, k)
    x = modulate(rng.integers(0, 2, (b, use, 2 * k)))
    w = rng.normal(0.0, np.sqrt(nv), (b, use, 2 * n))
    yc = (hc[:, None] @ complex_halves(x)[..., None])[..., 0] + complex_halves(w)
    obs = matched_filter(hc, yc, nv)
    assert MpdEngine(obs).shared == shared
    cfg = MpdConfig(iterations=20, aitken=aitken)
    batch = mpd_detect(obs, cfg)
    for i in range(b):
        for rows in (i, slice(i, i + 1)):
            alone = mpd_detect(GramObservation(G=obs.G[rows], z=obs.z[rows],
                                               sigma_v_sq=obs.sigma_v_sq), cfg)
            assert np.array_equal(batch.p[rows], alone.p)
            assert np.array_equal(batch.llr[rows], alone.llr)


def dense_reference_llr(obs, p, clip=50.0):
    """The detector's LLR from the full real-stacked Gram J, as J s per use,
    in float64; each Gram broadcasts over the use axis of p."""
    p = np.asarray(p, dtype=float)
    off = real_stack(obs.G)[..., None, :, :]
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
    x = modulate(rng.integers(0, 2, batch + (1, 2 * k)))
    w = rng.normal(0.0, np.sqrt(nv), batch + (1, 2 * n))
    yc = complex_halves(x) @ np.swapaxes(hc, -1, -2) + complex_halves(w)
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
    obs = matched_filter(hc, yc, noise_variance(6.0, k))
    if not hermitian:
        skew = complex_halves(rng.standard_normal((b, k, 2 * k))) / np.sqrt(n)
        obs = GramObservation(G=obs.G + skew, z=obs.z, sigma_v_sq=obs.sigma_v_sq)
        assert not np.allclose(obs.G, np.conj(np.swapaxes(obs.G, -1, -2)), atol=0.1)
    engine = MpdEngine(obs)
    assert engine.shared and engine.v.shape == (b, 2 * k, 2 * k)
    p = rng.uniform(0.05, 0.95, obs.z.shape).astype(np.float32)
    np.testing.assert_allclose(engine.llr(p), dense_reference_llr(obs, p), **STEP_TOL)


@pytest.mark.parametrize("shared", [False, True], ids=["per-use", "shared-gram"])
def test_engine_runs_in_float32(rng, shared):
    # the engine's state, LLRs and beliefs are float32 from a float64
    # observation (a complex128 channel's), through Aitken extrapolation and
    # a float64 prior
    b, u, n, k = 3, 6, 16, 8
    use = u if shared else 1
    hc = draw_channels(rng, n, k, b).astype(complex)
    yc = complex_halves(rng.standard_normal((b, use, 2 * n)))
    obs = matched_filter(hc, yc, 0.5)
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
    cfg = MpdConfig(iterations=7, aitken=True)
    for p0 in (None, np.full(obs.z.shape, 0.3)):
        state = engine.run(cfg, p=p0, prior=prior)
        assert state.p.dtype == state.llr.dtype == np.float32
        assert all(L.dtype == p.dtype == np.float32
                   for L, p in engine.iterate(cfg, p=p0, prior=prior))
    assert mpd_detect(obs, MpdConfig(iterations=0)).llr.dtype == np.float32


def test_aitken_step_keeps_dtype():
    seq = [np.array([0.7 + 0.2 * 0.5 ** t], dtype=np.float32) for t in range(3)]
    assert _guarded_aitken(*seq).dtype == np.float32
    assert _guarded_aitken(*(s.astype(float) for s in seq)).dtype == float


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


@pytest.mark.parametrize("aitken", [False, True])
def test_iterate_yields_every_step_and_ends_where_run_does(rng, aitken):
    obs, *_ = observation(16, 8, 8.0, rng)
    engine = MpdEngine(obs)
    cfg = MpdConfig(iterations=7, aitken=aitken)
    prior = rng.standard_normal(obs.z.shape)
    # copies taken as each pair is yielded: no yielded array is written later
    seen = [(L.copy(), p.copy()) for L, p in engine.iterate(cfg, prior=prior)]
    pairs = list(engine.iterate(cfg, prior=prior))
    assert len(pairs) == cfg.iterations
    for (L, p), (L0, p0) in zip(pairs, seen):
        assert L.dtype == p.dtype == np.float32
        assert np.array_equal(L, L0) and np.array_equal(p, p0)
    state = engine.run(cfg, prior=prior)
    assert np.array_equal(pairs[-1][0], state.llr) and np.array_equal(pairs[-1][1], state.p)
    if not aitken:
        for (_, before), after in zip(pairs, pairs[1:]):
            for got, want in zip(after, engine.step(before, cfg.damping, prior)):
                assert np.array_equal(got, want)


def test_multi_start_fixed_point(rng):
    # at high hardening the iteration lands on the same decisions from any start
    obs, H, x, *_ = observation(64, 16, 12.0, rng)
    cfg = MpdConfig(iterations=30)
    base = mpd_detect(obs, cfg)
    for _ in range(3):
        init = rng.random((1, 32))
        other = MpdEngine(obs).run(cfg, p=init)
        np.testing.assert_array_equal(hard_decision(base), hard_decision(other))


def test_aitken_step_exact_on_geometric():
    # for p_t = p* + c r^t the extrapolation returns p* exactly
    p_star, c, r = 0.7, 0.2, 0.5
    seq = [p_star + c * r ** t for t in range(3)]
    out = _guarded_aitken(np.array([seq[0]]), np.array([seq[1]]), np.array([seq[2]]))
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
        GramObservation(G=np.zeros((4, 5)), z=np.zeros((1, 8)), sigma_v_sq=0.1)
    with pytest.raises(ValueError):
        GramObservation(G=np.zeros((4, 4)), z=np.zeros((1, 4)), sigma_v_sq=0.1)
    # z needs a use axis, and G's leading axes
    for G, z in (((4, 4), (8,)), ((3, 4, 4), (3, 8)), ((3, 4, 4), (2, 5, 8)),
                 ((3, 4, 4), (1, 5, 8)), ((3, 4, 4), (3, 1, 5, 8))):
        with pytest.raises(ValueError, match="use axis|leading axes"):
            GramObservation(G=np.eye(4) * np.ones(G), z=np.zeros(z), sigma_v_sq=0.1)
    GramObservation(G=np.eye(4) * np.ones((3, 4, 4)), z=np.zeros((3, 5, 8)), sigma_v_sq=0.1)


def test_matched_filter_needs_a_use_axis_on_the_channels_leading_axes(rng):
    hc = draw_channels(rng, 16, 8, 5)
    # the old per-use call would pair every channel with every received vector
    for shape in ((5, 16), (16,), (4, 1, 16), (1, 1, 16), (5, 1, 15), (5, 2, 1, 16)):
        with pytest.raises(ValueError, match=r"\(\.\.\., U, N\)"):
            matched_filter(hc, np.zeros(shape), 0.3)
    assert matched_filter(hc, np.zeros((5, 3, 16)), 0.3).z.shape == (5, 3, 16)
    assert matched_filter(hc[0], np.zeros((3, 16)), 0.3).z.shape == (3, 16)
