"""End-to-end acceptance checks.

Each test exercises one published behavioral claim at its stated scale and
tolerance and prints exactly one PASS/FAIL line with the measured numbers.
The long sweeps run on every core; a point does not depend on the worker
count.
"""

import json
import os

import numpy as np
import pytest
from scipy.special import erfcinv

from chemp import (
    JointConfig,
    MpdConfig,
    MpdEngine,
    SimConfig,
    TABLE_PROFILES,
    bits_to_symbols,
    bp_decode_batch,
    build_code,
    build_sweep_code,
    draw_channels,
    encode,
    fixed_point_residuals,
    gram,
    hard_decision,
    hardening_report,
    joint_detect_decode,
    llr_mse_empirical,
    map_oracle,
    matched_filter,
    mp_distance,
    mpd_detect,
    noise_variance,
    count_operations,
    run_coded_sweep,
    run_uncoded_sweep,
    real_stack,
    transmit,
)


# workers of the long sweeps (AC06, AC12, AC13); AC14 checks the invariance
WORKERS = os.cpu_count() or 1


def verdict(num: int, ok: bool, detail: str) -> str:
    line = f"AC{num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def uncoded_cfg(**over):
    base = dict(n_antennas=64, n_users=64, receiver="mpd", seed=20260817,
                target_errors=100, max_trials=100_000, batch_size=200)
    base.update(over)
    return SimConfig(**base)


def log_crossing(points, level):
    """SNR where a BER curve crosses `level`, by log-linear interpolation."""
    pts = [(p.snr_db, max(p.ber, 0.5 / p.bits)) for p in points]
    for (s0, b0), (s1, b1) in zip(pts, pts[1:]):
        if b0 >= level >= b1:
            t = (np.log(level) - np.log(b0)) / (np.log(b1) - np.log(b0))
            return s0 + t * (s1 - s0)
    return None


# ---------------------------------------------------------------------------


def test_ac01_hardening_ratio():
    # off-diagonal leakage of J shrinks like 1/sqrt(N): quadrupling the array
    # at full loading should halve the rms, within [0.4, 0.6]
    rng = np.random.default_rng(101)

    def mean_rms(n):
        rep = hardening_report(gram(draw_channels(rng, n, n, 100)))
        return float(np.mean(rep.offdiag_rms))

    ratio = mean_rms(64) / mean_rms(16)
    ok = 0.4 <= ratio <= 0.6
    line = verdict(1, ok, f"offdiag rms ratio N=64/N=16 = {ratio:.4f}, "
                          f"required [0.40, 0.60] (theory 0.5)")
    assert ok, line


def test_ac02_limiting_eigenvalue_law():
    rng = np.random.default_rng(102)
    ks = mp_distance(draw_channels(rng, 256, 256))
    ok = ks < 0.05
    line = verdict(2, ok, f"KS distance to limiting law at N=K=256: {ks:.4f} < 0.05")
    assert ok, line


def test_ac03_map_agreement():
    # N=8, K=4, 10 dB: hard decisions match the exhaustive minimum-distance
    # rule on >= 95% of 10^4 trials
    rng = np.random.default_rng(103)
    n, k, trials, batch = 8, 4, 10_000, 500
    nv = noise_variance(10.0, k)
    agree = 0
    for _ in range(trials // batch):
        hcs = draw_channels(rng, n, k, batch)
        obs = matched_filter(hcs, transmit(rng, hcs, nv)[1], nv)
        xh = hard_decision(mpd_detect(obs, MpdConfig()))
        xm = map_oracle(obs)
        agree += int(np.sum(np.all(xh == xm, axis=-1)))
    frac = agree / trials
    ok = frac >= 0.95
    line = verdict(3, ok, f"exhaustive-rule agreement {frac:.4f} over {trials} "
                          f"trials at N=8 K=4 10 dB, required >= 0.95")
    assert ok, line


def test_ac04_damping_optimum():
    # N=K=64 at 12 dB, 20 iterations, >= 2e5 bits per setting: the 0.33
    # damping beats both the undamped and the heavily damped schedules by
    # more than the 95% confidence half-widths
    pts = {}
    for d in (0.0, 0.33, 0.7):
        cfg = uncoded_cfg(snr_db=(12.0,), seed=104, target_errors=10 ** 9,
                          max_trials=1600, mpd=MpdConfig(damping=d))
        pts[d] = run_uncoded_sweep(cfg).points[0]
    b = {d: p.ber for d, p in pts.items()}
    ci = {d: p.ci_halfwidth for d, p in pts.items()}
    m0 = b[0.0] - b[0.33]
    m7 = b[0.7] - b[0.33]
    ok = (m0 > max(ci[0.0], ci[0.33])) and (m7 > max(ci[0.7], ci[0.33]))
    line = verdict(4, ok, f"ber(0)={b[0.0]:.3e} ber(0.33)={b[0.33]:.3e} "
                          f"ber(0.7)={b[0.7]:.3e}, margins {m0:.2e}/{m7:.2e} "
                          f"exceed half-widths (bits={pts[0.33].bits})")
    assert ok, line


def test_ac05_acceleration_iteration_count():
    # median iterations to sup-norm residual < 1e-3 strictly drops with the
    # guarded extrapolation, over 200 trials at N=K=64, 12 dB
    rng = np.random.default_rng(105)
    n = k = 64
    nv = noise_variance(12.0, k)
    hc = draw_channels(rng, n, k, 200)
    obs = matched_filter(hc, transmit(rng, hc, nv)[1], nv)

    engine = MpdEngine(obs)

    def median_iters_to_tol(cfg):
        hit = fixed_point_residuals(engine, cfg) < 1e-3  # (iterations, trials, 1 use)
        return float(np.median(np.where(hit.any(axis=0), hit.argmax(axis=0) + 1,
                                        cfg.iterations)))

    mp = median_iters_to_tol(MpdConfig())
    mf = median_iters_to_tol(MpdConfig(aitken=True))
    ok = mf < mp
    line = verdict(5, ok, f"median iterations to residual<1e-3: {mf:g} with "
                          f"acceleration vs {mp:g} without (200 trials)")
    assert ok, line


@pytest.mark.slow
def test_ac06_detector_vs_linear_baseline():
    # N=128, K=64: at the SNR where the linear receiver reaches BER 1e-3,
    # the message passing detector is at least 3x lower, >= 100 errors/point
    grid = (9.0, 10.0, 11.0, 12.0)
    mmse_curve = run_uncoded_sweep(uncoded_cfg(
        n_antennas=128, snr_db=grid, receiver="mmse", seed=106,
        target_errors=120, max_trials=40_000, batch_size=400), workers=WORKERS)
    snr_star = log_crossing(mmse_curve.points, 1e-3)
    assert snr_star is not None, "linear baseline never crossed 1e-3 on the grid"
    both = {}
    for r in ("mmse", "mpd"):
        p = run_uncoded_sweep(uncoded_cfg(
            n_antennas=128, snr_db=(round(snr_star, 2),), receiver=r, seed=106,
            target_errors=120, max_trials=60_000, batch_size=400), workers=WORKERS).points[0]
        both[r] = p
    ratio = both["mmse"].ber / max(both["mpd"].ber, 1e-12)
    ok = (ratio >= 3.0 and both["mmse"].errors >= 100 and both["mpd"].errors >= 100)
    line = verdict(6, ok, f"at {snr_star:.2f} dB (linear 1e-3 point): linear "
                          f"{both['mmse'].ber:.3e} vs detector {both['mpd'].ber:.3e}, "
                          f"ratio {ratio:.1f}x >= 3.0 "
                          f"(errors {both['mmse'].errors}/{both['mpd'].errors})")
    assert ok, line


def test_ac07_near_single_user_performance():
    # N=K=128 with perfect CSI: the SNR needed for BER 1e-3 is within 1 dB of
    # the single-user AWGN reference; shown by measuring at reference + 1 dB
    siso = float(20.0 * np.log10(np.sqrt(2.0) * erfcinv(2e-3)))
    p = run_uncoded_sweep(uncoded_cfg(
        n_antennas=128, n_users=128, snr_db=(round(siso + 1.0, 2),), seed=107,
        target_errors=100, max_trials=8000, batch_size=100)).points[0]
    ok = p.ber <= 1e-3 and p.errors >= 100
    line = verdict(7, ok, f"ber {p.ber:.3e} at {siso + 1.0:.2f} dB "
                          f"(single-user 1e-3 point {siso:.2f} dB + 1 dB), "
                          f"errors {p.errors}: gap < 1 dB")
    assert ok, line


def test_ac08_pilot_estimation_fidelity():
    # (a) the bias-corrected Gram estimate is unbiased: over 1e3 pilot draws
    # the mean estimate matches the mean true Gram to < 5% relative Frobenius
    from chemp import estimate_gram, pilot_amplitude, receive_pilots

    rng = np.random.default_rng(108)
    n = k = 64
    nv = noise_variance(11.0, k)
    sum_est = np.zeros((2 * k, 2 * k))
    sum_true = np.zeros((2 * k, 2 * k))
    for _ in range(1000):
        hc = draw_channels(rng, n, k)
        sum_true += real_stack(gram(hc))
        sum_est += real_stack(estimate_gram(receive_pilots(rng, hc, nv, pilot_amplitude(k))))
    rel = np.linalg.norm(sum_est - sum_true) / np.linalg.norm(sum_true)

    # (b) the Gram-domain receiver with estimated (J, z) beats the linear
    # receiver with its own estimated channel at a common SNR
    pts = {}
    for r in ("chemp-estimated", "mmse-estimated"):
        pts[r] = run_uncoded_sweep(uncoded_cfg(
            snr_db=(11.0,), receiver=r, seed=108, frame_length=128,
            target_errors=150, max_trials=6000, batch_size=100)).points[0]
    ce, me = pts["chemp-estimated"], pts["mmse-estimated"]
    margin_ok = ce.ber + ce.ci_halfwidth < me.ber - me.ci_halfwidth
    ok = rel < 0.05 and margin_ok
    line = verdict(8, ok, f"mean Gram estimate rel Frobenius err {rel:.4f} < 0.05; "
                          f"estimated-stats receiver {ce.ber:.3e} vs estimated-"
                          f"channel linear {me.ber:.3e} at 11 dB, beyond CIs")
    assert ok, line


def test_ac09_llr_error_bound():
    # empirical first-iteration LLR MSE from pilot noise stays below the
    # analytic bound at 8/10/12 dB and decreases with SNR, 1e3 trials each
    rng = np.random.default_rng(109)
    rows = []
    for snr in (8.0, 10.0, 12.0):
        mse, bound = llr_mse_empirical(64, 64, snr, trials=1000, rng=rng)
        rows.append((snr, mse, bound))
    dominated = all(m <= b for _, m, b in rows)
    monotone = rows[0][1] > rows[1][1] > rows[2][1]
    ok = dominated and monotone
    detail = ", ".join(f"{s:g}dB {m:.1f}<={b:.1f}" for s, m, b in rows)
    line = verdict(9, ok, f"measured MSE vs bound: {detail}; monotone decreasing")
    assert ok, line


def test_ac10_operation_counts():
    worse = []
    for k in (64, 96, 128):
        mpd = count_operations("mpd", 128, k, iterations=20).total
        mmse = count_operations("mmse", 128, k).total
        if mpd >= mmse:
            worse.append(k)
    ratio = (count_operations("mpd", 256, 256, iterations=20).total
             / count_operations("mmse", 256, 256).total)
    ok = not worse and ratio < 0.6
    line = verdict(10, ok, f"detector cheaper at N=128 for K in (64,96,128) "
                           f"{'yes' if not worse else f'no {worse}'}; "
                           f"count ratio at N=K=256: {ratio:.3f} < 0.6")
    assert ok, line


@pytest.mark.slow
def test_ac11_code_construction_at_scale():
    profile = TABLE_PROFILES["n128-alpha1"]
    n = 4000
    code = build_code(profile, n, np.random.default_rng(111))
    m = n // 2
    vh = code.variable_degree_histogram()
    ch = code.check_degree_histogram()
    dev_v = max(abs(vh.get(d, 0) - f * n) for d, f in profile.variable_degrees)
    dev_c = max(abs(ch.get(d, 0) - f * m) for d, f in profile.check_degrees)

    rng = np.random.default_rng(112)
    words = encode(code, rng.integers(0, 2, size=(50, code.k)))
    enc_ok = bool(np.all(code.is_codeword(words)))

    # 1e3 random frames through a noisy channel; every frame the decoder
    # flags as a success must satisfy every check
    frames = encode(code, rng.integers(0, 2, size=(1000, code.k)))
    xx = 1.0 - 2.0 * frames.astype(float)
    sigma = 0.85
    llr = 2.0 * (xx + sigma * rng.standard_normal(xx.shape)) / sigma ** 2
    bits, success, iters = bp_decode_batch(code, llr, max_iters=40)
    syn_free = ~np.any(code.syndrome(bits), axis=-1)
    flag_ok = bool(np.all(~success | syn_free))

    ok = dev_v <= 1.0 and dev_c <= 1.0 and enc_ok and flag_ok
    line = verdict(11, ok, f"profile realized at n=4000 within ±1 node/class "
                           f"(max dev {dev_v:.0f}/{dev_c:.0f}); 50 encodes valid; "
                           f"success implies zero syndrome on 1000 frames "
                           f"({int(success.sum())} decoded)")
    assert ok, line


def coded_cfg(receiver, code_spec, snrs, seed, frames=50, joint=None):
    return SimConfig(
        n_antennas=32, n_users=32, snr_db=tuple(snrs), receiver=receiver,
        code_spec=code_spec, block_length=1000, seed=seed,
        target_errors=10 ** 9, max_trials=frames, batch_size=10,
        joint=joint or JointConfig(),
    )


@pytest.mark.slow
def test_ac12_joint_gain_and_noiseless_recovery():
    # equal iteration budget: joint 20 x (1 detector + 2 decoder) = 60 vs
    # separate 20 detector + 40 decoder = 60; joint no worse at every point
    snrs = (4.0, 5.0, 6.0)
    cj = run_coded_sweep(coded_cfg("joint", "n128-alpha1", snrs, seed=112), workers=WORKERS)
    cs = run_coded_sweep(coded_cfg("separate", "n128-alpha1", snrs, seed=112), workers=WORKERS)
    pairwise = [(a.snr_db, a.ber, b.ber) for a, b in zip(cj.points, cs.points)]
    order_ok = all(j <= s for _, j, s in pairwise)

    # clean-channel frames: recovered exactly within two outer rounds when
    # each round runs the full detector schedule
    code = build_sweep_code(coded_cfg("joint", "n128-alpha1", snrs, seed=112))
    rng = np.random.default_rng(113)
    k = 32
    info = rng.integers(0, 2, size=(k, code.k))
    words = encode(code, info)
    x = bits_to_symbols(words, k)
    hc = draw_channels(rng, 32, k)
    nv = noise_variance(300.0, k)
    y = x @ real_stack(hc).T
    obs = matched_filter(hc, y[:, :32] + 1j * y[:, 32:], nv)
    res = joint_detect_decode(obs, code, JointConfig(outer_iterations=2,
                                                     detector_passes=20))
    clean_ok = bool(np.all(res.success)) and res.outer_rounds <= 2 \
        and bool(np.all(res.info_bits == info))

    ok = order_ok and clean_ok
    detail = "; ".join(f"{s:g}dB {j:.2e}<={x:.2e}" for s, j, x in pairwise)
    line = verdict(12, ok, f"joint<=separate at every point ({detail}); "
                           f"clean frame exact in {res.outer_rounds} round(s)")
    assert ok, line


@pytest.mark.slow
def test_ac13_optimized_vs_regular_code():
    # identical pipeline, both codes at n=1000, N=K=32: the optimized profile
    # is required to reach BER 1e-3 at least 0.3 dB before the regular code
    snrs = (3.5, 4.0, 4.5, 5.0)
    ci = run_coded_sweep(coded_cfg("joint", "n128-alpha1", snrs, seed=113), workers=WORKERS)
    cr = run_coded_sweep(coded_cfg("joint", "regular-3-6", snrs, seed=113), workers=WORKERS)
    s_irr = log_crossing(ci.points, 1e-3)
    s_reg = log_crossing(cr.points, 1e-3)
    irr_txt = "none" if s_irr is None else f"{s_irr:.2f} dB"
    reg_txt = "none" if s_reg is None else f"{s_reg:.2f} dB"
    ok = s_irr is not None and s_reg is not None and s_irr <= s_reg - 0.3
    line = verdict(13, ok, f"BER 1e-3 crossings: optimized profile {irr_txt}, "
                           f"regular (3,6) {reg_txt}; required optimized <= "
                           f"regular - 0.3 dB")
    assert ok, line


def test_ac14_worker_count_determinism(tmp_path):
    # the same seeded sweep writes bit-identical result files regardless of
    # the worker count, for both the uncoded and the coded drivers
    ucfg = uncoded_cfg(n_antennas=32, n_users=16, snr_db=(6.0, 8.0), seed=114,
                       target_errors=50, max_trials=2000, batch_size=50)
    ccfg = coded_cfg("joint", "regular-3-6", (7.0,), seed=114, frames=6,
                     joint=JointConfig(outer_iterations=5))
    ccfg.block_length = 64
    ccfg.n_antennas = ccfg.n_users = 8
    ccfg.batch_size = 2

    files = {}
    for tag, workers in (("u1", 1), ("u3", 3)):
        curve = run_uncoded_sweep(ucfg, workers=workers)
        jp, cp = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        curve.to_json(str(jp))
        curve.to_csv(str(cp))
        files[tag] = jp.read_bytes() + cp.read_bytes()
    for tag, workers in (("c1", 1), ("c2", 2)):
        curve = run_coded_sweep(ccfg, workers=workers)
        jp = tmp_path / f"{tag}.json"
        curve.to_json(str(jp))
        files[tag] = jp.read_bytes()
    ok = files["u1"] == files["u3"] and files["c1"] == files["c2"]
    line = verdict(14, ok, "result files bit-identical for 1 vs 3 uncoded "
                           "workers and 1 vs 2 coded workers, same seeds")
    assert ok, line
