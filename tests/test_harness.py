"""Sweep driver: configuration, persistence, determinism, stopping, op counts."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

import chemp
from chemp import (
    BerCurve,
    BerPoint,
    JointConfig,
    MpdConfig,
    SimConfig,
    build_sweep_code,
    config_hash,
    count_operations,
    regular_profile,
    resolve_profile,
    run_coded_sweep,
    run_uncoded_sweep,
)
from chemp import harness
from chemp.estimate import gram_observation_from_pilots, pilot_amplitude, receive_pilots
from chemp.harness import UNCODED_RECEIVERS, _accumulate, _batch, _ci_halfwidth
from chemp.joint import bits_to_symbols, joint_detect_decode
from chemp.ldpc import TABLE_PROFILES, encode
from chemp.model import draw_channels, noise_variance, transmit
from chemp.mpd import hard_decision, mpd_detect


def tiny_cfg(**over):
    base = dict(n_antennas=8, n_users=4, snr_db=(6.0,), receiver="mpd",
                seed=42, target_errors=20, max_trials=400, batch_size=50)
    base.update(over)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(n_antennas=4, n_users=8)         # overloaded
    with pytest.raises(ValueError):
        tiny_cfg(receiver="zf")                    # unknown receiver
    with pytest.raises(ValueError):
        tiny_cfg(receiver="joint")                 # coded without code_spec
    with pytest.raises(ValueError):
        tiny_cfg(receiver="map-oracle", n_antennas=32, n_users=9)
    with pytest.raises(ValueError):
        tiny_cfg(receiver="chemp-estimated", frame_length=4)  # no data uses
    for receiver in ("mpd", "mmse", "map-oracle"):  # frame_length read by no one
        with pytest.raises(ValueError, match="frame_length"):
            tiny_cfg(receiver=receiver, frame_length=12)
    with pytest.raises(ValueError, match="frame_length"):
        tiny_cfg(receiver="joint-estimated", code_spec="regular-3-6", frame_length=12)
    for snr in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            tiny_cfg(snr_db=(snr, 6.0))
    with pytest.raises(ValueError):
        tiny_cfg(receiver="joint", code_spec="regular-3-6", mpd=MpdConfig(aitken=True),
                 joint=JointConfig(detector_passes=2))  # Aitken window never fills


def test_config_hash_stability_and_sensitivity():
    a = config_hash(tiny_cfg())
    b = config_hash(tiny_cfg())
    c = config_hash(tiny_cfg(seed=43))
    assert a == b
    assert a != c
    assert len(a) == 16
    int(a, 16)  # hex


def test_config_hash_covers_nested_configs():
    a = config_hash(tiny_cfg())
    b = config_hash(tiny_cfg(mpd=MpdConfig(damping=0.5)))
    assert a != b


# ---------------------------------------------------------------------------
# persistence


def test_curve_round_trip(tmp_path):
    points = [BerPoint(snr_db=8.0, bits=1000, errors=13, ber=0.013,
                       ci_halfwidth=0.002, trials=125)]
    curve = BerCurve(receiver="mpd", points=points, provenance={"seed": 1})
    jpath = tmp_path / "curve.json"
    curve.to_json(str(jpath))
    with open(jpath) as f:
        doc = json.load(f)
    assert doc["receiver"] == curve.receiver
    assert doc["provenance"] == curve.provenance
    assert BerPoint(**doc["points"][0]) == points[0]


def test_curve_csv_format(tmp_path):
    points = [BerPoint(snr_db=8.0, bits=1000, errors=13, ber=0.013,
                       ci_halfwidth=0.002, trials=125)]
    curve = BerCurve(receiver="mpd", points=points, provenance={})
    cpath = tmp_path / "curve.csv"
    curve.to_csv(str(cpath))
    lines = cpath.read_text().strip().split("\n")
    assert lines[0] == "snr_db,bits,errors,ber,ci_halfwidth"
    fields = lines[1].split(",")
    assert float(fields[0]) == 8.0
    assert int(fields[1]) == 1000
    assert int(fields[2]) == 13


# ---------------------------------------------------------------------------
# uncoded sweeps


def test_uncoded_sweep_accounting():
    curve = run_uncoded_sweep(tiny_cfg())
    assert len(curve.points) == 1
    p = curve.points[0]
    assert p.bits == 8 * p.trials
    assert p.ber == pytest.approx(p.errors / p.bits)
    assert p.errors >= 20 or p.trials == 400
    assert p.ci_halfwidth > 0
    assert curve.provenance["config_hash"] == config_hash(tiny_cfg())


def test_uncoded_sweep_deterministic_same_seed():
    a = run_uncoded_sweep(tiny_cfg())
    b = run_uncoded_sweep(tiny_cfg())
    assert a.points == b.points


def test_uncoded_sweep_worker_count_invariance():
    a = run_uncoded_sweep(tiny_cfg(), workers=1)
    b = run_uncoded_sweep(tiny_cfg(), workers=3)
    assert a.points == b.points


def _stub_batch(cfg, point_idx, batch_idx, n_trials):
    # batch b has b + 1 errors in n_trials bits
    return n_trials, batch_idx + 1, n_trials


def accumulate(cfg, batch_fn, workers):
    """One point of `_accumulate` on the executor a sweep would give it."""
    with ProcessPoolExecutor(workers) if workers > 1 else harness._InThisThread() as pool:
        return _accumulate(cfg, 0, batch_fn, pool, workers)


def test_one_loop_stops_after_the_batch_that_reaches_the_target():
    # errors 1, 3, 6, 10, ...: a target of 6 fires on batch 2 of 10
    cfg = tiny_cfg(target_errors=6, max_trials=95, batch_size=10)
    ran = []

    def batch(*args):
        ran.append((args[2], threading.current_thread() is threading.main_thread(),
                    threading.active_count()))
        return _stub_batch(*args)

    threads = threading.active_count()
    totals = accumulate(cfg, batch, workers=1)
    assert totals == (30, 6, 30)
    # one worker: in this thread, with no thread started, and no batch after batch 2
    assert ran == [(0, True, threads), (1, True, threads), (2, True, threads)]
    assert accumulate(cfg, _stub_batch, workers=2) == totals
    # a target never reached spends the budget, the last batch cut to fit
    budget = dataclasses.replace(cfg, target_errors=10 ** 6)
    assert accumulate(budget, _stub_batch, workers=1) == (95, 55, 95)
    assert accumulate(budget, _stub_batch, workers=2) == (95, 55, 95)


def test_a_sweep_builds_one_process_pool(monkeypatch):
    built = []

    class CountedPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    cfg = tiny_cfg(snr_db=(2.0, 6.0, 10.0), max_trials=200)
    curve = run_uncoded_sweep(cfg, workers=2)
    assert len(built) == 1 and built[0]["max_workers"] == 2
    assert curve.points == run_uncoded_sweep(cfg, workers=1).points


def test_a_failing_batch_cancels_the_queued_ones(monkeypatch):
    # a thread pool of two stands in for the process pool: batches 0 and 1
    # start, 2 and 3 wait; batch 0 raises, a thread takes batch 2, and batch 3
    # is cancelled before a thread is free for it
    started, lock = [], threading.Lock()

    def batch(code, cfg, point_idx, batch_idx, n_trials):
        with lock:
            started.append(batch_idx)
        if batch_idx == 0:
            raise RuntimeError("batch 0 failed")
        time.sleep(0.3)
        return n_trials, 0, n_trials

    monkeypatch.setattr(harness, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(harness, "_batch", batch)
    with pytest.raises(RuntimeError, match="batch 0 failed"):
        run_uncoded_sweep(tiny_cfg(max_trials=400, batch_size=50), workers=2)
    assert 0 in started and 3 not in started


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_steady_state_sweep_takes_no_page_faults():
    # After one warm-up sweep, a sweep of 5 batches at N=K=64 reuses the heap
    # the warm-up freed. Measured per batch on a 2-vCPU Xeon: about 3,570
    # minor faults (3,100-4,100 with two BLAS threads) under glibc's default
    # thresholds, 0.2-0.4 under the heap policy.
    code = textwrap.dedent("""
        import dataclasses, resource
        from chemp.harness import SimConfig, run_uncoded_sweep
        cfg = SimConfig(n_antennas=64, n_users=64, snr_db=(10.0,), batch_size=200,
                        max_trials=200, target_errors=10**9)
        run_uncoded_sweep(cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_uncoded_sweep(dataclasses.replace(cfg, seed=1, max_trials=1000))
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
    """)
    src = os.path.dirname(os.path.dirname(chemp.__file__))  # this chemp, not an installed one
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120)
    assert float(out.stdout) < 100


def test_sweep_process_loads_scipy_only_when_a_code_is_read():
    # an uncoded sweep, a code's construction, a coded sweep that decodes with
    # it and its syndrome load no scipy module; the 4-cycle census, which
    # reads the code's sparse matrix, loads scipy.sparse
    src = os.path.dirname(os.path.dirname(chemp.__file__))  # this chemp, not an installed one
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import chemp, chemp.cli
        from chemp.harness import SimConfig, run_coded_sweep, run_uncoded_sweep
        def loaded():
            return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
        run_uncoded_sweep(SimConfig(n_antennas=8, n_users=4, max_trials=20, batch_size=10))
        print(loaded())
        code = chemp.build_code(chemp.regular_profile(), 48, np.random.default_rng(0))
        print(loaded())
        cfg = SimConfig(n_antennas=8, n_users=4, snr_db=(4.0,), receiver="joint",
                        code_spec="regular-3-6", block_length=48, max_trials=4, batch_size=2,
                        target_errors=10**9)
        assert run_coded_sweep(cfg, code=code).points[0].frames == 4
        code.is_codeword(np.zeros(48))
        print(loaded())
        code.four_cycles()
        print("scipy.sparse" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120)
    assert out.stdout.split("\n")[:4] == ["[]", "[]", "[]", "True"]


@pytest.mark.skipif(not harness._openblas_setters(), reason="no OpenBLAS library found")
def test_batches_run_on_one_blas_thread_and_give_the_counts_back(monkeypatch):
    # scipy's OpenBLAS, which threads the MMSE Cholesky from K = 64, is loaded
    # first, so that both libraries start at two threads
    import scipy.linalg.lapack  # noqa: F401

    setters = harness._openblas_setters()
    before = [setter(2) for setter in setters]
    seen = []

    def batch(*args):
        seen.append([setter(1) for setter in harness._openblas_setters()])
        return _batch(*args)

    monkeypatch.setattr(harness, "_batch", batch)
    cfg = SimConfig(n_antennas=64, n_users=64, snr_db=(10.0,), receiver="mmse",
                    target_errors=10 ** 9, max_trials=40, batch_size=20)
    try:
        run_uncoded_sweep(cfg)
        after = [setter(2) for setter in setters]
    finally:
        for setter, n in zip(setters, before):
            setter(n)
    assert seen == [[1] * len(setters)] * 2
    assert after == [2] * len(setters)


def test_uncoded_sweep_seed_changes_results():
    a = run_uncoded_sweep(tiny_cfg())
    b = run_uncoded_sweep(tiny_cfg(seed=43))
    assert a.points != b.points


def test_snr_ordering_of_ber():
    cfg = tiny_cfg(snr_db=(0.0, 12.0), target_errors=60, max_trials=2000)
    curve = run_uncoded_sweep(cfg)
    assert curve.points[0].ber > curve.points[1].ber


def test_estimated_csi_receivers_run():
    for receiver in ("chemp-estimated", "mmse-estimated"):
        cfg = tiny_cfg(receiver=receiver, frame_length=12,
                       target_errors=10, max_trials=60)
        curve = run_uncoded_sweep(cfg)
        p = curve.points[0]
        # 12 - 4 data uses per frame, 8 bits per use
        assert p.bits == p.trials * 8 * 8
        assert 0 <= p.errors <= p.bits
        assert p.ber <= 1.0


def test_estimated_csi_approaches_perfect_csi_at_high_snr():
    # with near-noiseless pilots and data, both estimated receivers must
    # recover everything, which pins the per-use broadcasting of the
    # estimated channel against the data block
    for receiver in ("chemp-estimated", "mmse-estimated"):
        cfg = tiny_cfg(receiver=receiver, snr_db=(40.0,), frame_length=12,
                       target_errors=10**6, max_trials=40)
        p = run_uncoded_sweep(cfg).points[0]
        assert p.errors == 0, receiver


def test_map_oracle_receiver_runs():
    cfg = tiny_cfg(receiver="map-oracle", target_errors=10, max_trials=100)
    p = run_uncoded_sweep(cfg).points[0]
    assert p.bits == p.trials * 8


def test_mpd_not_worse_than_mmse_on_shared_draws():
    # shared seeds, light sanity version of the detector ordering claim
    kw = dict(n_antennas=32, n_users=8, snr_db=(8.0,), seed=7,
              target_errors=80, max_trials=3000, batch_size=200)
    mpd = run_uncoded_sweep(SimConfig(receiver="mpd", **kw)).points[0]
    mmse = run_uncoded_sweep(SimConfig(receiver="mmse", **kw)).points[0]
    assert mpd.ber <= mmse.ber * 1.05


# ---------------------------------------------------------------------------
# coded sweeps


def coded_cfg(**over):
    base = dict(n_antennas=8, n_users=8, snr_db=(7.0,), receiver="joint",
                code_spec="regular-3-6", block_length=64, seed=3,
                target_errors=50, max_trials=30, batch_size=10,
                joint=JointConfig(outer_iterations=6))
    base.update(over)
    return SimConfig(**base)


def test_coded_sweep_accounting():
    cfg = coded_cfg()
    curve = run_coded_sweep(cfg)
    p = curve.points[0]
    code = build_sweep_code(cfg)
    assert p.frames == p.trials
    assert p.bits == p.frames * 8 * code.k
    assert p.fer == pytest.approx(p.frame_errors / p.frames)
    assert curve.provenance["code"]["n"] == 64


def test_coded_sweep_worker_invariance_and_receivers():
    a = run_coded_sweep(coded_cfg(), workers=1)
    b = run_coded_sweep(coded_cfg(), workers=2)
    assert a.points == b.points
    # a budget of one batch: both receivers spend it whatever their errors
    one = dict(max_trials=10)
    sep = run_coded_sweep(coded_cfg(receiver="separate", **one))
    assert sep.points[0].bits == run_coded_sweep(coded_cfg(**one)).points[0].bits


def test_coded_sweep_estimated_csi_runs():
    curve = run_coded_sweep(coded_cfg(receiver="joint-estimated", max_trials=10))
    assert curve.points[0].frames == 10


def test_coded_halfwidth_clusters_errors_by_codeword():
    # 100 codewords of 500 info bits, 250 errors: all in one codeword, the
    # clustered half-width is many times the binomial one; one error in each
    # of 100 codewords leaves no spread; binomial errors give about the
    # binomial width
    bits, cws = 50_000, 100
    binomial = _ci_halfwidth(250, bits)
    assert binomial == pytest.approx(1.96 * np.sqrt(0.005 * 0.995 / bits))
    lumped = _ci_halfwidth(250, bits, cws, 250 ** 2)
    assert lumped == pytest.approx(1.96 * np.sqrt((0.25 - cws * 0.005 ** 2) / (cws - 1) / cws))
    assert lumped > 10 * binomial
    assert _ci_halfwidth(100, bits, cws, 100) == 0.0
    e = np.random.default_rng(5).binomial(500, 0.005, cws)
    spread = _ci_halfwidth(int(e.sum()), bits, cws, int(np.sum(e ** 2)))
    assert spread == pytest.approx(_ci_halfwidth(int(e.sum()), bits), rel=0.2)
    # one codeword has no spread to measure: binomial
    assert _ci_halfwidth(3, 500, 1, 9) == _ci_halfwidth(3, 500)


def test_coded_sweep_point_uses_codeword_halfwidth():
    cfg = coded_cfg(max_trials=10, batch_size=10)
    p = run_coded_sweep(cfg).points[0]
    bits, errors, frames, frame_errors, sq = _batch(build_sweep_code(cfg), cfg, 0, 0, 10)
    assert (p.bits, p.errors, p.frames, p.frame_errors) == (bits, errors, frames, frame_errors)
    assert p.errors > 0 and sq >= p.errors
    assert p.ci_halfwidth == _ci_halfwidth(errors, bits, frames * cfg.n_users, sq)
    assert p.ci_halfwidth != _ci_halfwidth(errors, bits)


@pytest.mark.parametrize("receiver", ["chemp-estimated", "joint-estimated"])
def test_batch_draw_order(monkeypatch, receiver):
    # one frame as sent: info bits -> encode (coded), channels, the K pilot
    # uses, then the data uses (symbols unless coded, data noise); the batch's
    # counts and its generator's final state are rebuilt from those calls
    coded = receiver == "joint-estimated"
    cfg = (coded_cfg(receiver=receiver, snr_db=(2.0,)) if coded
           else tiny_cfg(receiver=receiver, snr_db=(0.0,), frame_length=12))
    code = build_sweep_code(cfg) if coded else None
    rng = harness._batch_rng(cfg.seed, 0, 1)
    monkeypatch.setattr(harness, "_batch_rng", lambda *key: rng)
    got = _batch(code, cfg, 0, 1, 3)

    ref = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 1)))
    n, k = cfg.n_antennas, cfg.n_users
    nv = noise_variance(cfg.snr_db[0], k)
    if coded:
        info = ref.integers(0, 2, size=(3, k, code.k)).astype(np.uint8)
        x = bits_to_symbols(encode(code, info), k)
    hc = draw_channels(ref, n, k, 3)
    pilots = receive_pilots(ref, hc, nv, pilot_amplitude(k))
    if coded:
        _, yc = transmit(ref, hc, nv, x)
        res = joint_detect_decode(gram_observation_from_pilots(pilots, yc), code,
                                  cfg.joint, cfg.mpd)
        per_codeword = np.sum(res.info_bits != info, axis=-1)
        want = (info.size, int(per_codeword.sum()), 3, int(np.any(per_codeword, axis=-1).sum()),
                int(np.sum(per_codeword ** 2)))
    else:
        x, yc = transmit(ref, hc, nv, uses=12 - k)
        xh = hard_decision(mpd_detect(gram_observation_from_pilots(pilots, yc), cfg.mpd))
        want = (x.size, int(np.sum(xh != x)), 3)
    assert got[1] > 0
    assert got == want
    assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# bit-for-bit guard: (bits, errors, frame_errors, trials) per SNR point of one
# small seeded sweep per receiver. A change that keeps the maths and the draw
# order of `_batch` must reproduce them exactly; a change of either moves a
# row, and CHANGES.md records each re-recorded row with its old and new
# counts and 95% half-widths.
GUARD = {
    "mpd": [(3200, 62, None, 200), (4800, 6, None, 300)],
    "mmse": [(1920, 71, None, 120), (4800, 35, None, 300)],
    "chemp-estimated": [(5120, 610, None, 40), (5120, 109, None, 40)],
    "mmse-estimated": [(5120, 576, None, 40), (5120, 171, None, 40)],
    "map-oracle": [(2400, 63, None, 300), (2400, 6, None, 300)],
    "joint": [(4608, 12, 5, 24), (4608, 0, 0, 24)],
    "joint-estimated": [(1152, 151, 6, 6), (3456, 46, 9, 18)],
    "separate": [(4608, 29, 8, 24), (4608, 0, 0, 24)],
    "separate-estimated": [(1152, 180, 6, 6), (2304, 77, 9, 12)],
}


@pytest.mark.parametrize("receiver", list(GUARD))
def test_sweeps_reproduce_recorded_counts(receiver):
    if receiver in UNCODED_RECEIVERS:
        small = receiver == "map-oracle"
        cfg = SimConfig(n_antennas=8 if small else 16, n_users=4 if small else 8,
                        snr_db=(4.0, 8.0), receiver=receiver, seed=2024,
                        target_errors=60, max_trials=300, batch_size=40)
        curve = run_uncoded_sweep(cfg)
    else:
        cfg = SimConfig(n_antennas=16, n_users=8, snr_db=(2.0, 5.0), receiver=receiver,
                        code_spec="regular-3-6", block_length=48, seed=2024,
                        target_errors=40, max_trials=24, batch_size=6,
                        joint=JointConfig(outer_iterations=6))
        curve = run_coded_sweep(cfg)
    got = [(p.bits, p.errors, p.frame_errors, p.trials) for p in curve.points]
    assert got == GUARD[receiver]


def test_build_sweep_code_deterministic():
    a = build_sweep_code(coded_cfg())
    b = build_sweep_code(coded_cfg())
    np.testing.assert_array_equal(a.parity_check.toarray(),
                                  b.parity_check.toarray())


def test_resolve_profile():
    p = resolve_profile("regular-3-6")
    assert p.variable_degrees == ((3, 1.0),)
    assert resolve_profile("n128-alpha1") is TABLE_PROFILES["n128-alpha1"]
    q = resolve_profile("regular-4-8")
    assert q.rate == pytest.approx(0.5)
    with pytest.raises((KeyError, ValueError)):
        resolve_profile("fancy-code")


# ---------------------------------------------------------------------------
# operation counts


def test_count_operations_zero_iterations_is_frontend_only():
    c = count_operations("mpd", 64, 32, iterations=0)
    n, k = 64, 32
    assert c.total == 4 * n * k ** 2 + 4 * n * k + 8 * n * k
    assert c.total == sum(c.breakdown.values())


def test_count_operations_grows_with_iterations():
    a = count_operations("mpd", 64, 32, iterations=5)
    b = count_operations("mpd", 64, 32, iterations=20)
    assert b.total > a.total > count_operations("mpd", 64, 32, 0).total


def test_count_operations_model_documented():
    c = count_operations("mmse", 128, 64)
    assert c.total == sum(c.breakdown.values())
    assert c.model  # human-readable formulas present
    with pytest.raises(ValueError):
        count_operations("map-oracle", 8, 4)


def test_detector_cheaper_than_linear_baseline():
    for k in (64, 96, 128):
        mpd = count_operations("mpd", 128, k, iterations=20).total
        mmse = count_operations("mmse", 128, k).total
        assert mpd < mmse, k
