"""Benchmark of chemp's sweep API on four fixed workloads.

    python3 bench/run.py --workload uncoded-mpd-64 --seed 1 --seconds 20 --trace 0

One client process runs ops in a closed loop: each op is one
`run_uncoded_sweep` / `run_coded_sweep` call (workers=1) for one SNR point
and one batch, with a fresh seed derived from --seed. One untimed warm-up op
runs first. Every op's counts are checked, and the run's pooled BER (and FER)
is checked against the workload's reference band.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced ops and prints the per-layer metrics from the traced ones, plus the
tracing overhead. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full report, with the
run environment, is written to bench/results/.
"""
import time

T_START = time.perf_counter()  # before chemp (and numpy) are imported

import os  # noqa: E402

# One client process on one core. A second BLAS thread would run on the other
# core of a small shared machine and measure the neighbours' load instead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5  # set-ups per run, this process included; setup_s is their median
TAIL_BEYOND = 10  # op_s_tail is the highest percentile with this many ops beyond it

END_TO_END_UNITS = {"trials_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "frac"}
PER_LAYER_UNITS = {
    "harness.op.self_s": "s/op",
    "mpd.matched_filter.s": "s/op",
    "mpd.engine_setup.s": "s/op",
    "mpd.step.s": "s/op",
    "mpd.step.calls": "1/op",
    "mpd.step.gbytes_per_s": "GB/s",
    "mpd.model_ops_per_s": "1/s",
    "mpd.engine_state_mb": "MB",
    "baselines.mmse_detect.s": "s/op",
    "baselines.model_ops_per_s": "1/s",
    "estimate.estimate_gram.s": "s/op",
    "estimate.estimate_z.s": "s/op",
    "ldpc.build_code.s": "s",
    "ldpc.encode.s": "s/op",
    "ldpc.check_update.s": "s/op",
    "ldpc.check_update.edge_msgs_per_s": "1/s",
    "ldpc.var_update.self_s": "s/op",
    "ldpc.extrinsic.s": "s/op",
    "ldpc.syndrome.s": "s/op",
    "joint.joint_detect_decode.self_s": "s/op",
    "joint.outer_rounds_mean": "count",
    "joint.codewords_converged_frac": "frac",
    "trace_overhead_frac": "frac",
}


def import_chemp():
    """Import chemp from this checkout's src/, never from anywhere else."""
    if not (SRC / "chemp" / "__init__.py").is_file():
        sys.exit(f"error: no chemp sources at {SRC / 'chemp'}; run from a chemp checkout")
    sys.path.insert(0, str(SRC))
    import chemp
    if Path(chemp.__file__).resolve().parent != (SRC / "chemp").resolve():
        sys.exit(f"error: imported chemp from {chemp.__file__}, not from {SRC}")


import_chemp()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from chemp.harness import count_operations  # noqa: E402
from spans import ROOT as OP_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, Runner, band, op_seed  # noqa: E402


# -- environment -----------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                get = getattr(dll, fn)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_commit": git_commit(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads()}


def last_level_cache_bytes() -> int | None:
    """Largest cache size cpu0 reports under /sys."""
    sizes = []
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (d / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
        sizes.append(int(text.rstrip("KMG")) * scale)
    return max(sizes) if sizes else None


def copy_bandwidth(llc: int) -> dict:
    """Best-of-3 copy rate between two arrays that together are 4x the LLC."""
    nbytes = 2 * llc
    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t)
    return {"llc_mb": llc / 1e6, "array_mb": src.nbytes / 1e6, "arrays": 2,
            "gbytes_per_s": 2 * src.nbytes / best / 1e9,
            "counted": "bytes read + bytes written"}


# -- one run ---------------------------------------------------------------

def run_ops(runner: Runner, seed: int, seconds: float, tracer: Tracer | None):
    """Closed loop for `seconds`; with a tracer, every second op is traced."""
    ops = []
    start = time.perf_counter()
    index = 1  # op 0 is the warm-up
    while True:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
            span = tracer.begin(OP_SPAN)
        t = time.perf_counter()
        try:
            point, error = runner.run_op(op_seed(seed, index)), None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            point, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        if traced:
            tracer.end(span)
            tracer.remove()
        if error is None:
            error = runner.check_op(point)
        ops.append({"latency": latency, "traced": traced, "point": point, "error": error})
        index += 1
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len({o["traced"] for o in ops}) == 2):
            return ops, time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it.

    A run too short to put that percentile above the median reports the
    median, and a run of at most TAIL_BEYOND ops its slowest op.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    i = n - 1 - TAIL_BEYOND
    pct = 100.0 * i / (n - 1)
    if pct < 50.0:
        return statistics.median(lat), 50.0
    return lat[i], pct


def output_check(runner: Runner, ok_ops: list) -> dict:
    """Pooled BER (and FER) of the run against the workload's reference band."""
    wl = runner.workload
    n = len(ok_ops)
    out = {"ok": n > 0}
    if n == 0:
        return out
    rates = [("ber", wl.ber, "errors", "bits", runner.bits_per_op)]
    if wl.coded:
        rates.append(("fer", wl.fer, "frame_errors", "frames", runner.trials_per_op))
    for key, ref, num, den, units in rates:
        pooled = (sum(getattr(o["point"], num) for o in ok_ops)
                  / sum(getattr(o["point"], den) for o in ok_ops))
        lo, hi = band(ref, units, n)
        out[key] = {"pooled": pooled, "band": [lo, hi], "reference": ref.rate}
        out["ok"] = out["ok"] and lo <= pooled <= hi
    return out


def trials_per_s(ops: list) -> float:
    ok = [o for o in ops if o["error"] is None]
    return sum(o["point"].trials for o in ok) / sum(o["latency"] for o in ops)


def analytic_costs(runner: Runner) -> dict:
    n, k = runner.cfg.n_antennas, runner.cfg.n_users
    ops = {r: count_operations(r, n, k, 20).total for r in ("mpd", "mmse")}
    return {"count_operations_per_detection": ops, "detections_per_trial": runner.uses_per_trial,
            "mpd_over_mmse": ops["mpd"] / ops["mmse"]}


def per_layer(tracer: Tracer, runner: Runner, n_ops: int, overhead: float) -> dict:
    rows = tracer.summary()

    def get(name, key="s"):
        row = rows.get(name)
        return 0.0 if row is None else row[key] / n_ops

    def count(name, key):
        row = rows.get(name)
        return 0.0 if row is None else row["counts"][key]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    n, k = runner.cfg.n_antennas, runner.cfg.n_users
    mpd1, mpd2 = (count_operations("mpd", n, k, t).breakdown for t in (1, 2))
    per_iter = mpd2["iterations"] - mpd1["iterations"]
    model_mpd = ((count("mpd.matched_filter", "grams") + count("estimate.estimate_gram", "grams"))
                 * mpd1["gram"]
                 + (count("mpd.matched_filter", "uses") + count("estimate.estimate_z", "uses"))
                 * mpd1["filter"]
                 + count("mpd.engine_setup", "grams") * (mpd1["iterations"] - per_iter)
                 + count("mpd.step", "uses") * per_iter)
    detector_s = n_ops * sum(get(s) for s in (
        "mpd.matched_filter", "estimate.estimate_gram", "estimate.estimate_z",
        "mpd.engine_setup", "mpd.step"))
    model_mmse = count("baselines.mmse_detect", "uses") * count_operations("mmse", n, k).total
    setups = max(get("mpd.engine_setup", "calls") * n_ops, 1)
    joint_calls = max(get("joint.joint_detect_decode", "calls") * n_ops, 1)
    build = tracer.summary(under_root=False).get("ldpc.build_code")
    return {
        "harness.op.self_s": get(OP_SPAN, "self_s"),
        "mpd.matched_filter.s": get("mpd.matched_filter"),
        "mpd.engine_setup.s": get("mpd.engine_setup"),
        "mpd.step.s": get("mpd.step"),
        "mpd.step.calls": get("mpd.step", "calls"),
        "mpd.step.gbytes_per_s": rate(count("mpd.step", "bytes"), n_ops * get("mpd.step")) / 1e9,
        "mpd.model_ops_per_s": rate(model_mpd, detector_s),
        "mpd.engine_state_mb": count("mpd.engine_setup", "state_bytes") / setups / 1e6,
        "baselines.mmse_detect.s": get("baselines.mmse_detect"),
        "baselines.model_ops_per_s": rate(model_mmse, n_ops * get("baselines.mmse_detect")),
        "estimate.estimate_gram.s": get("estimate.estimate_gram"),
        "estimate.estimate_z.s": get("estimate.estimate_z"),
        "ldpc.build_code.s": 0.0 if build is None else build["s"],
        "ldpc.encode.s": get("ldpc.encode"),
        "ldpc.check_update.s": get("ldpc.check_update"),
        "ldpc.check_update.edge_msgs_per_s": rate(count("ldpc.check_update", "edge_msgs"),
                                                  n_ops * get("ldpc.check_update")),
        "ldpc.var_update.self_s": get("ldpc.var_update", "self_s"),
        "ldpc.extrinsic.s": get("ldpc.extrinsic"),
        "ldpc.syndrome.s": get("ldpc.syndrome"),
        "joint.joint_detect_decode.self_s": get("joint.joint_detect_decode", "self_s"),
        "joint.outer_rounds_mean": count("joint.joint_detect_decode", "outer_rounds") / joint_calls,
        "joint.codewords_converged_frac": rate(count("joint.joint_detect_decode", "converged"),
                                               count("joint.joint_detect_decode", "codewords")),
        "trace_overhead_frac": overhead,
    }


def detector_working_set(rows: dict) -> float:
    """Bytes one detector call works on: the MPD engine's arrays, else MMSE's H and Gram."""
    for name in ("mpd.engine_setup", "baselines.mmse_detect"):
        row = rows.get(name)
        if row is not None:
            return row["counts"]["state_bytes"] / row["calls"]
    return 0.0


def setup_sample(workload: str) -> float:
    """Set-up time of a fresh process: interpreter start of this script to ready."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload, "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for setup_s samples)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up is traced too, so PEG shows as ldpc.build_code
    runner = Runner(wl)
    setup_main = time.perf_counter() - T_START
    if tracer is not None:
        tracer.remove()
    if args.setup_only:
        print(setup_main)
        return 0

    runner.run_op(op_seed(args.seed, 0))  # warm-up, untimed
    ops, wall = run_ops(runner, args.seed, args.seconds, tracer)
    ok = [o for o in ops if o["error"] is None]
    check = output_check(runner, ok)
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "load": "closed loop, one client process, workers=1, no pool",
              "ops": len(ops), "ops_failed": len(ops) - len(ok),
              "failures": [o["error"] for o in ops if o["error"] is not None][:10],
              "trials_per_op": runner.trials_per_op, "output_check": check,
              "op_latency_s": [o["latency"] for o in ops],
              "op_errors": [o["point"].errors if o["point"] else None for o in ops],
              "analytic": analytic_costs(runner)}

    if tracer is None:
        setups = [setup_main] + [setup_sample(wl.name) for _ in range(SETUP_SAMPLES - 1)]
        latencies = [o["latency"] for o in ops]
        tail_s, tail_pct = tail(latencies)
        tps = sum(o["point"].trials for o in ok) / wall
        metrics = {"trials_per_s": tps, "op_s_p50": statistics.median(latencies),
                   "op_s_tail": tail_s, "setup_s": statistics.median(setups),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "ops_ok_frac": len(ok) / len(ops)}
        units = END_TO_END_UNITS
        report.update(tail_percentile=tail_pct, setup_samples_s=setups, wall_s=wall)
        report["analytic"]["measured_s_per_trial"] = 1.0 / tps if tps else None
    else:
        traced = [o for o in ops if o["traced"]]
        plain = [o for o in ops if not o["traced"]]
        plain_tps, traced_tps = trials_per_s(plain), trials_per_s(traced)
        overhead = plain_tps / traced_tps - 1.0 if traced_tps else 0.0
        metrics = per_layer(tracer, runner, len(traced), overhead)
        units = PER_LAYER_UNITS
        rows = tracer.summary()
        report["layers"] = {name: {"calls": r["calls"], "s": r["s"], "self_s": r["self_s"],
                                   "counts": dict(r["counts"])} for name, r in rows.items()}
        report["traced_ops"] = len(traced)
        report["detector_working_set_mb"] = detector_working_set(rows) / 1e6
        report["wait_time"] = "none: every layer runs in the caller's thread, with no queue"
        report["analytic"]["measured_s_per_trial"] = 1.0 / plain_tps if plain_tps else None
        llc = last_level_cache_bytes()
        report["bandwidth"] = copy_bandwidth(llc) if llc else None

    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{wl.name}_trace{args.trace}_seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print("environment:", json.dumps(report["environment"]))
    print(f"{wl.name} seed {args.seed}: {len(ops)} ops ({report['ops_failed']} failed) "
          f"of {runner.trials_per_op} trials in {wall:.2f} s; report {path.relative_to(ROOT)}")
    if tracer is None:
        print(f"  op_s_tail is p{report['tail_percentile']:.1f} of {len(ops)} ops")
    for k, v in metrics.items():
        print(f"  {k:38s} {v:.6g} {units[k]}")
    if tracer is not None:
        bw = report["bandwidth"]
        if bw:
            print(f"  copy bandwidth {bw['gbytes_per_s']:.3g} GB/s (read + write) between two "
                  f"{bw['array_mb']:.0f} MB arrays; last-level cache {bw['llc_mb']:.0f} MB")
        print(f"  detector working set {report['detector_working_set_mb']:.3g} MB per call")
        print(f"  wait time: {report['wait_time']}")
    a = report["analytic"]
    ops_det = a["count_operations_per_detection"]
    measured = a["measured_s_per_trial"]
    print(f"  count_operations per detection at N={runner.cfg.n_antennas}, K={runner.cfg.n_users}: "
          f"mpd {ops_det['mpd']:.4g}, mmse {ops_det['mmse']:.4g} (mpd/mmse {a['mpd_over_mmse']:.3f}); "
          f"{a['detections_per_trial']} detections per trial; measured "
          + (f"{measured:.4e} s per trial" if measured else "nothing (no op succeeded)"))
    for key in ("ber", "fer"):
        if key in check:
            c = check[key]
            print(f"  pooled {key} {c['pooled']:.4e} in band [{c['band'][0]:.4e}, "
                  f"{c['band'][1]:.4e}]: {c['band'][0] <= c['pooled'] <= c['band'][1]}")
    correct = check["ok"] and len(ok) == len(ops)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(ops) - len(ok),
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
