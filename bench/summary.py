"""Set the analytic operation counts beside measured time, per workload.

    python3 bench/summary.py

Reads the newest untraced and traced report of each workload from
bench/results/ and prints `count_operations` for MPD and MMSE beside the
measured time per trial (whole op, and detector layers only), then the
measured MPD/MMSE time ratio from uncoded-mpd-64 and uncoded-mmse-64 next
to the analytic ratio.
"""
import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"
DETECTOR_LAYERS = ("mpd.matched_filter", "estimate.estimate_gram", "estimate.estimate_z",
                   "mpd.engine_setup", "mpd.step", "baselines.mmse_detect")


def newest(workload: str, trace: int) -> dict | None:
    files = sorted(RESULTS.glob(f"{workload}_trace{trace}_seed*.json"),
                   key=lambda p: p.stat().st_mtime)
    return json.loads(files[-1].read_text()) if files else None


def detector_s_per_trial(traced: dict) -> float:
    total = sum(traced["layers"].get(name, {"s": 0.0})["s"] for name in DETECTOR_LAYERS)
    return total / (traced["traced_ops"] * traced["trials_per_op"])


def main() -> int:
    names = sorted({p.name.split("_trace")[0] for p in RESULTS.glob("*_trace*_seed*.json")})
    if not names:
        sys.exit(f"no reports in {RESULTS}; run bench/run.py first")
    per_trial = {}
    print(f"{'workload':16s} {'mpd ops/det':>12s} {'mmse ops/det':>12s} {'ratio':>6s} "
          f"{'det/trial':>9s} {'s/trial':>10s} {'detector s/trial':>16s}")
    for name in names:
        plain, traced = newest(name, 0), newest(name, 1)
        rep = plain or traced
        a = rep["analytic"]
        ops = a["count_operations_per_detection"]
        s_trial = plain["analytic"]["measured_s_per_trial"] if plain else None
        d_trial = detector_s_per_trial(traced) if traced else None
        per_trial[name] = (s_trial, d_trial)
        fmt = lambda v: f"{v:.4e}" if v is not None else "-"  # noqa: E731
        print(f"{name:16s} {ops['mpd']:12.4g} {ops['mmse']:12.4g} {a['mpd_over_mmse']:6.3f} "
              f"{a['detections_per_trial']:9d} {fmt(s_trial):>10s} {fmt(d_trial):>16s}")
    mpd, mmse = per_trial.get("uncoded-mpd-64"), per_trial.get("uncoded-mmse-64")
    if mpd and mmse:
        analytic = newest("uncoded-mpd-64", 0) or newest("uncoded-mpd-64", 1)
        print(f"\nMPD/MMSE at N=K=64: analytic {analytic['analytic']['mpd_over_mmse']:.3f}", end="")
        for label, i in (("whole op", 0), ("detector layers", 1)):
            if mpd[i] and mmse[i]:
                print(f", measured {label} {mpd[i] / mmse[i]:.3f}", end="")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
