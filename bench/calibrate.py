"""Measure each workload's reference BER (and FER) for the output check.

    python3 bench/calibrate.py --ops 150 [--workload NAME ...]

Runs `--ops` ops per workload on op seeds derived from CALIBRATION_SEED,
which benchmark runs do not use, and prints the `Reference(...)` values to
record in workloads.py. Re-run it only when a change is meant to alter the
numerics, and say so in that change.
"""
import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, Runner, op_seed  # noqa: E402

CALIBRATION_SEED = 2 ** 32 - 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ops", type=int, default=150)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    for name in args.workload or sorted(WORKLOADS):
        runner = Runner(WORKLOADS[name])
        points = []
        for i in range(args.ops):
            point = runner.run_op(op_seed(CALIBRATION_SEED, i))
            error = runner.check_op(point)
            if error is not None:
                raise SystemExit(f"{name}: op {i} failed the count check: {error}")
            points.append(point)
        rates = [("ber", [p.ber for p in points])]
        if runner.workload.coded:
            rates.append(("fer", [p.fer for p in points]))
        for key, values in rates:
            print(f"{name} {key}=Reference(rate={statistics.fmean(values)!r}, "
                  f"sd_op={statistics.stdev(values)!r}, ops={len(values)})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
