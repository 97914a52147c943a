"""Command-line entry point: every experiment as a subcommand emitting CSV/JSON.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
Seeds resolve as: --seed flag, else CHEMP_SEED environment variable, else 0.
A JSON config file (--config) supplies base values; explicitly passed flags
override it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import convergence_condition, fixed_point_residuals, llr_mse_empirical
from .hardening import eigenvalue_histogram, hardening_report, mp_distance
from .harness import (BerCurve, SimConfig, count_operations, resolve_profile,
                      run_coded_sweep, run_uncoded_sweep)
from .joint import JointConfig, measure_exit_detector
from .ldpc import build_code, write_alist
from .model import draw_channels, gram, modulate, noise_variance, real_stack
from .mpd import MpdConfig, matched_filter, mpd_detect


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise UsageError(message)


def _default_seed() -> int:
    try:
        return int(os.environ.get("CHEMP_SEED", "0"))
    except ValueError:
        return 0


def _parse_values(text: str) -> list:
    """Parse '6,8,10' or inclusive 'start:stop:step' into a float list."""
    if ":" in text:
        parts = [float(t) for t in text.split(":")]
        if len(parts) == 2:
            parts.append(1.0)
        start, stop, step = parts
        if step <= 0:
            raise UsageError("range step must be positive")
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(max(n, 0))]
    return [float(t) for t in text.split(",") if t.strip()]


def _explicit(argv: list, *names: str) -> bool:
    return any(tok == n or tok.startswith(n + "=") for tok in argv for n in names)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    return doc


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_table(path: str, header: str, rows):
    """Write a CSV file: the header line, then each row's cells joined by commas.

    Cells are written with str(), so callers format floats themselves.
    """
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(str(c) for c in row) + "\n")
    print(f"wrote {path}")


def _write_curve(curve: BerCurve, out: str, stem: str):
    csv_path = os.path.join(out, stem + ".csv")
    json_path = os.path.join(out, stem + ".json")
    curve.to_csv(csv_path)
    curve.to_json(json_path)
    print(f"wrote {csv_path} and {json_path}")
    for p in curve.points:
        flag = "" if p.reliable else "  (unreliable: <10 errors)"
        print(f"  snr {p.snr_db:6.2f} dB  ber {p.ber:.3e}  "
              f"({p.errors} errors / {p.bits} bits){flag}")


def _add_common(sp, with_workers=True):
    sp.add_argument("--seed", type=int, default=None,
                    help="master seed (default: CHEMP_SEED env var, else 0)")
    sp.add_argument("--out", default=None, help="output directory (default: .)")
    sp.add_argument("--config", default=None, help="JSON config file; flags override it")
    if with_workers:
        sp.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="parallel trial workers; output identical for any count")


def _sweep_config(args, argv, coded: bool) -> SimConfig:
    base = _load_config(args.config)
    values = dict(base)

    def put(key, val, *flags):
        if key not in base or _explicit(argv, *flags):
            values[key] = val

    put("n_antennas", args.n, "--n")
    put("n_users", args.k, "--k")
    put("snr_db", _parse_values(args.snr) if isinstance(args.snr, str) else args.snr, "--snr")
    put("receiver", args.receiver, "--receiver")
    put("seed", args.seed if args.seed is not None else _default_seed(), "--seed")
    put("target_errors", args.target_errors, "--target-errors")
    put("max_trials", args.max_trials, "--max-trials")
    put("batch_size", args.batch_size, "--batch-size")
    if getattr(args, "frame_length", None) is not None or _explicit(argv, "--frame-length"):
        values["frame_length"] = args.frame_length
    mpd = dict(values.get("mpd", {}))
    for key, flag, val in (("iterations", "--iters", args.iters),
                           ("damping", "--damping", args.damping),
                           ("aitken", "--aitken", args.aitken)):
        if key not in mpd or _explicit(argv, flag):
            mpd[key] = val
    values["mpd"] = MpdConfig(**mpd)
    if coded:
        put("code_spec", args.code, "--code")
        put("block_length", args.block_length, "--block-length")
        put("decoder_iterations", args.decoder_iters, "--decoder-iters")
        put("csi", args.csi, "--csi")
        joint = dict(values.get("joint", {}))
        for key, flag, val in (("outer_iterations", "--outer", args.outer),
                               ("detector_passes", "--detector-passes", args.detector_passes),
                               ("decoder_passes", "--decoder-passes", args.decoder_passes)):
            if key not in joint or _explicit(argv, flag):
                joint[key] = val
        values["joint"] = JointConfig(**joint)
    return SimConfig(**values)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_uncoded(args, argv) -> int:
    cfg = _sweep_config(args, argv, coded=False)
    curve = run_uncoded_sweep(cfg, workers=args.workers)
    _write_curve(curve, _out_dir(args), f"uncoded_{cfg.receiver}")
    return 0


def _cmd_coded(args, argv) -> int:
    cfg = _sweep_config(args, argv, coded=True)
    curve = run_coded_sweep(cfg, workers=args.workers)
    _write_curve(curve, _out_dir(args), f"coded_{cfg.receiver}")
    return 0


def _cmd_hardening(args, argv) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    rng = np.random.default_rng(seed)
    sizes = [int(v) for v in _parse_values(args.n_list)]
    rows = []
    for n in sizes:
        k = max(1, int(round(args.alpha * n)))
        reps = []
        for _ in range(args.realizations):
            reps.append(hardening_report(real_stack(gram(draw_channels(rng, n, k)))))
        rows.append((n, k,
                     float(np.mean([r.diag_mean for r in reps])),
                     float(np.mean([r.diag_std for r in reps])),
                     float(np.mean([r.offdiag_rms for r in reps])),
                     float(np.mean([r.offdiag_max for r in reps]))))
    _write_table(os.path.join(_out_dir(args), "hardening.csv"),
                 "n,k,diag_mean,diag_std,offdiag_rms,offdiag_max",
                 ((n, k, *(f"{v:.6e}" for v in stats)) for n, k, *stats in rows))
    for r in rows:
        print(f"  n {r[0]:4d}  offdiag_rms {r[4]:.4f}")
    return 0


def _cmd_mp_law(args, argv) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    rng = np.random.default_rng(seed)
    n = args.n
    k = args.k if args.k is not None else max(1, int(round(args.alpha * n)))
    channels = np.stack([draw_channels(rng, n, k) for _ in range(args.realizations)])
    centers, emp, law = eigenvalue_histogram(channels, bins=args.bins)
    ks = mp_distance(channels)
    rows = [(f"{c:.6e}", f"{e:.6e}", f"{d:.6e}") for c, e, d in zip(centers, emp, law)]
    _write_table(os.path.join(_out_dir(args), "mp_law.csv"),
                 "bin_center,empirical_density,mp_density",
                 rows + [(f"# ks_distance={ks:.6e}",)])
    print(f"  ks_distance {ks:.4f}")
    return 0


def _cmd_exit(args, argv) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    rng = np.random.default_rng(seed)
    grid = _parse_values(args.ia_grid)
    cfg = MpdConfig(iterations=args.iters, damping=args.damping)
    ie = measure_exit_detector(args.n, args.k, args.snr, grid, rng,
                               n_channels=args.channels,
                               uses_per_channel=args.uses, mpd_cfg=cfg)
    _write_table(os.path.join(_out_dir(args), "exit.csv"), "i_a,i_e,snr_db",
                 ((f"{a:.6f}", f"{e:.6f}", f"{args.snr:g}") for a, e in zip(grid, ie)))
    for a, e in zip(grid, ie):
        print(f"  I_A {a:.2f} -> I_E {e:.4f}")
    return 0


def _cmd_convergence(args, argv) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    rng = np.random.default_rng(seed)
    nv = noise_variance(args.snr, args.k)
    cfg = MpdConfig(iterations=args.iters, damping=args.damping,
                    track_history=True)
    rows = []
    for t in range(args.trials):
        hc = draw_channels(rng, args.n, args.k)
        x = modulate(rng.integers(0, 2, size=2 * args.k))
        w = rng.standard_normal(2 * args.n) * np.sqrt(nv)
        yc = hc @ (x[:args.k] + 1j * x[args.k:]) + (w[:args.n] + 1j * w[args.n:])
        obs = matched_filter(hc, yc, nv)
        rep = convergence_condition(obs.J)
        state = mpd_detect(obs, cfg)
        res = fixed_point_residuals(state)
        hit = np.flatnonzero(res < args.tol)
        it = int(hit[0]) + 1 if hit.size else -1
        rows.append((t, it, rep.anti_dominance_fraction, rep.diagonal_dominance_fraction))
    _write_table(os.path.join(_out_dir(args), "convergence.csv"),
                 "trial,iterations_to_tol,anti_dominance_fraction,diagonal_dominance_fraction",
                 ((t, it, f"{a:.6f}", f"{d:.6f}") for t, it, a, d in rows))
    reached = [r[1] for r in rows if r[1] > 0]
    frac = len(reached) / len(rows) if rows else 0.0
    med = float(np.median(reached)) if reached else float("nan")
    print(f"  reached tol {args.tol:g} within {args.iters} iterations: "
          f"{100 * frac:.1f}% of trials (median {med:g})")
    return 0


def _cmd_llr_mse(args, argv) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    snrs = _parse_values(args.snr)
    rows = []
    for s in snrs:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(round(10 * s)),)))
        emp, bound = llr_mse_empirical(args.n, args.k, s, args.trials, rng,
                                       with_bound=True)
        rows.append((s, emp, bound))
    _write_table(os.path.join(_out_dir(args), "llr_mse.csv"), "snr_db,mse_empirical,mse_bound",
                 ((f"{s:g}", f"{e:.6e}", f"{b:.6e}") for s, e, b in rows))
    for s, e, b in rows:
        print(f"  snr {s:5.1f} dB  empirical {e:.4e}  bound {b:.4e}")
    return 0


def _cmd_opcount(args, argv) -> int:
    mpd = count_operations("mpd", args.n, args.k, args.iters)
    mmse = count_operations("mmse", args.n, args.k, args.iters)
    ratio = mpd.total / mmse.total
    print(f"n_antennas {args.n}  n_users {args.k}  iterations {args.iters}")
    print(f"  mpd  : {mpd.total:,.0f} real ops  {mpd.breakdown}")
    print(f"  mmse : {mmse.total:,.0f} real ops  {mmse.breakdown}")
    print(f"  ratio mpd/mmse = {ratio:.3f}")
    if args.out:
        _write_table(os.path.join(_out_dir(args), "opcount.csv"), "receiver,total,breakdown",
                     ((c.receiver, f"{c.total:.0f}", f'"{json.dumps(c.breakdown)}"')
                      for c in (mpd, mmse)))
    return 0


def _cmd_code_build(args, argv) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    rng = np.random.default_rng(seed)
    profile = resolve_profile(args.code)
    code = build_code(profile, args.block_length, rng)
    out = _out_dir(args)
    path = os.path.join(out, args.filename or f"{args.code}_n{args.block_length}.alist")
    write_alist(code, path)
    print(f"wrote {path}")
    print(f"  n {code.n}  k {code.k}  rate {code.k / code.n:.3f}  edges {code.n_edges}")
    print(f"  variable degrees {code.variable_degree_histogram()}")
    print(f"  check degrees    {code.check_degree_histogram()}")
    print(f"  4-cycles         {code.four_cycles()}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    p = _Parser(prog="chemp",
                description="Link-level simulator for a Gram-domain message "
                            "passing receiver in large multiuser MIMO uplinks.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", metavar="command")

    sp = sub.add_parser("uncoded", help="uncoded BER sweep",
                        description="Uncoded BER vs SNR for one receiver.")
    sp.add_argument("--n", type=int, default=64, help="base-station antennas N")
    sp.add_argument("--k", type=int, default=64, help="users K")
    sp.add_argument("--snr", default="8,10,12", help="dB grid: comma list or start:stop:step")
    sp.add_argument("--receiver", default="mpd",
                    choices=["mpd", "chemp-estimated", "mmse", "mmse-estimated", "map-oracle"])
    sp.add_argument("--iters", type=int, default=20, help="detector iterations (default 20)")
    sp.add_argument("--damping", type=float, default=0.33, help="belief damping (default 0.33)")
    sp.add_argument("--aitken", action="store_true", help="enable guarded Aitken acceleration")
    sp.add_argument("--target-errors", type=int, default=100)
    sp.add_argument("--max-trials", type=int, default=100_000)
    sp.add_argument("--batch-size", type=int, default=100)
    sp.add_argument("--frame-length", type=int, default=None,
                    help="uses per frame in estimated-CSI modes (default 2K)")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_uncoded)

    sp = sub.add_parser("coded", help="coded BER sweep (joint or separate)",
                        description="Coded BER/FER vs SNR over block-fading frames.")
    sp.add_argument("--n", type=int, default=32)
    sp.add_argument("--k", type=int, default=32)
    sp.add_argument("--snr", default="4,5,6")
    sp.add_argument("--receiver", default="joint", choices=["joint", "separate"])
    sp.add_argument("--code", default="n128-alpha1",
                    help="code spec: table profile name or regular-DV-DC")
    sp.add_argument("--block-length", type=int, default=1000)
    sp.add_argument("--outer", type=int, default=20, help="outer rounds (default 20)")
    sp.add_argument("--detector-passes", type=int, default=1)
    sp.add_argument("--decoder-passes", type=int, default=2)
    sp.add_argument("--decoder-iters", type=int, default=40,
                    help="decoder budget of the separate baseline")
    sp.add_argument("--csi", default="perfect", choices=["perfect", "estimated"])
    sp.add_argument("--iters", type=int, default=20)
    sp.add_argument("--damping", type=float, default=0.33)
    sp.add_argument("--aitken", action="store_true")
    sp.add_argument("--target-errors", type=int, default=100)
    sp.add_argument("--max-trials", type=int, default=2000)
    sp.add_argument("--batch-size", type=int, default=25)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_coded)

    sp = sub.add_parser("hardening", help="Gram concentration vs size",
                        description="Diagonal/off-diagonal statistics of J over sizes.")
    sp.add_argument("--n-list", default="16,32,64", help="antenna counts")
    sp.add_argument("--alpha", type=float, default=1.0, help="loading K/N")
    sp.add_argument("--realizations", type=int, default=100)
    _add_common(sp, with_workers=False)
    sp.set_defaults(fn=_cmd_hardening)

    sp = sub.add_parser("mp-law", help="eigenvalue histogram vs limiting law",
                        description="Empirical Gram eigenvalues against the limiting density.")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--k", type=int, default=None, help="users (default alpha*n)")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--realizations", type=int, default=1)
    sp.add_argument("--bins", type=int, default=40)
    _add_common(sp, with_workers=False)
    sp.set_defaults(fn=_cmd_mp_law)

    sp = sub.add_parser("exit", help="detector extrinsic information transfer",
                        description="Detector I_E over an I_A grid at one SNR.")
    sp.add_argument("--n", type=int, default=32)
    sp.add_argument("--k", type=int, default=32)
    sp.add_argument("--snr", type=float, default=6.0)
    sp.add_argument("--ia-grid", default="0:0.9:0.1")
    sp.add_argument("--channels", type=int, default=40)
    sp.add_argument("--uses", type=int, default=16)
    sp.add_argument("--iters", type=int, default=20)
    sp.add_argument("--damping", type=float, default=0.33)
    _add_common(sp, with_workers=False)
    sp.set_defaults(fn=_cmd_exit)

    sp = sub.add_parser("convergence", help="fixed-point diagnostics",
                        description="Residual decay and dominance conditions per trial.")
    sp.add_argument("--n", type=int, default=32)
    sp.add_argument("--k", type=int, default=32)
    sp.add_argument("--snr", type=float, default=10.0)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--iters", type=int, default=20)
    sp.add_argument("--damping", type=float, default=0.33)
    _add_common(sp, with_workers=False)
    sp.set_defaults(fn=_cmd_convergence)

    sp = sub.add_parser("llr-mse", help="first-iteration LLR error vs bound",
                        description="Empirical LLR MSE under estimated statistics vs bound.")
    sp.add_argument("--n", type=int, default=64)
    sp.add_argument("--k", type=int, default=64)
    sp.add_argument("--snr", default="6,8,10,12,14")
    sp.add_argument("--trials", type=int, default=200)
    _add_common(sp, with_workers=False)
    sp.set_defaults(fn=_cmd_llr_mse)

    sp = sub.add_parser("opcount", help="analytic complexity comparison",
                        description="Real-operation counts of the two receivers.")
    sp.add_argument("--n", type=int, default=128)
    sp.add_argument("--k", type=int, default=128)
    sp.add_argument("--iters", type=int, default=20)
    _add_common(sp, with_workers=False)
    sp.set_defaults(fn=_cmd_opcount)

    sp = sub.add_parser("code-build", help="construct a code and export alist",
                        description="Build a code from a degree profile and export it.")
    sp.add_argument("--code", default="n128-alpha1")
    sp.add_argument("--block-length", type=int, default=1000)
    sp.add_argument("--filename", default=None, help="alist filename (default derived)")
    _add_common(sp, with_workers=False)
    sp.set_defaults(fn=_cmd_code_build)

    return p


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 1
    try:
        try:
            return args.fn(args, argv)
        except (UsageError, ValueError, TypeError, KeyError, FileNotFoundError,
                json.JSONDecodeError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    except Exception as e:  # pragma: no cover - defensive
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
