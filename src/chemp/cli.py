"""Command-line entry point: every experiment as a subcommand emitting CSV/JSON.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
Seeds resolve as: --seed flag, else CHEMP_SEED environment variable, else 0.
The two sweeps build their `SimConfig` from three layers, each overriding the
one before: the seed and the sweep's own defaults (`_SWEEP_DEFAULTS`; every
other default belongs to `SimConfig`, `MpdConfig` and `JointConfig`), the JSON
--config file, and the flags argparse parsed. A sweep flag defaults to
`argparse.SUPPRESS` and its dest is the field it sets, dotted for the nested
`mpd`/`joint` fields, so argparse's namespace is the record of what was given.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import convergence_condition, fixed_point_residuals, llr_mse_empirical
from .hardening import eigenvalue_histogram, hardening_report, mp_distance
from .harness import (CODED_RECEIVERS, UNCODED_RECEIVERS, BerCurve, SimConfig,
                      count_operations, resolve_profile, run_coded_sweep,
                      run_uncoded_sweep)
from .joint import JointConfig, measure_exit_detector
from .ldpc import build_code, write_alist
from .model import draw_channels, gram, noise_variance, real_stack, transmit
from .mpd import MpdConfig, MpdEngine, matched_filter

# where each sweep departs from the SimConfig, MpdConfig and JointConfig defaults
_SWEEP_DEFAULTS = {
    "uncoded": {"n_antennas": 64, "n_users": 64, "snr_db": [8.0, 10.0, 12.0]},
    "coded": {"n_antennas": 32, "n_users": 32, "snr_db": [4.0, 5.0, 6.0],
              "receiver": "joint", "code_spec": "n128-alpha1",
              "max_trials": 2000, "batch_size": 25},
}
_NESTED = {"mpd": MpdConfig, "joint": JointConfig}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise UsageError(message)


def _seed(args) -> int:
    """The --seed flag, else the CHEMP_SEED environment variable, else 0."""
    if "seed" in args:
        return args.seed
    text = os.environ.get("CHEMP_SEED") or "0"
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"CHEMP_SEED must be an integer, not {text!r}") from None


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


def _add_common(sp, seed=True):
    if seed:
        sp.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="master seed (default: CHEMP_SEED env var, else 0)")
    sp.add_argument("--out", default=None, help="output directory (default: .)")


def _flag_adder(sp, defaults: dict):
    """Adder of SUPPRESS-default flags whose help names the default: from
    `defaults`, else from the `SimConfig` field (`MpdConfig`/`JointConfig` if dotted)."""

    def flag(name, dest, text, **kw):
        group, _, field = dest.rpartition(".")
        default = defaults.get(dest, getattr(_NESTED.get(group, SimConfig), field, None))
        if default is not None and kw.get("action") != "store_true":
            shown = ",".join(f"{v:g}" for v in default) if isinstance(default, list) else default
            text += f" (default {shown})"
        sp.add_argument(name, dest=dest, default=argparse.SUPPRESS, help=text, **kw)

    return flag


def _add_mpd_flags(flag):
    flag("--iters", "mpd.iterations", "detector iterations", type=int)
    flag("--damping", "mpd.damping", "belief damping", type=float)


def _add_sweep(sub, command, receivers, **kw):
    """A sweep subcommand with the flags both sweeps share; returns its flag adder."""
    sp = sub.add_parser(command, **kw)
    flag = _flag_adder(sp, _SWEEP_DEFAULTS[command])
    flag("--n", "n_antennas", "base-station antennas N", type=int)
    flag("--k", "n_users", "users K", type=int)
    flag("--snr", "snr_db", "dB grid: comma list or start:stop:step", type=_parse_values)
    flag("--receiver", "receiver", "receiver", choices=receivers)
    _add_mpd_flags(flag)
    flag("--aitken", "mpd.aitken", "enable guarded Aitken acceleration", action="store_true")
    flag("--target-errors", "target_errors", "bit errors that end an SNR point", type=int)
    flag("--max-trials", "max_trials", "trial budget per SNR point", type=int)
    flag("--batch-size", "batch_size", "trials per batch", type=int)
    _add_common(sp)
    sp.add_argument("--config", default=None, help="JSON config file; flags override it")
    sp.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                    help="parallel trial workers; output identical for any count")
    sp.set_defaults(fn=_cmd_sweep)
    return flag


def _nested(args, group: str) -> dict:
    """The parsed flags of a dotted dest group, e.g. {'iterations': 5} of 'mpd'."""
    return {dest.partition(".")[2]: val for dest, val in vars(args).items()
            if dest.startswith(group + ".")}


def _sweep_config(args) -> SimConfig:
    """The three layers of the module docstring; `mpd` and `joint` merge key by key."""
    fields = inspect.signature(SimConfig).parameters
    flags = {dest: val for dest, val in vars(args).items() if dest in fields}
    flags.update({group: _nested(args, group) for group in _NESTED})
    values = {**{group: {} for group in _NESTED}, **_SWEEP_DEFAULTS[args.command]}
    for layer in (_load_config(args.config), flags):
        for key, val in layer.items():
            values[key] = {**values[key], **val} if key in _NESTED else val
    if "seed" not in values:
        values["seed"] = _seed(args)
    for group, cls in _NESTED.items():
        values[group] = cls(**values[group])
    return SimConfig(**values)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    run = run_coded_sweep if args.command == "coded" else run_uncoded_sweep
    curve = run(cfg, workers=args.workers)
    _write_curve(curve, _out_dir(args), f"{args.command}_{cfg.receiver}")
    return 0


def _cmd_hardening(args) -> int:
    rng = np.random.default_rng(_seed(args))
    rows = []
    for n in (int(v) for v in args.n_list):
        k = max(1, int(round(args.alpha * n)))
        rep = hardening_report(real_stack(gram(draw_channels(rng, n, k, args.realizations))))
        rows.append((n, k, *(float(np.mean(v)) for v in
                             (rep.diag_mean, rep.diag_std, rep.offdiag_rms, rep.offdiag_max))))
    _write_table(os.path.join(_out_dir(args), "hardening.csv"),
                 "n,k,diag_mean,diag_std,offdiag_rms,offdiag_max",
                 ((n, k, *(f"{v:.6e}" for v in stats)) for n, k, *stats in rows))
    for r in rows:
        print(f"  n {r[0]:4d}  offdiag_rms {r[4]:.4f}")
    return 0


def _cmd_mp_law(args) -> int:
    rng = np.random.default_rng(_seed(args))
    n = args.n
    k = args.k if args.k is not None else max(1, int(round(args.alpha * n)))
    channels = draw_channels(rng, n, k, args.realizations)
    centers, emp, law = eigenvalue_histogram(channels, bins=args.bins)
    ks = mp_distance(channels)
    rows = [(f"{c:.6e}", f"{e:.6e}", f"{d:.6e}") for c, e, d in zip(centers, emp, law)]
    _write_table(os.path.join(_out_dir(args), "mp_law.csv"),
                 "bin_center,empirical_density,mp_density",
                 rows + [(f"# ks_distance={ks:.6e}",)])
    print(f"  ks_distance {ks:.4f}")
    return 0


def _cmd_exit(args) -> int:
    rng = np.random.default_rng(_seed(args))
    given = {d: getattr(args, d) for d in ("n_channels", "uses_per_channel") if d in args}
    ie = measure_exit_detector(args.n, args.k, args.snr, args.ia_grid, rng,
                               mpd_cfg=MpdConfig(**_nested(args, "mpd")), **given)
    _write_table(os.path.join(_out_dir(args), "exit.csv"), "i_a,i_e,snr_db",
                 ((f"{a:.6f}", f"{e:.6f}", f"{args.snr:g}") for a, e in zip(args.ia_grid, ie)))
    for a, e in zip(args.ia_grid, ie):
        print(f"  I_A {a:.2f} -> I_E {e:.4f}")
    return 0


def _cmd_convergence(args) -> int:
    rng = np.random.default_rng(_seed(args))
    nv = noise_variance(args.snr, args.k)
    cfg = MpdConfig(**_nested(args, "mpd"))
    hc = draw_channels(rng, args.n, args.k, args.trials)
    _, yc = transmit(rng, hc, nv)
    obs = matched_filter(hc, yc, nv)
    rep = convergence_condition(obs.J)
    hit = fixed_point_residuals(MpdEngine(obs), cfg).max(axis=-1) < args.tol  # (iters, trials)
    iters = np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, -1)
    anti = rep.anti_dominance.mean(axis=-1)
    diag = rep.diagonal_dominance.mean(axis=-1)
    _write_table(os.path.join(_out_dir(args), "convergence.csv"),
                 "trial,iterations_to_tol,anti_dominance_fraction,diagonal_dominance_fraction",
                 ((t, it, f"{a:.6f}", f"{d:.6f}") for t, (it, a, d) in
                  enumerate(zip(iters, anti, diag))))
    reached = iters[iters > 0]
    med = float(np.median(reached)) if reached.size else float("nan")
    print(f"  reached tol {args.tol:g} within {cfg.iterations} iterations: "
          f"{100 * reached.size / iters.size:.1f}% of trials (median {med:g})")
    return 0


def _cmd_llr_mse(args) -> int:
    seed = _seed(args)
    rows = []
    for i, s in enumerate(args.snr):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        rows.append((s, *llr_mse_empirical(args.n, args.k, s, args.trials, rng)))
    _write_table(os.path.join(_out_dir(args), "llr_mse.csv"), "snr_db,mse_empirical,mse_bound",
                 ((f"{s:g}", f"{e:.6e}", f"{b:.6e}") for s, e, b in rows))
    for s, e, b in rows:
        print(f"  snr {s:5.1f} dB  empirical {e:.4e}  bound {b:.4e}")
    return 0


def _cmd_opcount(args) -> int:
    mpd = count_operations("mpd", args.n, args.k, args.iters)
    mmse = count_operations("mmse", args.n, args.k)
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


def _cmd_code_build(args) -> int:
    rng = np.random.default_rng(_seed(args))
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

    flag = _add_sweep(sub, "uncoded", UNCODED_RECEIVERS,
                      help="uncoded BER sweep",
                      description="Uncoded BER vs SNR for one receiver.")
    flag("--frame-length", "frame_length",
         "uses per frame in estimated-CSI modes (default 2K)", type=int)

    flag = _add_sweep(sub, "coded", CODED_RECEIVERS,
                      help="coded BER sweep (joint or separate, perfect or estimated CSI)",
                      description="Coded BER/FER vs SNR over block-fading frames.")
    flag("--code", "code_spec", "code spec: table profile name or regular-DV-DC")
    flag("--block-length", "block_length", "code length n", type=int)
    flag("--outer", "joint.outer_iterations", "outer rounds", type=int)
    flag("--detector-passes", "joint.detector_passes", "detector steps per outer round",
         type=int)
    flag("--decoder-passes", "joint.decoder_passes", "decoder iterations per outer round",
         type=int)
    flag("--decoder-iters", "decoder_iterations", "decoder budget of the separate baseline",
         type=int)

    sp = sub.add_parser("hardening", help="Gram concentration vs size",
                        description="Diagonal/off-diagonal statistics of J over sizes.")
    sp.add_argument("--n-list", type=_parse_values, default="16,32,64", help="antenna counts")
    sp.add_argument("--alpha", type=float, default=1.0, help="loading K/N")
    sp.add_argument("--realizations", type=int, default=100)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_hardening)

    sp = sub.add_parser("mp-law", help="eigenvalue histogram vs limiting law",
                        description="Empirical Gram eigenvalues against the limiting density.")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--k", type=int, default=None, help="users (default alpha*n)")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--realizations", type=int, default=1)
    sp.add_argument("--bins", type=int, default=40)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_mp_law)

    sp = sub.add_parser("exit", help="detector extrinsic information transfer",
                        description="Detector I_E over an I_A grid at one SNR.")
    sp.add_argument("--n", type=int, default=32)
    sp.add_argument("--k", type=int, default=32)
    sp.add_argument("--snr", type=float, default=6.0)
    sp.add_argument("--ia-grid", type=_parse_values, default="0:0.9:0.1")
    flag = _flag_adder(sp, {name: par.default for name, par in
                            inspect.signature(measure_exit_detector).parameters.items()})
    flag("--channels", "n_channels", "channel draws", type=int)
    flag("--uses", "uses_per_channel", "uses per channel draw", type=int)
    _add_mpd_flags(flag)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_exit)

    sp = sub.add_parser("convergence", help="fixed-point diagnostics",
                        description="Residual decay and dominance conditions per trial.")
    sp.add_argument("--n", type=int, default=32)
    sp.add_argument("--k", type=int, default=32)
    sp.add_argument("--snr", type=float, default=10.0)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--tol", type=float, default=1e-3)
    _add_mpd_flags(_flag_adder(sp, {}))
    _add_common(sp)
    sp.set_defaults(fn=_cmd_convergence)

    sp = sub.add_parser("llr-mse", help="first-iteration LLR error vs bound",
                        description="Empirical LLR MSE under estimated statistics vs bound.")
    sp.add_argument("--n", type=int, default=64)
    sp.add_argument("--k", type=int, default=64)
    sp.add_argument("--snr", type=_parse_values, default="6,8,10,12,14")
    sp.add_argument("--trials", type=int, default=200)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_llr_mse)

    sp = sub.add_parser("opcount", help="analytic complexity comparison",
                        description="Real-operation counts of the two receivers.")
    sp.add_argument("--n", type=int, default=128)
    sp.add_argument("--k", type=int, default=128)
    sp.add_argument("--iters", type=int, default=MpdConfig.iterations,
                    help="detector iterations (default %(default)s)")
    _add_common(sp, seed=False)
    sp.set_defaults(fn=_cmd_opcount)

    sp = sub.add_parser("code-build", help="construct a code and export alist",
                        description="Build a code from a degree profile and export it.")
    sp.add_argument("--code", default=_SWEEP_DEFAULTS["coded"]["code_spec"],
                    help="code spec (default %(default)s)")
    sp.add_argument("--block-length", type=int, default=SimConfig.block_length,
                    help="code length n (default %(default)s)")
    sp.add_argument("--filename", default=None, help="alist filename (default derived)")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_code_build)

    return p


def main(argv: list | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return args.fn(args)
    except (UsageError, ValueError, TypeError, KeyError, FileNotFoundError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - defensive
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
