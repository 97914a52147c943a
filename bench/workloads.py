"""The four benchmark workloads and the per-op output check.

One op is one sweep call through the public harness API for one SNR point
with ``max_trials = batch_size``, so each op runs exactly one batch.
``target_errors`` sits above the op's bit count, so the stopping rule never
fires and every commit does the same work for the same seed.

Each workload carries a reference band for its pooled BER (and FER for the
coded one). ``calibrate.py`` measured the reference on op seeds the
benchmark does not use; the band admits a run whose pooled rate is within
``BAND_Z`` standard errors of it, so a change that keeps the maths passes
exactly and one that changes the numerics passes only when it is
statistically indistinguishable.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from chemp.harness import (SimConfig, build_sweep_code, run_coded_sweep,
                           run_uncoded_sweep)

BAND_Z = 5.0
CODE_SEED = 0  # the coded workload always uses the code built from this seed


@dataclass(frozen=True)
class Reference:
    """Pooled error rate of `ops` calibration ops and the op-to-op spread."""

    rate: float
    sd_op: float
    ops: int


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    ber: Reference
    fer: Reference | None = None

    @property
    def coded(self) -> bool:
        return self.fer is not None


WORKLOADS = {w.name: w for w in (
    Workload(
        "uncoded-mpd-64",
        dict(n_antennas=64, n_users=64, receiver="mpd", snr_db=(10.0,), batch_size=200),
        ber=Reference(rate=0.002530208333333333, sd_op=0.0007144689093985851, ops=150),
    ),
    Workload(
        "uncoded-mmse-64",
        dict(n_antennas=64, n_users=64, receiver="mmse", snr_db=(10.0,), batch_size=200),
        ber=Reference(rate=0.050722916666666666, sd_op=0.0016144985646091912, ops=150),
    ),
    Workload(
        "uncoded-est-64",
        dict(n_antennas=64, n_users=64, receiver="chemp-estimated", snr_db=(11.0,),
             frame_length=128, batch_size=25),
        ber=Reference(rate=0.02909716796875, sd_op=0.0010709581587493727, ops=150),
    ),
    Workload(
        "coded-joint-32",
        dict(n_antennas=32, n_users=32, receiver="joint", snr_db=(5.0,),
             code_spec="n128-alpha1", block_length=1000, batch_size=2),
        ber=Reference(rate=0.001075, sd_op=0.0014185725024230776, ops=150),
        fer=Reference(rate=0.7966666666666666, sd_op=0.29592686078678804, ops=150),
    ),
)}


def op_seed(seed: int, index: int) -> int:
    """Seed of op `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Runner:
    """Set-up of one workload (config, and code when coded) and its op."""

    def __init__(self, workload: Workload):
        self.workload = workload
        cfg = dict(workload.config)
        cfg["max_trials"] = cfg["batch_size"]
        cfg["target_errors"] = 1  # replaced below, once bits per op are known
        self.cfg = SimConfig(seed=CODE_SEED, **cfg)
        self.code = build_sweep_code(self.cfg) if workload.coded else None
        n, k = self.cfg.n_antennas, self.cfg.n_users
        if self.code is not None:
            self.bits_per_trial = k * self.code.k
            self.uses_per_trial = self.code.n // 2
        else:
            self.uses_per_trial = (self.cfg.frame_length - k
                                   if self.cfg.frame_length else 1)
            self.bits_per_trial = 2 * k * self.uses_per_trial
        self.trials_per_op = self.cfg.batch_size
        self.bits_per_op = self.bits_per_trial * self.trials_per_op
        self.cfg = dataclasses.replace(self.cfg, target_errors=self.bits_per_op + 1)

    def run_op(self, seed: int):
        """One sweep call; returns its single BerPoint."""
        cfg = dataclasses.replace(self.cfg, seed=seed)
        if self.code is not None:
            curve = run_coded_sweep(cfg, workers=1, code=self.code)
        else:
            curve = run_uncoded_sweep(cfg, workers=1)
        if len(curve.points) != 1:
            raise ValueError(f"expected one sweep point, got {len(curve.points)}")
        return curve.points[0]

    def check_op(self, point) -> str | None:
        """Why the op's counts are inconsistent, or None when they are fine."""
        trials = self.trials_per_op
        if point.trials != trials:
            return f"trials {point.trials} != {trials}"
        if point.bits != trials * self.bits_per_trial:
            return f"bits {point.bits} != trials x bits per trial {trials * self.bits_per_trial}"
        if not 0 <= point.errors <= point.bits:
            return f"errors {point.errors} outside [0, {point.bits}]"
        if not (math.isfinite(point.ber) and math.isfinite(point.ci_halfwidth)):
            return "non-finite BER or confidence interval"
        if point.ber != point.errors / point.bits:
            return f"ber {point.ber} != errors / bits"
        if self.workload.coded:
            if point.frames != trials:
                return f"frames {point.frames} != {trials}"
            if point.frame_errors is None or not 0 <= point.frame_errors <= point.frames:
                return f"frame errors {point.frame_errors} outside [0, {point.frames}]"
            if point.fer is None or not math.isfinite(point.fer):
                return "non-finite FER"
        return None


def band(ref: Reference, units_per_op: int, n_ops: int) -> tuple[float, float]:
    """Admissible pooled error rate of a run of `n_ops` ops.

    The op-to-op spread is floored at the binomial spread of a
    Laplace-smoothed rate, so a reference with no spread still admits an
    indistinguishable result.
    """
    smoothed = (ref.rate * units_per_op * ref.ops + 1.0) / (units_per_op * ref.ops + 2.0)
    sd = max(ref.sd_op, math.sqrt(smoothed * (1.0 - smoothed) / units_per_op))
    half = BAND_Z * sd * math.sqrt(1.0 / n_ops + 1.0 / ref.ops)
    return max(ref.rate - half, 0.0), min(ref.rate + half, 1.0)
