"""Gram-domain message passing detector.

The matched-filter observation z = H^T y / N obeys z = J x + v with
J = H^T H / N. Each symbol's interference-plus-noise is approximated as
Gaussian with moments accumulated from the other symbols' beliefs:

    mu_i      = sum_{j != i} J_ij (2 p_j - 1)
    sigma_i^2 = sum_{j != i} 4 J_ij^2 p_j (1 - p_j) + sigma_v^2
    L_i       = (2 J_ii / sigma_i^2) (z_i - mu_i)

Beliefs p_i = logistic(L_i) iterate with damping; an optional guarded Aitken
extrapolation accelerates the damped sequence once it contracts geometrically.

All entry points accept leading batch dimensions on J and z.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GramObservation",
    "MpdConfig",
    "BeliefState",
    "matched_filter",
    "mpd_detect",
    "aitken_step",
    "hard_decision",
    "MpdEngine",
]


@dataclass
class GramObservation:
    """Matched-filter statistics (J, z) and the filtered noise variance."""

    J: np.ndarray
    z: np.ndarray
    sigma_v_sq: float

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.J.shape[-1] != self.J.shape[-2]:
            raise ValueError("J must be square in its trailing axes")
        if self.z.shape[-1] != self.J.shape[-1]:
            raise ValueError("z length must match J")
        if not np.all(np.isfinite(self.J)) or not np.all(np.isfinite(self.z)):
            raise ValueError("observation must be finite")
        if self.sigma_v_sq <= 0:
            raise ValueError("sigma_v_sq must be positive")


@dataclass
class MpdConfig:
    """Iteration schedule of the detector."""

    iterations: int = 20
    damping: float = 0.33
    aitken: bool = False
    convergence_tol: float | None = None
    track_history: bool = False
    llr_clip: float = 50.0
    aitken_eps: float = 1e-12

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must lie in [0, 1)")
        if self.llr_clip <= 0:
            raise ValueError("llr_clip must be positive")


@dataclass
class BeliefState:
    """Final beliefs Pr(x_i = +1), their log-likelihood ratios, and history."""

    p: np.ndarray
    llr: np.ndarray
    iteration: int
    history: list | None = None


def matched_filter(H: np.ndarray, y: np.ndarray, noise_var: float,
                   n_antennas: int | None = None) -> GramObservation:
    """Reduce (H, y) to the Gram-domain observation.

    The filtered noise v = H^T w / N has per-component variance
    noise_var / N for unit-variance complex gains.
    """
    H = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float)
    n = n_antennas if n_antennas is not None else H.shape[-2] // 2
    ht = np.swapaxes(H, -1, -2)
    J = ht @ H / n
    J = (J + np.swapaxes(J, -1, -2)) / 2.0
    z = (ht @ y[..., None])[..., 0] / n
    return GramObservation(J=J, z=z, sigma_v_sq=noise_var / n)


def _logistic(L: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-L))


def aitken_step(p_t: np.ndarray, p_t1: np.ndarray, p_t2: np.ndarray,
                eps: float = 1e-12) -> np.ndarray:
    """Componentwise Aitken extrapolation of three consecutive iterates.

    q_i = p_i - (p'_i - p_i)^2 / (p''_i - 2 p'_i + p_i), passing the newest
    iterate through where the denominator is degenerate, clamped to [0, 1].
    """
    p_t = np.asarray(p_t, dtype=float)
    p_t1 = np.asarray(p_t1, dtype=float)
    p_t2 = np.asarray(p_t2, dtype=float)
    den = p_t2 - 2.0 * p_t1 + p_t
    bad = np.abs(den) < eps
    q = p_t - (p_t1 - p_t) ** 2 / np.where(bad, 1.0, den)
    return np.clip(np.where(bad, p_t2, q), 0.0, 1.0)


class MpdEngine:
    """Precomputed update kernel for one observation (or batch of them).

    Splitting precomputation from stepping lets the coded receiver drive the
    schedule one update at a time with external symbol priors.

    `off` and `off_sq` hold J and J**2 with zeroed diagonals, shaped like J.
    When one Gram serves a use axis of z (J shaped (..., 1, M, M) or (M, M),
    z shaped (..., U, M)), each step forms mu and var for all U uses as one
    matrix product per Gram; otherwise as one matrix-vector product per use.
    """

    def __init__(self, obs: GramObservation, llr_clip: float = 50.0):
        J = obs.J
        m = J.shape[-1]
        self.diag = np.ascontiguousarray(np.diagonal(J, axis1=-2, axis2=-1))
        off = J.copy()
        idx = np.arange(m)
        off[..., idx, idx] = 0.0
        self.off = off
        self.off_sq = off ** 2
        self.z = obs.z
        self.sigma_v_sq = obs.sigma_v_sq
        self.llr_clip = llr_clip
        self.m = m

    def uniform_beliefs(self, like: np.ndarray | None = None) -> np.ndarray:
        shape = self.z.shape if like is None else like.shape
        return np.full(shape, 0.5)

    def llr(self, p: np.ndarray) -> np.ndarray:
        """Extrinsic LLR of every symbol given the others' beliefs."""
        s = 2.0 * p - 1.0
        q = 4.0 * p * (1.0 - p)
        off, off_sq = self.off, self.off_sq
        if p.ndim >= 2 and (off.ndim == 2 or off.shape[-3] == 1):
            # one Gram serves p's use axis: drop J's unit use axis, then (U, M) @ off^T
            gram = off.shape[:-3] + off.shape[-2:]
            mu = s @ np.swapaxes(off.reshape(gram), -1, -2)
            var = q @ np.swapaxes(off_sq.reshape(gram), -1, -2) + self.sigma_v_sq
        else:
            mu = (off @ s[..., None])[..., 0]
            var = (off_sq @ q[..., None])[..., 0] + self.sigma_v_sq
        L = 2.0 * self.diag * (self.z - mu) / var
        return np.clip(L, -self.llr_clip, self.llr_clip)

    def step(self, p: np.ndarray, damping: float,
             extrinsic_llr: np.ndarray | None = None):
        """One damped update. Returns (L, new_p); L excludes extrinsic_llr."""
        L = self.llr(p)
        total = L if extrinsic_llr is None else np.clip(L + extrinsic_llr,
                                                        -self.llr_clip, self.llr_clip)
        p_new = (1.0 - damping) * _logistic(total) + damping * p
        return L, p_new


def mpd_detect(obs: GramObservation, cfg: MpdConfig,
               p_init: np.ndarray | None = None) -> BeliefState:
    """Run the damped message passing schedule on one observation."""
    engine = MpdEngine(obs, llr_clip=cfg.llr_clip)
    p = engine.uniform_beliefs() if p_init is None else np.asarray(p_init, dtype=float)
    history = [p.copy()] if cfg.track_history else None
    window: list[np.ndarray] = []
    L = np.zeros_like(p)
    it = 0
    for it in range(1, cfg.iterations + 1):
        p_prev = p
        L, p = engine.step(p, cfg.damping)
        if cfg.aitken:
            window.append(p.copy())
            if len(window) == 3:
                p = _guarded_aitken(window, cfg.aitken_eps)
                window.clear()
        if history is not None:
            history.append(p.copy())
        if cfg.convergence_tol is not None:
            if np.max(np.abs(p - p_prev)) < cfg.convergence_tol:
                break
    return BeliefState(p=p, llr=L, iteration=it, history=history)


def _guarded_aitken(window: list[np.ndarray], eps: float) -> np.ndarray:
    """Accept the extrapolation only where the increments contract geometrically."""
    p0, p1, p2 = window
    d0 = p1 - p0
    d1 = p2 - p1
    safe = np.abs(d0) > eps
    ratio = d1 / np.where(safe, d0, 1.0)
    contracting = safe & (ratio > 0.0) & (ratio < 1.0)
    q = aitken_step(p0, p1, p2, eps)
    return np.where(contracting, q, p2)


def hard_decision(beliefs) -> np.ndarray:
    """Map beliefs to symbols: +1 where p >= 0.5 (ties to +1), else -1."""
    p = beliefs.p if isinstance(beliefs, BeliefState) else np.asarray(beliefs)
    return np.where(p >= 0.5, 1.0, -1.0)
