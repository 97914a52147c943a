"""Gram-domain message passing detector.

The complex matched-filter observation zc = Hc^H yc / N obeys zc = G xc + vc
with the Hermitian Gram G = Hc^H Hc / N. In the real stacking x = [Re xc, Im xc]
the detector sees z = [Re zc, Im zc] = J x + v with J = [[Re G, -Im G],
[Im G, Re G]]. Each symbol's interference-plus-noise is approximated as
Gaussian with moments accumulated from the other symbols' beliefs:

    mu_i      = sum_{j != i} J_ij (2 p_j - 1)
    sigma_i^2 = sum_{j != i} 4 J_ij^2 p_j (1 - p_j) + sigma_v^2
    L_i       = (2 J_ii / sigma_i^2) (z_i - mu_i)

Beliefs p_i = logistic(L_i) iterate with damping; an optional guarded Aitken
extrapolation accelerates the damped sequence once it contracts geometrically.

The observation carries G, so J's block structure belongs to the type: the
lower K rows of J repeat the upper K rows with the halves of the belief
vector exchanged, and a step only needs the upper rows.

All entry points accept leading batch dimensions on G and z.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import real_stack

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
    """Matched-filter statistics: complex Gram G (..., K, K), real z (..., 2K)
    = [Re zc, Im zc], and the filtered noise variance."""

    G: np.ndarray
    z: np.ndarray
    sigma_v_sq: float

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=complex)
        self.z = np.asarray(self.z, dtype=float)
        if self.G.shape[-1] != self.G.shape[-2]:
            raise ValueError("G must be square in its trailing axes")
        if self.z.shape[-1] != 2 * self.G.shape[-1]:
            raise ValueError("z length must be twice the size of G")
        if not np.all(np.isfinite(self.G)) or not np.all(np.isfinite(self.z)):
            raise ValueError("observation must be finite")
        if self.sigma_v_sq <= 0:
            raise ValueError("sigma_v_sq must be positive")

    @property
    def J(self) -> np.ndarray:
        """The real-stacked Gram [[Re G, -Im G], [Im G, Re G]] (..., 2K, 2K)."""
        return real_stack(self.G)


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


def matched_filter(hc: np.ndarray, yc: np.ndarray, noise_var: float,
                   n_antennas: int | None = None) -> GramObservation:
    """Reduce complex (hc (..., N, K), yc (..., N)) to the Gram-domain observation.

    G = hc^H hc / N, symmetrised as (G + G^H) / 2 so that it is exactly
    Hermitian with a real diagonal, and z = [Re, Im] of hc^H yc / N. The
    filtered noise has per-component variance noise_var / N for unit-variance
    complex gains.
    """
    hc = np.asarray(hc, dtype=complex)
    yc = np.asarray(yc, dtype=complex)
    n = n_antennas if n_antennas is not None else hc.shape[-2]
    hh = np.conj(np.swapaxes(hc, -1, -2))
    gram = hh @ hc
    G = np.conj(np.swapaxes(gram, -1, -2))
    G += gram
    G *= 0.5 / n
    zc = (hh @ yc[..., None])[..., 0] / n
    z = np.concatenate([zc.real, zc.imag], axis=-1)
    return GramObservation(G=G, z=z, sigma_v_sq=noise_var / n)


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

    With one Gram per use (G shaped like z's leading axes), the engine keeps
    only the upper rows of the zero-diagonal J, V = [Re G, -Im G] (..., K, 2K),
    and W = V**2. A step forms mu for both halves as one two-row product per
    Gram, rows [s_r, s_i] and [s_i, -s_r] against V, and var likewise with
    rows [q_r, q_i] and [q_i, q_r] against W (see `_stacked_product`).

    When one Gram serves a use axis of z (G shaped (..., 1, K, K) or (K, K),
    z shaped (..., U, 2K)), the step is compute-bound: the engine keeps the
    full zero-diagonal J and its square, built once from G, and forms mu and
    var for all U uses as one matrix product per Gram.
    """

    def __init__(self, obs: GramObservation, llr_clip: float = 50.0):
        G = obs.G
        k = G.shape[-1]
        d = np.diagonal(G, axis1=-2, axis2=-1).real
        self.diag = np.concatenate([d, d], axis=-1)
        self.shared = obs.z.ndim >= 2 and (G.ndim == 2 or G.shape[-3] == 1)
        if self.shared:
            v = real_stack(G)
            idx = np.arange(2 * k)
        else:
            v = np.concatenate([G.real, -G.imag], axis=-1)
            idx = np.arange(k)
        v[..., idx, idx] = 0.0
        self.v = v
        self.w = v ** 2
        self.z = obs.z
        self.sigma_v_sq = obs.sigma_v_sq
        self.llr_clip = llr_clip

    def uniform_beliefs(self, like: np.ndarray | None = None) -> np.ndarray:
        shape = self.z.shape if like is None else like.shape
        return np.full(shape, 0.5)

    def llr(self, p: np.ndarray) -> np.ndarray:
        """Extrinsic LLR of every symbol given the others' beliefs."""
        s = 2.0 * p - 1.0
        q = 4.0 * p * (1.0 - p)
        v, w = self.v, self.w
        if self.shared:
            # one Gram serves p's use axis: drop G's unit use axis, then (U, 2K) @ J^T
            gram = v.shape[:-3] + v.shape[-2:]
            mu = s @ np.swapaxes(v.reshape(gram), -1, -2)
            var = q @ np.swapaxes(w.reshape(gram), -1, -2) + self.sigma_v_sq
        else:
            mu = _stacked_product(v, s, -1.0)
            var = _stacked_product(w, q, 1.0) + self.sigma_v_sq
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


def _stacked_product(upper: np.ndarray, a: np.ndarray, sign: float) -> np.ndarray:
    """M a for M = [[P, Q], [sign Q, P]] given its upper rows [P, Q] (..., K, 2K).

    Both halves come from one two-row product per matrix: rows [a_r, a_i]
    and [a_i, sign a_r] of a (..., 2K) against the upper rows. The
    zero-diagonal J has this form with sign -1 (V = [Re G, -Im G]) and J**2
    with sign +1 (W = V**2).
    """
    k = upper.shape[-2]
    rows = np.empty(a.shape[:-1] + (2, 2 * k))
    rows[..., 0, :] = a
    rows[..., 1, :k] = a[..., k:]
    np.multiply(a[..., :k], sign, out=rows[..., 1, k:])
    out = rows @ np.swapaxes(upper, -1, -2)
    return out.reshape(out.shape[:-2] + (2 * k,))


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
