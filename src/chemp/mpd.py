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
`MpdEngine.run` is the one damped loop: the plain detector, the joint
detector/decoder and the EXIT measurement all drive it, the last two with
fixed prior LLRs added to L before the logistic. Every LLR is clipped to
+-LLR_CLIP.

The observation carries G, so J's block structure belongs to the type: the
lower K rows of J repeat the upper K rows with the halves of the belief
vector exchanged, and a step only needs the upper rows.

All entry points accept leading batch dimensions on G and z, and the
loop runs every row of a batch the same fixed number of steps, so a trial's
result does not depend on which other trials share its batch.

Working precision: the engine keeps the off-diagonal J, its square, the
diagonal and z in float32 (`DTYPE`) and runs every step in it, which halves
the bytes a step reads and doubles the width of its vector products; its
entry points cast beliefs and priors to `DTYPE`, so a float64 input cannot
promote a step. The coded receiver is float32 end to end: the LDPC decoder
(`ldpc.SumProduct`) runs in the same `DTYPE` and takes the detector LLRs
as they are. The observation takes the precision of the channel (see
`model`): a complex64 channel, as `model.draw_channels` gives, makes a
complex64 G and a float32 z, so the channel draw, matched filter, detector,
MMSE and decoder all run in single precision; a complex128 channel keeps a
complex128 G and float64 z for reference computations. Float32
rounds each term to a relative 6e-8, and a sum over 2K terms to at most
about 2K times that, so an LLR moves by about 1e-4 at the clip bound. The
Gaussian approximation the detector rests on is coarser by orders of
magnitude: the interference of the other 2K - 1 symbols is a weighted sum
of binary terms, whose distribution departs from a Gaussian by
O(1/sqrt(K)) (Berry-Esseen), about a tenth at K = 64.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import as_complex, gram, real_stack

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
    = [Re zc, Im zc] in G's precision, and the filtered noise variance."""

    G: np.ndarray
    z: np.ndarray
    sigma_v_sq: float

    def __post_init__(self):
        self.G = as_complex(self.G)
        self.z = np.asarray(self.z, dtype=self.G.real.dtype)
        self.sigma_v_sq = float(self.sigma_v_sq)
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


# bound on every detector LLR, with or without priors; joint clips the
# decoder extrinsics it feeds back to the same bound
LLR_CLIP = 50.0
# Aitken denominators and increments below this count as degenerate
_AITKEN_EPS = 1e-12
# working precision of the engine's state and steps
DTYPE = np.float32


@dataclass
class MpdConfig:
    """Schedule of the damped loop: `iterations` steps of belief damping
    `damping`, guarded Aitken extrapolation on every third step when `aitken`
    is set, and a copy of the beliefs after every step when `track_history`
    is set. The joint receiver runs its own step count per outer round."""

    iterations: int = 20
    damping: float = 0.33
    aitken: bool = False
    track_history: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must lie in [0, 1)")


@dataclass
class BeliefState:
    """Final beliefs Pr(x_i = +1), the last step's LLRs (prior excluded), and
    the beliefs before the first and after every step when tracked."""

    p: np.ndarray
    llr: np.ndarray
    history: list | None = None


def matched_filter(hc: np.ndarray, yc: np.ndarray, noise_var: float) -> GramObservation:
    """Reduce complex (hc (..., N, K), yc (..., N)) to the Gram-domain observation.

    G = `model.gram(hc)` and z = [Re, Im] of hc^H yc / N, both in hc's
    precision. The filtered noise has per-component variance noise_var / N
    for unit-variance complex gains.
    """
    hc = as_complex(hc)
    yc = np.asarray(yc, dtype=hc.dtype)
    n = hc.shape[-2]
    zc = (np.conj(np.swapaxes(hc, -1, -2)) @ yc[..., None])[..., 0] / n
    z = np.concatenate([zc.real, zc.imag], axis=-1)
    return GramObservation(G=gram(hc), z=z, sigma_v_sq=noise_var / n)


def _logistic(L: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-L))


def aitken_step(p_t: np.ndarray, p_t1: np.ndarray, p_t2: np.ndarray) -> np.ndarray:
    """Componentwise Aitken extrapolation of three consecutive iterates.

    q_i = p_i - (p'_i - p_i)^2 / (p''_i - 2 p'_i + p_i), passing the newest
    iterate through where the denominator is degenerate, clamped to [0, 1].
    Floating-point iterates keep their dtype; integer ones become float64.
    """
    dtype = np.result_type(p_t, p_t1, p_t2, 0.0)
    p_t = np.asarray(p_t, dtype=dtype)
    p_t1 = np.asarray(p_t1, dtype=dtype)
    p_t2 = np.asarray(p_t2, dtype=dtype)
    den = p_t2 - 2.0 * p_t1 + p_t
    bad = np.abs(den) < _AITKEN_EPS
    q = p_t - (p_t1 - p_t) ** 2 / np.where(bad, 1.0, den)
    return np.clip(np.where(bad, p_t2, q), 0.0, 1.0)


class MpdEngine:
    """Precomputed update kernel for one observation (or batch of them).

    `run` is the damped loop over `step`; the coded receiver and the EXIT
    measurement call it with external symbol priors.

    With one Gram per use (G shaped like z's leading axes), the engine keeps
    only the upper rows of the zero-diagonal J, V = [Re G, -Im G] (..., K, 2K),
    and W = V**2. A step forms mu for both halves as one two-row product per
    Gram, rows [s_r, s_i] and [s_i, -s_r] against V, and var likewise with
    rows [q_r, q_i] and [q_i, q_r] against W (see `_stacked_product`).

    When one Gram serves a use axis of z (G shaped (..., 1, K, K) or (K, K),
    z shaped (..., U, 2K)), the step is compute-bound: the engine keeps the
    transpose of the full zero-diagonal J, J^T = [[Re G^T, Im G^T],
    [-Im G^T, Re G^T]], and W = (J^T)**2, built once from G, and forms
    mu = s J^T and var = q W for all U uses (rows s, q) as one matrix product
    per Gram with no transposed operand; the row s J^T is J s for any
    complex G, Hermitian or not.

    Either way the state is written in `DTYPE` straight from the complex G,
    and every step runs in it.
    """

    def __init__(self, obs: GramObservation):
        G = obs.G
        k = G.shape[-1]
        d = np.diagonal(G, axis1=-2, axis2=-1).real
        self.diag = np.concatenate([d, d], axis=-1, dtype=DTYPE)
        self.shared = obs.z.ndim >= 2 and (G.ndim == 2 or G.shape[-3] == 1)
        rows = 2 * k if self.shared else k
        # the upper rows of the zero-diagonal J, or all of J^T when shared,
        # written straight from complex G
        v = np.empty(G.shape[:-2] + (rows, 2 * k), DTYPE)
        if self.shared:
            gt = np.swapaxes(G, -1, -2)
            v[..., :k, :k] = gt.real
            v[..., :k, k:] = gt.imag
            np.negative(gt.imag, out=v[..., k:, :k])
            v[..., k:, k:] = gt.real
        else:
            v[..., :k, :k] = G.real
            np.negative(G.imag, out=v[..., :k, k:])
        idx = np.arange(rows)
        v[..., idx, idx] = 0.0
        self.v = v
        self.w = v ** 2
        self.z = obs.z.astype(DTYPE)
        self.sigma_v_sq = DTYPE(obs.sigma_v_sq)

    def uniform_beliefs(self) -> np.ndarray:
        return np.full(self.z.shape, 0.5, DTYPE)

    def llr(self, p: np.ndarray) -> np.ndarray:
        """Extrinsic LLR of every symbol given the others' beliefs, in `DTYPE`."""
        p = np.asarray(p, dtype=DTYPE)
        s = 2.0 * p - 1.0
        q = 4.0 * p * (1.0 - p)
        v, w = self.v, self.w
        if self.shared:
            # one Gram serves p's use axis: drop G's unit use axis, then (U, 2K) @ J^T
            gram = v.shape[:-3] + v.shape[-2:]
            mu = s @ v.reshape(gram)
            var = q @ w.reshape(gram) + self.sigma_v_sq
        else:
            mu = _stacked_product(v, s, -1.0)
            var = _stacked_product(w, q, 1.0) + self.sigma_v_sq
        L = 2.0 * self.diag * (self.z - mu) / var
        return np.clip(L, -LLR_CLIP, LLR_CLIP)

    def step(self, p: np.ndarray, damping: float,
             extrinsic_llr: np.ndarray | None = None):
        """One damped update in `DTYPE`. Returns (L, new_p); L excludes
        extrinsic_llr."""
        p = np.asarray(p, dtype=DTYPE)
        L = self.llr(p)
        total = L if extrinsic_llr is None else np.clip(
            L + np.asarray(extrinsic_llr, dtype=DTYPE), -LLR_CLIP, LLR_CLIP)
        p_new = (1.0 - damping) * _logistic(total) + damping * p
        return L, p_new

    def run(self, cfg: MpdConfig, p: np.ndarray | None = None,
            prior: np.ndarray | None = None, steps: int | None = None) -> BeliefState:
        """The damped loop: `steps` (default `cfg.iterations`) steps from
        beliefs p (default uniform) with the prior LLRs held fixed. Beliefs,
        prior and the returned state are in the engine's `DTYPE`."""
        p = self.uniform_beliefs() if p is None else np.asarray(p, dtype=DTYPE)
        prior = None if prior is None else np.asarray(prior, dtype=DTYPE)
        history = [p.copy()] if cfg.track_history else None
        window: list[np.ndarray] = []
        L = None  # no zero array per call: joint runs one call per outer round
        for _ in range(cfg.iterations if steps is None else steps):
            L, p = self.step(p, cfg.damping, prior)
            if cfg.aitken:
                window.append(p.copy())
                if len(window) == 3:
                    p = _guarded_aitken(window)
                    window.clear()
            if history is not None:
                history.append(p.copy())
        return BeliefState(p=p, llr=np.zeros_like(p) if L is None else L, history=history)


def _stacked_product(upper: np.ndarray, a: np.ndarray, sign: float) -> np.ndarray:
    """M a for M = [[P, Q], [sign Q, P]] given its upper rows [P, Q] (..., K, 2K).

    Both halves come from one two-row product per matrix: rows [a_r, a_i]
    and [a_i, sign a_r] of a (..., 2K) against the upper rows. The
    zero-diagonal J has this form with sign -1 (V = [Re G, -Im G]) and J**2
    with sign +1 (W = V**2).
    """
    k = upper.shape[-2]
    rows = np.empty(a.shape[:-1] + (2, 2 * k), np.result_type(a, upper))
    rows[..., 0, :] = a
    rows[..., 1, :k] = a[..., k:]
    np.multiply(a[..., :k], sign, out=rows[..., 1, k:])
    out = rows @ np.swapaxes(upper, -1, -2)
    return out.reshape(out.shape[:-2] + (2 * k,))


def mpd_detect(obs: GramObservation, cfg: MpdConfig) -> BeliefState:
    """Run the damped message passing schedule on one observation."""
    return MpdEngine(obs).run(cfg)


def _guarded_aitken(window: list[np.ndarray]) -> np.ndarray:
    """Accept the extrapolation only where the increments contract geometrically."""
    p0, p1, p2 = window
    d0 = p1 - p0
    d1 = p2 - p1
    safe = np.abs(d0) > _AITKEN_EPS
    ratio = d1 / np.where(safe, d0, 1.0)
    contracting = safe & (ratio > 0.0) & (ratio < 1.0)
    q = aitken_step(p0, p1, p2)
    return np.where(contracting, q, p2)


def hard_decision(beliefs) -> np.ndarray:
    """Map beliefs to symbols: +1 where p >= 0.5 (ties to +1), else -1."""
    p = beliefs.p if isinstance(beliefs, BeliefState) else np.asarray(beliefs)
    return np.where(p >= 0.5, 1.0, -1.0)
