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
`MpdEngine.iterate` is the one damped loop, a generator of the iterates;
`MpdEngine.run` drains it. The plain detector, the joint detector/decoder and
the EXIT measurement all run it, the last two with fixed prior LLRs added to
L before the logistic, and the fixed-point residuals of `analysis` read its
iterates as they come. Every caller runs its config's `iterations` steps.
Every LLR is clipped to +-LLR_CLIP.

The observation carries G, so J's block structure belongs to the type: the
lower K rows of J repeat the upper K rows with the halves of the belief
vector exchanged, and a step only needs the upper rows.

One layout throughout: a Gram per channel, G (..., K, K), and a row of z
per use, z (..., U, 2K). The loop runs every row of a batch the same fixed
number of steps, so a trial's result does not depend on its batch mates.

Working precision: the engine keeps the off-diagonal J, its square, the
diagonal and z in float32 (`DTYPE`) and runs every step in it, which halves
the bytes a step reads and doubles the width of its vector products; its
entry points cast beliefs and priors to `DTYPE`, so a float64 input cannot
promote a step. The LDPC decoder (`ldpc.SumProduct`) runs in the same
`DTYPE` and takes the detector LLRs as they are. The observation keeps the
precision of the channel, as the whole front end does (see `model`). Float32
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
    "hard_decision",
    "MpdEngine",
]


@dataclass
class GramObservation:
    """Matched-filter statistics: a complex Gram per channel G (..., K, K), a real
    row z = [Re zc, Im zc] per use (..., U, 2K) in G's precision, and the
    filtered noise variance."""

    G: np.ndarray
    z: np.ndarray
    sigma_v_sq: float

    def __post_init__(self):
        self.G = as_complex(self.G)
        self.z = np.asarray(self.z, dtype=self.G.real.dtype)
        self.sigma_v_sq = float(self.sigma_v_sq)
        if self.G.shape[-1] != self.G.shape[-2]:
            raise ValueError("G must be square in its trailing axes")
        if (self.z.ndim != self.G.ndim or self.z.shape[:-2] != self.G.shape[:-2]
                or self.z.shape[-1] != 2 * self.G.shape[-1]):
            raise ValueError(f"z {self.z.shape} must be (..., U, 2K) with the leading axes of G")
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
    `damping`, and guarded Aitken extrapolation on every third step when
    `aitken` is set."""

    iterations: int = 20
    damping: float = 0.33
    aitken: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must lie in [0, 1)")


@dataclass
class BeliefState:
    """Final beliefs Pr(x_i = +1) and the last step's LLRs (prior excluded)."""

    p: np.ndarray
    llr: np.ndarray


def matched_filter(hc: np.ndarray, yc: np.ndarray, noise_var: float) -> GramObservation:
    """Reduce complex channels hc (..., N, K) and received rows yc (..., U, N)
    to the Gram-domain observation.

    G = `model.gram(hc)` and z = [Re, Im] of hc^H yc / N per use, both in
    hc's precision. The filtered noise has per-component variance
    noise_var / N for unit-variance complex gains.
    """
    hc = as_complex(hc)
    n = hc.shape[-2]
    return GramObservation(G=gram(hc), z=_filtered(hc, yc, n), sigma_v_sq=noise_var / n)


def _filtered(a: np.ndarray, yc: np.ndarray, scale) -> np.ndarray:
    """[Re, Im] of a^H y / scale, one product per use row y of yc (..., U, N)."""
    yc = np.asarray(yc, dtype=a.dtype)
    if yc.ndim != a.ndim or yc.shape[:-2] != a.shape[:-2] or yc.shape[-1] != a.shape[-2]:
        raise ValueError(f"yc {yc.shape} must be (..., U, N) with the leading axes of {a.shape}")
    zc = (np.conj(np.swapaxes(a, -1, -2))[..., None, :, :] @ yc[..., None])[..., 0] / scale
    return np.concatenate([zc.real, zc.imag], axis=-1)


class MpdEngine:
    """Precomputed update kernel for one observation (or batch of them).

    `iterate` is the damped loop over `step` and `run` drains it; the coded
    receiver and the EXIT measurement run it with external symbol priors.

    The step follows the use count U of z (..., U, 2K). With one use per Gram
    (U == 1) it is bound by memory: the engine keeps only the upper rows of
    the zero-diagonal J, V = [Re G, -Im G] (..., K, 2K), and W = V**2, and a
    step forms mu for both halves as one two-row product per Gram, rows
    [s_r, s_i] and [s_i, -s_r] against V, and var likewise with rows
    [q_r, q_i] and [q_i, q_r] against W (see `_stacked_product`).

    With U > 1 the step is compute-bound: the engine keeps the transpose of
    the full zero-diagonal J, J^T = [[Re G^T, Im G^T], [-Im G^T, Re G^T]], and
    W = (J^T)**2, built once from G, and forms mu = s J^T and var = q W for
    all U uses (rows s, q) as one matrix product per Gram with no transposed
    operand; the row s J^T is J s for any complex G, Hermitian or not.

    Either way the state is written in `DTYPE` straight from the complex G,
    and every step runs in it.
    """

    def __init__(self, obs: GramObservation):
        G = obs.G
        k = G.shape[-1]
        d = np.diagonal(G, axis1=-2, axis2=-1).real
        self.diag = np.expand_dims(np.concatenate([d, d], axis=-1, dtype=DTYPE), -2)
        self.shared = obs.z.shape[-2] > 1
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
        """Extrinsic LLR of every symbol given the others' beliefs, in `DTYPE`:
        (2 diag) (z - mu) / var, clipped."""
        p = np.asarray(p, dtype=DTYPE)
        # q = (4 p) (1 - p), then s = 2 p - 1 in the buffer of 1 - p
        q = np.multiply(4.0, p)
        s = np.subtract(1.0, p)
        q *= s
        np.multiply(2.0, p, out=s)
        s -= 1.0
        if self.shared:
            mu = s @ self.v
            var = q @ self.w
        else:
            mu = _stacked_product(self.v, s, -1.0)
            var = _stacked_product(self.w, q, 1.0)
        var += self.sigma_v_sq
        L = np.subtract(self.z, mu, out=mu)
        L *= 2.0 * self.diag
        L /= var
        return np.clip(L, -LLR_CLIP, LLR_CLIP, out=L)

    def step(self, p: np.ndarray, damping: float,
             extrinsic_llr: np.ndarray | None = None):
        """One damped update in `DTYPE`: (1 - damping) / (1 + exp(-total))
        + damping p, total = L plus extrinsic_llr, clipped. Returns
        (L, new_p); L excludes extrinsic_llr."""
        p = np.asarray(p, dtype=DTYPE)
        L = self.llr(p)
        if extrinsic_llr is None:
            p_new = np.negative(L)
        else:
            p_new = np.add(L, np.asarray(extrinsic_llr, dtype=DTYPE))
            np.clip(p_new, -LLR_CLIP, LLR_CLIP, out=p_new)
            np.negative(p_new, out=p_new)
        np.exp(p_new, out=p_new)
        p_new += 1.0
        np.divide(1.0, p_new, out=p_new)
        p_new *= 1.0 - damping
        p_new += damping * p
        return L, p_new

    def iterate(self, cfg: MpdConfig, p: np.ndarray | None = None,
                prior: np.ndarray | None = None):
        """The damped loop: `cfg.iterations` steps from beliefs p (default
        uniform) with the prior LLRs held fixed, yielding (L, p) after each
        step, after any Aitken replacement. Beliefs and prior are cast to the
        engine's `DTYPE`; `step` and the extrapolation return fresh arrays, so
        no yielded array is written afterwards."""
        p = self.uniform_beliefs() if p is None else np.asarray(p, dtype=DTYPE)
        prior = None if prior is None else np.asarray(prior, dtype=DTYPE)
        window: list[np.ndarray] = []
        for _ in range(cfg.iterations):
            L, p = self.step(p, cfg.damping, prior)
            if cfg.aitken:
                window.append(p)
                if len(window) == 3:
                    p = _guarded_aitken(*window)
                    window.clear()
            yield L, p

    def run(self, cfg: MpdConfig, p: np.ndarray | None = None,
            prior: np.ndarray | None = None) -> BeliefState:
        """The last iterate of `iterate`: zero LLRs and the starting beliefs
        when no step runs."""
        p = self.uniform_beliefs() if p is None else np.asarray(p, dtype=DTYPE)
        L = None  # no zero array per call: joint runs one call per outer round
        for L, p in self.iterate(cfg, p, prior):
            pass
        return BeliefState(p=p, llr=np.zeros_like(p) if L is None else L)


def _stacked_product(upper: np.ndarray, a: np.ndarray, sign: float) -> np.ndarray:
    """M a per use row of a (..., U, 2K), M = [[P, Q], [sign Q, P]] given its
    upper rows [P, Q] (..., K, 2K).

    Both halves come from one two-row product per matrix and use: rows
    [a_r, a_i] and [a_i, sign a_r] against the upper rows. The zero-diagonal
    J has this form with sign -1 (V = [Re G, -Im G]) and J**2 with sign +1.
    """
    k = upper.shape[-2]
    rows = np.empty(a.shape[:-1] + (2, 2 * k), np.result_type(a, upper))
    rows[..., 0, :] = a
    rows[..., 1, :k] = a[..., k:]
    np.multiply(a[..., :k], sign, out=rows[..., 1, k:])
    out = rows @ np.expand_dims(np.swapaxes(upper, -1, -2), -3)
    return out.reshape(out.shape[:-2] + (2 * k,))


def mpd_detect(obs: GramObservation, cfg: MpdConfig) -> BeliefState:
    """Run the damped message passing schedule on one observation."""
    return MpdEngine(obs).run(cfg)


def _guarded_aitken(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Componentwise Aitken extrapolation of three consecutive iterates,
    q = p0 - (p1 - p0)^2 / (p2 - 2 p1 + p0) clamped to [0, 1] (p2 where the
    denominator is degenerate), accepted only where the increments contract
    geometrically; p2 elsewhere."""
    d0 = p1 - p0
    d1 = p2 - p1
    safe = np.abs(d0) > _AITKEN_EPS
    ratio = d1 / np.where(safe, d0, 1.0)
    contracting = safe & (ratio > 0.0) & (ratio < 1.0)
    den = p2 - 2.0 * p1 + p0
    bad = np.abs(den) < _AITKEN_EPS
    q = np.clip(np.where(bad, p2, p0 - d0 ** 2 / np.where(bad, 1.0, den)), 0.0, 1.0)
    return np.where(contracting, q, p2)


def hard_decision(beliefs) -> np.ndarray:
    """Map beliefs to symbols: +1 where p >= 0.5 (ties to +1), else -1."""
    p = beliefs.p if isinstance(beliefs, BeliefState) else np.asarray(beliefs)
    return np.where(p >= 0.5, 1.0, -1.0)
