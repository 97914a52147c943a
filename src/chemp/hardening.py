"""Gram-matrix concentration diagnostics and the limiting eigenvalue law.

As the array grows at fixed loading alpha = K/N, the normalized Gram matrix
J = H^T H / N concentrates: diagonal entries tighten around the per-user
variance and off-diagonal entries shrink like 1/sqrt(N). The eigenvalue
spectrum of the normalized complex Gram matrix approaches the
Marchenko-Pastur density with ratio alpha.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

__all__ = [
    "GramMatrix",
    "HardeningReport",
    "gram",
    "hardening_report",
    "mp_density",
    "mp_cdf",
    "mp_support",
    "mp_distance",
    "eigenvalue_histogram",
]


@dataclass
class GramMatrix:
    """Normalized Gram matrix J = H^T H / N with its normalization."""

    J: np.ndarray
    n_antennas: int

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        if self.J.ndim != 2 or self.J.shape[0] != self.J.shape[1]:
            raise ValueError("J must be square")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be positive")


@dataclass
class HardeningReport:
    """Summary statistics of diagonal concentration and off-diagonal leakage."""

    diag_mean: float
    diag_std: float
    offdiag_rms: float
    offdiag_max: float
    size: int


def gram(H: np.ndarray, n_antennas: int) -> GramMatrix:
    """J = H^T H / N, symmetrized to remove floating-point asymmetry."""
    H = np.asarray(H, dtype=float)
    m = H.T @ H / n_antennas
    return GramMatrix(J=(m + m.T) / 2.0, n_antennas=n_antennas)


def hardening_report(g: GramMatrix | np.ndarray) -> HardeningReport:
    J = g.J if isinstance(g, GramMatrix) else np.asarray(g, dtype=float)
    d = np.diag(J)
    off = J[~np.eye(J.shape[0], dtype=bool)]
    return HardeningReport(
        diag_mean=float(d.mean()),
        diag_std=float(d.std()),
        offdiag_rms=float(np.sqrt(np.mean(off ** 2))),
        offdiag_max=float(np.max(np.abs(off))),
        size=J.shape[0],
    )


def mp_support(alpha: float) -> tuple[float, float]:
    """Support endpoints [(1-sqrt(alpha))^2, (1+sqrt(alpha))^2]."""
    _check_alpha(alpha)
    r = np.sqrt(alpha)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def _check_alpha(alpha: float):
    if not (0.0 < alpha <= 1.0):
        raise ValueError("loading factor alpha must lie in (0, 1]")


def mp_density(x, alpha: float) -> np.ndarray:
    """Marchenko-Pastur density for ratio alpha <= 1 (no point mass at 0)."""
    _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    a, b = mp_support(alpha)
    inside = (x > a) & (x < b)
    out = np.zeros_like(x)
    xs = x[inside]
    out[inside] = np.sqrt((xs - a) * (b - xs)) / (2.0 * np.pi * alpha * xs)
    return out


def _mp_cdf_scalar(x: float, alpha: float) -> float:
    a, b = mp_support(alpha)
    if x <= a:
        return 0.0
    if x >= b:
        return 1.0
    # substitute x = a + (b-a) sin^2 t: the integrand becomes smooth even at
    # alpha = 1 where the density has an inverse-sqrt edge
    t_hi = np.arcsin(np.sqrt((x - a) / (b - a)))
    w = b - a

    def g(t):
        s2 = np.sin(t) ** 2
        xx = a + w * s2
        return (w ** 2) * 2.0 * s2 * (1.0 - s2) / (2.0 * np.pi * alpha * xx)

    val, _ = integrate.quad(g, 0.0, t_hi, limit=200)
    return min(max(val, 0.0), 1.0)


def mp_cdf(x, alpha: float) -> np.ndarray:
    """CDF of the Marchenko-Pastur law, by numerical quadrature."""
    _check_alpha(alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([_mp_cdf_scalar(v, alpha) for v in xs])
    return out if np.ndim(x) else out[0]


def _normalized_eigs(hc: np.ndarray) -> np.ndarray:
    """Pooled eigenvalues of H^H H / N over complex channels (..., N, K)."""
    if hc.ndim < 2 or hc.size == 0:
        raise ValueError("need at least one N x K channel realization")
    g = np.swapaxes(hc.conj(), -1, -2) @ hc / hc.shape[-2]
    return np.linalg.eigvalsh(g).ravel()


def mp_distance(channels: np.ndarray, alpha: float | None = None) -> float:
    """Kolmogorov-Smirnov distance between pooled empirical eigenvalues of the
    normalized complex Gram matrices of channels (..., N, K) and the
    Marchenko-Pastur CDF."""
    channels = np.asarray(channels)
    eigs = np.sort(_normalized_eigs(channels))
    if alpha is None:
        alpha = channels.shape[-1] / channels.shape[-2]
    _check_alpha(alpha)
    n = eigs.size
    ref = mp_cdf(eigs, alpha)
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def eigenvalue_histogram(channels: np.ndarray, bins: int = 40, alpha: float | None = None):
    """Histogram of pooled normalized eigenvalues of channels (..., N, K) with
    the MP density overlay.

    Returns (bin_centers, empirical_density, mp_density_values).
    """
    channels = np.asarray(channels)
    eigs = _normalized_eigs(channels)
    if alpha is None:
        alpha = channels.shape[-1] / channels.shape[-2]
    a, b = mp_support(alpha)
    lo = min(a, float(eigs.min()))
    hi = max(b, float(eigs.max()))
    dens, edges = np.histogram(eigs, bins=bins, range=(lo, hi), density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, dens, mp_density(centers, alpha)
