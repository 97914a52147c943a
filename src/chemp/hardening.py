"""Gram-matrix concentration diagnostics and the limiting eigenvalue law.

As the array grows at fixed loading alpha = K/N, the normalized Gram matrix
G = H^H H / N (`model.gram`) concentrates: diagonal entries tighten around the
per-user variance and off-diagonal entries shrink like 1/sqrt(N). The
concentration report reads the real stacking J of G; the eigenvalue
spectrum of G approaches the Marchenko-Pastur density with ratio alpha.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import gram

__all__ = [
    "HardeningReport",
    "hardening_report",
    "mp_density",
    "mp_cdf",
    "mp_support",
    "mp_distance",
    "eigenvalue_histogram",
]


@dataclass
class HardeningReport:
    """Summary statistics of diagonal concentration and off-diagonal leakage,
    one value per matrix (floats for a single matrix)."""

    diag_mean: float | np.ndarray
    diag_std: float | np.ndarray
    offdiag_rms: float | np.ndarray
    offdiag_max: float | np.ndarray
    size: int


def hardening_report(J: np.ndarray) -> HardeningReport:
    """Diagonal and off-diagonal statistics of real-stacked Grams J (..., 2K, 2K)."""
    J = np.asarray(J, dtype=float)
    m = J.shape[-1]
    d = np.diagonal(J, axis1=-2, axis2=-1)
    off = J[..., ~np.eye(m, dtype=bool)]
    stats = (d.mean(axis=-1), d.std(axis=-1), np.sqrt(np.mean(off ** 2, axis=-1)),
             np.max(np.abs(off), axis=-1))
    return HardeningReport(*(v if v.ndim else float(v) for v in stats), size=m)


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
    from scipy import integrate  # imported here: no sweep needs scipy.integrate

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
    return np.linalg.eigvalsh(gram(hc)).ravel()


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
