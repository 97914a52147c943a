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


def mp_cdf(x, alpha: float) -> np.ndarray:
    """CDF of the Marchenko-Pastur law, in closed form. On the support (a, b)

        F(x) = 1/2 + (r + (1 + alpha) asin u - (1 - alpha) asin v) / (2 pi alpha)

    with r = sqrt((x - a)(b - x)), u = (2x - a - b) / (b - a) and
    v = ((a + b) x - 2ab) / ((b - a) x); 0 below it and 1 above."""
    _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    a, b = mp_support(alpha)
    inside = (x > a) & (x < b)
    out = np.zeros_like(x)
    out[x >= b] = 1.0
    xs = x[inside]
    r = np.sqrt((xs - a) * (b - xs))
    # u and v lie in [-1, 1] on the support; the clip only absorbs rounding
    u = np.clip((2.0 * xs - a - b) / (b - a), -1.0, 1.0)
    v = np.clip(((a + b) * xs - 2.0 * a * b) / ((b - a) * xs), -1.0, 1.0)
    out[inside] = 0.5 + (r + (1.0 + alpha) * np.arcsin(u)
                         - (1.0 - alpha) * np.arcsin(v)) / (2.0 * np.pi * alpha)
    return out if out.ndim else out[()]


def _normalized_eigs(hc: np.ndarray) -> np.ndarray:
    """Pooled eigenvalues of H^H H / N over complex channels (..., N, K)."""
    if hc.ndim < 2 or hc.size == 0:
        raise ValueError("need at least one N x K channel realization")
    return np.linalg.eigvalsh(gram(hc)).ravel()


def mp_distance(channels: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between pooled empirical eigenvalues of the
    normalized complex Gram matrices of channels (..., N, K) and the
    Marchenko-Pastur CDF of ratio K/N."""
    channels = np.asarray(channels)
    eigs = np.sort(_normalized_eigs(channels))
    n = eigs.size
    ref = mp_cdf(eigs, channels.shape[-1] / channels.shape[-2])
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def eigenvalue_histogram(channels: np.ndarray, bins: int = 40):
    """Histogram of pooled normalized eigenvalues of channels (..., N, K) with
    the MP density overlay of ratio K/N.

    Returns (bin_centers, empirical_density, mp_density_values).
    """
    channels = np.asarray(channels)
    eigs = _normalized_eigs(channels)
    alpha = channels.shape[-1] / channels.shape[-2]
    a, b = mp_support(alpha)
    lo = min(a, float(eigs.min()))
    hi = max(b, float(eigs.max()))
    dens, edges = np.histogram(eigs, bins=bins, range=(lo, hi), density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, dens, mp_density(centers, alpha)
