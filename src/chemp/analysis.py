"""Convergence diagnostics and the estimation-error propagation bound.

The per-row anti-dominance inequality J_ii - sum_{j!=i}|J_ij| < sum_{j!=i}|J_ij|
of the real-stacked Gram is reported, read from G, alongside classical
diagonal dominance; neither is necessary for the detector to converge, they
are indicators. The LLR error analysis bounds the first-iteration mean
squared LLR perturbation caused by pilot estimation noise, with the pilot
amplitude normalized to 1 and the noise parameter read as the
complex-domain variance (twice the per-real-component variance).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import estimate_gram, estimate_z, receive_pilots
from .model import draw_channels, noise_variance, transmit
from .mpd import MpdConfig, MpdEngine, matched_filter

__all__ = [
    "ConvergenceReport",
    "convergence_condition",
    "fixed_point_residuals",
    "llr_mse_bound",
    "llr_mse_empirical",
]


@dataclass
class ConvergenceReport:
    """Indicator outcomes on a Gram matrix, one per user (..., K)."""

    anti_dominance: np.ndarray
    diagonal_dominance: np.ndarray


def convergence_condition(G: np.ndarray) -> ConvergenceReport:
    """Both row-wise indicators, in float64, of the real stacking J of square
    complex G (..., K, K), Hermitian or not:

    anti_dominance row i:      J_ii - R_i < R_i with R_i = sum_{j!=i} |J_ij|
    diagonal_dominance row i:  J_ii > R_i

    Rows i and K + i of J share J_ii = Re G_ii and R_i = sum_{j!=i} |Re G_ij|
    + sum_j |Im G_ij|, so one outcome per user stands for both."""
    G = np.asarray(G)
    d = np.diagonal(G.real, axis1=-2, axis2=-1).astype(float)
    r = (np.sum(np.abs(G.real, dtype=float), axis=-1) - np.abs(d)
         + np.sum(np.abs(G.imag, dtype=float), axis=-1))
    return ConvergenceReport(anti_dominance=(d - r) < r, diagonal_dominance=d > r)


def fixed_point_residuals(engine: MpdEngine, cfg: MpdConfig) -> np.ndarray:
    """Sup-norm residuals ||p_t - p_{t-1}||_inf of the damped loop `cfg` from
    uniform beliefs, one row per step (iterations, ...).

    For batched observations the norm is over the trailing symbol axis,
    keeping per-trial sequences. The residuals are taken as the loop yields
    its iterates, so only two belief arrays are held at a time.
    """
    if cfg.iterations < 1:
        raise ValueError("need at least one detector step")
    prev = engine.uniform_beliefs()
    res = []
    for _, p in engine.iterate(cfg):
        res.append(np.max(np.abs(p - prev), axis=-1))
        prev = p
    return np.stack(res)


def llr_mse_bound(sigma_v_sq: float, alpha: float, n_antennas: int,
                  z, mu, sigma_i_sq) -> np.ndarray:
    """Per-symbol upper bound on E[(Lhat_i - L_i)^2] from pilot-noise statistics.

    Evaluated with unit pilot amplitude:

        (sv2/s4) * ( alpha (sv2 + 1/2)
                     + [alpha (sv2^2 + sv2/2) + (z - mu)^2] (8 sv2/N + 2/N) )

    where sv2 is sigma_v_sq and s4 = sigma_i_sq^2.
    """
    if sigma_v_sq < 0:
        raise ValueError("sigma_v_sq must be nonnegative")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    z = np.asarray(z, dtype=float)
    mu = np.asarray(mu, dtype=float)
    s2 = np.asarray(sigma_i_sq, dtype=float)
    if np.any(s2 <= 0):
        raise ValueError("sigma_i_sq must be positive")
    sv2 = float(sigma_v_sq)
    n = n_antennas
    lead = sv2 / s2 ** 2
    inner = alpha * (sv2 + 0.5) + (alpha * (sv2 ** 2 + sv2 / 2.0) + (z - mu) ** 2) \
        * (8.0 * sv2 / n + 2.0 / n)
    return lead * inner


def llr_mse_empirical(n_antennas: int, n_users: int, snr_db: float, trials: int,
                      rng: np.random.Generator):
    """First-iteration LLR perturbation from pilot estimation, measured.

    Pilots have unit amplitude. Both LLRs start from uniform beliefs
    (mu_i = 0) and share the true-system interference variance, isolating the
    numerator perturbation the bound models; the true-statistics receiver has
    zero error by construction. All trials run as one batch. Returns
    (mse, mean_bound): the mean squared LLR difference and the mean of
    `llr_mse_bound` over the same symbols.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n, k = n_antennas, n_users
    nv = noise_variance(snr_db, k)
    hc = draw_channels(rng, n, k, trials)
    pilots = receive_pilots(rng, hc, nv, 1.0)
    _, yc = transmit(rng, hc, nv)
    obs = matched_filter(hc, yc, nv)
    # uniform beliefs: each half of symbol i sees sum_{j != i} |G_ij|^2 (on z's one use)
    z, idx = obs.z, np.arange(k)
    g_sq = np.abs(obs.G) ** 2
    g_sq[..., idx, idx] = 0.0
    sigma_i_sq = np.tile(g_sq.sum(axis=-1), 2).reshape(z.shape) + obs.sigma_v_sq
    L = 2.0 * np.tile(obs.G[..., idx, idx].real, 2).reshape(z.shape) * z / sigma_i_sq
    gh = estimate_gram(pilots)
    Lh = (2.0 * np.tile(gh[..., idx, idx].real, 2).reshape(z.shape) * estimate_z(pilots, yc)
          / sigma_i_sq)
    bound = llr_mse_bound(2.0 * nv, k / n, n, z, np.zeros_like(z), sigma_i_sq)
    return float(np.mean((Lh - L) ** 2)), float(np.mean(bound))
