"""Pilot-based estimation of the Gram-domain statistics and of the channel.

Each user transmits an amplitude-P pilot alone in one of K pilot uses,
P = sqrt(K * Es). Stacked, the pilot block is Y_p = P H + W_p (2N x 2K).
The receiver forms the detector inputs directly from Y_p:

    Jhat = Y_p^T Y_p / (N P^2) - (2 sigma_n^2 / P^2) I
    zhat = Y_p^T y / (N P)

so no explicit channel matrix estimate is needed. The diagonal correction
removes the pilot-noise bias E[W_p^T W_p] / (N P^2) exactly. A per-entry
linear channel estimate is provided for the estimated-CSI MMSE baseline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import real_stack
from .mpd import GramObservation

__all__ = [
    "PilotObservation",
    "pilot_amplitude",
    "receive_pilots",
    "estimate_gram",
    "estimate_z",
    "gram_observation_from_pilots",
    "mmse_channel_estimate",
]


@dataclass
class PilotObservation:
    """Received pilot block, real-stacked, with the pilot amplitude."""

    Y_p: np.ndarray
    amplitude: float
    noise_var: float

    def __post_init__(self):
        self.Y_p = np.asarray(self.Y_p, dtype=float)
        if self.Y_p.shape[-2] % 2 or self.Y_p.shape[-1] % 2:
            raise ValueError("stacked pilot block must have even dimensions")
        if self.amplitude <= 0:
            raise ValueError("pilot amplitude must be positive")
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")

    @property
    def n_antennas(self) -> int:
        return self.Y_p.shape[-2] // 2


def pilot_amplitude(n_users: int, symbol_energy: float = 2.0) -> float:
    """P = sqrt(K * Es): one user at a time spends the pooled per-use energy."""
    return float(np.sqrt(n_users * symbol_energy))


def receive_pilots(rng: np.random.Generator, hc: np.ndarray, noise_var: float,
                   amplitude: float) -> PilotObservation:
    """Simulate the K orthogonal pilot uses of complex channels hc (..., N, K).

    Each complex pilot observation column is h_i scaled by P plus receiver
    noise; stacking the complex block keeps the paired real structure.
    """
    wc = (rng.standard_normal(hc.shape) + 1j * rng.standard_normal(hc.shape)) * np.sqrt(noise_var)
    return PilotObservation(Y_p=real_stack(amplitude * hc + wc), amplitude=amplitude,
                            noise_var=noise_var)


def estimate_gram(pilots: PilotObservation, subtract_bias: bool = True) -> np.ndarray:
    """Gram estimate Y_p^T Y_p / (N P^2), optionally bias-corrected.

    The correction subtracts 2 sigma_n^2 / P^2 from the diagonal, the exact
    expectation of the pilot-noise term; skip it when the noise level is
    unknown.
    """
    n = pilots.n_antennas
    yp = pilots.Y_p
    p2 = pilots.amplitude ** 2
    j = np.swapaxes(yp, -1, -2) @ yp / (n * p2)
    j = (j + np.swapaxes(j, -1, -2)) / 2.0
    if subtract_bias:
        idx = np.arange(j.shape[-1])
        j[..., idx, idx] -= 2.0 * pilots.noise_var / p2
    return j


def estimate_z(pilots: PilotObservation, y: np.ndarray) -> np.ndarray:
    """Matched-filter estimate zhat = Y_p^T y / (N P)."""
    y = np.asarray(y, dtype=float)
    return ((np.swapaxes(pilots.Y_p, -1, -2) @ y[..., None])[..., 0]
            / (pilots.n_antennas * pilots.amplitude))


def gram_observation_from_pilots(pilots: PilotObservation, y: np.ndarray) -> GramObservation:
    """Assemble the detector input entirely from the pilot block.

    Jhat has the real-stacking block form [[A, -B], [B, A]] of a Hermitian
    Ghat = A + jB; Ghat is read from its left blocks.
    """
    j = estimate_gram(pilots)
    k = j.shape[-1] // 2
    return GramObservation(
        G=j[..., :k, :k] + 1j * j[..., k:, :k],
        z=estimate_z(pilots, y),
        sigma_v_sq=pilots.noise_var / pilots.n_antennas,
    )


def mmse_channel_estimate(pilots: PilotObservation) -> np.ndarray:
    """Per-entry linear estimate Hhat = P Y_p / (P^2 + sigma_n^2)."""
    p = pilots.amplitude
    return p * pilots.Y_p / (p ** 2 + pilots.noise_var)
