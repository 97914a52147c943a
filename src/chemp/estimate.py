"""Pilot-based estimation of the Gram-domain statistics and of the channel.

Each user transmits an amplitude-P pilot alone in one of K pilot uses,
P = sqrt(K * Es). The complex pilot block is Y_p = P H_c + W_p (N x K). The
receiver forms the detector inputs directly from Y_p:

    Ghat = Y_p^H Y_p / (N P^2) - (2 sigma_n^2 / P^2) I
    zhat = [Re, Im] of Y_p^H y_c / (N P)

so no explicit channel matrix estimate is needed. The diagonal correction
removes the pilot-noise bias E[W_p^H W_p] / (N P^2) exactly. A per-entry
linear MMSE channel estimate is provided for the estimated-CSI MMSE baseline.

The pilot block takes the precision of the channel: the pilot noise is a
complex64 CN(0, 1) draw from the channel sampler (`model.draw_channels`'s
polar form) scaled by sqrt(2 sigma_n^2), and every estimate keeps the
block's precision (complex64 and float32 for a complex64 channel).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _complex_normal, as_complex, gram
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
    """Received complex pilot block (..., N, K) with the pilot amplitude."""

    Y_p: np.ndarray
    amplitude: float
    noise_var: float

    def __post_init__(self):
        self.Y_p = as_complex(self.Y_p)
        if self.amplitude <= 0:
            raise ValueError("pilot amplitude must be positive")
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")

    @property
    def n_antennas(self) -> int:
        return self.Y_p.shape[-2]


def pilot_amplitude(n_users: int) -> float:
    """P = sqrt(K * Es), Es = 2: one user at a time spends the pooled per-use energy."""
    return float(np.sqrt(2.0 * n_users))


def receive_pilots(rng: np.random.Generator, hc: np.ndarray, noise_var: float,
                   amplitude: float) -> PilotObservation:
    """Simulate the K orthogonal pilot uses of complex channels hc (..., N, K):
    column i of the block is h_i scaled by P plus receiver noise."""
    hc = as_complex(hc)
    wc = _complex_normal(rng, hc.shape) * np.float32(np.sqrt(2.0 * noise_var))
    return PilotObservation(Y_p=amplitude * hc + wc, amplitude=amplitude, noise_var=noise_var)


def estimate_gram(pilots: PilotObservation) -> np.ndarray:
    """Bias-corrected complex Gram estimate Ghat (..., K, K).

    `model.gram(Y_p) / P^2` less 2 sigma_n^2 / P^2 on the diagonal, the exact
    expectation of the pilot-noise term.
    """
    p2 = pilots.amplitude ** 2
    g = gram(pilots.Y_p) / p2
    idx = np.arange(g.shape[-1])
    g[..., idx, idx] -= 2.0 * pilots.noise_var / p2
    return g


def estimate_z(pilots: PilotObservation, yc: np.ndarray) -> np.ndarray:
    """Matched-filter estimate zhat = [Re, Im] of Y_p^H yc / (N P)."""
    yc = np.asarray(yc, dtype=pilots.Y_p.dtype)
    zc = ((np.conj(np.swapaxes(pilots.Y_p, -1, -2)) @ yc[..., None])[..., 0]
          / (pilots.n_antennas * pilots.amplitude))
    return np.concatenate([zc.real, zc.imag], axis=-1)


def gram_observation_from_pilots(pilots: PilotObservation, yc: np.ndarray) -> GramObservation:
    """Assemble the detector input entirely from the pilot block."""
    return GramObservation(
        G=estimate_gram(pilots),
        z=estimate_z(pilots, yc),
        sigma_v_sq=pilots.noise_var / pilots.n_antennas,
    )


def mmse_channel_estimate(pilots: PilotObservation) -> np.ndarray:
    """Per-entry linear MMSE estimate Hhat = P Y_p / (P^2 + 2 sigma_n^2), complex
    (..., N, K): unit-variance gains under complex noise of variance 2 sigma_n^2."""
    p = pilots.amplitude
    return p * pilots.Y_p / (p ** 2 + 2.0 * pilots.noise_var)
