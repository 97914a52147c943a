"""Uplink system model: complex channel draws, real-valued stacking, QPSK mapping.

K single-antenna users send to an N-antenna base station. The complex model
y_c = H_c x_c + w_c is carried in an equivalent real form
y = H x + w with H = [[Re H_c, -Im H_c], [Im H_c, Re H_c]] of shape (2N, 2K),
x in {-1,+1}^{2K} holding the real and imaginary QPSK components, and w real
Gaussian noise.

SNR convention: per-real-component symbol amplitude is 1 (Es = 2 per complex
symbol) and the average received SNR is K*Es / (2*sigma_n^2), with sigma_n^2
the variance of each real noise component.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "draw_channels",
    "real_stack",
    "noise_variance",
    "modulate",
]


def draw_channels(rng: np.random.Generator, n: int, k: int, batch=()) -> np.ndarray:
    """I.i.d. unit-variance complex Gaussian channels of shape batch + (N, K).

    `batch` is an int or a shape tuple; the default draws one N x K matrix.
    Loading factor K/N must not exceed 1.
    """
    if k < 1 or n < 1:
        raise ValueError("need at least one user and one antenna")
    if k > n:
        raise ValueError("overloaded system (K > N) is not supported")
    shape = ((batch,) if np.ndim(batch) == 0 else tuple(batch)) + (n, k)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g / np.sqrt(2.0)


def real_stack(m: np.ndarray) -> np.ndarray:
    """Real-valued stacking [[Re, -Im], [Im, Re]] of complex (..., R, C) matrices."""
    top = np.concatenate([m.real, -m.imag], axis=-1)
    bot = np.concatenate([m.imag, m.real], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def noise_variance(snr_db: float, n_users: int, symbol_energy: float = 2.0) -> float:
    """Per-real-component noise variance for a target average SNR."""
    return n_users * symbol_energy / (2.0 * 10.0 ** (snr_db / 10.0))


def modulate(bits: np.ndarray) -> np.ndarray:
    """Map bits {0,1} to antipodal components: 0 -> +1, 1 -> -1."""
    bits = np.asarray(bits)
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    return 1.0 - 2.0 * bits.astype(float)
