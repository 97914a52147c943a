"""Uplink system model: complex channel draws, the Hermitian Gram, real
stacking, QPSK mapping.

K single-antenna users send to an N-antenna base station, y_c = H_c x_c + w_c
with H_c of shape (N, K), x_c = x_r + j x_i a QPSK vector with components in
{-1,+1} and w_c complex Gaussian noise. Every receiver reads the complex
model through the Hermitian Gram G = H_c^H H_c / N; a real 2K-dim symbol
vector x = [x_r, x_i] meets only the real stacking of G (`real_stack`).

SNR convention: per-real-component symbol amplitude is 1 (Es = 2 per complex
symbol) and the average received SNR is K*Es / (2*sigma_n^2), with sigma_n^2
the variance of each real noise component.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "draw_channels",
    "gram",
    "real_stack",
    "receive",
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
    # real parts first, as in standard_normal(shape) + 1j * standard_normal(shape),
    # written in place: the same values without the temporaries
    g = np.empty(shape, complex)
    g.real = rng.standard_normal(shape)
    g.imag = rng.standard_normal(shape)
    g /= np.sqrt(2.0)
    return g


def gram(hc: np.ndarray) -> np.ndarray:
    """G = hc^H hc / N of complex (..., N, K) matrices.

    Symmetrised as (G + G^H) / 2 so that it is exactly Hermitian with a
    real diagonal.
    """
    hc = np.asarray(hc, dtype=complex)
    g = np.conj(np.swapaxes(hc, -1, -2)) @ hc
    G = np.conj(np.swapaxes(g, -1, -2))
    G += g
    G *= 0.5 / hc.shape[-2]
    return G


def real_stack(m: np.ndarray) -> np.ndarray:
    """Real-valued stacking [[Re, -Im], [Im, Re]] of complex (..., R, C) matrices."""
    top = np.concatenate([m.real, -m.imag], axis=-1)
    bot = np.concatenate([m.imag, m.real], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def receive(hc: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Complex received rows y_c = x_c H_c^T + w_c over channels hc (..., N, K).

    x (..., 2K) holds the symbol components [x_r, x_i] and w (..., 2N) the
    noise components [w_r, w_i], one row per channel use.
    """
    n, k = hc.shape[-2:]
    xc = x[..., :k] + 1j * x[..., k:]
    return xc @ np.swapaxes(hc, -1, -2) + (w[..., :n] + 1j * w[..., n:])


def noise_variance(snr_db: float, n_users: int) -> float:
    """Per-real-component noise variance for a target average SNR."""
    return n_users / 10.0 ** (snr_db / 10.0)


def modulate(bits: np.ndarray) -> np.ndarray:
    """Map bits {0,1} to antipodal components: 0 -> +1, 1 -> -1."""
    bits = np.asarray(bits)
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    return 1.0 - 2.0 * bits.astype(float)
