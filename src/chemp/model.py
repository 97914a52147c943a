"""Uplink system model: complex channel draws, channel uses, the Hermitian
Gram, real stacking, QPSK mapping and its check that bits are 0 or 1.

K single-antenna users send to an N-antenna base station, y_c = H_c x_c + w_c
with H_c of shape (N, K), x_c = x_r + j x_i a QPSK vector with components in
{-1,+1} and w_c complex Gaussian noise. Every receiver reads the complex
model through the Hermitian Gram G = H_c^H H_c / N; a real 2K-dim symbol
vector x = [x_r, x_i] meets only the real stacking of G (`real_stack`).

SNR convention: per-real-component symbol amplitude is 1 (Es = 2 per complex
symbol) and the average received SNR is K*Es / (2*sigma_n^2), with sigma_n^2
the variance of each real noise component.

Precision: channels are drawn in complex64 in polar form, sqrt(E) e^{j theta}
with E ~ Exp(1) and theta ~ U[0, 2 pi), which is exactly the CN(0, 1) law.
The radius is the float64 exponential rounded once to float32; the phase,
its cosine and sine are float32. numpy dispatches float32 `sin`/`cos` to
SIMD kernels chosen for the CPU, so, as with BLAS rounding, bit-exact
streams may differ between machines. The front end keeps the precision of
the channel it is given: `gram`, `transmit`, the matched filter, the pilot
estimates and the MMSE solve map complex64 to complex64 (float32 for real
outputs) and complex128 to complex128 (float64). A drawn channel therefore
runs the whole receiver in single precision, and a complex128 one serves
reference computations. Symbols and data noise are drawn in float64 and
rounded once where they meet the channel; pilot noise comes from the
channel's own sampler (`estimate`). Single precision rounds each entry to a
relative 6e-8; the Gram of N = 64 antennas then agrees with the complex128
Gram of the same rounded channel to about 5e-7, far inside the spread of a
channel draw. The detector's own working precision is `mpd.DTYPE`.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "draw_channels",
    "gram",
    "real_stack",
    "transmit",
    "noise_variance",
    "modulate",
]


def draw_channels(rng: np.random.Generator, n: int, k: int, batch=()) -> np.ndarray:
    """I.i.d. unit-variance complex Gaussian channels of shape batch + (N, K), complex64.

    `batch` is an int or a shape tuple of sizes >= 1; the default draws one
    N x K matrix. Loading factor K/N must not exceed 1.
    """
    if k < 1 or n < 1:
        raise ValueError("need at least one user and one antenna")
    if k > n:
        raise ValueError("overloaded system (K > N) is not supported")
    batch = (batch,) if np.ndim(batch) == 0 else tuple(batch)
    if min(batch, default=1) < 1:
        raise ValueError("need at least one channel realization in each batch axis")
    return _complex_normal(rng, batch + (n, k))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries of the given shape, complex64, in polar form.

    h = sqrt(E) e^{j theta} with E ~ Exp(1) and theta ~ U[0, 2 pi)
    independent (the complex form of Box and Muller): one float64
    exponential and one float32 uniform per entry, in that order. The
    exponentials are drawn into the output's own buffer, so the draw needs
    no more memory than the channels and two float32 arrays.
    """
    g = np.empty(shape, np.complex64)
    r = np.sqrt(rng.standard_exponential(out=g.view(np.float64)), dtype=np.float32)
    th = rng.random(shape, dtype=np.float32)
    th *= np.float32(2 * np.pi)
    np.cos(th, out=g.real)
    g.real *= r
    np.sin(th, out=th)
    np.multiply(r, th, out=g.imag)
    return g


def as_complex(a) -> np.ndarray:
    """`a` as a complex array of its own precision: complex64 or float32 input
    gives complex64, any other input complex128."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, np.complex64), copy=False)


def gram(hc: np.ndarray) -> np.ndarray:
    """G = hc^H hc / N of complex (..., N, K) matrices, in hc's precision.

    Symmetrised as (G + G^H) / 2 so that it is exactly Hermitian with a
    real diagonal.
    """
    hc = as_complex(hc)
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


def transmit(rng: np.random.Generator, hc: np.ndarray, noise_var: float, x=None,
             uses: int = 1):
    """Symbols and complex received rows y_c = x_c H_c^T + w_c of channel uses
    over channels hc (..., N, K); returns (x, yc), yc in hc's precision.

    x (..., U, 2K) holds the symbol components [x_r, x_i], one row per use;
    unless given, `uses` QPSK rows per channel are drawn first. The data noise
    [w_r, w_i] is then drawn as standard normals scaled by sqrt(noise_var).
    """
    hc = as_complex(hc)
    n, k = hc.shape[-2:]
    if x is None:
        x = modulate(rng.integers(0, 2, size=hc.shape[:-2] + (uses, 2 * k)))
    w = rng.standard_normal(np.shape(x)[:-1] + (2 * n,)) * np.sqrt(noise_var)
    # the halves are rounded straight into hc's precision, with no
    # complex128 temporaries
    xc = np.empty(np.shape(x)[:-1] + (k,), hc.dtype)
    xc.real, xc.imag = x[..., :k], x[..., k:]
    wc = np.empty(w.shape[:-1] + (n,), hc.dtype)
    wc.real, wc.imag = w[..., :n], w[..., n:]
    yc = xc @ np.swapaxes(hc, -1, -2)
    yc += wc
    return x, yc


def noise_variance(snr_db: float, n_users: int) -> float:
    """Per-real-component noise variance for a target average SNR."""
    return n_users / 10.0 ** (snr_db / 10.0)


def as_bits(bits, what: str = "bits") -> np.ndarray:
    """`bits` as an array, checked to hold only zeros and ones before any
    cast could wrap other values."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError(f"{what} must be 0 or 1 (only zeros and ones)")
    return bits


def modulate(bits: np.ndarray) -> np.ndarray:
    """Map bits {0,1} to antipodal components: 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * as_bits(bits).astype(float)
