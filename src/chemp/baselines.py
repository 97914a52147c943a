"""Reference detectors: linear MMSE, exhaustive maximum-likelihood, and the
single-user AWGN bit error rate under the same SNR convention."""
from __future__ import annotations

import numpy as np
from scipy.special import erfc

__all__ = ["mmse_detect", "map_oracle", "siso_awgn_ber", "qfunc"]


def mmse_detect(H: np.ndarray, y: np.ndarray, noise_var: float):
    """Regularized linear estimate, solved rather than inverted.

    Solves (H^T H + noise_var I) s = H^T y and slices the sign.
    Returns (x_hat, s). Accepts leading batch dimensions.
    """
    H = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float)
    ht = np.swapaxes(H, -1, -2)
    A = ht @ H
    m = A.shape[-1]
    idx = np.arange(m)
    A[..., idx, idx] += noise_var
    rhs = (ht @ y[..., None])
    s = np.linalg.solve(A, rhs)[..., 0]
    return np.where(s >= 0, 1.0, -1.0), s


def _candidates(m: int) -> np.ndarray:
    """All sign vectors of length m, as an (2^m, m) matrix."""
    ints = np.arange(2 ** m)
    bits = (ints[:, None] >> np.arange(m)[None, :]) & 1
    return 1.0 - 2.0 * bits


def map_oracle(H: np.ndarray, y: np.ndarray, noise_var: float | None = None) -> np.ndarray:
    """Exhaustive minimum-distance decision over all {-1,+1}^{2K} vectors.

    With equiprobable symbols the decision does not depend on the noise level;
    the parameter is accepted for interface symmetry. Requires 2K <= 16.
    Accepts leading batch dimensions on H and y.
    """
    H = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float)
    m = H.shape[-1]
    if m > 16:
        raise ValueError("exhaustive search limited to 2K <= 16 symbols")
    cand = _candidates(m)
    # distances ||y - H c||^2 for every candidate c
    yc = H @ cand.T
    d2 = ((y[..., None] - yc) ** 2).sum(axis=-2)
    best = np.argmin(d2, axis=-1)
    return cand[best]


def qfunc(x) -> np.ndarray:
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def siso_awgn_ber(snr_db) -> float | np.ndarray:
    """Bit error rate of antipodal signalling over the single-user AWGN channel
    at the same average-SNR mapping: BER = Q(sqrt(snr_linear))."""
    lin = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    out = qfunc(np.sqrt(lin))
    return float(out) if np.ndim(out) == 0 else out
