"""Reference detectors on the Gram-domain observation (linear MMSE and the
exhaustive maximum-likelihood rule) and the single-user AWGN bit error rate
under the same SNR convention."""
from __future__ import annotations

import numpy as np

from .mpd import GramObservation

__all__ = ["mmse_detect", "map_oracle", "siso_awgn_ber", "qfunc"]


def mmse_detect(obs: GramObservation):
    """Regularized linear estimate from the matched-filter statistics.

    Solves (G + sigma_v^2 I) s_c = z_c, one complex K x K LU per Gram (a Gram
    shared by a use axis of z takes the uses as right-hand-side columns),
    which is (H^T H + sigma_n^2 I) s = H^T y of the real-stacked channel
    scaled by 1/N. Returns real (x_hat, s) with s = [Re s_c, Im s_c] (..., 2K)
    and x_hat its signs, in G's precision.
    """
    G = obs.G
    k = G.shape[-1]
    A = G + obs.sigma_v_sq * np.eye(k, dtype=G.dtype)
    zc = obs.z[..., :k] + 1j * obs.z[..., k:]
    if G.shape[:-2] == zc.shape[:-1]:
        sc = np.linalg.solve(A, zc[..., None])[..., 0]
    else:  # drop G's unit use axis; z's uses become columns
        sc = np.linalg.solve(A.reshape(A.shape[:-3] + (k, k)), np.swapaxes(zc, -1, -2))
        sc = np.swapaxes(sc, -1, -2)
    s = np.concatenate([sc.real, sc.imag], axis=-1)
    return np.where(s >= 0, 1.0, -1.0).astype(s.dtype), s


def _candidates(m: int) -> np.ndarray:
    """All sign vectors of length m, as an (2^m, m) matrix."""
    ints = np.arange(2 ** m)
    bits = (ints[:, None] >> np.arange(m)[None, :]) & 1
    return 1.0 - 2.0 * bits


def map_oracle(obs: GramObservation) -> np.ndarray:
    """Exhaustive minimum-distance decision over all {-1,+1}^{2K} vectors.

    Minimizes c^T J c - 2 c^T z, which is ||y - H c||^2 / N of the
    real-stacked channel up to a constant; with equiprobable symbols the
    decision does not depend on the noise level. Requires 2K <= 16.
    Accepts leading batch dimensions; searches and decides in J's precision.
    """
    J = obs.J
    m = J.shape[-1]
    if m > 16:
        raise ValueError("exhaustive search limited to 2K <= 16 symbols")
    cand = _candidates(m).astype(J.dtype)
    d = np.sum((cand @ J) * cand, axis=-1) - 2.0 * (obs.z @ cand.T)
    return cand[np.argmin(d, axis=-1)]


def qfunc(x) -> np.ndarray:
    """Gaussian tail probability Q(x)."""
    from scipy.special import erfc  # imported here: no sweep needs scipy.special

    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def siso_awgn_ber(snr_db) -> float | np.ndarray:
    """Bit error rate of antipodal signalling over the single-user AWGN channel
    at the same average-SNR mapping: BER = Q(sqrt(snr_linear))."""
    lin = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    out = qfunc(np.sqrt(lin))
    return float(out) if np.ndim(out) == 0 else out
