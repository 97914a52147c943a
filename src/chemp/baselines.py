"""Reference detectors on the Gram-domain observation: linear MMSE and the
exhaustive maximum-likelihood rule."""
from __future__ import annotations

import numpy as np

from .mpd import GramObservation

__all__ = ["mmse_detect", "map_oracle"]


def mmse_detect(obs: GramObservation):
    """Regularized linear estimate from the matched-filter statistics.

    Solves (G + sigma_v^2 I) s_c = z_c, which is
    (H^T H + sigma_n^2 I) s = H^T y of the real-stacked channel scaled by
    1/N, by one complex K x K Cholesky per Gram (LAPACK `posv` on the lower
    triangle) with the uses of z as right-hand-side columns. G must be
    exactly Hermitian, as `model.gram` and `estimate.estimate_gram` produce
    it, and G + sigma_v^2 I positive definite, as it is for any Gram from
    `model.gram` but often is not for the bias-corrected `estimate_gram` at
    low SNR; `np.linalg.LinAlgError` names the first Gram whose system is
    not. Returns real (x_hat, s) with s = [Re s_c, Im s_c] (..., U, 2K) and
    x_hat its signs, in G's precision.
    """
    from scipy.linalg.lapack import get_lapack_funcs  # off chemp's import path

    G = obs.G
    k = G.shape[-1]
    posv, = get_lapack_funcs(("posv",), (G,))
    reg = obs.sigma_v_sq * np.eye(k, dtype=G.dtype)
    grams = G.reshape(-1, k, k)
    zc = obs.z[..., :k] + 1j * obs.z[..., k:]
    # each Gram's uses as the columns of an F-contiguous view of zc, which
    # posv overwrites with the solution
    cols = np.swapaxes(zc.reshape(grams.shape[:1] + zc.shape[-2:]), -1, -2)
    a = np.empty((k, k), G.dtype, order="F")
    for b, g in enumerate(grams):
        np.add(g, reg, out=a)
        # positional flags lower, overwrite_a, overwrite_b: keywords cost a
        # third of the call at small K
        if posv(a, cols[b], 1, 1, 1)[2] > 0:
            at = tuple(map(int, np.unravel_index(b, G.shape[:-2])))
            raise np.linalg.LinAlgError(f"G + sigma_v^2 I is not positive definite at Gram {at}")
    s = np.concatenate([zc.real, zc.imag], axis=-1)
    return np.where(s >= 0, 1.0, -1.0).astype(s.dtype), s


def map_oracle(obs: GramObservation) -> np.ndarray:
    """Exhaustive minimum-distance decision over all {-1,+1}^{2K} vectors.

    Minimizes c^T J c - 2 c^T z, which is ||y - H c||^2 / N of the
    real-stacked channel up to a constant; with equiprobable symbols the
    decision does not depend on the noise level. Requires 2K <= 16.
    The quadratic term c^T J c = c^T [Re(G c_c), Im(G c_c)], with c_c the
    complex candidate, is formed once per Gram and broadcast over its uses,
    and the linear term of every use comes from one product; returns
    (..., U, 2K) decisions, searched and decided in G's real precision.
    """
    G = obs.G
    k = G.shape[-1]
    if k > 8:
        raise ValueError("exhaustive search limited to 2K <= 16 symbols")
    # all 4^K sign vectors, one per row
    cand = (1 - 2 * ((np.arange(4 ** k)[:, None] >> np.arange(2 * k)) & 1)).astype(G.real.dtype)
    gc = (cand[:, :k] + 1j * cand[:, k:]).astype(G.dtype) @ np.swapaxes(G, -1, -2)
    quad = np.sum(cand[:, :k] * gc.real + cand[:, k:] * gc.imag, axis=-1)
    d = np.expand_dims(quad, -2) - 2.0 * np.tensordot(obs.z, cand, (-1, -1))
    return cand[np.argmin(d, axis=-1)]
