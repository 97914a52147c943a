"""Reference detectors on the Gram-domain observation: linear MMSE and the
exhaustive maximum-likelihood rule."""
from __future__ import annotations

import numpy as np

from .mpd import GramObservation

__all__ = ["mmse_detect", "map_oracle"]


def mmse_detect(obs: GramObservation):
    """Regularized linear estimate from the matched-filter statistics.

    Solves (G + sigma_v^2 I) s_c = z_c, one complex K x K LU per Gram with
    the uses of z as right-hand-side columns, which is
    (H^T H + sigma_n^2 I) s = H^T y of the real-stacked channel scaled by
    1/N. Returns real (x_hat, s) with s = [Re s_c, Im s_c] (..., U, 2K) and
    x_hat its signs, in G's precision.
    """
    G = obs.G
    k = G.shape[-1]
    A = G + obs.sigma_v_sq * np.eye(k, dtype=G.dtype)
    zc = obs.z[..., :k] + 1j * obs.z[..., k:]
    sc = np.swapaxes(np.linalg.solve(A, np.swapaxes(zc, -1, -2)), -1, -2)
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
    The quadratic term is formed once per Gram and broadcast over its uses,
    and the linear term of every use comes from one product; returns
    (..., U, 2K) decisions, searched and decided in J's precision.
    """
    J = obs.J
    m = J.shape[-1]
    if m > 16:
        raise ValueError("exhaustive search limited to 2K <= 16 symbols")
    cand = _candidates(m).astype(J.dtype)
    quad = np.sum((cand @ J) * cand, axis=-1)
    d = np.expand_dims(quad, -2) - 2.0 * np.tensordot(obs.z, cand, (-1, -1))
    return cand[np.argmin(d, axis=-1)]
