"""Reference detectors on the Gram-domain observation."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import chemp
from chemp import (
    GramObservation,
    draw_channels,
    map_oracle,
    matched_filter,
    mmse_detect,
    modulate,
    noise_variance,
    real_stack,
    transmit,
)


def observe(rng, hc, x, nv):
    """Complex received vectors for real-stacked symbols x (..., U, 2K), one
    use per row, and their matched-filter observation; returns (obs, yc)."""
    yc = transmit(rng, hc, nv, x)[1]
    return matched_filter(hc, yc, nv), yc


def stacked(yc):
    return np.concatenate([yc.real, yc.imag], axis=-1)


def mmse_reference(H, y, nv):
    """(H^T H + nv I) s = H^T y on the real-stacked channel, for every use
    row of y (..., U, 2N)."""
    H = H[..., None, :, :]
    ht = np.swapaxes(H, -1, -2)
    A = ht @ H + nv * np.eye(H.shape[-1])
    return np.linalg.solve(A, (ht @ y[..., None]))[..., 0]


def map_reference(H, y):
    """Enumerate ||y - H c||^2 over every sign vector c."""
    best, best_d = None, np.inf
    for cand in itertools.product([-1.0, 1.0], repeat=H.shape[-1]):
        d = np.sum((y - H @ np.array(cand)) ** 2)
        if d < best_d:
            best, best_d = np.array(cand), d
    return best


def test_mmse_noiseless_recovery(rng):
    hc = draw_channels(rng, 32, 8)
    x = modulate(rng.integers(0, 2, (1, 16)))
    xhat, s = mmse_detect(observe(rng, hc, x, 1e-12)[0])
    np.testing.assert_array_equal(xhat, x)
    np.testing.assert_allclose(s, x, atol=1e-5)


@pytest.mark.parametrize("shape", [(), (6,)])
def test_mmse_matches_real_stacked_solve(rng, shape):
    hc = draw_channels(rng, 16, 4, shape).astype(complex)
    nv = noise_variance(6.0, 4)
    obs, yc = observe(rng, hc, modulate(rng.integers(0, 2, shape + (1, 8))), nv)
    xhat, s = mmse_detect(obs)
    # the Gram-domain system is the real one scaled by 1/N
    ref = mmse_reference(real_stack(hc), stacked(yc), nv)
    np.testing.assert_allclose(s, ref, rtol=1e-10)
    np.testing.assert_array_equal(xhat, np.where(ref >= 0, 1.0, -1.0))


def test_mmse_shared_gram_matches_real_stacked_solve(rng):
    # one Gram per channel serves a use axis of z
    hc = draw_channels(rng, 16, 4, 3).astype(complex)
    nv = noise_variance(6.0, 4)
    obs, yc = observe(rng, hc, modulate(rng.integers(0, 2, (3, 5, 8))), nv)
    xhat, s = mmse_detect(obs)
    assert s.shape == (3, 5, 8)
    ref = mmse_reference(real_stack(hc), stacked(yc), nv)
    np.testing.assert_allclose(s, ref, rtol=1e-10)
    np.testing.assert_array_equal(xhat, np.where(ref >= 0, 1.0, -1.0))


@pytest.mark.parametrize("lead", [(3,), (), (2, 3)])
def test_mmse_shared_gram_matches_broadcast_solve(rng, lead):
    # one Cholesky per shared Gram with the uses as columns against one LU
    # solve per use
    k, uses = 16, 40
    hc = draw_channels(rng, 32, k, lead).astype(complex)
    nv = noise_variance(4.0, k)
    obs, _ = observe(rng, hc, modulate(rng.integers(0, 2, lead + (uses, 2 * k))), nv)
    assert obs.G.shape == lead + (k, k)
    xhat, s = mmse_detect(obs)
    zc = obs.z[..., :k] + 1j * obs.z[..., k:]
    A = (obs.G + obs.sigma_v_sq * np.eye(k))[..., None, :, :]
    sc = np.linalg.solve(A, zc[..., None])[..., 0]
    ref = np.concatenate([sc.real, sc.imag], axis=-1)
    assert s.shape == ref.shape == lead + (uses, 2 * k)
    np.testing.assert_allclose(s, ref, rtol=1e-10)
    np.testing.assert_array_equal(xhat, np.where(ref >= 0, 1.0, -1.0))


def test_mmse_batched_matches_loop(rng):
    hc = draw_channels(rng, 16, 4, 6)
    obs, _ = observe(rng, hc, modulate(rng.integers(0, 2, (6, 1, 8))), 0.7)
    xb, sb = mmse_detect(obs)
    for i in range(6):
        xi, si = mmse_detect(GramObservation(G=obs.G[i], z=obs.z[i], sigma_v_sq=obs.sigma_v_sq))
        np.testing.assert_array_equal(xb[i], xi)
        np.testing.assert_array_equal(sb[i], si)


def test_mmse_indefinite_system_names_its_gram(rng):
    # a Hermitian G with one eigenvalue below -sigma_v^2 among valid Grams
    k, nv = 4, 0.5
    hc = draw_channels(rng, 16, k, (2, 3)).astype(complex)
    obs, _ = observe(rng, hc, modulate(rng.integers(0, 2, (2, 3, 2, 2 * k))), nv)
    q = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    bad = (q * np.array([1.0, 0.8, 0.5, -1.5 * obs.sigma_v_sq])) @ q.conj().T
    G = obs.G.copy()
    G[1, 2] = (bad + bad.conj().T) / 2
    assert np.linalg.eigvalsh(G[1, 2] + obs.sigma_v_sq * np.eye(k)).min() < 0
    mmse_detect(GramObservation(G=obs.G, z=obs.z, sigma_v_sq=obs.sigma_v_sq))
    with pytest.raises(np.linalg.LinAlgError, match=r"Gram \(1, 2\)"):
        mmse_detect(GramObservation(G=G, z=obs.z, sigma_v_sq=obs.sigma_v_sq))


def test_mmse_regularization_shrinks_estimate(rng):
    hc = draw_channels(rng, 16, 8)
    yc = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
    _, s_small = mmse_detect(matched_filter(hc, yc, 1e-9))
    _, s_large = mmse_detect(matched_filter(hc, yc, 100.0))
    assert np.linalg.norm(s_large) < np.linalg.norm(s_small)


def test_map_oracle_matches_enumeration(rng):
    hc = draw_channels(rng, 8, 2)
    nv = noise_variance(6.0, 2)
    obs, yc = observe(rng, hc, modulate(rng.integers(0, 2, (1, 4))), nv)
    np.testing.assert_array_equal(map_oracle(obs)[0], map_reference(real_stack(hc), stacked(yc[0])))


def test_map_oracle_batched(rng):
    hc = draw_channels(rng, 8, 2, 4)
    obs, yc = observe(rng, hc, modulate(rng.integers(0, 2, (4, 1, 4))), 1.0)
    out = map_oracle(obs)
    assert out.shape == (4, 1, 4)
    for i in range(4):
        np.testing.assert_array_equal(out[i, 0],
                                      map_reference(real_stack(hc[i]), stacked(yc[i, 0])))


def test_map_oracle_size_guard(rng):
    hc = draw_channels(rng, 16, 9)
    with pytest.raises(ValueError, match="2K <= 16"):
        map_oracle(matched_filter(hc, np.zeros((1, 16)), 1.0))


def test_map_oracle_noiseless_exact(rng):
    hc = draw_channels(rng, 8, 4)
    x = modulate(rng.integers(0, 2, (1, 8)))
    np.testing.assert_array_equal(map_oracle(observe(rng, hc, x, 1e-12)[0]), x)


def test_import_loads_no_scipy_linalg_special_or_integrate():
    # chemp imports none of them at import time: the Marchenko-Pastur CDF is
    # in closed form, and mmse_detect imports scipy.linalg when it runs
    code = ("import sys, chemp; print([m for m in "
            "('scipy.linalg', 'scipy.special', 'scipy.integrate') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(chemp.__file__))  # this chemp, not an installed one
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "[]"
