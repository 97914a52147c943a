"""Reference detectors and the single-antenna error-rate benchmark."""

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
    qfunc,
    real_stack,
    siso_awgn_ber,
)


def observe(rng, hc, x, nv):
    """Complex received vectors for real-stacked symbols x and their
    matched-filter observation; returns (obs, yc)."""
    n, k = hc.shape[-2:]
    w = rng.normal(0.0, np.sqrt(nv), x.shape[:-1] + (2 * n,))
    yc = (hc @ (x[..., :k] + 1j * x[..., k:])[..., None])[..., 0] + (w[..., :n] + 1j * w[..., n:])
    return matched_filter(hc, yc, nv), yc


def stacked(yc):
    return np.concatenate([yc.real, yc.imag], axis=-1)


def mmse_reference(H, y, nv):
    """(H^T H + nv I) s = H^T y on the real-stacked channel."""
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
    x = modulate(rng.integers(0, 2, 16))
    xhat, s = mmse_detect(observe(rng, hc, x, 1e-12)[0])
    np.testing.assert_array_equal(xhat, x)
    np.testing.assert_allclose(s, x, atol=1e-5)


@pytest.mark.parametrize("shape", [(), (6,)])
def test_mmse_matches_real_stacked_solve(rng, shape):
    hc = draw_channels(rng, 16, 4, shape).astype(complex)
    nv = noise_variance(6.0, 4)
    obs, yc = observe(rng, hc, modulate(rng.integers(0, 2, shape + (8,))), nv)
    xhat, s = mmse_detect(obs)
    # the Gram-domain system is the real one scaled by 1/N
    ref = mmse_reference(real_stack(hc), stacked(yc), nv)
    np.testing.assert_allclose(s, ref, rtol=1e-10)
    np.testing.assert_array_equal(xhat, np.where(ref >= 0, 1.0, -1.0))


def test_mmse_shared_gram_matches_real_stacked_solve(rng):
    # one Gram per channel serves a use axis of z
    hc = draw_channels(rng, 16, 4, (3, 1)).astype(complex)
    nv = noise_variance(6.0, 4)
    obs, yc = observe(rng, np.broadcast_to(hc, (3, 5, 16, 4)),
                      modulate(rng.integers(0, 2, (3, 5, 8))), nv)
    obs = GramObservation(G=obs.G[:, :1], z=obs.z, sigma_v_sq=obs.sigma_v_sq)
    xhat, s = mmse_detect(obs)
    assert s.shape == (3, 5, 8)
    ref = mmse_reference(real_stack(hc), stacked(yc), nv)
    np.testing.assert_allclose(s, ref, rtol=1e-10)
    np.testing.assert_array_equal(xhat, np.where(ref >= 0, 1.0, -1.0))


@pytest.mark.parametrize("lead", [(3,), ()])
def test_mmse_shared_gram_matches_broadcast_solve(rng, lead):
    # one LU per shared Gram with the uses as columns against one solve per use
    k, uses = 16, 40
    hc = draw_channels(rng, 32, k, lead + (1,) if lead else ()).astype(complex)
    nv = noise_variance(4.0, k)
    obs, _ = observe(rng, hc, modulate(rng.integers(0, 2, lead + (uses, 2 * k))), nv)
    assert obs.G.shape == lead + ((1,) if lead else ()) + (k, k)
    xhat, s = mmse_detect(obs)
    zc = obs.z[..., :k] + 1j * obs.z[..., k:]
    sc = np.linalg.solve(obs.G + obs.sigma_v_sq * np.eye(k), zc[..., None])[..., 0]
    ref = np.concatenate([sc.real, sc.imag], axis=-1)
    assert s.shape == ref.shape == lead + (uses, 2 * k)
    np.testing.assert_allclose(s, ref, rtol=1e-10)
    np.testing.assert_array_equal(xhat, np.where(ref >= 0, 1.0, -1.0))


def test_mmse_batched_matches_loop(rng):
    hc = draw_channels(rng, 16, 4, 6)
    obs, _ = observe(rng, hc, modulate(rng.integers(0, 2, (6, 8))), 0.7)
    xb, sb = mmse_detect(obs)
    for i in range(6):
        xi, si = mmse_detect(GramObservation(G=obs.G[i], z=obs.z[i], sigma_v_sq=obs.sigma_v_sq))
        np.testing.assert_array_equal(xb[i], xi)
        np.testing.assert_allclose(sb[i], si, atol=1e-12)


def test_mmse_regularization_shrinks_estimate(rng):
    hc = draw_channels(rng, 16, 8)
    yc = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    _, s_small = mmse_detect(matched_filter(hc, yc, 1e-9))
    _, s_large = mmse_detect(matched_filter(hc, yc, 100.0))
    assert np.linalg.norm(s_large) < np.linalg.norm(s_small)


def test_map_oracle_matches_enumeration(rng):
    hc = draw_channels(rng, 8, 2)
    nv = noise_variance(6.0, 2)
    obs, yc = observe(rng, hc, modulate(rng.integers(0, 2, 4)), nv)
    np.testing.assert_array_equal(map_oracle(obs), map_reference(real_stack(hc), stacked(yc)))


def test_map_oracle_batched(rng):
    hc = draw_channels(rng, 8, 2, 4)
    obs, yc = observe(rng, hc, modulate(rng.integers(0, 2, (4, 4))), 1.0)
    out = map_oracle(obs)
    assert out.shape == (4, 4)
    for i in range(4):
        np.testing.assert_array_equal(out[i], map_reference(real_stack(hc[i]), stacked(yc[i])))


def test_map_oracle_size_guard(rng):
    hc = draw_channels(rng, 16, 9)
    with pytest.raises(ValueError):
        map_oracle(matched_filter(hc, np.zeros(16), 1.0))


def test_map_oracle_noiseless_exact(rng):
    hc = draw_channels(rng, 8, 4)
    x = modulate(rng.integers(0, 2, 8))
    np.testing.assert_array_equal(map_oracle(observe(rng, hc, x, 1e-12)[0]), x)


def test_qfunc_values():
    assert qfunc(0.0) == pytest.approx(0.5)
    assert qfunc(1.96) == pytest.approx(0.025, abs=1e-3)
    assert qfunc(np.inf) == 0.0
    assert qfunc(-np.inf) == 1.0


def test_import_loads_no_scipy_special_or_integrate():
    # qfunc and mp_cdf import them on first call; no sweep calls either
    code = ("import sys, chemp; "
            "print([m for m in ('scipy.special', 'scipy.integrate') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(chemp.__file__))  # this chemp, not an installed one
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "[]"


def test_siso_awgn_ber_formula():
    # argument is in dB; BER = Q(sqrt(snr_linear)) for antipodal signaling
    for db in [0.0, 6.0, 9.6]:
        lin = 10.0 ** (db / 10.0)
        assert siso_awgn_ber(db) == pytest.approx(qfunc(np.sqrt(lin)))


def test_siso_awgn_ber_monotone():
    snr_db = np.linspace(-5.0, 13.0, 50)
    ber = siso_awgn_ber(snr_db)
    assert np.all(np.diff(ber) < 0)
