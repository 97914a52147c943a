"""Pilot-based estimation of the Gram matrix and matched-filter output."""

import numpy as np
import pytest

from chemp import (
    PilotObservation,
    draw_channels,
    estimate_gram,
    estimate_z,
    gram_observation_from_pilots,
    matched_filter,
    mmse_channel_estimate,
    modulate,
    noise_variance,
    pilot_amplitude,
    real_stack,
    receive_pilots,
)


def test_pilot_amplitude_pools_user_energy():
    assert pilot_amplitude(16) == pytest.approx(np.sqrt(32.0))
    assert pilot_amplitude(4, symbol_energy=1.0) == pytest.approx(2.0)


def test_pilot_observation_validation():
    with pytest.raises(ValueError):
        PilotObservation(Y_p=np.zeros((5, 4)), amplitude=1.0, noise_var=0.1)
    with pytest.raises(ValueError):
        PilotObservation(Y_p=np.zeros((4, 4)), amplitude=0.0, noise_var=0.1)
    with pytest.raises(ValueError):
        PilotObservation(Y_p=np.zeros((4, 4)), amplitude=1.0, noise_var=-1.0)


def test_receive_pilots_shape_and_scaling(rng):
    hc = draw_channels(rng, 16, 8)
    pilots = receive_pilots(rng, hc, 1e-12, pilot_amplitude(8))
    assert pilots.Y_p.shape == (32, 16)
    assert pilots.n_antennas == 16
    np.testing.assert_allclose(pilots.Y_p, pilots.amplitude * real_stack(hc), atol=1e-4)
    batch = receive_pilots(rng, draw_channels(rng, 16, 8, (3, 1)), 0.1, 2.0)
    assert batch.Y_p.shape == (3, 1, 32, 16)


def test_gram_estimate_noiseless_exact(rng):
    hc = draw_channels(rng, 32, 16)
    pilots = receive_pilots(rng, hc, 1e-14, pilot_amplitude(16))
    H = real_stack(hc)
    np.testing.assert_allclose(estimate_gram(pilots), H.T @ H / 32, atol=1e-5)


def test_gram_estimate_bias_correction(rng):
    # with noise, the corrected diagonal is closer to the truth on average
    nv = noise_variance(8.0, 16)
    diffs_raw, diffs_cor = [], []
    for _ in range(100):
        hc = draw_channels(rng, 32, 16)
        H = real_stack(hc)
        true_diag = np.diagonal(H.T @ H / 32)
        pilots = receive_pilots(rng, hc, nv, pilot_amplitude(16))
        diffs_raw.append(np.mean(np.diagonal(
            estimate_gram(pilots, subtract_bias=False)) - true_diag))
        diffs_cor.append(np.mean(np.diagonal(estimate_gram(pilots)) - true_diag))
    assert abs(np.mean(diffs_cor)) < abs(np.mean(diffs_raw))
    assert abs(np.mean(diffs_cor)) < 0.01


def test_z_estimate_noiseless_exact(rng):
    hc = draw_channels(rng, 32, 8)
    H = real_stack(hc)
    x = modulate(rng.integers(0, 2, 16))
    y = H @ x
    pilots = receive_pilots(rng, hc, 1e-14, pilot_amplitude(8))
    np.testing.assert_allclose(estimate_z(pilots, y), H.T @ y / 32, atol=1e-5)


def test_observation_assembly_matches_perfect_csi_in_noiseless_limit(rng):
    hc = draw_channels(rng, 32, 8)
    H = real_stack(hc)
    x = modulate(rng.integers(0, 2, 16))
    nv = 1e-12
    y = H @ x
    obs_est = gram_observation_from_pilots(receive_pilots(rng, hc, nv, pilot_amplitude(8)), y)
    obs_true = matched_filter(hc, y[:32] + 1j * y[32:], nv, 32)
    np.testing.assert_allclose(obs_est.G, obs_true.G, atol=1e-4)
    np.testing.assert_allclose(obs_est.z, obs_true.z, atol=1e-4)
    assert obs_est.sigma_v_sq == pytest.approx(obs_true.sigma_v_sq)


def test_estimate_batched_shapes(rng):
    nv = noise_variance(10.0, 4)
    pilots = receive_pilots(rng, draw_channels(rng, 8, 4, 3), nv, pilot_amplitude(4))
    ys = rng.standard_normal((3, 16))
    jb = estimate_gram(pilots)
    zb = estimate_z(pilots, ys)
    assert jb.shape == (3, 8, 8)
    assert zb.shape == (3, 8)
    single = PilotObservation(Y_p=pilots.Y_p[1], amplitude=pilot_amplitude(4), noise_var=nv)
    np.testing.assert_allclose(jb[1], estimate_gram(single), atol=1e-12)
    np.testing.assert_allclose(zb[1], estimate_z(single, ys[1]), atol=1e-12)


def test_mmse_channel_estimate_shrinks(rng):
    nv = 2.0
    pilots = receive_pilots(rng, draw_channels(rng, 16, 8), nv, pilot_amplitude(8))
    hhat = mmse_channel_estimate(pilots)
    ls = pilots.Y_p / pilots.amplitude
    assert np.linalg.norm(hhat) < np.linalg.norm(ls)
    # shrinkage factor is P^2 / (P^2 + noise_var)
    p2 = pilots.amplitude ** 2
    np.testing.assert_allclose(hhat, ls * p2 / (p2 + nv), atol=1e-12)


def test_mmse_channel_estimate_noiseless_is_truth(rng):
    hc = draw_channels(rng, 16, 8)
    pilots = receive_pilots(rng, hc, 1e-14, pilot_amplitude(8))
    np.testing.assert_allclose(mmse_channel_estimate(pilots), real_stack(hc), atol=1e-5)
