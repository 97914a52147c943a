"""Pilot-based estimation of the Gram matrix and matched-filter output."""

import numpy as np
import pytest

from chemp import (
    PilotObservation,
    draw_channels,
    estimate_gram,
    estimate_z,
    gram,
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
    assert pilot_amplitude(2) == pytest.approx(2.0)


def test_pilot_observation_validation():
    with pytest.raises(ValueError):
        PilotObservation(Y_p=np.zeros((4, 4)), amplitude=0.0, noise_var=0.1)
    with pytest.raises(ValueError):
        PilotObservation(Y_p=np.zeros((4, 4)), amplitude=1.0, noise_var=-1.0)


def test_receive_pilots_shape_and_scaling(rng):
    hc = draw_channels(rng, 16, 8)
    pilots = receive_pilots(rng, hc, 1e-12, pilot_amplitude(8))
    assert pilots.Y_p.shape == (16, 8)
    assert pilots.n_antennas == 16
    np.testing.assert_allclose(pilots.Y_p, pilots.amplitude * hc, atol=1e-4)
    batch = receive_pilots(rng, draw_channels(rng, 16, 8, (3, 1)), 0.1, 2.0)
    assert batch.Y_p.shape == (3, 1, 16, 8)


@pytest.mark.parametrize("shape", [(), (3, 1)])
def test_pilot_noise_is_the_channel_draw_scaled(rng, shape):
    # the pilot noise is the channel sampler's CN(0, 1) draw scaled to the
    # complex variance 2 sigma^2, bit for bit, from the same generator calls
    hc = draw_channels(rng, 16, 8, shape)
    nv, amp = noise_variance(6.0, 8), pilot_amplitude(8)
    pilots = receive_pilots(np.random.default_rng(9), hc, nv, amp)
    noise = draw_channels(np.random.default_rng(9), 16, 8, shape) * np.float32(np.sqrt(2.0 * nv))
    assert pilots.Y_p.dtype == np.complex64
    assert np.array_equal(pilots.Y_p, amp * hc + noise)


def test_gram_estimate_noiseless_exact(rng):
    hc = draw_channels(rng, 32, 16)
    pilots = receive_pilots(rng, hc, 1e-14, pilot_amplitude(16))
    H = real_stack(hc)
    np.testing.assert_allclose(real_stack(estimate_gram(pilots)), H.T @ H / 32, atol=1e-5)


@pytest.mark.parametrize("shape", [(), (3, 1)])
def test_gram_estimate_matches_real_stacked_block(rng, shape):
    # the complex estimate is the real one Y^T Y / (N P^2) - 2 sigma^2 / P^2 I
    # of the real-stacked pilot block
    nv = noise_variance(8.0, 8)
    hc = draw_channels(rng, 16, 8, shape).astype(complex)
    pilots = receive_pilots(rng, hc, nv, pilot_amplitude(8))
    Y = real_stack(pilots.Y_p)
    p2 = pilots.amplitude ** 2
    ref = np.swapaxes(Y, -1, -2) @ Y / (16 * p2) - 2.0 * nv / p2 * np.eye(16)
    np.testing.assert_allclose(real_stack(estimate_gram(pilots)), ref, rtol=1e-10, atol=1e-14)


def test_gram_estimate_bias_correction(rng):
    # with noise, the corrected diagonal is closer to the truth on average
    nv = noise_variance(8.0, 16)
    diffs_raw, diffs_cor = [], []
    for _ in range(100):
        hc = draw_channels(rng, 32, 16)
        true_diag = np.diagonal(gram(hc)).real
        pilots = receive_pilots(rng, hc, nv, pilot_amplitude(16))
        est_diag = np.diagonal(estimate_gram(pilots)).real
        bias = 2.0 * nv / pilots.amplitude ** 2
        diffs_raw.append(np.mean(est_diag + bias - true_diag))
        diffs_cor.append(np.mean(est_diag - true_diag))
    assert abs(np.mean(diffs_cor)) < abs(np.mean(diffs_raw))
    assert abs(np.mean(diffs_cor)) < 0.01


def test_z_estimate_noiseless_exact(rng):
    hc = draw_channels(rng, 32, 8)
    H = real_stack(hc)
    x = modulate(rng.integers(0, 2, 16))
    y = H @ x
    pilots = receive_pilots(rng, hc, 1e-14, pilot_amplitude(8))
    np.testing.assert_allclose(estimate_z(pilots, y[:32] + 1j * y[32:]), H.T @ y / 32, atol=1e-5)


def test_observation_assembly_matches_perfect_csi_in_noiseless_limit(rng):
    hc = draw_channels(rng, 32, 8)
    x = modulate(rng.integers(0, 2, 16))
    nv = 1e-12
    yc = hc @ (x[:8] + 1j * x[8:])
    obs_est = gram_observation_from_pilots(receive_pilots(rng, hc, nv, pilot_amplitude(8)), yc)
    obs_true = matched_filter(hc, yc, nv)
    np.testing.assert_allclose(obs_est.G, obs_true.G, atol=1e-4)
    np.testing.assert_allclose(obs_est.z, obs_true.z, atol=1e-4)
    assert obs_est.sigma_v_sq == pytest.approx(obs_true.sigma_v_sq)


def test_estimate_batched_shapes(rng):
    nv = noise_variance(10.0, 4)
    pilots = receive_pilots(rng, draw_channels(rng, 8, 4, 3), nv, pilot_amplitude(4))
    ys = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    gb = estimate_gram(pilots)
    zb = estimate_z(pilots, ys)
    assert gb.shape == (3, 4, 4)
    assert zb.shape == (3, 8)
    single = PilotObservation(Y_p=pilots.Y_p[1], amplitude=pilot_amplitude(4), noise_var=nv)
    np.testing.assert_allclose(gb[1], estimate_gram(single), atol=1e-12)
    np.testing.assert_allclose(zb[1], estimate_z(single, ys[1]), atol=1e-12)


def test_mmse_channel_estimate_shrinks(rng):
    nv = 2.0
    pilots = receive_pilots(rng, draw_channels(rng, 16, 8), nv, pilot_amplitude(8))
    hhat = mmse_channel_estimate(pilots)
    ls = pilots.Y_p / pilots.amplitude
    assert np.linalg.norm(hhat) < np.linalg.norm(ls)
    # shrinkage factor is P^2 / (P^2 + 2 noise_var): complex noise has variance 2 noise_var
    p2 = pilots.amplitude ** 2
    np.testing.assert_allclose(hhat, ls * p2 / (p2 + 2.0 * nv), atol=1e-12)


def test_mmse_channel_estimate_error_matches_theory():
    # the linear MMSE error of a unit-variance gain is 2 sigma^2 / (P^2 + 2 sigma^2)
    rng = np.random.default_rng(64)
    nv = noise_variance(0.0, 64)
    hc = draw_channels(rng, 64, 64, 50)
    pilots = receive_pilots(rng, hc, nv, pilot_amplitude(64))
    err = np.mean(np.abs(mmse_channel_estimate(pilots) - hc) ** 2)
    p2 = pilots.amplitude ** 2
    assert err == pytest.approx(2.0 * nv / (p2 + 2.0 * nv), rel=0.02)


def test_mmse_channel_estimate_noiseless_is_truth(rng):
    hc = draw_channels(rng, 16, 8)
    pilots = receive_pilots(rng, hc, 1e-14, pilot_amplitude(8))
    np.testing.assert_allclose(mmse_channel_estimate(pilots), hc, atol=1e-5)
