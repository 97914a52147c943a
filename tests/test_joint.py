"""Coded receiver: bit mapping, outer schedule, and information transfer."""

import numpy as np
import pytest

from chemp import (
    GramObservation,
    JointConfig,
    MpdConfig,
    bits_to_symbols,
    build_code,
    detect_then_decode,
    draw_channels,
    encode,
    gather_bit_llrs,
    j_function,
    j_inverse,
    joint_detect_decode,
    matched_filter,
    measure_exit_detector,
    mpd_detect,
    mutual_information_histogram,
    noise_variance,
    regular_profile,
    transmit,
)


@pytest.fixture(scope="module")
def tiny_code():
    # length-64 regular code: 32 channel uses per frame
    return build_code(regular_profile(3, 6), 64, np.random.default_rng(21))


def coded_observation(code, n, k, snr_db, rng, hc=None):
    info = rng.integers(0, 2, size=(k, code.k))
    words = encode(code, info)
    hc = draw_channels(rng, n, k) if hc is None else hc
    nv = noise_variance(snr_db, k)
    _, yc = transmit(rng, hc, nv, bits_to_symbols(words, k))  # (U, N)
    obs = matched_filter(hc, yc, nv)  # one G, one z row per use
    return obs, info, words


# ---------------------------------------------------------------------------
# bit/symbol mapping


def test_bits_to_symbols_tiny_example():
    bits = np.array([[0, 1, 1, 0]])  # one user, n=4
    sym = bits_to_symbols(bits, 1)
    # use 0 carries bits (0,1) -> (+1, -1); use 1 carries (1,0) -> (-1, +1)
    np.testing.assert_allclose(sym, [[1.0, -1.0], [-1.0, 1.0]])


def test_bits_to_symbols_two_users():
    bits = np.array([[0, 0], [1, 1]])  # two users, n=2: one use
    sym = bits_to_symbols(bits, 2)
    # columns: [re user0, re user1, im user0, im user1]
    np.testing.assert_allclose(sym, [[1.0, -1.0, 1.0, -1.0]])


def test_gather_inverts_modulation(rng):
    bits = rng.integers(0, 2, size=(3, 4, 100))  # (frames, users, n)
    sym = bits_to_symbols(bits, 4)
    # reading symbol signs back as LLRs recovers the bit layout
    back = gather_bit_llrs(sym, 4)
    np.testing.assert_allclose(back, 1.0 - 2.0 * bits)


def test_bits_to_symbols_validation():
    with pytest.raises(ValueError):
        bits_to_symbols(np.zeros((3, 10)), 4)   # wrong user axis
    with pytest.raises(ValueError):
        bits_to_symbols(np.zeros((4, 9)), 4)    # odd codeword length


# ---------------------------------------------------------------------------
# outer schedule


def test_joint_noiseless_recovery(tiny_code, rng):
    # full detector activation per round recovers a clean frame immediately
    obs, info, words = coded_observation(tiny_code, 16, 4, 300.0, rng)
    cfg = JointConfig(outer_iterations=2, detector_passes=20)
    res = joint_detect_decode(obs, tiny_code, cfg)
    assert bool(np.all(res.success))
    assert res.outer_rounds <= 2
    np.testing.assert_array_equal(res.info_bits, info)
    np.testing.assert_array_equal(res.codeword_bits, words)


def test_joint_with_zero_decoder_passes_is_plain_detection(tiny_code, rng):
    # with no decoder work the schedule degenerates to damped detection; a
    # codeword leaves once its hard decisions satisfy every check, so each
    # codeword is compared against a detector run of its own realized length
    obs, info, words = coded_observation(tiny_code, 16, 16, 10.0, rng)
    cfg = JointConfig(outer_iterations=12, detector_passes=1, decoder_passes=0)
    res = joint_detect_decode(obs, tiny_code, cfg)
    assert res.rounds.shape == (16,)
    assert len(np.unique(res.rounds)) > 3 and res.rounds.min() < res.outer_rounds
    for user, r in enumerate(res.rounds):
        state = mpd_detect(obs, MpdConfig(iterations=int(r), damping=0.33))
        np.testing.assert_allclose(res.bit_llrs[user],
                                   gather_bit_llrs(state.llr, 16)[user], atol=1e-12)


def test_decoders_run_in_float32(tiny_code, rng):
    # one precision policy: the float32 detector LLRs enter the float32
    # decoder as they are, and both receivers return float32 bit LLRs
    obs, info, words = coded_observation(tiny_code, 16, 8, 6.0, rng)
    assert mpd_detect(obs, MpdConfig(iterations=2)).llr.dtype == np.float32
    assert tiny_code.kernel.fresh_messages(3).dtype == np.float32
    joint = joint_detect_decode(obs, tiny_code, JointConfig(outer_iterations=3))
    separate = detect_then_decode(obs, tiny_code, MpdConfig(iterations=3), 5)
    for res in (joint, separate):
        assert res.bit_llrs.dtype == np.float32
        assert res.bit_llrs.shape == (8, tiny_code.n)


def test_joint_beats_separate_at_moderate_snr(tiny_code, rng):
    # equal iteration budget: 20 x (1 + 2) vs 20 + 40
    joint_err = 0
    sep_err = 0
    for _ in range(12):
        obs, info, words = coded_observation(tiny_code, 8, 8, 7.0, rng)
        rj = joint_detect_decode(obs, tiny_code, JointConfig())
        rs = detect_then_decode(obs, tiny_code, MpdConfig(), 40)
        joint_err += int(np.sum(rj.info_bits != info))
        sep_err += int(np.sum(rs.info_bits != info))
    assert joint_err <= sep_err


def test_joint_batched_frames(tiny_code, rng):
    # full loading, and the receiver assumes 8 dB on every frame. Two frames
    # are received at 7 and 9 dB, so their codewords leave at different
    # rounds; one at -5 dB, far below where the code decodes, so it runs the
    # whole round budget; the last through an orthogonal channel (G = I) at
    # 40 dB, error-free before decoding, so it leaves in the first round
    snrs = (7.0, 9.0, -5.0, 40.0)
    channels = (None, None, None, (np.sqrt(8.0) * np.eye(8)).astype(np.complex64))
    frames = [coded_observation(tiny_code, 8, 8, snr, rng, hc)[0]
              for snr, hc in zip(snrs, channels)]
    for obs in frames:
        obs.sigma_v_sq = noise_variance(8.0, 8) / 8
    both = GramObservation(G=np.stack([o.G for o in frames]),
                           z=np.stack([o.z for o in frames]),
                           sigma_v_sq=frames[0].sigma_v_sq)
    cfg = JointConfig(outer_iterations=6)
    rb = joint_detect_decode(both, tiny_code, cfg)
    assert rb.codeword_bits.shape == (4, 8, tiny_code.n)
    assert rb.info_bits.shape == (4, 8, tiny_code.k)
    assert rb.success.shape == rb.rounds.shape == (4, 8)
    assert rb.success[3].all() and rb.rounds[3].max() < rb.outer_rounds
    assert not rb.success[2].all() and len(np.unique(rb.rounds)) > 3
    # a frame's result does not depend on which frames share its batch
    for i, obs in enumerate(frames):
        alone = joint_detect_decode(obs, tiny_code, cfg)
        for name in ("codeword_bits", "info_bits", "success", "rounds", "bit_llrs"):
            assert np.array_equal(getattr(rb, name)[i], getattr(alone, name)), name


def test_separate_baseline_decodes_clean_frames(tiny_code, rng):
    obs, info, words = coded_observation(tiny_code, 16, 4, 300.0, rng)
    res = detect_then_decode(obs, tiny_code, MpdConfig(), 40)
    assert bool(np.all(res.success))
    np.testing.assert_array_equal(res.info_bits, info)


def test_joint_config_validation():
    with pytest.raises(ValueError):
        JointConfig(outer_iterations=0)
    with pytest.raises(ValueError):
        JointConfig(detector_passes=0)
    with pytest.raises(ValueError):
        JointConfig(decoder_passes=-1)


# ---------------------------------------------------------------------------
# information transfer


def test_j_function_limits_and_monotonicity():
    sig = np.linspace(0.0, 12.0, 200)
    vals = j_function(sig)
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[-1] > 0.99
    assert np.all(np.diff(vals) >= -1e-9)
    assert np.all((vals >= 0) & (vals <= 1))


def test_j_round_trip():
    info = np.linspace(0.02, 0.98, 49)
    back = j_function(j_inverse(info))
    np.testing.assert_allclose(back, info, atol=5e-3)


def test_j_inverse_round_trip():
    sigma = np.linspace(0.1, 6.0, 60)
    back = j_inverse(j_function(sigma))
    np.testing.assert_allclose(back, sigma, rtol=0.02, atol=0.02)


def test_mutual_information_histogram_matches_consistent_gaussian(rng):
    sigma = 2.0
    x = np.where(rng.random(200_000) < 0.5, 1.0, -1.0)
    llr = sigma ** 2 / 2.0 * x + sigma * rng.standard_normal(x.size)
    mi = mutual_information_histogram(llr, x)
    assert mi == pytest.approx(float(j_function(sigma)), abs=0.02)


def test_mutual_information_histogram_edge_cases(rng):
    x = np.where(rng.random(1000) < 0.5, 1.0, -1.0)
    assert mutual_information_histogram(np.zeros(1000), x) == 0.0
    strong = 60.0 * x
    assert mutual_information_histogram(strong, x) > 0.95
    with pytest.raises(ValueError):
        mutual_information_histogram(np.zeros(5), np.ones(6))


def test_measure_exit_detector_reproduces_recorded_values():
    # values recorded with the polar-form channel draw and one batched draw
    # of channels, symbols and noise; the same draws and the same damped
    # steps must give them again. Over seeds 0-199 the mean at I_A = 0 is
    # 0.3607 (sd 0.022), against 0.3594 (sd 0.020) with the per-channel
    # normal draws these values replaced
    out = measure_exit_detector(16, 16, 0.0, [0.0, 0.3, 0.6, 0.9],
                                np.random.default_rng(606), n_channels=6,
                                uses_per_channel=8, mpd_cfg=MpdConfig(iterations=10))
    recorded = [0.33450479722754506, 0.40526737875081753,
                0.44684087766490344, 0.44377800084241215]
    np.testing.assert_allclose(out, recorded, rtol=1e-9)


def test_measure_exit_detector_transfer(rng):
    # fully loaded small system at low SNR: the transfer curve is visibly
    # below saturation and rises with the prior information
    out = measure_exit_detector(8, 8, 4.0, prior_info=[0.05, 0.5, 0.9],
                                rng=rng, n_channels=30, uses_per_channel=8)
    assert out.shape == (3,)
    assert np.all((out >= 0) & (out <= 1))
    assert out[2] > out[0] + 0.05
    assert np.all(np.diff(out) >= -0.02)
