"""Joint detection and decoding on the combined detector/code factor graph.

Each of the K users transmits one codeword of length n across n/2 channel
uses of a block-fading channel: odd-numbered code bits ride on the user's
real symbol component, even-numbered bits on the imaginary component.
Detector and per-user decoders exchange extrinsic information in outer
rounds. A codeword that satisfies its checks leaves the decoder, frozen, and
the detector keeps reading the extrinsic it left with, so a frame's bits do
not depend on its batch mates; with zero decoder passes each codeword is the
plain damped detector run for its own rounds. Each round's detector passes
run `MpdEngine.run`, the one damped loop of `mpd`.

Also provides EXIT-style single-parameter tracking of the detector:
extrinsic mutual information measured by histogram against consistent
Gaussian priors of prescribed prior information.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ldpc import LdpcCode, _ActiveSet, bp_decode_batch
from .model import draw_channels, modulate, noise_variance, transmit
from .mpd import (LLR_CLIP, GramObservation, MpdConfig, MpdEngine, matched_filter,
                  mpd_detect)

__all__ = [
    "JointConfig",
    "JointResult",
    "bits_to_symbols",
    "gather_bit_llrs",
    "joint_detect_decode",
    "detect_then_decode",
    "j_function",
    "j_inverse",
    "mutual_information_histogram",
    "measure_exit_detector",
]


@dataclass
class JointConfig:
    """Outer schedule for the combined graph.

    One outer round = `detector_passes` steps of the damped detector loop
    with the code extrinsics held fixed as priors, followed by
    `decoder_passes` flooding iterations on the new detector LLRs. A
    codeword's check-to-variable messages persist across rounds until it
    satisfies all its checks and leaves the decoder; the detector beliefs of
    every frame carry over from round to round. Damping and Aitken
    extrapolation (within a round) come from `MpdConfig`; its `iterations`
    is not used. The extrinsics fed back to the detector are clipped to
    `mpd.LLR_CLIP`.
    """

    outer_iterations: int = 20
    detector_passes: int = 1
    decoder_passes: int = 2

    def __post_init__(self):
        if self.outer_iterations < 1:
            raise ValueError("outer_iterations must be positive")
        if self.detector_passes < 1:
            raise ValueError("detector_passes must be positive")
        if self.decoder_passes < 0:
            raise ValueError("decoder_passes must be nonnegative")


@dataclass
class JointResult:
    """Each codeword as it left the decoder; 0 rounds for the separate baseline."""

    codeword_bits: np.ndarray          # (..., K, n) hard decisions
    info_bits: np.ndarray              # (..., K, k)
    success: np.ndarray                # (..., K) all checks satisfied
    outer_rounds: int                  # rounds run
    rounds: np.ndarray                 # (..., K) round left at, else outer_rounds
    bit_llrs: np.ndarray = field(repr=False, default=None)  # (..., K, n)


def bits_to_symbols(bits: np.ndarray, n_users: int) -> np.ndarray:
    """Map codeword bits (..., K, n) to sent symbols (..., n/2, 2K).

    Bit 2u of user j modulates the real component (column j) of use u,
    bit 2u+1 the imaginary component (column K+j).
    """
    bits = np.asarray(bits)
    if bits.shape[-2] != n_users:
        raise ValueError("bits second-to-last axis must equal the user count")
    if bits.shape[-1] % 2:
        raise ValueError("codeword length must be even")
    return _symbol_layout(modulate(bits))


def _symbol_layout(per_bit: np.ndarray) -> np.ndarray:
    """Inverse of `gather_bit_llrs`: per-bit values (..., K, n) as symbols (..., n/2, 2K)."""
    k, n = per_bit.shape[-2:]
    # (..., K, n) -> (..., K, n/2, 2) -> (..., n/2, 2, K) -> (..., n/2, 2K)
    a = np.moveaxis(per_bit.reshape(per_bit.shape[:-1] + (n // 2, 2)), -3, -1)
    return a.reshape(a.shape[:-2] + (2 * k,))


def gather_bit_llrs(symbol_llrs: np.ndarray, n_users: int) -> np.ndarray:
    """Inverse mapping: symbol LLRs (..., n/2, 2K) to bit LLRs (..., K, n)."""
    sl = np.asarray(symbol_llrs)
    u = sl.shape[-2]
    sl = sl.reshape(sl.shape[:-1] + (2, n_users))  # (..., U, 2, K)
    sl = np.moveaxis(sl, -1, -3)                   # (..., K, U, 2)
    return sl.reshape(sl.shape[:-2] + (2 * u,))


def _framing(obs: GramObservation, code: LdpcCode):
    """User count K and frame axes of an observation batch z (..., n/2, 2K)."""
    if code.n % 2:
        raise ValueError("block length must be even to map onto symbol pairs")
    if obs.z.shape[-2] != code.n // 2:
        raise ValueError("observation z must carry one row per channel use")
    return obs.z.shape[-1] // 2, obs.z.shape[:-2]


def joint_detect_decode(obs: GramObservation, code: LdpcCode,
                        cfg: JointConfig | None = None,
                        mpd_cfg: MpdConfig | None = None) -> JointResult:
    """Run the outer detector/decoder schedule on framed observations.

    One frame is one channel and its n/2 uses: `obs.G` is (..., K, K) and
    `obs.z` (..., n/2, 2K). The first round's detector runs without a
    prior; every later round's prior is each codeword's decoder extrinsic,
    the one a codeword left with once it has left, clipped to `LLR_CLIP`.
    LLR convention: positive favors bit 0 / symbol +1.
    """
    cfg = cfg or JointConfig()
    mpd_cfg = mpd_cfg or MpdConfig()
    n_users, lead = _framing(obs, code)
    engine = MpdEngine(obs)
    shape = lead + (n_users,)
    dec = _ActiveSet(code, int(np.prod(shape, dtype=int)), soft=True)
    rounds = np.full(dec.ok.shape, cfg.outer_iterations)

    p = engine.uniform_beliefs()
    prior = None
    for r in range(1, cfg.outer_iterations + 1):
        state = engine.run(mpd_cfg, p, prior, cfg.detector_passes)
        p = state.p
        # the float32 detector LLRs enter the decoder, which runs in the same DTYPE
        flat = gather_bit_llrs(state.llr, n_users).reshape(-1, code.n)
        rounds[dec.run(flat, cfg.decoder_passes)] = r
        if not dec.live.size:
            break
        prior = np.clip(_symbol_layout(dec.extrinsic().reshape(shape + (code.n,))),
                        -LLR_CLIP, LLR_CLIP)
    dec.finish(flat)

    return JointResult(
        codeword_bits=dec.bits.reshape(shape + (code.n,)),
        info_bits=dec.bits[..., code.info_cols].reshape(shape + (code.k,)),
        success=dec.ok.reshape(shape),
        outer_rounds=r,
        rounds=rounds.reshape(shape),
        bit_llrs=dec.post.reshape(shape + (code.n,)),
    )


def detect_then_decode(obs: GramObservation, code: LdpcCode,
                       mpd_cfg: MpdConfig, decoder_iterations: int) -> JointResult:
    """Baseline: run the detector to completion, then decode once per user."""
    n_users, lead = _framing(obs, code)

    state = mpd_detect(obs, mpd_cfg)
    bit_llr = gather_bit_llrs(state.llr, n_users)
    flat = bit_llr.reshape(-1, code.n)
    bits, ok, _ = bp_decode_batch(code, flat, decoder_iterations)
    return JointResult(
        codeword_bits=bits.reshape(lead + (n_users, code.n)),
        info_bits=bits[..., code.info_cols].reshape(lead + (n_users, code.k)),
        success=ok.reshape(lead + (n_users,)),
        outer_rounds=0,
        rounds=np.zeros(lead + (n_users,), dtype=int),
        bit_llrs=bit_llr.reshape(lead + (n_users, code.n)),
    )


# ---------------------------------------------------------------------------
# EXIT-style tracking


def j_function(sigma) -> np.ndarray:
    """Mutual information of a consistent Gaussian LLR with std-dev sigma."""
    s = np.asarray(sigma, dtype=float)
    out = np.empty_like(s)
    low = s <= 1.6363
    sl = s[low]
    out[low] = -0.0421061 * sl**3 + 0.209252 * sl**2 - 0.00640081 * sl
    mid = ~low & (s < 10.0)
    sm = s[mid]
    out[mid] = 1.0 - np.exp(0.00181491 * sm**3 - 0.142675 * sm**2
                            - 0.0822054 * sm + 0.0549608)
    out[~low & ~mid] = 1.0
    return np.clip(out, 0.0, 1.0)


def j_inverse(info) -> np.ndarray:
    """Inverse of j_function (standard two-branch polynomial fit)."""
    i = np.asarray(info, dtype=float)
    if np.any((i < 0) | (i >= 1)):
        raise ValueError("mutual information must lie in [0, 1)")
    out = np.empty_like(i)
    low = i <= 0.3646
    il = i[low]
    out[low] = 1.09542 * il**2 + 0.214217 * il + 2.33727 * np.sqrt(il)
    ih = i[~low]
    out[~low] = -0.706692 * np.log(0.386013 * (1.0 - ih)) + 1.75017 * ih
    return out


def mutual_information_histogram(llrs: np.ndarray, symbols: np.ndarray) -> float:
    """I(X; L) in bits for X in {-1,+1} equiprobable, estimated by a 64-bin
    histogram over the LLR range."""
    llrs = np.asarray(llrs, dtype=float).ravel()
    symbols = np.asarray(symbols, dtype=float).ravel()
    if llrs.size != symbols.size:
        raise ValueError("llrs and symbols must have equal size")
    lo, hi = llrs.min(), llrs.max()
    if hi - lo < 1e-12:
        return 0.0
    edges = np.linspace(lo, hi, 65)
    plus = symbols > 0
    cp, _ = np.histogram(llrs[plus], bins=edges)
    cm, _ = np.histogram(llrs[~plus], bins=edges)
    fp = cp / max(cp.sum(), 1)
    fm = cm / max(cm.sum(), 1)
    info = 0.0
    for f, g in ((fp, fm), (fm, fp)):
        mask = f > 0
        info += 0.5 * np.sum(f[mask] * np.log2(2.0 * f[mask] / (f[mask] + g[mask])))
    return float(np.clip(info, 0.0, 1.0))


def measure_exit_detector(n_antennas: int, n_users: int, snr_db: float,
                          prior_info: np.ndarray, rng: np.random.Generator,
                          n_channels: int = 40, uses_per_channel: int = 16,
                          mpd_cfg: MpdConfig | None = None) -> np.ndarray:
    """Extrinsic information transfer of the detector at one SNR.

    For each prior information value, feeds consistent Gaussian priors of
    matching strength into the detector (run with priors held fixed) and
    measures the extrinsic mutual information of its output LLRs by
    histogram. Returns an array aligned with `prior_info`.
    """
    mpd_cfg = mpd_cfg or MpdConfig()
    prior_info = np.atleast_1d(np.asarray(prior_info, dtype=float))
    nv = noise_variance(snr_db, n_users)
    hc = draw_channels(rng, n_antennas, n_users, n_channels)
    x, yc = transmit(rng, hc, nv, uses=uses_per_channel)
    obs = matched_filter(hc, yc, nv)
    z = obs.z
    engine = MpdEngine(obs)

    out = np.empty(prior_info.shape)
    for ix, ia in enumerate(prior_info):
        if ia <= 0.0:
            prior = np.zeros_like(z)
        else:
            sig = float(j_inverse(min(ia, 1.0 - 1e-9)))
            prior = (sig**2 / 2.0) * x + sig * rng.standard_normal(z.shape)
        llr = engine.run(mpd_cfg, prior=prior).llr
        out[ix] = mutual_information_histogram(llr, x)
    return out
