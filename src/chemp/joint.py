"""Joint detection and decoding on the combined detector/code factor graph.

Each of the K users transmits one codeword of length n across n/2 channel
uses of a block-fading channel: odd-numbered code bits ride on the user's
real symbol component, even-numbered bits on the imaginary component.
Detector and per-user decoders exchange extrinsic information in outer
rounds; with zero decoder passes the loop reduces exactly to the plain
damped detector.

Also provides EXIT-style single-parameter tracking of the detector:
extrinsic mutual information measured by histogram against consistent
Gaussian priors of prescribed prior information.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ldpc import LdpcCode, bp_decode_batch
from .model import draw_channels, modulate, noise_variance
from .mpd import GramObservation, MpdConfig, MpdEngine, matched_filter, mpd_detect

__all__ = [
    "JointConfig",
    "JointResult",
    "bits_to_symbols",
    "gather_bit_llrs",
    "scatter_bit_llrs",
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

    One outer round = `detector_passes` detector message updates with the
    code extrinsics held fixed, followed by `decoder_passes` flooding
    iterations on the new detector LLRs. The decoder's check-to-variable
    messages persist across rounds. Damping and the LLR clip of the detector
    updates come from `MpdConfig`.
    """

    outer_iterations: int = 20
    detector_passes: int = 1
    decoder_passes: int = 2
    extrinsic_clip: float = 50.0

    def __post_init__(self):
        if self.outer_iterations < 1:
            raise ValueError("outer_iterations must be positive")
        if self.detector_passes < 1:
            raise ValueError("detector_passes must be positive")
        if self.decoder_passes < 0:
            raise ValueError("decoder_passes must be nonnegative")
        if self.extrinsic_clip <= 0:
            raise ValueError("extrinsic_clip must be positive")


@dataclass
class JointResult:
    codeword_bits: np.ndarray          # (..., K, n) hard decisions
    info_bits: np.ndarray              # (..., K, k)
    success: np.ndarray                # (..., K) all checks satisfied
    outer_rounds: int
    bit_llrs: np.ndarray = field(repr=False, default=None)  # (..., K, n)


def _frame_shape(code: LdpcCode, n_users: int):
    if code.n % 2:
        raise ValueError("block length must be even to map onto symbol pairs")
    return code.n // 2, 2 * n_users


def bits_to_symbols(bits: np.ndarray, n_users: int) -> np.ndarray:
    """Map codeword bits (..., K, n) to sent symbols (..., n/2, 2K).

    Bit 2u of user j modulates the real component (column j) of use u,
    bit 2u+1 the imaginary component (column K+j).
    """
    bits = np.asarray(bits)
    k = bits.shape[-2]
    if k != n_users:
        raise ValueError("bits second-to-last axis must equal the user count")
    n = bits.shape[-1]
    if n % 2:
        raise ValueError("codeword length must be even")
    sym = modulate(bits)
    # (..., K, n) -> (..., K, n/2, 2) -> (..., n/2, 2, K) -> (..., n/2, 2K)
    sym = sym.reshape(bits.shape[:-1] + (n // 2, 2))
    sym = np.moveaxis(sym, -3, -1)  # (..., n/2, 2, K)
    return sym.reshape(sym.shape[:-2] + (2 * n_users,))


def gather_bit_llrs(symbol_llrs: np.ndarray, n_users: int) -> np.ndarray:
    """Inverse mapping: symbol LLRs (..., n/2, 2K) to bit LLRs (..., K, n)."""
    sl = np.asarray(symbol_llrs)
    u = sl.shape[-2]
    sl = sl.reshape(sl.shape[:-1] + (2, n_users))  # (..., U, 2, K)
    sl = np.moveaxis(sl, -1, -3)                   # (..., K, U, 2)
    return sl.reshape(sl.shape[:-2] + (2 * u,))


def scatter_bit_llrs(bit_llrs: np.ndarray, n_users: int) -> np.ndarray:
    """Map bit LLRs (..., K, n) back onto symbol positions (..., n/2, 2K)."""
    bl = np.asarray(bit_llrs)
    n = bl.shape[-1]
    bl = bl.reshape(bl.shape[:-1] + (n // 2, 2))   # (..., K, U, 2)
    bl = np.moveaxis(bl, -3, -1)                   # (..., U, 2, K)
    return bl.reshape(bl.shape[:-2] + (2 * n_users,))


def _as_framed(obs: GramObservation, n_uses: int):
    """Validate that the observation batch is (..., U, 2K) with G per frame."""
    z = obs.z
    if z.ndim < 2 or z.shape[-2] != n_uses:
        raise ValueError("observation z must carry one row per channel use")
    return z.ndim - 2


def joint_detect_decode(obs: GramObservation, code: LdpcCode,
                        cfg: JointConfig | None = None,
                        mpd_cfg: MpdConfig | None = None) -> JointResult:
    """Run the outer detector/decoder schedule on framed observations.

    `obs.z` has shape (..., n/2, 2K); `obs.G` is shared across the uses
    of a frame (shape (..., 1, K, K) or (K, K)). LLR convention:
    positive favors bit 0 / symbol +1.
    """
    cfg = cfg or JointConfig()
    mpd_cfg = mpd_cfg or MpdConfig()
    n_users = obs.z.shape[-1] // 2
    n_uses, _ = _frame_shape(code, n_users)
    _as_framed(obs, n_uses)
    engine = MpdEngine(obs, llr_clip=mpd_cfg.llr_clip)
    kern = code.kernel
    lead = obs.z.shape[:-2]
    n_frames = int(np.prod(lead, dtype=int)) if lead else 1

    p = engine.uniform_beliefs()
    ext_sym = np.zeros_like(obs.z)
    c2v = kern.fresh_messages(n_frames * n_users)
    for rounds in range(1, cfg.outer_iterations + 1):
        for _ in range(cfg.detector_passes):
            det_llr, p = engine.step(p, mpd_cfg.damping, extrinsic_llr=ext_sym)
        bit_llr = gather_bit_llrs(det_llr, n_users)
        flat = bit_llr.reshape(-1, code.n)
        c2v = kern.iterate(flat, c2v, cfg.decoder_passes)
        ext = kern.extrinsic(c2v)
        post = flat + ext
        cw = (post < 0).astype(np.uint8)
        ok = ~np.any(code.syndrome(cw), axis=-1)
        if ok.all():
            break
        ext_sym = scatter_bit_llrs(
            np.clip(ext, -cfg.extrinsic_clip, cfg.extrinsic_clip).reshape(
                lead + (n_users, code.n)), n_users)

    # c2v has not changed since the last round's ext: its decisions stand
    return JointResult(
        codeword_bits=cw.reshape(lead + (n_users, code.n)),
        info_bits=cw[..., code.info_cols].reshape(lead + (n_users, code.k)),
        success=ok.reshape(lead + (n_users,)),
        outer_rounds=rounds,
        bit_llrs=post.reshape(lead + (n_users, code.n)),
    )


def detect_then_decode(obs: GramObservation, code: LdpcCode,
                       mpd_cfg: MpdConfig | None = None,
                       decoder_iterations: int = 40) -> JointResult:
    """Baseline: run the detector to completion, then decode once per user."""
    mpd_cfg = mpd_cfg or MpdConfig()
    n_users = obs.z.shape[-1] // 2
    n_uses, _ = _frame_shape(code, n_users)
    _as_framed(obs, n_uses)
    lead = obs.z.shape[:-2]

    state = mpd_detect(obs, mpd_cfg)
    bit_llr = gather_bit_llrs(state.llr, n_users)
    flat = bit_llr.reshape(-1, code.n)
    bits, ok, _ = bp_decode_batch(code, flat, decoder_iterations)
    return JointResult(
        codeword_bits=bits.reshape(lead + (n_users, code.n)),
        info_bits=bits[..., code.info_cols].reshape(lead + (n_users, code.k)),
        success=ok.reshape(lead + (n_users,)),
        outer_rounds=0,
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


def mutual_information_histogram(llrs: np.ndarray, symbols: np.ndarray,
                                 n_bins: int = 64) -> float:
    """I(X; L) in bits for X in {-1,+1} equiprobable, estimated by histogram."""
    llrs = np.asarray(llrs, dtype=float).ravel()
    symbols = np.asarray(symbols, dtype=float).ravel()
    if llrs.size != symbols.size:
        raise ValueError("llrs and symbols must have equal size")
    lo, hi = llrs.min(), llrs.max()
    if hi - lo < 1e-12:
        return 0.0
    edges = np.linspace(lo, hi, n_bins + 1)
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
                          mpd_cfg: MpdConfig | None = None,
                          n_bins: int = 64) -> np.ndarray:
    """Extrinsic information transfer of the detector at one SNR.

    For each prior information value, feeds consistent Gaussian priors of
    matching strength into the detector (run with priors held fixed) and
    measures the extrinsic mutual information of its output LLRs by
    histogram. Returns an array aligned with `prior_info`.
    """
    mpd_cfg = mpd_cfg or MpdConfig()
    prior_info = np.atleast_1d(np.asarray(prior_info, dtype=float))
    nv = noise_variance(snr_db, n_users)
    m = 2 * n_users

    zs = []
    grams = []
    xs = []
    n, k = n_antennas, n_users
    for _ in range(n_channels):
        hc = draw_channels(rng, n, k)
        x = modulate(rng.integers(0, 2, size=(uses_per_channel, m)))
        w = rng.standard_normal((uses_per_channel, n * 2)) * np.sqrt(nv)
        yc = (x[:, :k] + 1j * x[:, k:]) @ hc.T + (w[:, :n] + 1j * w[:, n:])
        fo = matched_filter(hc, yc, nv)
        zs.append(fo.z)
        grams.append(fo.G)
        xs.append(x)
    z = np.stack(zs)                      # (B, U, 2K)
    gram = np.stack(grams)[:, None]       # (B, 1, K, K)
    x = np.stack(xs)
    obs = GramObservation(G=gram, z=z, sigma_v_sq=nv / n)
    engine = MpdEngine(obs, llr_clip=mpd_cfg.llr_clip)

    out = np.empty(prior_info.shape)
    for ix, ia in enumerate(prior_info):
        if ia <= 0.0:
            prior = np.zeros_like(z)
        else:
            sig = float(j_inverse(min(ia, 1.0 - 1e-9)))
            prior = (sig**2 / 2.0) * x + sig * rng.standard_normal(z.shape)
        p = engine.uniform_beliefs()
        llr = np.zeros_like(z)
        for _ in range(mpd_cfg.iterations):
            llr, p = engine.step(p, mpd_cfg.damping, extrinsic_llr=prior)
        out[ix] = mutual_information_histogram(llr, x, n_bins=n_bins)
    return out
