"""Monte Carlo engine: SNR sweeps, trial orchestration, complexity counts,
and result persistence.

Determinism contract: every random draw of a batch is keyed by
SeedSequence(master_seed, spawn_key=(snr_point_index, batch_index)) and made
in frame order by the one batch routine, `_batch`: info bits (coded),
channels, pilots (receivers named "-estimated"), then symbols (uncoded) and
data noise. One loop, `_accumulate`, folds the batches strictly in index
order and holds the stopping rule, so results are bit-identical for any
worker count: one worker runs each batch in the calling thread, more run
them in one process pool per sweep. A sweep stops a point once the target
bit-error count is collected or the trial budget is exhausted, whichever
happens first.

Heap policy: a batch allocates tens of MB of arrays (channel draw, Gram,
detector state) and frees them when it returns. Under glibc's default,
dynamic thresholds the freed top of the heap goes back to the OS, so the
next batch faults every page in again and the kernel zeroes it: 10-17% of
a steady-state batch on the benchmark workloads. A sweep's process and
every pool worker therefore set, through mallopt(3), glibc's mmap
threshold (M_MMAP_THRESHOLD) to its 64-bit maximum of 32 MiB, so batch
arrays come from the heap, and its trim threshold (M_TRIM_THRESHOLD) to a
fixed 256 MiB, so freed heap stays mapped for the next batch. Setting
either turns off the dynamic thresholds, which is why both are set: one
alone faults more than the default. A process keeps up to 256 MiB of
freed heap after a sweep. On a C library other than glibc nothing is set.

Thread policy: workers are a sweep's only parallelism. Batches run on one
thread in each OpenBLAS library loaded in their process: numpy's, and
scipy's, which an MMSE receiver's LAPACK brings in and which is therefore
loaded before the policy is set. Each library keeps its own thread pool,
and extra threads only compete with the other library and the other
workers for the same cores: an MMSE sweep at N = 128, K = 64 on two
workers of a 2-vCPU host took 35 times as long with two threads per
library as with one. One thread also fixes the rounding of scipy's
Cholesky, which from order 64 rounds differently on several threads, so
an MMSE result no longer depends on the caller's thread count.
The libraries are found with dl_iterate_phdr(3) and set through their
`openblas_set_num_threads_local`. Where the C library has no
dl_iterate_phdr (macOS, Windows), or no OpenBLAS is loaded, nothing is set.

Both policies are set once per process: in the sweep's own process for the
length of the sweep, and in each pool worker by the pool's initializer.
Each library gets the caller's thread count back when the sweep returns,
so the caller's counts hold between and after sweeps.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import platform
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import map_oracle, mmse_detect
from .estimate import (gram_observation_from_pilots, mmse_channel_estimate,
                       pilot_amplitude, receive_pilots)
from .joint import JointConfig, bits_to_symbols, detect_then_decode, joint_detect_decode
from .ldpc import TABLE_PROFILES, LdpcCode, build_code, encode, regular_profile
from .model import draw_channels, noise_variance, transmit
from .mpd import MpdConfig, hard_decision, matched_filter, mpd_detect

__all__ = [
    "UNCODED_RECEIVERS",
    "CODED_RECEIVERS",
    "SimConfig",
    "BerPoint",
    "BerCurve",
    "config_hash",
    "resolve_profile",
    "run_uncoded_sweep",
    "run_coded_sweep",
    "OperationCount",
    "count_operations",
]

UNCODED_RECEIVERS = ("mpd", "chemp-estimated", "mmse", "mmse-estimated", "map-oracle")
CODED_RECEIVERS = ("joint", "joint-estimated", "separate", "separate-estimated")


@dataclass
class SimConfig:
    """Everything a sweep needs; hashable to a provenance fingerprint.

    Symbols are QPSK with Es = 2 per complex symbol, the SNR convention of
    `model.noise_variance`. The receiver name carries the channel knowledge:
    a name ending in "-estimated" reads (G, z) from pilots, any other the
    true channel. `mpd` is the detector loop's schedule and `joint` the joint
    receiver's outer schedule; every other knob of either lives there and
    nowhere else.
    """

    n_antennas: int
    n_users: int
    snr_db: tuple = (8.0,)
    receiver: str = "mpd"
    mpd: MpdConfig = field(default_factory=MpdConfig)
    seed: int = 0
    target_errors: int = 100
    max_trials: int = 100_000
    batch_size: int = 100
    frame_length: int | None = None  # uncoded -estimated receivers: K pilot + rest data (2K)
    # coded mode only
    code_spec: str | None = None
    block_length: int = 1000
    joint: JointConfig = field(default_factory=JointConfig)
    decoder_iterations: int = 40

    def __post_init__(self):
        if self.n_users < 1 or self.n_users > self.n_antennas:
            raise ValueError("need 1 <= K <= N")
        self.snr_db = tuple(float(s) for s in np.atleast_1d(self.snr_db))
        if not self.snr_db:
            raise ValueError("snr grid is empty")
        if not np.all(np.isfinite(self.snr_db)):
            raise ValueError(f"snr grid must be finite, got {self.snr_db}")
        known = UNCODED_RECEIVERS + CODED_RECEIVERS
        if self.receiver not in known:
            raise ValueError(f"unknown receiver {self.receiver!r}; choose from {known}")
        if self.target_errors < 1 or self.max_trials < 1 or self.batch_size < 1:
            raise ValueError("target_errors, max_trials, batch_size must be >= 1")
        if self.frame_length is not None:
            if self.receiver not in ("chemp-estimated", "mmse-estimated"):
                raise ValueError("frame_length is read only by the uncoded receivers "
                                 f"chemp-estimated and mmse-estimated, not {self.receiver!r}")
            if self.frame_length <= self.n_users:
                raise ValueError("frame_length must exceed the K pilot uses")
        if self.receiver == "map-oracle" and self.n_users > 8:
            raise ValueError("map-oracle is limited to K <= 8")
        if self.receiver in CODED_RECEIVERS and self.code_spec is None:
            raise ValueError("coded receivers need code_spec")
        if (self.receiver.startswith("joint") and self.mpd.aitken
                and self.joint.detector_passes < 3):
            raise ValueError("Aitken extrapolation in the joint receiver needs "
                             "detector_passes >= 3: its window spans three steps of one round")


def config_hash(cfg: SimConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class BerPoint:
    snr_db: float
    bits: int
    errors: int
    ber: float
    ci_halfwidth: float
    trials: int = 0
    reliable: bool = True
    frames: int | None = None
    frame_errors: int | None = None
    fer: float | None = None


@dataclass
class BerCurve:
    receiver: str
    points: list
    provenance: dict

    def to_csv(self, path: str):
        lines = ["snr_db,bits,errors,ber,ci_halfwidth"]
        for p in self.points:
            lines.append(f"{p.snr_db:g},{p.bits},{p.errors},{p.ber:.6e},{p.ci_halfwidth:.6e}")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

    def to_json(self, path: str):
        doc = {"receiver": self.receiver, "provenance": self.provenance,
               "points": [asdict(p) for p in self.points]}
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)


def _ci_halfwidth(errors: int, bits: int, codewords: int | None = None,
                  sq_errors: int = 0) -> float:
    """95% half-width of the BER errors / bits.

    Uncoded bits fail independently: the binomial half-width. Coded errors
    come in failed codewords, so a coded point passes its `codewords` count
    (bits / codewords info bits each) and sq_errors = sum of e_c^2 over their
    info-bit error counts e_c, and gets the codeword-clustered half-width:
    that of the mean of the per-codeword error fractions. A single codeword
    has no spread to measure and gets the binomial one.
    """
    if bits == 0:
        return 0.0
    if codewords is None or codewords < 2:
        p = errors / bits
        return 1.96 * np.sqrt(max(p * (1.0 - p), 0.0) / bits)
    m = bits / codewords
    spread = (sq_errors - errors ** 2 / codewords) / (m ** 2 * (codewords - 1))
    return 1.96 * np.sqrt(max(spread, 0.0) / codewords)


def _make_point(snr_db, n_users, bits, errors, trials, frame_errors=None,
                sq_errors=0) -> BerPoint:
    """A sweep point from its summed batch counts; a coded point counts frame
    errors, over `trials` frames of `n_users` codewords each."""
    frames = None if frame_errors is None else trials
    codewords = None if frames is None else frames * n_users
    return BerPoint(
        snr_db=float(snr_db), bits=int(bits), errors=int(errors),
        ber=float(errors / bits if bits else 0.0),
        ci_halfwidth=float(_ci_halfwidth(errors, bits, codewords, sq_errors)),
        trials=int(trials), reliable=bool(errors >= 10), frames=frames,
        frame_errors=frame_errors, fer=(frame_errors / frames if frames else None),
    )


def _batch_rng(seed: int, point_idx: int, batch_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(point_idx, batch_idx)))


class _DlPhdrInfo(ctypes.Structure):
    """The leading fields of dl_iterate_phdr(3)'s struct dl_phdr_info."""

    _fields_ = (("addr", ctypes.c_void_p), ("name", ctypes.c_char_p))


_DL_VISIT = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_DlPhdrInfo), ctypes.c_size_t,
                             ctypes.c_void_p)


def _openblas_setters() -> list:
    """`openblas_set_num_threads_local` of each OpenBLAS library loaded in
    this process: it sets the library's thread count and returns the previous
    one. Empty where the C library has no dl_iterate_phdr(3) or none is loaded."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (TypeError, AttributeError):  # no dlopen(NULL) (Windows), no dl_iterate_phdr (macOS)
        return []
    iterate.argtypes, iterate.restype = (_DL_VISIT, ctypes.c_void_p), ctypes.c_int
    paths = []

    def visit(info, size, data):
        if b"openblas" in (info.contents.name or b""):
            paths.append(info.contents.name.decode())
        return 0

    iterate(_DL_VISIT(visit), None)
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = (ctypes.c_int,), ctypes.c_int
        setters.append(setter)
    return setters


def _batch(code: LdpcCode | None, cfg: SimConfig, point_idx: int, batch_idx: int,
           n_trials: int):
    """One deterministic batch of `n_trials` frames, uncoded when `code` is None.

    Draws in frame order: the info bits of a coded frame, the channels, the K
    pilot uses of a receiver named "-estimated", then the data uses: the
    symbols of an uncoded frame and the data noise. A frame is one channel
    and its uses (one, the data uses or n/2). Returns (bits, errors,
    trials), and for a coded batch also the frame errors and the sum over
    codewords of the squared info-bit error count.
    """
    rng = _batch_rng(cfg.seed, point_idx, batch_idx)
    n, k = cfg.n_antennas, cfg.n_users
    nv = noise_variance(cfg.snr_db[point_idx], k)
    x = None
    if code is not None:
        info = rng.integers(0, 2, size=(n_trials, k, code.k)).astype(np.uint8)
        x = bits_to_symbols(encode(code, info), k)
    hc = draw_channels(rng, n, k, n_trials)
    estimated = cfg.receiver.endswith("-estimated")
    pilots = receive_pilots(rng, hc, nv, pilot_amplitude(k)) if estimated else None
    x, yc = transmit(rng, hc, nv, x, uses=(cfg.frame_length or 2 * k) - k if estimated else 1)
    if cfg.receiver == "mmse-estimated":
        obs = matched_filter(mmse_channel_estimate(pilots), yc, nv)
    elif estimated:
        obs = gram_observation_from_pilots(pilots, yc)
    else:
        obs = matched_filter(hc, yc, nv)
    del hc, yc, pilots  # the receiver reads only the observation
    if code is None:
        if cfg.receiver in ("mpd", "chemp-estimated"):
            xh = hard_decision(mpd_detect(obs, cfg.mpd))
        elif cfg.receiver == "map-oracle":
            xh = map_oracle(obs)
        else:
            xh = mmse_detect(obs)[0]
        return x.size, int(np.sum(xh != x)), n_trials
    if cfg.receiver.startswith("joint"):
        res = joint_detect_decode(obs, code, cfg.joint, cfg.mpd)
    else:
        res = detect_then_decode(obs, code, cfg.mpd, cfg.decoder_iterations)
    per_codeword = np.sum(res.info_bits != info, axis=-1)
    return (info.size, int(per_codeword.sum()), n_trials,
            int(np.any(per_codeword, axis=-1).sum()), int(np.sum(per_codeword ** 2)))


# glibc mallopt(3) parameters and the heap policy's values (module docstring)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 256 << 20))


def _set_process_policies(receiver: str) -> list:
    """Apply the heap policy (glibc only) and the thread policy of the module
    docstring to this process, loading an MMSE receiver's LAPACK first so
    that the thread policy finds its OpenBLAS. Returns (setter, previous
    thread count) for each OpenBLAS library set."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        for param, value in _HEAP_POLICY:
            if mallopt(param, value) != 1:
                raise OSError(f"mallopt({param}, {value}) failed")
    if receiver.startswith("mmse"):
        import scipy.linalg.lapack  # noqa: F401
    return [(setter, setter(1)) for setter in _openblas_setters()]


class _InThisThread(Executor):
    """Executor of the one-worker case: no pool and no thread. A submitted
    batch runs in the calling thread when its result is read, so a batch
    cancelled once the stopping rule fires never runs."""

    def submit(self, fn, *args):
        return _Deferred(fn, *args)


class _Deferred(functools.partial):
    def result(self):
        return self()

    def cancel(self):
        return True


def _accumulate(cfg: SimConfig, point_idx: int, batch_fn, pool, workers: int):
    """Run batches in index order on `pool` until the stopping rule fires.

    Up to 2 * `workers` batches are in flight; `batch_fn(cfg, point_idx,
    batch_idx, n_trials)` must be picklable when `workers > 1`. The pending
    ones are cancelled once the rule fires. An error reaches the caller at
    once, but with `workers > 1` up to workers + 1 batches already in the
    pool's call queue cannot be cancelled: they run to completion in the
    worker processes, and the interpreter joins them at exit."""
    takes = [min(cfg.batch_size, cfg.max_trials - done)
             for done in range(0, cfg.max_trials, cfg.batch_size)]
    totals = None
    pending = {}
    try:
        for bi in range(len(takes)):
            for bj in range(bi + len(pending), min(bi + 2 * workers, len(takes))):
                pending[bj] = pool.submit(batch_fn, cfg, point_idx, bj, takes[bj])
            part = pending.pop(bi).result()
            totals = part if totals is None else tuple(a + b for a, b in zip(totals, part))
            if totals[1] >= cfg.target_errors:
                break
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    for fut in pending.values():
        fut.cancel()
    return totals


def _sweep(cfg: SimConfig, workers: int, code: LdpcCode | None = None) -> BerCurve:
    """The sweep body of both sweeps, uncoded when `code` is None: one point
    per SNR, all on one executor, under the heap and thread policies in every
    process; the caller's thread counts come back when it returns."""
    batch_fn = functools.partial(_batch, code)
    restore = _set_process_policies(cfg.receiver)
    try:
        pool = (ProcessPoolExecutor(max_workers=workers, initializer=_set_process_policies,
                                    initargs=(cfg.receiver,))
                if workers > 1 else _InThisThread())
        with pool:
            points = [_make_point(snr, cfg.n_users, *_accumulate(cfg, pi, batch_fn, pool, workers))
                      for pi, snr in enumerate(cfg.snr_db)]
    finally:
        for setter, count in restore:
            setter(count)
    provenance = {"config": asdict(cfg), "config_hash": config_hash(cfg),
                  "seed": cfg.seed, "numpy": np.__version__}
    if code is not None:
        provenance["code"] = {"spec": cfg.code_spec, "n": code.n, "k": code.k,
                              "edges": int(code.n_edges)}
    return BerCurve(receiver=cfg.receiver, points=points, provenance=provenance)


def run_uncoded_sweep(cfg: SimConfig, workers: int = 1) -> BerCurve:
    """BER vs SNR for one uncoded receiver."""
    if cfg.receiver not in UNCODED_RECEIVERS:
        raise ValueError(f"not an uncoded receiver: {cfg.receiver!r}")
    return _sweep(cfg, workers)


def resolve_profile(spec: str):
    """Map a code_spec string to a degree profile.

    Accepts the named table profiles plus 'regular-DV-DC'.
    """
    if spec in TABLE_PROFILES:
        return TABLE_PROFILES[spec]
    if spec.startswith("regular-"):
        try:
            dv, dc = (int(t) for t in spec.split("-")[1:])
        except (ValueError, TypeError):
            raise ValueError(f"bad regular code spec {spec!r}; use 'regular-3-6'")
        return regular_profile(dv, dc)
    raise ValueError(
        f"unknown code_spec {spec!r}; choose from {sorted(TABLE_PROFILES)} or 'regular-DV-DC'")


def build_sweep_code(cfg: SimConfig) -> LdpcCode:
    """Deterministic code construction tied to the sweep's master seed."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0x600D,)))
    return build_code(resolve_profile(cfg.code_spec), cfg.block_length, rng)


def run_coded_sweep(cfg: SimConfig, workers: int = 1, code: LdpcCode | None = None) -> BerCurve:
    """Info-bit BER (and FER) vs SNR for the coded receivers."""
    if cfg.receiver not in CODED_RECEIVERS:
        raise ValueError(f"not a coded receiver: {cfg.receiver!r}")
    return _sweep(cfg, workers, build_sweep_code(cfg) if code is None else code)


# ---------------------------------------------------------------------------
# complexity model


@dataclass
class OperationCount:
    """Analytic real-operation count with its model written out."""

    receiver: str
    n_antennas: int
    n_users: int
    iterations: int
    total: float
    breakdown: dict
    model: dict
    # MMSE only: the solve `baselines.mmse_detect` runs, counted the same way;
    # not part of `total`
    solve_as_run: float | None = None


def count_operations(receiver: str, n_antennas: int, n_users: int,
                     iterations: int = MpdConfig.iterations) -> OperationCount:
    """Real-operation counts for the two compared receivers.

    The model charges complex multiply-accumulates at 8 real ops (4 mult +
    4 add), exploits Hermitian symmetry of the Gram computation, and charges
    the linear baseline a Cholesky solve of the 2K-dim real system.
    `baselines.mmse_detect` runs a complex K x K Cholesky instead, which
    takes about half the real operations the model charges for the solve;
    an MMSE count gives that solve, counted with the same constants, as
    `solve_as_run`, outside `total`. Constants are documented in the
    returned model strings.
    """
    r = receiver.lower()
    if r not in ("mpd", "mmse"):
        raise ValueError("receiver must be 'mpd' or 'mmse'")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    n, k = float(n_antennas), float(n_users)
    gram = 4.0 * n * k * k + 4.0 * n * k
    filt = 8.0 * n * k
    model = {
        "gram": "4 N K^2 + 4 N K (Hermitian K x K complex Gram of an N x K matrix)",
        "filter": "8 N K (complex matched filter z)",
    }
    solve_as_run = None
    if r == "mpd":
        per_iter = 16.0 * k * k + 26.0 * k
        setup = 4.0 * k * k
        iter_cost = 0.0 if iterations == 0 else setup + iterations * per_iter
        model.update({
            "iterations": "4 K^2 setup (squared couplings) + T (16 K^2 + 26 K) "
                          "mean/variance/LLR updates over 2K real symbols",
        })
        breakdown = {"gram": gram, "filter": filt, "iterations": iter_cost}
    else:
        solve = 16.0 * k ** 3 / 3.0 + 16.0 * k * k + 2.0 * k
        solve_as_run = 8.0 * k ** 3 / 3.0 + 16.0 * k * k + k
        model.update({
            "solve": "16 K^3 / 3 Cholesky of the regularized 2K-dim real Gram "
                     "+ 16 K^2 triangular solves + 2 K regularization",
            "solve_as_run": "8 K^3 / 3 Cholesky of the regularized K x K complex Gram "
                            "+ 16 K^2 triangular solves + K regularization",
        })
        breakdown = {"gram": gram, "filter": filt, "solve": solve}
    return OperationCount(receiver=r, n_antennas=n_antennas, n_users=n_users,
                          iterations=iterations, total=float(sum(breakdown.values())),
                          breakdown=breakdown, model=model, solve_as_run=solve_as_run)
