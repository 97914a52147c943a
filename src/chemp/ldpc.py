"""Irregular LDPC codes: degree profiles, progressive-edge-growth construction,
GF(2) systematic encoding, and sum-product decoding in float32.

Node-perspective degree profiles list (degree, fraction-of-nodes) pairs.
Construction realizes the integer node counts by largest-remainder rounding,
then reconciles the two sides' edge totals by re-selecting which classes
round up, keeping every class within one node of its real-valued target.
Edges are placed variable by variable. Each new edge goes to a check with
spare target capacity if one is left; among those, to one at maximal graph
distance from the variable's current tree, then to low degree, then at random.
That rules out parallel edges but not short cycles: distance only breaks ties
after capacity, so a profile with high-degree checks keeps hundreds of
4-cycles (`LdpcCode.four_cycles` counts them).

The decoder runs in the detector's working precision `mpd.DTYPE` (float32),
so the coded receiver has one precision end to end; `SumProduct` describes
its phi-domain check update, which keeps float64's message range.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .mpd import DTYPE

__all__ = [
    "DegreeProfile",
    "LdpcCode",
    "TABLE_PROFILES",
    "regular_profile",
    "build_code",
    "encode",
    "bp_decode_batch",
    "SumProduct",
    "write_alist",
    "code_from_parity_check",
]


@dataclass
class DegreeProfile:
    """Node-perspective degree distribution of each side, plus the design rate."""

    variable_degrees: tuple
    check_degrees: tuple
    rate: float

    def __post_init__(self):
        self.variable_degrees = _normalize_side(self.variable_degrees, "variable")
        self.check_degrees = _normalize_side(self.check_degrees, "check")
        if not (0.0 < self.rate < 1.0):
            raise ValueError("rate must lie in (0, 1)")
        ev = self.mean_variable_degree
        ec = (1.0 - self.rate) * self.mean_check_degree
        if abs(ev - ec) / max(ev, ec) > 5e-3:
            raise ValueError("edge counts implied by the two sides disagree")

    @property
    def mean_variable_degree(self) -> float:
        return sum(d * f for d, f in self.variable_degrees)

    @property
    def mean_check_degree(self) -> float:
        return sum(d * f for d, f in self.check_degrees)


def _normalize_side(pairs, side: str) -> tuple:
    pairs = tuple((int(d), float(f)) for d, f in pairs)
    if not pairs:
        raise ValueError(f"{side} profile is empty")
    if any(d < 1 for d, _ in pairs):
        raise ValueError(f"{side} degrees must be positive")
    if any(f <= 0 for _, f in pairs):
        raise ValueError(f"{side} fractions must be positive")
    if len({d for d, _ in pairs}) != len(pairs):
        raise ValueError(f"{side} degrees must be distinct")
    total = sum(f for _, f in pairs)
    if abs(total - 1.0) > 1e-3:
        raise ValueError(f"{side} fractions must sum to 1")
    # printed tables carry rounded fractions; renormalize to machine accuracy
    return tuple(sorted((d, f / total) for d, f in pairs))


def regular_profile(dv: int = 3, dc: int = 6) -> DegreeProfile:
    """Regular profile, rate 1 - dv/dc."""
    return DegreeProfile(variable_degrees=((dv, 1.0),),
                         check_degrees=((dc, 1.0),),
                         rate=1.0 - dv / dc)


# Rate-1/2 profiles optimized for this receiver at N = 128 and three loadings.
TABLE_PROFILES: dict[str, DegreeProfile] = {
    "n128-alpha1": DegreeProfile(
        variable_degrees=((2, 0.3723), (4, 0.2798), (5, 0.2254), (8, 0.1152), (12, 0.0073)),
        check_degrees=((6, 0.7067), (12, 0.2531), (18, 0.0402)),
        rate=0.5,
    ),
    "n128-alpha05": DegreeProfile(
        variable_degrees=((2, 0.5715), (4, 0.3132), (5, 0.1061), (8, 0.0091)),
        check_degrees=((4, 0.7045), (8, 0.091), (12, 0.2045)),
        rate=0.5,
    ),
    "n128-alpha0125": DegreeProfile(
        variable_degrees=((2, 0.4794), (4, 0.4201), (8, 0.0309), (16, 0.0696)),
        check_degrees=((6, 0.7599), (12, 0.1003), (16, 0.1398)),
        rate=0.5,
    ),
}


@dataclass
class LdpcCode:
    """A parity-check matrix with a systematic encoder derived from it."""

    parity_check: sparse.csr_matrix
    n: int
    k: int
    pivot_cols: np.ndarray
    info_cols: np.ndarray
    encode_mat: np.ndarray  # (rank, k): parity bits = encode_mat @ info mod 2

    # cached edge structure for message passing
    edge_var: np.ndarray = field(default=None, repr=False)
    edge_chk: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.edge_var is None:
            coo = self.parity_check.tocoo()
            order = np.lexsort((coo.col, coo.row))
            self.edge_chk = coo.row[order].astype(np.int64)
            self.edge_var = coo.col[order].astype(np.int64)

    @property
    def m(self) -> int:
        return self.parity_check.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_var.size

    def variable_degree_histogram(self) -> dict[int, int]:
        degs = np.bincount(self.edge_var, minlength=self.n)
        return _histogram(degs)

    def check_degree_histogram(self) -> dict[int, int]:
        degs = np.bincount(self.edge_chk, minlength=self.m)
        return _histogram(degs)

    def four_cycles(self) -> int:
        """Number of 4-cycles in the Tanner graph: two checks that share s
        variables close C(s, 2) of them."""
        h = self.parity_check.astype(np.int64)
        s = sparse.triu(h @ h.T, k=1).data
        return int((s * (s - 1) // 2).sum())

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        return np.asarray(self.parity_check.dot(bits.T) % 2, dtype=np.uint8).T

    def is_codeword(self, bits: np.ndarray) -> np.ndarray | bool:
        s = self.syndrome(bits)
        ok = ~np.any(s, axis=-1)
        return bool(ok) if np.ndim(ok) == 0 else ok

    @functools.cached_property
    def kernel(self) -> "SumProduct":
        """Sum-product kernel over this code's edge list, built on first use."""
        return SumProduct(self)


def _histogram(degs: np.ndarray) -> dict[int, int]:
    vals, counts = np.unique(degs, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


# ---------------------------------------------------------------------------
# node count realization


def _largest_remainder(total: int, fractions: list[float]) -> tuple[np.ndarray, np.ndarray, int]:
    t = np.asarray(fractions) * total
    floors = np.floor(t).astype(int)
    return floors, t - floors, total - int(floors.sum())


def _bump_subsets(remainders: np.ndarray, n_bump: int):
    """Candidate index subsets to round up, best remainder mass first."""
    idx = range(len(remainders))
    subsets = sorted(itertools.combinations(idx, n_bump),
                     key=lambda s: -sum(remainders[i] for i in s))
    return subsets


def _solve_counts(profile: DegreeProfile, n: int, m: int):
    """Integer node counts for both sides with equal edge totals.

    Every class stays within one node of its real target; among exact
    solutions the one closest to plain largest-remainder rounding wins.
    """
    vd = np.array([d for d, _ in profile.variable_degrees])
    vf = [f for _, f in profile.variable_degrees]
    cd = np.array([d for d, _ in profile.check_degrees])
    cf = [f for _, f in profile.check_degrees]
    vfl, vre, vb = _largest_remainder(n, vf)
    cfl, cre, cb = _largest_remainder(m, cf)
    v_subsets = _bump_subsets(vre, vb)
    c_subsets = _bump_subsets(cre, cb)
    base_v = int(vfl @ vd)
    base_c = int(cfl @ cd)
    best = None
    for ci, cs in enumerate(c_subsets):
        ec = base_c + sum(cd[i] for i in cs)
        for vi, vs in enumerate(v_subsets):
            ev = base_v + sum(vd[i] for i in vs)
            gap = abs(ev - ec)
            rank = (gap, ci + vi)
            if best is None or rank < best[0]:
                best = (rank, vs, cs)
            if gap == 0 and ci + vi == 0:
                break
        if best[0][0] == 0 and best[0][1] == 0:
            break
    _, vs, cs = best
    v_counts = vfl.copy()
    v_counts[list(vs)] += 1
    c_counts = cfl.copy()
    c_counts[list(cs)] += 1
    return vd, v_counts, cd, c_counts


# ---------------------------------------------------------------------------
# progressive edge growth


def build_code(profile: DegreeProfile, n: int, rng: np.random.Generator) -> LdpcCode:
    """Construct a code of length n realizing the profile."""
    if n < 4:
        raise ValueError("block length too small")
    k_target = profile.rate * n
    if abs(k_target - round(k_target)) > 1e-9:
        raise ValueError("n * rate must be an integer")
    m = n - int(round(k_target))
    vd, v_counts, cd, c_counts = _solve_counts(profile, n, m)

    var_degree = np.repeat(vd, v_counts)  # ascending: low-degree placed first
    capacity = np.repeat(cd, c_counts)
    rng.shuffle(capacity)
    slack = int(var_degree.sum() - capacity.sum())
    if slack > 0:
        # edge totals could not be matched exactly; widen the largest checks
        grow = np.argsort(capacity)[-slack:]
        capacity[grow] += 1

    vt = -np.ones((n, int(var_degree.max())), dtype=np.int64)
    cdeg = np.zeros(m, dtype=np.int64)
    # check-to-check adjacency (two checks share a variable), one bit per check
    # in np.packbits order, each row padded to whole 64-bit words
    link = np.zeros((m, -(-m // 64) * 8), dtype=np.uint8)
    words = link.view(np.uint64)

    def pick(mine: np.ndarray) -> int:
        """Spare target capacity is the hard preference; distance from the
        variable's checks `mine` only breaks ties, then low degree, then the RNG."""
        pool = np.ones(m, dtype=bool)
        pool[mine] = False
        spare = pool & (cdeg < capacity)
        if spare.any():
            pool = spare
        best = _farthest(words, mine, pool).nonzero()[0]
        degs = cdeg[best]
        best = best[degs == degs.min()]
        return int(best[rng.integers(best.size)]) if best.size > 1 else int(best[0])

    for v in range(n):
        for j in range(var_degree[v]):
            mine = vt[v, :j]
            c = pick(mine)
            # c now shares v with each of v's earlier checks
            np.bitwise_or.at(link[c], mine >> 3, (128 >> (mine & 7)).astype(np.uint8))
            link[mine, c >> 3] |= np.uint8(128 >> (c & 7))
            vt[v, j] = c
            cdeg[c] += 1

    placed = vt >= 0
    chk = vt[placed]
    h = sparse.csr_matrix((np.ones(chk.size, dtype=np.uint8), (chk, np.nonzero(placed)[0])),
                          shape=(m, n))
    return code_from_parity_check(h)


def _farthest(words: np.ndarray, roots: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Mask of the `pool` checks farthest, in check hops, from the checks `roots`
    (all the unreachable ones if any): a breadth-first search on the packed
    check adjacency `words`, one row gather and OR-reduce per level, that stops
    once every pool check has a distance."""
    m = words.shape[0]
    unreached = np.ones(m, dtype=bool)
    unreached[roots] = False
    frontier = roots
    while frontier.size:
        hit = np.unpackbits(np.bitwise_or.reduce(words[frontier]).view(np.uint8), count=m)
        new = hit.view(bool) & unreached
        unreached ^= new
        if not (pool & unreached).any():
            return pool & new
        frontier = new.nonzero()[0]
    return pool & unreached


# ---------------------------------------------------------------------------
# GF(2) systematization and encoding


def code_from_parity_check(h: sparse.csr_matrix | np.ndarray) -> LdpcCode:
    """Derive the systematic encoder from a binary parity-check matrix."""
    hs = sparse.csr_matrix(h, dtype=np.uint8)
    m, n = hs.shape
    dense = np.asarray(hs.todense(), dtype=np.uint8)
    r = 0
    piv = []
    for c in range(n):
        if r == m:
            break
        hit = np.flatnonzero(dense[r:, c])
        if hit.size == 0:
            continue
        pr = r + hit[0]
        if pr != r:
            dense[[r, pr]] = dense[[pr, r]]
        others = np.flatnonzero(dense[:, c])
        others = others[others != r]
        if others.size:
            dense[others] ^= dense[r]
        piv.append(c)
        r += 1
    rank = r
    pivot_cols = np.asarray(piv, dtype=np.int64)
    info_cols = np.setdiff1d(np.arange(n), pivot_cols)
    encode_mat = dense[:rank][:, info_cols].copy()
    return LdpcCode(parity_check=hs, n=n, k=int(n - rank),
                    pivot_cols=pivot_cols, info_cols=info_cols,
                    encode_mat=encode_mat)


def encode(code: LdpcCode, info_bits: np.ndarray) -> np.ndarray:
    """Systematic encoding; info bits appear verbatim at the info positions."""
    u = np.asarray(info_bits, dtype=np.uint8)
    if u.shape[-1] != code.k:
        raise ValueError("info word length must equal k")
    # a float32 product runs in BLAS and is exact: each parity sum counts at
    # most k ones, and float32 holds every integer up to 2**24
    parity = (u.astype(np.float32) @ code.encode_mat.T.astype(np.float32)) % 2
    out = np.zeros(u.shape[:-1] + (code.n,), dtype=np.uint8)
    out[..., code.info_cols] = u
    out[..., code.pivot_cols] = parity.astype(np.uint8)
    return out


# ---------------------------------------------------------------------------
# sum-product decoding


# input message magnitudes are clipped to [tiny, 40] before phi
_MSG_MIN, _MSG_MAX = np.finfo(DTYPE).tiny, DTYPE(40.0)


def _phi(x: np.ndarray) -> np.ndarray:
    """phi(x) = -log tanh(x / 2) = log1p(2 / expm1(x)) in place, for x > 0."""
    np.expm1(x, out=x)
    np.divide(2.0, x, out=x)
    return np.log1p(x, out=x)


# leave-one-out sums are clipped to [1e-15, phi(tiny)] before phi: the upper
# bound keeps expm1 from overflowing, and the lower one caps an outgoing
# message at phi(1e-15) = 35.2, the range of the float64 tanh-product form
# (whose tanh magnitudes stopped at 1 - 1e-15)
_SUM_MIN, _SUM_MAX = DTYPE(1e-15), _phi(np.array([_MSG_MIN]))[0]


class SumProduct:
    """Flooding sum-product kernel over a code's edge list, batch-last, in `DTYPE`.

    Messages are explicit (n_edges, B) arrays, one row per edge and one
    column per frame, so an outer receiver loop can keep decoder state alive
    across its own iterations while the channel LLRs it supplies keep
    improving. Rows are grouped by check degree: the checks of degree d own
    one contiguous block of d * count rows, read as a (d, count, B) array
    whose slot j holds each check's j-th edge in the code's edge order. Row
    r carries code edge `order[r]`, on variable `edge_var[r]`.

    The check update runs in the phi domain: phi(x) = -log tanh(x / 2) =
    log1p(2 / expm1(x)) is its own inverse, and an outgoing magnitude is phi
    of the sum of phi over the check's other edges. That sum is a prefix sum plus a suffix sum over the
    block's slots, never the check's full sum minus the edge's own term:
    phi of a near-zero message is large (88 at the clip), and subtracting it
    back out in float32 would cancel every other term. Input magnitudes are
    clipped to [tiny, 40] and the sums to [1e-15, phi(tiny)], so expm1
    cannot overflow and every output magnitude lies in [tiny, 35.2], the
    range of the float64 tanh-product form. That form does not carry over
    to float32: 1 - 1e-15 rounds to 1 and arctanh returns inf, and with a
    1 - 2**-24 clip instead every message saturates at 17.3. On the coded
    benchmark that halves the bit errors, a change of algorithm rather than
    of rounding.

    Check sums add slot by slot and variable sums in check order, so every
    sum runs in a fixed order.
    """

    def __init__(self, code: LdpcCode):
        e = code.n_edges
        chk_deg = np.bincount(code.edge_chk, minlength=code.m)
        deg = chk_deg[code.edge_chk]
        slot = np.arange(e) - (np.cumsum(chk_deg) - chk_deg)[code.edge_chk]
        self.order = np.lexsort((code.edge_chk, slot, deg))  # by degree, slot, check
        degs, rows = np.unique(deg, return_counts=True)
        # (first row, end row, degree) of each degree's block
        self.blocks = [(hi - r, hi, d) for d, r, hi in zip(degs, rows, np.cumsum(rows))]
        self.edge_var = code.edge_var[self.order]
        # explicit indptr/indices: scipy keeps each variable's edges in check order
        by_var = np.argsort(self.order)[np.argsort(code.edge_var, kind="stable")]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(code.edge_var, minlength=code.n))))
        self.to_var = sparse.csr_matrix((np.ones(e, DTYPE), by_var, indptr), shape=(code.n, e))

    def fresh_messages(self, batch: int) -> np.ndarray:
        """Zero check-to-variable messages for a batch of frames."""
        return np.zeros((self.order.size, batch), DTYPE)

    def check_update(self, v2c: np.ndarray) -> np.ndarray:
        """Leave-one-out combination at every check node, in the phi domain."""
        v2c = np.ascontiguousarray(v2c, dtype=DTYPE)  # the blocks below are views
        neg = v2c < 0
        f = _phi(np.clip(np.abs(v2c), _MSG_MIN, _MSG_MAX))
        out = np.empty_like(f)
        for lo, hi, d in self.blocks:
            fb = f[lo:hi].reshape(d, -1, f.shape[1])
            s = out[lo:hi].reshape(fb.shape)
            # s[j] = fb[0] + ... + fb[j-1] (prefix), then + fb[j+1] + ... (suffix,
            # accumulated in fb from the last slot down)
            s[0] = 0.0
            for j in range(1, d):
                np.add(s[j - 1], fb[j - 1], out=s[j])
            for j in range(d - 2, -1, -1):
                np.add(s[j], fb[j + 1], out=s[j])
                if j:
                    np.add(fb[j], fb[j + 1], out=fb[j])
            odd = neg[lo:hi].reshape(fb.shape)
            np.logical_xor(np.logical_xor.reduce(odd, axis=0), odd, out=odd)
        _phi(np.clip(out, _SUM_MIN, _SUM_MAX, out=out))
        # branch-free: an even count of negative inputs takes the sign of +0.5
        return np.copysign(out, np.subtract(DTYPE(0.5), neg, out=f), out=out)

    def var_update(self, total: np.ndarray, c2v: np.ndarray) -> np.ndarray:
        """Variable-to-check messages from the (B, n) totals, each variable's
        channel LLR plus all its incoming messages, and those messages."""
        return np.ascontiguousarray(total.T)[self.edge_var] - c2v

    def extrinsic(self, c2v: np.ndarray) -> np.ndarray:
        """Per-variable sum of incoming check messages, (B, n)."""
        return (self.to_var @ c2v).T


class _ActiveSet:
    """Decoder state of B rows. A row that satisfies every check leaves with its
    extrinsic, posterior and decisions frozen, so no row depends on its batch
    mates; check messages are kept for the live rows only. Posterior and
    decisions are written as rows leave, and for the rows still live by
    `finish`."""

    def __init__(self, code: LdpcCode, batch: int):
        self.code = code
        self.c2v = code.kernel.fresh_messages(batch)
        self.ext = np.zeros((batch, code.n), DTYPE)
        self.post = np.zeros((batch, code.n), DTYPE)
        self.bits = np.zeros((batch, code.n), dtype=np.uint8)
        self.ok = np.zeros(batch, dtype=bool)
        self.live = np.arange(batch)

    def run(self, llrs: np.ndarray, passes: int) -> np.ndarray:
        """`passes` flooding iterations on the live rows of the (B, n) LLRs,
        then their syndrome. Returns the rows that leave."""
        kern, live = self.code.kernel, self.live
        c2v, ext, llr = self.c2v, self.ext[live], llrs[live]
        for _ in range(passes):
            c2v = kern.check_update(kern.var_update(llr + ext, c2v))
            ext = kern.extrinsic(c2v)
        post = llr + ext
        bits = (post < 0).astype(np.uint8)
        ok = self.code.is_codeword(bits)
        self.ext[live], left = ext, live[ok]
        if left.size:
            self.post[left], self.bits[left], self.ok[left] = post[ok], bits[ok], True
            c2v, self.live = c2v[:, ~ok], live[~ok]
        self.c2v = c2v
        return left

    def finish(self, llrs: np.ndarray):
        """Write the posterior and decisions of the rows still live, as the
        last `run` on the same LLRs formed them."""
        live = self.live
        self.post[live] = llrs[live] + self.ext[live]
        self.bits[live] = self.post[live] < 0


def bp_decode_batch(code: LdpcCode, llrs: np.ndarray, max_iters: int):
    """Flooding sum-product over a (B, n) batch of channel LLR vectors, in `DTYPE`.

    Positive LLR means bit 0. A row leaves the decoder, its decisions frozen,
    as soon as it satisfies all checks (a clean input before any update), so
    its result does not depend on its batch mates. Stops when no row is left
    or after max_iters. Returns (bits, ok, iterations run).
    """
    L = np.atleast_2d(np.asarray(llrs, dtype=DTYPE))
    dec = _ActiveSet(code, L.shape[0])
    dec.run(L, 0)
    it = 0
    while dec.live.size and it < max_iters:
        it += 1
        dec.run(L, 1)
    dec.finish(L)
    return dec.bits, dec.ok, it


# ---------------------------------------------------------------------------
# alist export


def write_alist(code: LdpcCode, path: str):
    """Write the parity-check matrix in the standard alist text format."""
    h = sparse.csc_matrix(code.parity_check, dtype=np.uint8)
    m, n = h.shape
    col_deg = np.diff(h.indptr)
    hr = sparse.csr_matrix(h)
    row_deg = np.diff(hr.indptr)
    dv, dc = int(col_deg.max()), int(row_deg.max())
    lines = [f"{n} {m}", f"{dv} {dc}",
             " ".join(str(int(d)) for d in col_deg),
             " ".join(str(int(d)) for d in row_deg)]
    for j in range(n):
        nbrs = h.indices[h.indptr[j]:h.indptr[j + 1]] + 1
        lines.append(" ".join(str(int(i)) for i in np.sort(nbrs)))
    for i in range(m):
        nbrs = hr.indices[hr.indptr[i]:hr.indptr[i + 1]] + 1
        lines.append(" ".join(str(int(j)) for j in np.sort(nbrs)))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
