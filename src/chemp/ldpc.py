"""Irregular LDPC codes: degree profiles, progressive-edge-growth construction,
GF(2) systematic encoding, and sum-product decoding.

Node-perspective degree profiles list (degree, fraction-of-nodes) pairs.
Construction realizes the integer node counts by largest-remainder rounding,
then reconciles the two sides' edge totals by re-selecting which classes
round up, keeping every class within one node of its real-valued target.
Edges are placed variable by variable, each new edge attached to a check node
at maximal graph distance from the variable's current tree (breaking ties
toward spare target capacity, then low degree), which avoids short cycles and
parallel edges by construction.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = [
    "DegreeProfile",
    "LdpcCode",
    "DecodeResult",
    "TABLE_PROFILES",
    "regular_profile",
    "build_code",
    "encode",
    "bp_decode",
    "bp_decode_batch",
    "SumProduct",
    "check_message_probability",
    "check_message_llr",
    "write_alist",
    "read_alist",
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

    max_vd = int(var_degree.max())
    max_cd = int(capacity.max()) + max(0, slack)
    vt = -np.ones((n, max_vd), dtype=np.int64)
    ct = -np.ones((m, max_cd + 1), dtype=np.int64)
    vdeg = np.zeros(n, dtype=np.int64)
    cdeg = np.zeros(m, dtype=np.int64)
    far = m + 1  # distance label for checks outside the variable's tree

    def pick(v: int, dist: np.ndarray) -> int:
        """Spare target capacity is a hard preference; distance breaks ties."""
        adj = np.zeros(m, dtype=bool)
        adj[vt[v, :vdeg[v]]] = True
        pool = np.flatnonzero(~adj & (cdeg < capacity))
        if pool.size == 0:
            pool = np.flatnonzero(~adj)
        d = dist[pool]
        pool = pool[d == d.max()]
        degs = cdeg[pool]
        best = pool[degs == degs.min()]
        return int(best[rng.integers(best.size)]) if best.size > 1 else int(best[0])

    for v in range(n):
        for _ in range(var_degree[v]):
            if vdeg[v] == 0:
                dist = np.full(m, far)
            else:
                dist = _check_distances(v, vt, vdeg, ct, cdeg, m, far)
            c = pick(v, dist)
            vt[v, vdeg[v]] = c
            ct[c, cdeg[c]] = v
            vdeg[v] += 1
            cdeg[c] += 1

    var_ids = np.concatenate([ct[c, :cdeg[c]] for c in range(m)])
    chk_ids = np.repeat(np.arange(m), cdeg)
    h = sparse.csr_matrix((np.ones(var_ids.size, dtype=np.uint8), (chk_ids, var_ids)),
                          shape=(m, n))
    return code_from_parity_check(h)


def _check_distances(v, vt, vdeg, ct, cdeg, m, far) -> np.ndarray:
    """Graph distance (in check hops) from v to every check; `far` if unreached."""
    dist = np.full(m, far, dtype=np.int64)
    frontier = vt[v, :vdeg[v]]
    dist[frontier] = 0
    seen_v = np.zeros(vt.shape[0], dtype=bool)
    seen_v[v] = True
    level = 0
    while frontier.size:
        level += 1
        vs = ct[frontier].ravel()
        vs = vs[vs >= 0]
        vs = np.unique(vs[~seen_v[vs]])
        if vs.size == 0:
            break
        seen_v[vs] = True
        cs = vt[vs].ravel()
        cs = cs[cs >= 0]
        cs = np.unique(cs[dist[cs] == far])
        dist[cs] = level
        frontier = cs
    return dist


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
    parity = (u.astype(np.int64) @ code.encode_mat.T.astype(np.int64)) % 2
    out = np.zeros(u.shape[:-1] + (code.n,), dtype=np.uint8)
    out[..., code.info_cols] = u
    out[..., code.pivot_cols] = parity.astype(np.uint8)
    return out


# ---------------------------------------------------------------------------
# sum-product decoding


@dataclass
class DecodeResult:
    bits: np.ndarray
    success: np.ndarray | bool
    iterations: int


def check_message_probability(p: np.ndarray) -> float:
    """Probability the XOR of independent bits with P(1)=p_j is 0."""
    p = np.asarray(p, dtype=float)
    return float((1.0 + np.prod(1.0 - 2.0 * p)) / 2.0)


def check_message_llr(llrs: np.ndarray) -> float:
    """Equivalent LLR-domain combination 2 atanh(prod tanh(L/2))."""
    t = np.prod(np.tanh(np.asarray(llrs, dtype=float) / 2.0))
    t = np.clip(t, -1.0 + 1e-15, 1.0 - 1e-15)
    return float(2.0 * np.arctanh(t))


class SumProduct:
    """Flooding sum-product kernel over a code's edge list, batch-first.

    Messages are explicit (B, n_edges) arrays so an outer receiver loop can
    keep decoder state alive across its own iterations while the channel
    LLRs it supplies keep improving.
    """

    def __init__(self, code: LdpcCode):
        e = code.n_edges
        ones = np.ones(e)
        self.to_chk = sparse.csr_matrix((ones, (code.edge_chk, np.arange(e))),
                                        shape=(code.m, e))
        self.to_var = sparse.csr_matrix((ones, (code.edge_var, np.arange(e))),
                                        shape=(code.n, e))
        self.edge_var = code.edge_var
        self.edge_chk = code.edge_chk

    def fresh_messages(self, batch: int) -> np.ndarray:
        """Zero check-to-variable messages for a batch of frames."""
        return np.zeros((batch, self.edge_var.size))

    def check_update(self, v2c: np.ndarray) -> np.ndarray:
        """Leave-one-out tanh-product combination at every check node."""
        t = np.tanh(np.clip(v2c, -40.0, 40.0) / 2.0)
        mag = np.abs(t)
        np.clip(mag, 1e-30, 1.0 - 1e-15, out=mag)
        log_mag = np.log(mag)
        neg = (t < 0).astype(np.float64)
        log_sum = (self.to_chk @ log_mag.T).T
        neg_sum = (self.to_chk @ neg.T).T
        lo_log = log_sum[:, self.edge_chk] - log_mag
        lo_neg = np.rint(neg_sum[:, self.edge_chk] - neg).astype(np.int64)
        prod = np.exp(np.minimum(lo_log, 0.0))
        np.clip(prod, None, 1.0 - 1e-15, out=prod)
        return np.where(lo_neg % 2 == 0, 1.0, -1.0) * 2.0 * np.arctanh(prod)

    def var_update(self, llrs: np.ndarray, c2v: np.ndarray) -> np.ndarray:
        """Variable-to-check messages from channel LLRs and incoming messages."""
        ext = self.extrinsic(c2v)
        return (llrs + ext)[:, self.edge_var] - c2v

    def extrinsic(self, c2v: np.ndarray) -> np.ndarray:
        """Per-variable sum of incoming check messages."""
        return (self.to_var @ c2v.T).T

    def iterate(self, llrs: np.ndarray, c2v: np.ndarray, n_iters: int) -> np.ndarray:
        """n_iters flooding iterations continuing from the given messages."""
        for _ in range(n_iters):
            v2c = self.var_update(llrs, c2v)
            c2v = self.check_update(v2c)
        return c2v


def bp_decode_batch(code: LdpcCode, llrs: np.ndarray, max_iters: int = 50,
                    return_extrinsic: bool = False):
    """Flooding sum-product over a (B, n) batch of channel LLR vectors.

    Positive LLR means bit 0. Stops once every row satisfies all checks;
    a clean input is recognized before any update (iterations = 0).
    """
    kern = code.kernel
    L = np.atleast_2d(np.asarray(llrs, dtype=float))
    bits = (L < 0).astype(np.uint8)
    ok = ~np.any(code.syndrome(bits), axis=-1)
    if ok.all() or max_iters == 0:
        ext = np.zeros_like(L)
        return _finish(bits, ok, 0, ext, return_extrinsic)
    c2v = kern.fresh_messages(L.shape[0])
    ext = np.zeros_like(L)
    it = 0
    for it in range(1, max_iters + 1):
        c2v = kern.iterate(L, c2v, 1)
        ext = kern.extrinsic(c2v)
        post = L + ext
        bits = (post < 0).astype(np.uint8)
        ok = ~np.any(code.syndrome(bits), axis=-1)
        if ok.all():
            break
    return _finish(bits, ok, it, ext, return_extrinsic)


def _finish(bits, ok, it, ext, return_extrinsic):
    if return_extrinsic:
        return bits, ok, it, ext
    return bits, ok, it


def bp_decode(code: LdpcCode, llrs: np.ndarray, max_iters: int = 50) -> DecodeResult:
    """Decode one LLR vector (or a batch) with early exit on satisfied checks."""
    arr = np.asarray(llrs, dtype=float)
    single = arr.ndim == 1
    bits, ok, it = bp_decode_batch(code, arr, max_iters)
    if single:
        return DecodeResult(bits=bits[0], success=bool(ok[0]), iterations=it)
    return DecodeResult(bits=bits, success=ok, iterations=it)


# ---------------------------------------------------------------------------
# alist import/export


def write_alist(code_or_h, path: str):
    """Write the parity-check matrix in the standard alist text format."""
    h = code_or_h.parity_check if isinstance(code_or_h, LdpcCode) else sparse.csr_matrix(code_or_h)
    h = sparse.csc_matrix(h, dtype=np.uint8)
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


def read_alist(path: str) -> sparse.csr_matrix:
    """Read an alist file (padded or unpadded) back to a sparse matrix."""
    with open(path) as f:
        tokens_per_line = [[int(t) for t in line.split()] for line in f if line.strip()]
    n, m = tokens_per_line[0]
    col_deg = tokens_per_line[2]
    if len(col_deg) != n:
        raise ValueError("malformed alist: column degree list length")
    rows, cols = [], []
    for j in range(n):
        nbrs = [t for t in tokens_per_line[4 + j] if t > 0]
        if len(nbrs) != col_deg[j]:
            raise ValueError("malformed alist: column neighbor count")
        rows.extend(i - 1 for i in nbrs)
        cols.extend(j for _ in nbrs)
    return sparse.csr_matrix((np.ones(len(rows), dtype=np.uint8), (rows, cols)),
                             shape=(m, n))
