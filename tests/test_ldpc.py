"""Code construction, encoding, and the sum-product decoder."""

import hashlib
import itertools

import numpy as np
import pytest
from scipy import sparse

from chemp import (
    DegreeProfile,
    TABLE_PROFILES,
    bp_decode_batch,
    build_code,
    code_from_parity_check,
    encode,
    regular_profile,
    write_alist,
)


@pytest.fixture(scope="module")
def small_regular():
    return build_code(regular_profile(3, 6), 256, np.random.default_rng(7))


@pytest.fixture(scope="module")
def small_irregular():
    return build_code(TABLE_PROFILES["n128-alpha1"], 256, np.random.default_rng(11))


@pytest.fixture(scope="module")
def irregular_1000():
    return build_code(TABLE_PROFILES["n128-alpha1"], 1000, np.random.default_rng(3))


# ---------------------------------------------------------------------------
# profiles


def test_regular_profile():
    p = regular_profile(3, 6)
    assert p.rate == pytest.approx(0.5)
    assert p.mean_variable_degree == pytest.approx(3.0)
    assert p.mean_check_degree == pytest.approx(6.0)


def test_table_profiles_are_rate_half_consistent():
    for name, p in TABLE_PROFILES.items():
        assert p.rate == pytest.approx(0.5), name
        # node-perspective self-consistency: equal edge counts on both sides
        ev = p.mean_variable_degree
        ec = (1.0 - p.rate) * p.mean_check_degree
        assert abs(ev - ec) / ev < 5e-3, name


def test_profile_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        DegreeProfile(((3, 0.7),), ((6, 1.0),), 0.5)  # fractions off by > 1e-3
    with pytest.raises(ValueError):
        DegreeProfile(((3, 0.5), (3, 0.5)), ((6, 1.0),), 0.5)  # duplicate degree
    with pytest.raises(ValueError):
        DegreeProfile(((3, 1.0),), ((6, 1.0),), 1.5)  # rate out of range
    with pytest.raises(ValueError):
        DegreeProfile(((4, 1.0),), ((6, 1.0),), 0.5)  # edge counts disagree
    with pytest.raises(ValueError):
        DegreeProfile(((0, 1.0),), ((6, 1.0),), 0.5)  # nonpositive degree


def test_profile_renormalizes_rounded_fractions():
    # printed tables carry rounded fractions; small excess mass is rescaled away
    p = DegreeProfile(((3, 0.5001), (5, 0.5)), ((8, 1.0),), 0.5)
    total = sum(f for _, f in p.variable_degrees)
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# construction


def test_build_code_realizes_profile_counts(irregular_1000):
    n = 1000
    profile = TABLE_PROFILES["n128-alpha1"]
    code = irregular_1000
    m = n // 2
    vhist = code.variable_degree_histogram()
    chist = code.check_degree_histogram()
    for d, f in profile.variable_degrees:
        assert abs(vhist.get(d, 0) - f * n) <= 1.0, f"variable degree {d}"
    for d, f in profile.check_degrees:
        assert abs(chist.get(d, 0) - f * m) <= 1.0, f"check degree {d}"
    assert sum(d * c for d, c in vhist.items()) == code.n_edges
    assert sum(d * c for d, c in chist.items()) == code.n_edges


def _dense(code) -> np.ndarray:
    """The code's parity-check matrix, dense, from its edge list; a repeated
    edge would add up to 2."""
    h = np.zeros((code.m, code.n), dtype=np.int64)
    np.add.at(h, (code.edge_chk, code.edge_var), 1)
    return h


def test_build_code_regular(small_regular):
    assert small_regular.variable_degree_histogram() == {3: 256}
    assert small_regular.check_degree_histogram() == {6: 128}
    assert small_regular.n == 256
    assert small_regular.n_edges == 768


def test_build_code_no_parallel_edges(small_irregular):
    assert _dense(small_irregular).max() == 1


# SHA-256 over edge_chk, edge_var, pivot_cols and encode_mat of codes built by
# the per-edge breadth-first PEG this construction replaced; the same RNG
# stream must keep giving the same code
BUILD_PINS = [
    ("n128-alpha1", 1000, 0, "517016515524d24e67c0cade89f6913fc5984d920afe99ed58e185d13d51c275"),
    ("n128-alpha1", 1000, 3, "3100d174751d9f471c94282d79b791669fb1225c53d80c847d6f8bd70ee22cc7"),
    ("n128-alpha1", 256, 11, "32031ef78a7dd65cac2f2bccbdddd45f77b35a510cdb855683927dfdf608f719"),
    ("regular-3-6", 256, 7, "400e2c4fa602fbc11a766752c625d3446dfc2eb04dc163436ef5f75556e686b8"),
    ("n128-alpha05", 1000, 0, "94cb421fb58c1c43c277238801dd10f063c1928d76e8f2f1573572b97da134f5"),
    ("n128-alpha0125", 1000, 0, "ec7dde05d97ddd55d2110f5d8ddec518d944c847dd78a807b9020854f46f9bbb"),
]


@pytest.mark.parametrize("spec,n,seed,digest", BUILD_PINS,
                         ids=[f"{spec}-n{n}-seed{seed}" for spec, n, seed, _ in BUILD_PINS])
def test_build_code_reproduces_pinned_codes(spec, n, seed, digest):
    profile = regular_profile(3, 6) if spec == "regular-3-6" else TABLE_PROFILES[spec]
    code = build_code(profile, n, np.random.default_rng(seed))
    h = hashlib.sha256()
    for a in (code.edge_chk, code.edge_var, code.pivot_cols, code.encode_mat):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


def _four_cycles_by_enumeration(h: np.ndarray) -> int:
    """Every node set {c1, c2, v1, v2} with all four edges present, listed."""
    checks_of = [set(np.flatnonzero(col)) for col in h.T]
    cycles = set()
    for c1, row in enumerate(h):
        for v1, v2 in itertools.combinations(np.flatnonzero(row), 2):
            for c2 in (checks_of[v1] & checks_of[v2]) - {c1}:
                cycles.add((min(c1, c2), max(c1, c2), v1, v2))
    return len(cycles)


def test_four_cycles_match_enumeration():
    code = build_code(TABLE_PROFILES["n128-alpha1"], 128, np.random.default_rng(5))
    count = code.four_cycles()
    assert count > 0
    assert count == _four_cycles_by_enumeration(_dense(code))


def test_four_cycles_hand_built():
    # checks 0 and 1 share variables 0 and 1; checks 1 and 2 share only variable 2
    one = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
    assert code_from_parity_check(one).four_cycles() == 1
    # two checks sharing three variables close C(3, 2) = 3
    three = np.array([[1, 1, 1, 0], [1, 1, 1, 1]], dtype=np.uint8)
    assert code_from_parity_check(three).four_cycles() == 3
    assert code_from_parity_check(np.eye(3, dtype=np.uint8)).four_cycles() == 0


def test_build_code_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_code(regular_profile(3, 6), 3, rng)
    with pytest.raises(ValueError):
        build_code(regular_profile(3, 6), 999, rng)  # n * rate not an integer


def test_code_rank_and_column_split(small_regular):
    c = small_regular
    assert c.k + c.pivot_cols.size == c.n
    both = np.concatenate([c.pivot_cols, c.info_cols])
    assert np.array_equal(np.sort(both), np.arange(c.n))


def test_encode_produces_codewords(small_regular, irregular_1000):
    rng = np.random.default_rng(5)
    for code in (small_regular, irregular_1000):
        info = rng.integers(0, 2, size=(20, code.k))
        words = encode(code, info)
        assert words.shape == (20, code.n)
        assert np.all(code.is_codeword(words))
        np.testing.assert_array_equal(words[:, code.info_cols], info)
        # the exact integer product the float32 one must reproduce
        parity = (info.astype(np.int64) @ code.encode_mat.T.astype(np.int64)) % 2
        np.testing.assert_array_equal(words[:, code.pivot_cols], parity)


def test_encode_single_vector(small_regular):
    info = np.zeros(small_regular.k, dtype=np.uint8)
    w = encode(small_regular, info)
    assert w.shape == (small_regular.n,)
    assert not w.any()


def test_code_from_parity_check_tiny():
    h = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=np.uint8)
    code = code_from_parity_check(h)
    assert code.n == 4
    assert code.k == 2
    info = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    words = encode(code, info)
    assert np.all(code.is_codeword(words))
    # all four codewords distinct
    assert len({tuple(w) for w in words}) == 4


def test_code_from_parity_check_rejects_non_binary_input():
    # cast to uint8, this matrix gave k = 3 and an encoder none of whose unit
    # words passed the code's own checks
    h = np.array([[2, 1, 1, 0, 0, 0], [0, 0, 0, 2, 1, 2], [1, 1, 2, 2, 1, 1]])
    with pytest.raises(ValueError, match="zeros and ones"):
        code_from_parity_check(h)
    with pytest.raises(ValueError, match="zeros and ones"):
        code_from_parity_check(np.eye(3, dtype=np.int64) + 256)  # wraps to 0/1 in uint8
    with pytest.raises(ValueError, match="zeros and ones"):
        code_from_parity_check(np.eye(3) / 2)
    with pytest.raises(ValueError, match="2-D"):
        code_from_parity_check(np.ones(4, dtype=np.uint8))


def test_syndrome_batched(small_regular):
    rng = np.random.default_rng(9)
    words = encode(small_regular, rng.integers(0, 2, size=(4, small_regular.k)))
    bad = words.copy()
    bad[2, 17] ^= 1
    ok = small_regular.is_codeword(bad)
    np.testing.assert_array_equal(ok, [True, True, False, True])


def test_syndrome_and_encode_take_only_bits(small_regular):
    code = small_regular
    # a 2 once wrapped to an even parity and passed every check
    with pytest.raises(ValueError, match="0 or 1"):
        code.is_codeword(np.full(code.n, 2))
    with pytest.raises(ValueError, match="0 or 1"):
        code.syndrome(np.full((2, code.n), 0.5))
    with pytest.raises(ValueError, match="0 or 1"):
        encode(code, np.full(code.k, 257))  # wraps to 1 in uint8
    with pytest.raises(ValueError, match="length"):
        code.syndrome(np.zeros(code.n + 1))
    # any leading axes
    words = encode(code, np.random.default_rng(41).integers(0, 2, size=(2, 3, code.k)))
    words[1, 2, 5] ^= 1
    assert code.syndrome(words).shape == (2, 3, code.m)
    np.testing.assert_array_equal(code.is_codeword(words), [[True] * 3, [True, True, False]])
    assert code.is_codeword(words[0, 0]) is True


def test_write_alist_exact_text(tmp_path):
    # n m, max column and row degrees, the degree lists, then each column's
    # and each row's 1-based neighbours, unpadded
    h = np.array([[1, 1, 0, 1],
                  [0, 1, 1, 0],
                  [1, 0, 0, 1]])
    path = tmp_path / "code.alist"
    write_alist(code_from_parity_check(h), str(path))
    assert path.read_text() == ("4 3\n2 3\n2 2 1 2\n3 2 2\n"
                                "1 3\n1 2\n2\n1 3\n"
                                "1 2 4\n2 3\n1 4\n")


# ---------------------------------------------------------------------------
# decoding


def test_clean_codeword_accepted_without_iterating(small_regular):
    rng = np.random.default_rng(13)
    word = encode(small_regular, rng.integers(0, 2, small_regular.k))
    llr = 4.0 * (1.0 - 2.0 * word)  # positive for bit 0
    bits, ok, iters = bp_decode_batch(small_regular, llr, max_iters=50)
    assert iters == 0
    assert bool(np.all(ok))
    np.testing.assert_array_equal(bits[0], word)


def test_decoder_corrects_noisy_channel(small_regular):
    rng = np.random.default_rng(17)
    code = small_regular
    word = encode(code, rng.integers(0, 2, code.k))
    x = 1.0 - 2.0 * word.astype(float)
    sigma = 0.7  # about 3.1 dB Eb/N0 at rate 1/2, comfortably decodable
    y = x + sigma * rng.standard_normal(code.n)
    llr = 2.0 * y / sigma ** 2
    assert np.any((llr < 0) != word.astype(bool))  # channel actually flips bits
    bits, ok, iters = bp_decode_batch(code, llr, max_iters=50)
    assert bool(np.all(ok))
    np.testing.assert_array_equal(bits[0], word)


def test_decode_batch_success_implies_zero_syndrome(small_irregular):
    rng = np.random.default_rng(19)
    # mix decodable and garbage rows
    llrs = 2.5 * rng.standard_normal((30, small_irregular.n))
    bits, ok, iters = bp_decode_batch(small_irregular, llrs, max_iters=30)
    assert bits.shape == (30, small_irregular.n)
    syn = small_irregular.syndrome(bits)
    np.testing.assert_array_equal(ok, ~np.any(syn, axis=-1))


def test_decode_batch_rows_do_not_depend_on_batch_mates(small_irregular):
    code = small_irregular
    rng = np.random.default_rng(23)
    words = encode(code, rng.integers(0, 2, (8, code.k)))
    x = 1.0 - 2.0 * words
    sigma = np.array([0.0, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.0])[:, None]
    llrs = 2.0 * (x + sigma * rng.standard_normal(x.shape)) / np.maximum(sigma, 0.5) ** 2
    llrs[-1] = 2.5 * rng.standard_normal(code.n)  # no codeword near it
    bits, ok, iters = bp_decode_batch(code, llrs, max_iters=30)
    assert ok[0] and not ok[-1] and iters == 30
    spans = []
    for i, row in enumerate(llrs):
        b1, ok1, it1 = bp_decode_batch(code, row, max_iters=30)
        assert np.array_equal(b1[0], bits[i]) and ok1[0] == ok[i], i
        spans.append(it1)
    assert spans[0] == 0 and spans[-1] == 30 and len(set(spans)) > 3


def test_zero_iteration_budget(small_regular):
    llr = np.ones((3, small_regular.n))
    bits, ok, iters = bp_decode_batch(small_regular, llr, max_iters=0)
    assert iters == 0
    np.testing.assert_array_equal(bits, 0)


# ---------------------------------------------------------------------------
# message kernels


# the check update's clips: input magnitudes to [float32 tiny, 40], and
# leave-one-out sums to [1e-15, phi(tiny)], so outputs stay within 35.2
_MSG_MIN, _MSG_MAX = float(np.finfo(np.float32).tiny), 40.0


def _phi64(x):
    return np.log1p(2.0 / np.expm1(x))


class _CodeOrderKernel:
    """The sum-product formulas on (B, n_edges) messages in the code's edge
    order. Variable sums are sparse float32 sums in check order, which the
    kernel must reproduce bit for bit; the check update is a float64
    phi-domain reference with exact leave-one-out sums (a prefix plus a
    suffix sum over each check's edges), which it must reproduce to float32
    accuracy."""

    def __init__(self, code):
        e = code.n_edges
        ones = np.ones(e, np.float32)
        self.to_var = sparse.csr_matrix((ones, (code.edge_var, np.arange(e))),
                                        shape=(code.n, e))
        self.edge_var = code.edge_var
        self.checks = np.split(np.arange(e), np.cumsum(np.bincount(code.edge_chk))[:-1])

    def check_update(self, v2c):
        v2c = np.asarray(v2c, dtype=np.float64)
        f = _phi64(np.clip(np.abs(v2c), _MSG_MIN, _MSG_MAX))
        neg = (v2c < 0).astype(np.int64)
        loo = np.empty_like(f)
        odd = np.empty_like(neg)
        for edges in self.checks:
            fc = f[:, edges]
            pre = np.concatenate([np.zeros_like(fc[:, :1]), np.cumsum(fc, axis=1)[:, :-1]], axis=1)
            suf = np.concatenate([np.cumsum(fc[:, ::-1], axis=1)[:, -2::-1],
                                  np.zeros_like(fc[:, :1])], axis=1)
            loo[:, edges] = pre + suf
            odd[:, edges] = neg[:, edges].sum(axis=1, keepdims=True) - neg[:, edges]
        loo = np.clip(loo, 1e-15, _phi64(_MSG_MIN))
        return np.where(odd % 2, -1.0, 1.0) * _phi64(loo)

    def var_update(self, llrs, c2v):
        return (llrs + self.extrinsic(c2v))[:, self.edge_var] - c2v

    def extrinsic(self, c2v):
        return (self.to_var @ c2v.T).T


def _layout_maps(kern):
    """Maps between (B, n_edges) messages in code order and the kernel's
    (n_edges, B) rows, in the check layout or, with `var`, the variable layout."""

    def rows(msgs, var=False):
        return np.ascontiguousarray(msgs[:, kern.var_order if var else kern.order].T)

    def code_order(msgs, var=False):
        out = np.empty(msgs.shape[::-1], msgs.dtype)
        out[:, kern.var_order if var else kern.order] = msgs.T
        return out

    return rows, code_order


def test_kernel_matches_float64_phi_reference(irregular_1000):
    code = irregular_1000
    assert set(code.check_degree_histogram()) == {6, 12, 18}
    kern, ref = code.kernel, _CodeOrderKernel(code)
    rows, code_order = _layout_maps(kern)

    rng = np.random.default_rng(29)
    b = 12
    c2v = kern.fresh_messages(b)
    loud = np.isin(code.edge_chk, np.arange(0, code.m, 37))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for _ in range(4):  # outer rounds carrying the check messages
            llrs = rng.normal(0.0, 6.0, (b, code.n)).astype(np.float32)
            v2c = kern.var_update(llrs + kern.extrinsic(c2v), c2v)
            assert v2c.dtype == np.float32
            assert np.array_equal(code_order(v2c), ref.var_update(llrs, code_order(c2v, True)))
            # saturating, tiny and zero messages hit every clip
            v = code_order(v2c)
            v[:, ::5] *= 30.0
            v[:, 1::11] *= 1e-32
            v[:, 2::17] = 0.0
            v[:, 3::97] = -0.0
            # every edge of some checks large: outputs near float64's range
            big = (b, loud.sum())
            v[:, loud] = rng.choice([-1.0, 1.0], big) * rng.uniform(18.0, 60.0, big)
            assert np.abs(v).max() > 40.0
            assert np.sum((v != 0) & (np.abs(v) < 2e-30)) > 0
            c2v = kern.check_update(rows(v))
            want = ref.check_update(v)
            got = code_order(c2v, True)
            assert c2v.dtype == np.float32 and np.all(np.isfinite(got))
            # float32 accuracy, 1e-5 of the larger of the message and 1, up to
            # float64's range: no early saturation
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
            assert np.abs(want).max() > 30.0
            assert np.array_equal(kern.extrinsic(c2v), ref.extrinsic(got))


def _small_codes():
    """Random small codes, each with a variable on no check, a variable on
    one check, a check on one variable and a check on none."""
    rng = np.random.default_rng(31)
    for m, n in ((5, 9), (8, 16), (12, 20), (12, 20)):
        h = (rng.random((m, n)) < 0.35).astype(np.uint8)
        h[:, :2] = 0
        h[rng.integers(2, m), 1] = 1
        h[0] = 0
        h[0, rng.integers(2, n)] = 1
        h[1] = 0
        yield code_from_parity_check(h)


def test_kernel_matches_code_order_reference_on_small_codes():
    rng = np.random.default_rng(37)
    for code in _small_codes():
        assert {0, 1} <= set(np.bincount(code.edge_var, minlength=code.n))
        assert {0, 1} <= set(np.bincount(code.edge_chk, minlength=code.m))
        kern, ref = code.kernel, _CodeOrderKernel(code)
        rows, code_order = _layout_maps(kern)
        b = 7
        llrs = rng.normal(0.0, 3.0, (b, code.n)).astype(np.float32)
        c2v = rng.normal(0.0, 3.0, (b, code.n_edges)).astype(np.float32)
        # variable sums and messages bit for bit, the check update to float32 accuracy
        ext = kern.extrinsic(rows(c2v, var=True))
        assert ext.dtype == np.float32 and np.array_equal(ext, ref.extrinsic(c2v))
        assert not ext[:, 0].any()
        v2c = kern.var_update(llrs + ext, rows(c2v, var=True))
        assert np.array_equal(code_order(v2c), ref.var_update(llrs, c2v))
        got = code_order(kern.check_update(v2c), var=True)
        want = ref.check_update(code_order(v2c))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
        np.testing.assert_array_equal(np.signbit(got), want < 0)
        bits = rng.integers(0, 2, (b, code.n), dtype=np.uint8)
        syn = code.syndrome(bits)
        assert syn.dtype == np.uint8 and not syn[:, 1].any()
        h = sparse.csr_matrix((np.ones(code.n_edges, np.uint8), (code.edge_chk, code.edge_var)),
                              shape=(code.m, code.n))
        np.testing.assert_array_equal(syn, h.dot(bits.T).T % 2)


def test_check_update_leave_one_out():
    code = code_from_parity_check(np.array([[1, 1, 1]], dtype=np.uint8))
    kern = code.kernel
    v2c = np.array([[0.8], [-1.3], [2.1]])  # (n_edges, B): one check, edges in order
    out = kern.check_update(v2c)

    def ref(a, b):
        return 2.0 * np.arctanh(np.tanh(a / 2.0) * np.tanh(b / 2.0))

    np.testing.assert_allclose(out[0, 0], ref(-1.3, 2.1), atol=1e-10)
    np.testing.assert_allclose(out[1, 0], ref(0.8, 2.1), atol=1e-10)
    np.testing.assert_allclose(out[2, 0], ref(0.8, -1.3), atol=1e-10)


def test_var_update_excludes_own_message():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    code = code_from_parity_check(h)
    kern = code.kernel
    llrs = np.array([[0.5, -0.2, 1.0]])
    # the degree-2 block holds slot 0 of both checks, then slot 1
    np.testing.assert_array_equal(kern.order, [0, 2, 1, 3])
    c2v_code = np.array([0.3, 0.7, -0.4, 0.1])  # edges sorted by (check, variable)
    # the variable layout holds variable 0's edge, variable 2's, then variable 1's two
    np.testing.assert_array_equal(kern.var_order, [0, 3, 1, 2])
    c2v = c2v_code[kern.var_order, None]
    rows = kern.var_update(llrs + kern.extrinsic(c2v), c2v)
    out = np.empty((1, 4))
    out[0, kern.order] = rows[:, 0]
    # variable 1 sits on both checks; each outgoing message uses the other's input
    np.testing.assert_allclose(out[0, 0], 0.5)               # var 0, only check 0
    np.testing.assert_allclose(out[0, 1], -0.2 + (-0.4))     # var 1 -> check 0
    np.testing.assert_allclose(out[0, 2], -0.2 + 0.7)        # var 1 -> check 1
    np.testing.assert_allclose(out[0, 3], 1.0)               # var 2, only check 1


def test_fresh_messages_shape(small_regular):
    kern = small_regular.kernel
    msgs = kern.fresh_messages(5)
    assert msgs.shape == (small_regular.n_edges, 5)
    assert not msgs.any()


def test_kernel_cache_reuses_instance(small_regular):
    assert small_regular.kernel is small_regular.kernel


def test_kernel_belongs_to_its_code():
    # a freed code's id is reused by the next code built; the kernel fetched
    # for the new code must still be built from the new code's own graph
    rng = np.random.default_rng(5)
    for _ in range(200):
        code = code_from_parity_check(rng.integers(0, 2, size=(6, 12), dtype=np.uint8))
        kern = code.kernel
        assert np.array_equal(np.sort(kern.order), np.arange(code.n_edges))
        assert np.array_equal(kern.edge_var, code.edge_var[kern.order])
        chk = code.edge_chk[kern.order]
        for lo, hi, d in kern.blocks:
            slots = chk[lo:hi].reshape(d, -1)
            assert np.all(slots == slots[0])  # one check per column
            assert np.all(np.bincount(code.edge_chk)[slots[0]] == d)
        assert np.array_equal(np.sort(kern.var_order), np.arange(code.n_edges))
        var = code.edge_var[kern.var_order]
        for lo, hi, d in kern.var_blocks:
            slots = var[lo:hi].reshape(d, -1)
            assert np.all(slots == slots[0])  # one variable per column
            assert np.all(np.bincount(code.edge_var, minlength=code.n)[slots[0]] == d)
            # each variable's edges in check order
            assert np.all(np.diff(code.edge_chk[kern.var_order[lo:hi]].reshape(d, -1), axis=0) > 0)
        del code, kern
