"""Code construction, encoding, and the sum-product decoder."""

import numpy as np
import pytest
from scipy import sparse

from chemp import (
    DegreeProfile,
    TABLE_PROFILES,
    bp_decode,
    bp_decode_batch,
    build_code,
    check_message_llr,
    check_message_probability,
    code_from_parity_check,
    encode,
    read_alist,
    regular_profile,
    write_alist,
)


@pytest.fixture(scope="module")
def small_regular():
    return build_code(regular_profile(3, 6), 256, np.random.default_rng(7))


@pytest.fixture(scope="module")
def small_irregular():
    return build_code(TABLE_PROFILES["n128-alpha1"], 256, np.random.default_rng(11))


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


def test_build_code_realizes_profile_counts():
    n = 1000
    profile = TABLE_PROFILES["n128-alpha1"]
    code = build_code(profile, n, np.random.default_rng(3))
    m = n // 2
    vhist = code.variable_degree_histogram()
    chist = code.check_degree_histogram()
    for d, f in profile.variable_degrees:
        assert abs(vhist.get(d, 0) - f * n) <= 1.0, f"variable degree {d}"
    for d, f in profile.check_degrees:
        assert abs(chist.get(d, 0) - f * m) <= 1.0, f"check degree {d}"
    assert sum(d * c for d, c in vhist.items()) == code.n_edges
    assert sum(d * c for d, c in chist.items()) == code.n_edges


def test_build_code_regular(small_regular):
    assert small_regular.variable_degree_histogram() == {3: 256}
    assert small_regular.check_degree_histogram() == {6: 128}
    assert small_regular.n == 256
    assert small_regular.n_edges == 768


def test_build_code_no_parallel_edges(small_irregular):
    h = small_irregular.parity_check.toarray()
    assert h.max() == 1


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


def test_encode_produces_codewords(small_regular):
    rng = np.random.default_rng(5)
    info = rng.integers(0, 2, size=(20, small_regular.k))
    words = encode(small_regular, info)
    assert words.shape == (20, small_regular.n)
    assert np.all(small_regular.is_codeword(words))
    np.testing.assert_array_equal(words[:, small_regular.info_cols], info)


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


def test_syndrome_batched(small_regular):
    rng = np.random.default_rng(9)
    words = encode(small_regular, rng.integers(0, 2, size=(4, small_regular.k)))
    bad = words.copy()
    bad[2, 17] ^= 1
    ok = small_regular.is_codeword(bad)
    np.testing.assert_array_equal(ok, [True, True, False, True])


def test_alist_round_trip(tmp_path, small_irregular):
    path = tmp_path / "code.alist"
    write_alist(small_irregular, str(path))
    h = read_alist(str(path))
    assert sparse.issparse(h)
    np.testing.assert_array_equal(h.toarray(), small_irregular.parity_check.toarray())


# ---------------------------------------------------------------------------
# decoding


def test_clean_codeword_accepted_without_iterating(small_regular):
    rng = np.random.default_rng(13)
    word = encode(small_regular, rng.integers(0, 2, small_regular.k))
    llr = 4.0 * (1.0 - 2.0 * word)  # positive for bit 0
    res = bp_decode(small_regular, llr)
    assert res.iterations == 0
    assert bool(np.all(res.success))
    np.testing.assert_array_equal(res.bits, word)


def test_decoder_corrects_noisy_channel(small_regular):
    rng = np.random.default_rng(17)
    code = small_regular
    word = encode(code, rng.integers(0, 2, code.k))
    x = 1.0 - 2.0 * word.astype(float)
    sigma = 0.7  # about 3.1 dB Eb/N0 at rate 1/2, comfortably decodable
    y = x + sigma * rng.standard_normal(code.n)
    llr = 2.0 * y / sigma ** 2
    assert np.any((llr < 0) != word.astype(bool))  # channel actually flips bits
    res = bp_decode(code, llr, max_iters=50)
    assert bool(np.all(res.success))
    np.testing.assert_array_equal(res.bits, word)


def test_decode_batch_success_implies_zero_syndrome(small_irregular):
    rng = np.random.default_rng(19)
    # mix decodable and garbage rows
    llrs = 2.5 * rng.standard_normal((30, small_irregular.n))
    bits, ok, iters = bp_decode_batch(small_irregular, llrs, max_iters=30)
    assert bits.shape == (30, small_irregular.n)
    syn = small_irregular.syndrome(bits)
    np.testing.assert_array_equal(ok, ~np.any(syn, axis=-1))


def test_decode_batch_extrinsic_output(small_regular):
    rng = np.random.default_rng(23)
    word = encode(small_regular, rng.integers(0, 2, small_regular.k))
    llr = np.tile(3.0 * (1.0 - 2.0 * word), (2, 1))
    llr[1] = 2.0 * rng.standard_normal(small_regular.n)
    bits, ok, iters, ext = bp_decode_batch(small_regular, llr, max_iters=20,
                                           return_extrinsic=True)
    assert ext.shape == llr.shape


def test_zero_iteration_budget(small_regular):
    llr = np.ones((3, small_regular.n))
    bits, ok, iters = bp_decode_batch(small_regular, llr, max_iters=0)
    assert iters == 0
    np.testing.assert_array_equal(bits, 0)


# ---------------------------------------------------------------------------
# message kernels


def test_check_message_conventions_agree(rng):
    for _ in range(50):
        llrs = rng.normal(0.0, 2.0, size=rng.integers(2, 7))
        p_one = 1.0 / (1.0 + np.exp(llrs))  # P(bit=1) under positive-is-zero
        prob0 = check_message_probability(p_one)
        from_llr = 1.0 / (1.0 + np.exp(-check_message_llr(llrs)))
        assert prob0 == pytest.approx(from_llr, abs=1e-6)


def test_check_update_leave_one_out():
    code = code_from_parity_check(np.array([[1, 1, 1]], dtype=np.uint8))
    kern = code.kernel
    v2c = np.array([[0.8, -1.3, 2.1]])
    out = kern.check_update(v2c)

    def ref(a, b):
        return 2.0 * np.arctanh(np.tanh(a / 2.0) * np.tanh(b / 2.0))

    np.testing.assert_allclose(out[0, 0], ref(-1.3, 2.1), atol=1e-10)
    np.testing.assert_allclose(out[0, 1], ref(0.8, 2.1), atol=1e-10)
    np.testing.assert_allclose(out[0, 2], ref(0.8, -1.3), atol=1e-10)


def test_var_update_excludes_own_message():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    code = code_from_parity_check(h)
    kern = code.kernel
    llrs = np.array([[0.5, -0.2, 1.0]])
    c2v = np.array([[0.3, 0.7, -0.4, 0.1]])  # edges sorted by (check, variable)
    out = kern.var_update(llrs, c2v)
    # variable 1 sits on both checks; each outgoing message uses the other's input
    np.testing.assert_allclose(out[0, 0], 0.5)               # var 0, only check 0
    np.testing.assert_allclose(out[0, 1], -0.2 + (-0.4))     # var 1 -> check 0
    np.testing.assert_allclose(out[0, 2], -0.2 + 0.7)        # var 1 -> check 1
    np.testing.assert_allclose(out[0, 3], 1.0)               # var 2, only check 1


def test_fresh_messages_shape(small_regular):
    kern = small_regular.kernel
    msgs = kern.fresh_messages(5)
    assert msgs.shape == (5, small_regular.n_edges)
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
        assert np.array_equal(kern.edge_var, code.edge_var)
        assert np.array_equal(kern.edge_chk, code.edge_chk)
        del code, kern
