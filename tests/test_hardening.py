"""Gram-matrix concentration statistics and the limiting eigenvalue law."""

import numpy as np
import pytest

from chemp import (
    convergence_condition,
    draw_channels,
    eigenvalue_histogram,
    gram,
    hardening_report,
    mp_cdf,
    mp_density,
    mp_distance,
    mp_support,
    real_stack,
)


def make_gram(n, k, rng):
    """Complex Gram G = H^H H / N of one draw."""
    return gram(draw_channels(rng, n, k))


def test_gram_is_symmetric_unit_diagonal(rng):
    J = real_stack(make_gram(128, 64, rng))
    np.testing.assert_allclose(J, J.T)
    assert np.mean(np.diagonal(J)) == pytest.approx(1.0, abs=0.05)


def test_gram_is_exactly_hermitian(rng):
    G = gram(draw_channels(rng, 32, 16, 3))
    np.testing.assert_array_equal(G, np.conj(np.swapaxes(G, -1, -2)))
    assert np.all(np.diagonal(G, axis1=-2, axis2=-1).imag == 0.0)


def test_gram_matches_real_stacked_product(rng):
    hc = draw_channels(rng, 16, 8).astype(complex)
    H = real_stack(hc)
    np.testing.assert_allclose(real_stack(gram(hc)), H.T @ H / 16, rtol=1e-12, atol=1e-14)


def test_structural_zeros_between_quadrature_pairs(rng):
    # column i and column K+i of the real stacking are exactly orthogonal
    k = 16
    J = real_stack(make_gram(64, k, rng))
    idx = np.arange(k)
    np.testing.assert_allclose(J[idx, idx + k], 0.0, atol=1e-14)


def test_offdiagonal_rms_scale(rng):
    n = 256
    reports = [hardening_report(make_gram(n, n, rng)) for _ in range(20)]
    rms = np.mean([r.offdiag_rms for r in reports])
    assert rms == pytest.approx(np.sqrt(1.0 / (2 * n)), rel=0.15)


def test_hardening_report_fields(rng):
    r = hardening_report(make_gram(64, 32, rng))
    assert all(type(v) is float for v in (r.diag_mean, r.diag_std, r.offdiag_rms,
                                           r.offdiag_max))
    assert r.diag_mean == pytest.approx(1.0, abs=0.2)
    assert 0 < r.offdiag_rms <= r.offdiag_max


def test_hardening_report_batched_matches_per_matrix(rng):
    G = gram(draw_channels(rng, 16, 8, (2, 3)))
    batched = hardening_report(G)
    for i, j in np.ndindex(2, 3):
        single = hardening_report(G[i, j])
        for name in ("diag_mean", "diag_std", "offdiag_rms", "offdiag_max"):
            assert getattr(batched, name).shape == (2, 3)
            assert getattr(batched, name)[i, j] == pytest.approx(getattr(single, name),
                                                                 rel=1e-12)


@pytest.mark.parametrize("hermitian", [True, False])
def test_gram_diagnostics_match_real_stacking(rng, hermitian):
    # both diagnostics read G; the reference applies their formulas to J
    if hermitian:
        G = gram(draw_channels(rng, 16, 6, (2, 3))).astype(complex)
    else:
        G = rng.standard_normal((2, 3, 6, 6)) + 1j * rng.standard_normal((2, 3, 6, 6))
    J = real_stack(G)
    k = G.shape[-1]
    d = np.diagonal(J, axis1=-2, axis2=-1)
    r = np.sum(np.abs(J), axis=-1) - np.abs(d)
    rep = convergence_condition(G)
    for half in (slice(None, k), slice(k, None)):
        np.testing.assert_array_equal(rep.anti_dominance, ((d - r) < r)[..., half])
        np.testing.assert_array_equal(rep.diagonal_dominance, (d > r)[..., half])
    off = J[..., ~np.eye(2 * k, dtype=bool)]
    want = {"diag_mean": d.mean(axis=-1), "diag_std": d.std(axis=-1),
            "offdiag_rms": np.sqrt(np.mean(off ** 2, axis=-1)),
            "offdiag_max": np.max(np.abs(off), axis=-1)}
    got = hardening_report(G)
    for name, ref in want.items():
        np.testing.assert_allclose(getattr(got, name), ref, rtol=1e-12, atol=0)


def test_mp_support():
    lo, hi = mp_support(1.0)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(4.0)
    lo, hi = mp_support(0.25)
    assert lo == pytest.approx(0.25)
    assert hi == pytest.approx(2.25)


@pytest.mark.parametrize("alpha", [0.125, 0.5, 1.0])
def test_mp_density_integrates_to_one(alpha):
    # alpha=1 has an integrable inverse-square-root singularity at zero,
    # so adaptive quadrature is required rather than a fixed grid
    from scipy.integrate import quad

    lo, hi = mp_support(alpha)
    mass, _ = quad(lambda t: float(mp_density(np.array([t]), alpha)[0]),
                   lo, hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_mp_density_zero_outside_support():
    np.testing.assert_allclose(mp_density(np.array([4.5, 5.0]), 1.0), 0.0)
    np.testing.assert_allclose(mp_density(np.array([0.1]), 0.25), 0.0)


@pytest.mark.parametrize("alpha", [0.25, 1.0])
def test_mp_cdf_monotone_and_normalized(alpha):
    lo, hi = mp_support(alpha)
    x = np.linspace(lo - 0.5, hi + 0.5, 301)
    c = mp_cdf(x, alpha)
    assert np.all(np.diff(c) >= -1e-12)
    assert c[0] == pytest.approx(0.0, abs=1e-9)
    assert c[-1] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("alpha", [1.0, 0.9, 0.5, 0.25, 0.125, 0.01])
def test_mp_cdf_matches_quadrature_of_density(alpha):
    # the reference integrates mp_density numerically; the substitution
    # x = a + (b - a) sin^2 t smooths the inverse-square-root edge at alpha = 1
    from scipy.integrate import quad

    a, b = mp_support(alpha)
    x = np.linspace(a, b, 25)[1:-1]

    def reference(xi):
        def g(t):
            return float(mp_density(a + (b - a) * np.sin(t) ** 2, alpha)) * (b - a) * np.sin(2 * t)

        return quad(g, 0.0, np.arcsin(np.sqrt((xi - a) / (b - a))), limit=200)[0]

    np.testing.assert_allclose(mp_cdf(x, alpha), [reference(xi) for xi in x], rtol=0, atol=1e-10)


def test_mp_distance_shrinks_with_size(rng):
    small = mp_distance(draw_channels(rng, 32, 32))
    large = mp_distance(draw_channels(rng, 256, 256))
    assert large < small
    assert large < 0.08


def test_mp_distance_accepts_channel_list(rng):
    chans = [draw_channels(rng, 64, 64) for _ in range(4)]
    d = mp_distance(chans)
    assert 0 <= d < 0.15


def test_eigenvalue_histogram_output(rng):
    centers, emp, ref = eigenvalue_histogram(draw_channels(rng, 128, 128), bins=30)
    assert centers.shape == emp.shape == ref.shape == (30,)
    width = centers[1] - centers[0]
    assert np.sum(emp) * width == pytest.approx(1.0, abs=0.05)
