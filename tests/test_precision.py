"""Precision of the channel front end: a complex64 channel gives complex64 and
float32 results, a complex128 channel complex128 and float64 ones, and on the
same rounded channel the two agree to float32 accuracy."""

import numpy as np
import pytest

from chemp import (
    GramObservation,
    MpdConfig,
    MpdEngine,
    draw_channels,
    gram,
    map_oracle,
    matched_filter,
    mmse_detect,
    noise_variance,
    transmit,
)
from chemp.estimate import (
    estimate_gram,
    estimate_z,
    gram_observation_from_pilots,
    mmse_channel_estimate,
    pilot_amplitude,
    receive_pilots,
)

# Largest misfits between the complex64 and complex128 paths over 300 seeds
# (N = 64, K = 32, 10 dB, the same draws in both), relative to
# max(|reference|, 1): G 3.8e-7, z 5.6e-7, the pilot estimates 5.7e-7, the
# first-step LLRs 2.1e-6 and the LLRs after 10 steps 1.2e-5. The tolerances
# leave a factor of 4.7 or more.
FRONT_TOL = dict(rtol=1e-5, atol=1e-5)
LLR_TOL = dict(rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("ctype", [np.complex64, np.complex128])
def test_front_end_keeps_the_channel_precision(rng, ctype):
    real = np.finfo(ctype).dtype
    b, u, n, k = 2, 3, 16, 4
    hc = draw_channels(rng, n, k, b).astype(ctype)
    nv = noise_variance(8.0, k)
    x, yc = transmit(rng, hc, nv, uses=u)
    assert x.dtype == np.float64 and yc.dtype == ctype
    assert gram(hc).dtype == ctype
    for obs in (matched_filter(hc, yc, nv), matched_filter(hc, yc[:, :1], nv)):
        assert obs.G.dtype == ctype and obs.z.dtype == real
        x_hat, s = mmse_detect(obs)
        assert x_hat.dtype == s.dtype == real
        assert MpdEngine(obs).run(MpdConfig(iterations=3)).llr.dtype == np.float32
    assert map_oracle(matched_filter(hc[..., :2], yc, nv)).dtype == real
    # an observation takes the precision of its Gram
    obs = GramObservation(G=gram(hc), z=np.zeros((b, 1, 2 * k)), sigma_v_sq=np.float64(0.5))
    assert obs.z.dtype == real and mmse_detect(obs)[1].dtype == real
    pilots = receive_pilots(rng, hc, nv, pilot_amplitude(k))
    assert pilots.Y_p.dtype == ctype
    assert estimate_gram(pilots).dtype == ctype
    assert estimate_z(pilots, yc).dtype == real
    assert mmse_channel_estimate(pilots).dtype == ctype
    est = gram_observation_from_pilots(pilots, yc)
    assert est.G.dtype == ctype and est.z.dtype == real


def test_complex64_front_end_matches_complex128(rng):
    # the same rounded channel, and the same symbols, data noise and pilot
    # noise from two generators seeded alike, through both precisions; the
    # received vectors differ by one rounding, and then only the arithmetic
    b, u, n, k = 3, 5, 64, 32
    nv = noise_variance(10.0, k)
    h32 = draw_channels(rng, n, k, b)
    h64 = h32.astype(complex)
    seed = rng.integers(2 ** 32)
    r32, r64 = np.random.default_rng(seed), np.random.default_rng(seed)
    _, y32 = transmit(r32, h32, nv, uses=u)
    _, y64 = transmit(r64, h64, nv, uses=u)
    o32 = matched_filter(h32, y32, nv)
    o64 = matched_filter(h64, y64, nv)
    np.testing.assert_allclose(o32.G, o64.G, **FRONT_TOL)
    np.testing.assert_allclose(o32.z, o64.z, **FRONT_TOL)
    # the pilot block draws the same normals whatever the channel's precision
    p32 = receive_pilots(r32, h32, nv, pilot_amplitude(k))
    p64 = receive_pilots(r64, h64, nv, pilot_amplitude(k))
    np.testing.assert_allclose(p32.Y_p, p64.Y_p, **FRONT_TOL)
    np.testing.assert_allclose(estimate_gram(p32), estimate_gram(p64), **FRONT_TOL)
    np.testing.assert_allclose(estimate_z(p32, y32), estimate_z(p64, y64), **FRONT_TOL)
    np.testing.assert_allclose(mmse_channel_estimate(p32), mmse_channel_estimate(p64),
                               **FRONT_TOL)
    e32, e64 = MpdEngine(o32), MpdEngine(o64)
    p = e32.uniform_beliefs()
    np.testing.assert_allclose(e32.llr(p), e64.llr(p), **FRONT_TOL)
    cfg = MpdConfig(iterations=10)
    np.testing.assert_allclose(e32.run(cfg).llr, e64.run(cfg).llr, **LLR_TOL)


def test_complex64_mmse_matches_complex128_when_ill_conditioned(rng):
    # singular values spread so that G + sigma_v^2 I has condition number
    # about 1e3; float32 then loses about three digits: over 300 seeds the
    # largest relative misfit of s was 3.4e-5
    n, k, u = 32, 8, 5
    U = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    h32 = ((U * (np.sqrt(n) * np.logspace(0, -1.5, k))) @ V.conj().T).astype(np.complex64)
    nv = noise_variance(30.0, k)
    _, y32 = transmit(rng, h32, nv, uses=u)
    o32 = matched_filter(h32, y32, nv)
    o64 = matched_filter(h32.astype(complex), y32.astype(complex), nv)
    cond = np.linalg.cond(o64.G + o64.sigma_v_sq * np.eye(k))
    assert 5e2 < cond < 2e3
    s32, s64 = mmse_detect(o32)[1], mmse_detect(o64)[1]
    assert s32.dtype == np.float32
    rel = np.linalg.norm(s32 - s64, axis=-1) / np.linalg.norm(s64, axis=-1)
    assert rel.max() < 1e-3
