import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from patrev.medium import (Medium, RawParams, derive_medium, nondimensional_medium,
                           water_params)
from patrev import kernels, spectral, transform
from patrev.kernels import (
    ComplexRegimeError,
    ScaleOverflowError,
    dc_constant,
    eta0_hat,
    mode_products,
    multiplier_grid,
    zeta_arrays,
)
from patrev.transform import GridSpec, gaussian_phantom, time_reversal_image

WATER = derive_medium(water_params())
KC = WATER.k_c
T_WATER = 4.0 * 0.5 / WATER.c_inf
LOSSLESS = derive_medium(RawParams(tau1=1e-9, kappa1=0.0, rho=1e3, speed=1500.0))

# nondimensional water-ratio medium: every exponential representable at T ~ 6
NONDIM = nondimensional_medium(WATER.tau0 / WATER.tau1)
T_NONDIM = 6.0


def eta12(medium, k, T, d=3):
    """(eta1 mantissa, eta2 mantissa, log scale) at one wavenumber:
    eta1_hat = (4 A0 l0 / (2 pi)^{d/2}) e^{Re(l0 - l1) T} Im(A1 l1) and
    eta2_hat the same with Re(A1 l1)."""
    mp = mode_products(medium, np.asarray([k]))
    pref = 4.0 * mp.p0[0] / (2 * math.pi) ** (d / 2)
    x = float((mp.lambda0 - mp.mu)[0] * T)
    return pref * mp.p1.imag[0], pref * mp.p1.real[0], x


# -- kernel samples ------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dissipation_free_kernels(d):
    norm = (2 * math.pi) ** (d / 2)
    k = LOSSLESS.k_c
    T = 1e-6
    z1, z2, z3_m, _ = zeta_arrays(LOSSLESS, np.asarray([k]), T, d)
    assert z1[0] == pytest.approx(2.0 / norm, rel=1e-12)
    expected_z2 = 2.0 * math.sin(LOSSLESS.c0 * k * T) ** 2 / norm
    assert z2[0] == pytest.approx(expected_z2, rel=1e-9)
    assert abs(z3_m[0]) <= 1e-12
    e1, e2, _ = eta12(LOSSLESS, k, T, d)
    assert e1 == 0
    assert e2 == 0
    assert (2 * math.pi) ** (d / 2) * eta0_hat(LOSSLESS, k, d) == pytest.approx(
        1.0, rel=1e-12)


def test_dc_constant_values():
    assert dc_constant(WATER) == pytest.approx(3.53125, rel=1e-12)
    assert dc_constant(LOSSLESS) == 1.0
    halved = derive_medium(RawParams(tau1=1e-9, kappa1=2.5e-10, rho=1e3,
                                     speed=1500.0))
    assert dc_constant(halved) == pytest.approx(1.6328125, rel=1e-12)


def test_eta0_dc_value_and_flatness():
    norm = (2 * math.pi) ** 1.5
    assert norm * eta0_hat(WATER, 0.0, d=3) == pytest.approx(3.53125, rel=1e-12)
    ks = np.linspace(1e-5, 1.0, 300) * KC / 100.0
    e0 = mode_products(WATER, ks).eta0_multiplier()
    assert np.max(np.abs(e0 / 3.53125 - 1.0)) <= 0.02


@pytest.mark.parametrize("k_over_kc", [0.0, 0.01, 10.0])
def test_eta0_hat_equals_the_array_value_bit_for_bit(k_over_kc):
    # eta0_hat evaluates the mode products at a 0-d k; every step is elementwise
    k = k_over_kc * KC
    array = mode_products(WATER, np.asarray([k])).eta0_multiplier() / (2 * math.pi) ** 1.5
    assert eta0_hat(WATER, k, d=3) == array[0]


def test_small_k_multiplier_matches_dc():
    # multiplier of the small-wavenumber image I0 = eta0 * phi
    m = mode_products(WATER, np.asarray([0.0, KC / 100.0])).eta0_multiplier()
    assert m[0] == pytest.approx(dc_constant(WATER), rel=1e-12)
    assert m[1] == pytest.approx(dc_constant(WATER), rel=0.02)
    lossless = mode_products(LOSSLESS, np.asarray([5.0 * LOSSLESS.k_c]))
    assert lossless.eta0_multiplier()[0] == pytest.approx(1.0, rel=1e-12)


def test_zeta3_scaled_equals_direct_at_small_exponents():
    # direct double-precision oracle is representable at nondimensional scale
    ks = np.linspace(0.05, 3.0, 40)
    z1, z2, z3_m, z3_ls = zeta_arrays(NONDIM, ks, T_NONDIM, d=3)
    grid = spectral.roots_grid(NONDIM, ks)
    a0, a1, a2, _ = spectral.amplitudes_grid(NONDIM, grid)
    p0 = (a0 * grid.lambda0).real
    p1 = a1 * grid.lambda1
    x = (grid.lambda0 - grid.lambda1).real * T_NONDIM
    y = (grid.lambda0 - grid.lambda1).imag * T_NONDIM
    direct = 8.0 * p0 * (p1.real * np.cosh(x) * np.cos(y)
                         - p1.imag * np.sinh(x) * np.sin(y)) / (2 * math.pi) ** 1.5
    scaled = z3_m * np.exp(z3_ls)
    assert np.allclose(scaled, direct, rtol=1e-9)


def test_multiplier_matches_cosh_sum_oracle():
    # independent oracle: the raw double sum with cosh cross terms
    ks = [0.1, 0.5, 1.0, 2.0]
    mult = multiplier_grid(NONDIM, np.asarray(ks), T_NONDIM, include_zeta3=True)
    for k, m in zip(ks, mult):
        grid = spectral.roots_grid(NONDIM, np.asarray([k]))
        a0, a1, a2, _ = spectral.amplitudes_grid(NONDIM, grid)
        lams = [grid.lambda0[0], grid.lambda1[0], grid.lambda2[0]]
        amps = [a0[0], a1[0], a2[0]]
        p = [amps[j] * lams[j] for j in range(3)]
        m_direct = 2.0 * sum(pj**2 for pj in p)
        for j in range(3):
            for l in range(j + 1, 3):
                m_direct += 4.0 * p[j] * p[l] * np.cosh((lams[j] - lams[l]) * T_NONDIM)
        assert abs(m_direct.imag) <= 1e-9 * abs(m_direct)
        assert m == pytest.approx(m_direct.real, rel=1e-9)


def test_multiplier_consistency_with_zeta_pieces():
    ks = np.linspace(0.01, 3.0, 200)
    z1, z2, z3_m, z3_ls = zeta_arrays(NONDIM, ks, T_NONDIM, d=3)
    norm = (2 * math.pi) ** 1.5
    m = multiplier_grid(NONDIM, ks, T_NONDIM, include_zeta3=True)
    recomposed = norm * (z1 - z2 + z3_m * np.exp(z3_ls))
    assert np.allclose(m, recomposed, rtol=1e-9)


def test_multiplier_dissipation_free_limit_formula():
    ks = np.linspace(0.0, 10 * LOSSLESS.k_c, 100)
    T = 1e-6
    m = multiplier_grid(LOSSLESS, ks, T, include_zeta3=True)
    expected = 2.0 - 2.0 * np.sin(LOSSLESS.c0 * ks * T) ** 2
    assert np.allclose(m, expected, rtol=1e-9, atol=1e-12)


def test_multiplier_k_zero_continuity_value():
    # zeta3-excluded value at k = 0 is the DC gain plus the pair term
    # 4 |A1 l1|^2 (sin^2(0) = 0): 2(1-r)^2 + 2
    m0 = multiplier_grid(WATER, np.asarray([0.0]), T_WATER)[0]
    assert m0 == pytest.approx(dc_constant(WATER) + 1.0, rel=1e-12)
    assert m0 == pytest.approx(4.53125, rel=1e-12)
    # continuity of the smooth part at nondimensional T where the oscillatory
    # phase is negligible at small k
    m_eps = multiplier_grid(NONDIM, np.asarray([1e-7]), 1e-3)[0]
    assert m_eps == pytest.approx(dc_constant(NONDIM) + 1.0, rel=1e-9)


def test_water_multiplier_positive_and_finite_at_small_k():
    m = multiplier_grid(WATER, np.asarray([KC / 100.0]), T_WATER)[0]
    assert np.isfinite(m)
    assert m > 0


def test_zeta_boundedness_water():
    ks = np.linspace(0.0, 10 * KC, 4000)
    z1, z2, z3_m, z3_ls = zeta_arrays(WATER, ks, T_WATER, d=3)
    assert np.all(np.isfinite(z1)) and np.all(np.isfinite(z2))
    assert np.max(np.abs(z1)) < 10.0 and np.max(np.abs(z2)) < 10.0
    assert np.all(z2 >= 0.0)
    # sin^2 envelope bound
    grid = spectral.roots_grid(WATER, ks)
    a0, a1, a2, degen = spectral.amplitudes_grid(WATER, grid)
    p1 = np.where(degen, -0.5 + 0j, a1 * grid.lambda1)
    bound = 8.0 * np.abs(p1) ** 2 / (2 * math.pi) ** 1.5
    assert np.all(z2 <= bound * (1 + 1e-12))
    # zeta3 mantissa bounded, log scale equals Re(lambda0 - lambda1) T on the
    # unpatched range
    assert np.all(np.isfinite(z3_m))
    x = (grid.lambda0 - grid.lambda1).real * T_WATER
    ok = ~degen
    assert np.allclose(z3_ls[ok], x[ok], rtol=1e-12)


def test_water_zeta3_not_representable():
    with pytest.raises(ScaleOverflowError):
        multiplier_grid(WATER, np.asarray([KC / 100.0]), T_WATER,
                        include_zeta3=True)


def test_eta12_bookkeeping_and_zeta3_approximation():
    k = NONDIM.k_c / 100.0
    e1, e2, x = eta12(NONDIM, k, T_NONDIM, d=3)
    _, _, z3_m, z3_ls = zeta_arrays(NONDIM, np.asarray([k]), T_NONDIM, d=3)
    grid = spectral.roots_grid(NONDIM, np.asarray([k]))
    assert z3_ls[0] == pytest.approx(
        float((grid.lambda0 - grid.lambda1).real[0] * T_NONDIM), rel=1e-12)
    assert z3_ls[0] == pytest.approx(x, rel=1e-12)
    assert np.isfinite(e1) and np.isfinite(e2)
    # with cosh ~ sinh ~ e^x/2 the cross kernel reduces to a plane-wave
    # combination of eta1, eta2 (the sin sign follows the mu + i theta
    # labelling of the pair)
    z3 = z3_m[0] * math.exp(z3_ls[0])
    phase = NONDIM.c0 * k * T_NONDIM
    approx = math.exp(x) * (e1 * math.sin(phase) + e2 * math.cos(phase))
    assert abs(approx - z3) <= 0.01 * abs(z3)


def test_eta2_defined_when_imag_part_vanishes():
    # dissipation-free: A0 = 0 makes both eta kernels zero yet well-defined
    e1, e2, _ = eta12(LOSSLESS, LOSSLESS.k_c, 1e-6, d=3)
    assert e1 == 0 and e2 == 0


def test_complex_regime_rejected_for_kernels():
    m = nondimensional_medium(0.1)
    k_bad = 1.78  # inside the three-real-root band (1.7678, 1.7888) of this ratio
    roots = spectral.cardano_roots(m, k_bad)
    assert not roots.real_c_regime
    with pytest.raises(ComplexRegimeError):
        zeta_arrays(m, np.asarray([k_bad]), 1.0, d=3)
    with pytest.raises(ComplexRegimeError):
        eta0_hat(m, k_bad, d=3)


def test_multiplier_convergence_to_lossless_limit():
    # kappa1 -> 0 at fixed c0: the zeta3-excluded multiplier converges to the
    # lossless 2 - 2 sin^2(c0 k T) uniformly over [0, kc]
    T = 4.0
    ks = np.linspace(0.0, 2.0, 800)
    target = 2.0 - 2.0 * np.sin(ks * T) ** 2
    sups = []
    for j in range(6):
        eps = 0.5 * 10.0 ** (-j)
        m = derive_medium(RawParams(tau1=1.0, kappa1=eps, rho=1.0, speed=1.0,
                                    speed_kind="c_zero"))
        mult = multiplier_grid(m, ks, T, include_zeta3=False)
        sups.append(float(np.max(np.abs(mult - target))))
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 1e-4


def test_mode_products_refuse_complex_regime():
    with pytest.raises(ComplexRegimeError):
        mode_products(nondimensional_medium(0.1), np.asarray([1.78]))


def test_mode_products_reject_negative_wavenumbers():
    with pytest.raises(ValueError, match="non-negative"):
        mode_products(WATER, [-1.0])


def test_mode_products_refuse_triple_root():
    # tau0/tau1 = 1/9 and c0^2 k^2 = 1/(27 tau0^2), where all three roots
    # equal 1/(3 tau0) and the A_j do not exist: in doubles d1 = 0 and C = 0,
    # while s = (c0 tau1 k)^2 rounds to 3 + 4.4e-16 and d0 = 1 - 3 r s to
    # 2.2e-16, so the refusal keys on C = 0
    m = Medium(tau1=3.0, tau0=1.0 / 3.0, c0=1.0, c_inf=3.0, kappa1=8.0 / 9.0,
               rho=1.0, k_c=2.0 / 3.0)
    k = math.sqrt(1.0 / 3.0)
    triple = spectral.roots_grid(m, np.asarray([k]))
    assert triple.big_c[0] == 0 and triple.delta1[0] == 0 and triple.delta0[0] > 0
    with pytest.raises(ComplexRegimeError, match="at 1 wavenumber"):
        mode_products(m, np.asarray([k]))
    mp = mode_products(m, k * np.asarray([1.0 - 1e-6, 1.0 + 1e-6]))
    np.testing.assert_allclose(mp.lambda0, 1.0, rtol=2e-2)
    assert np.all(np.isfinite(mp.p0)) and np.all(mp.theta > 0)
    # C = 0 there, so the root tables carry NaN and fail their residual check
    grid = spectral.roots_grid(m, np.asarray([k]))
    assert np.isnan(grid.lambda0[0]) and np.isnan(spectral.scaled_residuals(m, grid)[0])


def _discriminant(medium, k):
    """Delta1^2 - 4 Delta0^3 of the cubic as defined, negative on the
    three-real-root band; its two terms cancel as k -> 0."""
    ck2 = (medium.c0 * np.asarray(k)) ** 2
    d0 = 1.0 - 3.0 * medium.tau0 * medium.tau1 * ck2
    d1 = 2.0 + 9.0 * medium.tau0 * (3.0 * medium.tau0 - medium.tau1) * ck2
    return d1 * d1 - 4.0 * d0**3


def _contract_residuals(medium, mp):
    """Worst scaled cubic residual of lambda0, mu +- i theta and worst scaled
    moment residual sum_j p_j lambda_j^{m-1} - a_m (k > 0) of mode products."""
    roots = replace(spectral.roots_grid(medium, mp.k), lambda0=mp.lambda0 + 0j,
                    mu=mp.mu + 0j, theta=mp.theta + 0j)
    cubic = float(np.max(spectral.scaled_residuals(medium, roots)))
    pos = mp.k > 0
    lam1 = mp.mu[pos] + 1j * mp.theta[pos]
    lams = (mp.lambda0[pos], lam1, np.conj(lam1))
    ps = (mp.p0[pos], mp.p1[pos], np.conj(mp.p1[pos]))
    moment = 0.0
    for m, target in enumerate(spectral.moment_targets(medium)):
        terms = [p * lam ** (m - 1) for p, lam in zip(ps, lams)]
        scale = np.maximum.reduce([np.abs(t) for t in terms]) + abs(target)
        moment = max(moment, float(np.max(np.abs(sum(terms) - target) / scale)))
    return cubic, moment


def test_mode_products_refusals_equal_discriminant_set():
    medium = nondimensional_medium(0.1)
    k = np.linspace(0.0, 10.0 * medium.k_c, 200001)
    grid = spectral.roots_grid(medium, k)
    band = _discriminant(medium, k) < 0
    assert band.sum() == 211
    np.testing.assert_array_equal(grid.real_c_regime, ~band)
    with pytest.raises(ComplexRegimeError, match="at 211 wavenumber"):
        mode_products(medium, k)
    mode_products(medium, k[~band])
    # a principal complex cube root of (Delta1 + sqrt(disc))/2 < 0 is not
    # real: these 369 points next to the band were flagged complex and refused
    # before the cube root was taken in real arithmetic
    branch = ~band & (grid.delta1 < 0) & (grid.delta0 > 0)
    assert branch.sum() == 369
    assert np.all(grid.big_c[branch].imag == 0) and np.all(grid.big_c[branch].real < 0)
    cubic, moment = _contract_residuals(medium, mode_products(medium, k[branch]))
    assert cubic <= 1e-13 and moment <= 1e-13


def _mpmath_multiplier(medium, k, T):
    """The zeta3-excluded multiplier at one k from the roots and the moment
    solve in 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    t0, t1 = mpmath.mpf(medium.tau0), mpmath.mpf(medium.tau1)
    ck2 = (mpmath.mpf(medium.c0) * mpmath.mpf(k)) ** 2
    roots = mpmath.polyroots([-t0, 1, -t1 * ck2, ck2], maxsteps=200, extraprec=300)
    lam1 = max(roots, key=mpmath.im)
    lams = [min(roots, key=lambda z: abs(mpmath.im(z))).real, lam1, mpmath.conj(lam1)]
    amps = mpmath.lu_solve(
        mpmath.matrix([[1, 1, 1], lams, [lam**2 for lam in lams]]),
        mpmath.matrix([0, -t1 / t0, (1 - t1 / t0) / t0]))
    p = [a * lam for a, lam in zip(amps, lams)]
    return (2 * mpmath.re(sum(x * x for x in p))
            + 4 * abs(p[1]) ** 2 * mpmath.cos(2 * mpmath.im(lam1) * T))


def test_multiplier_next_to_band_edges_matches_mpmath():
    # Im p1 grows like 1/theta towards the three-real-root band, so the
    # cos(2 theta T) form of the multiplier cancels (Im p1)^2 there
    medium = nondimensional_medium(0.1)
    T = 6.0

    def edge(out, inside):
        # last double k outside the band, by bisection on the sign of disc
        while (mid := 0.5 * (out + inside)) not in (out, inside):
            if _discriminant(medium, mid) >= 0:
                out = mid
            else:
                inside = mid
        return out

    lo, hi = edge(1.70, 1.78), edge(1.85, 1.78)
    ks = np.asarray([lo * (1 - 1e-12), hi * (1 + 1e-12),
                     lo * (1 - 1e-10), hi * (1 + 1e-10)])
    got = mode_products(medium, ks).multiplier(T)
    for k, m in zip(ks, got):
        ref = _mpmath_multiplier(medium, k, T)
        assert abs((m - ref) / ref) <= 1e-12


def test_image_next_to_the_band_edge_is_admitted():
    # a table |k| 3e-11 below the band's lower edge at tau0/tau1 = 0.1111:
    # the closed form admits it, and roots_grid takes the pair there too,
    # although its rounded disc < 0 (refused part-way through evaluation
    # before the closed form decided the flag outside the band)
    medium = nondimensional_medium(0.1111)
    lo, _ = spectral.three_root_band(medium)
    grid = GridSpec(1, 256, 2 * math.pi * 40 / (lo * (1 - 3e-11)))
    k = grid.radial_table()[0][40]
    assert k < lo
    image = time_reversal_image(medium, gaussian_phantom(grid, 36.0), 2.0)
    assert np.all(np.isfinite(image.samples))
    _, _, (box_image,) = transform._gaussian_images(grid, 36.0, medium, 2.0)
    assert np.all(np.isfinite(box_image))
    m = mode_products(medium, np.asarray([k])).multiplier(2.0)[0]
    ref = _mpmath_multiplier(medium, k, 2.0)
    assert abs((m - ref) / ref) <= 1e-8


@pytest.mark.parametrize("excess", [1e-8, 1e-12])
def test_near_triple_root_is_refused_as_the_triple_root(excess):
    # tau0/tau1 just above 1/9 has no band, but at k = sqrt(3)/2 k_c the
    # rounded disc < 0 and d0 = 1 - 3 r s <= 0: three real roots need
    # d0 > 0, so the point is the triple root, C = 0, and not an overflow
    medium = nondimensional_medium((1.0 + excess) / 9.0)
    assert spectral.three_root_band(medium) is None
    k = np.asarray([0.5 * math.sqrt(3.0) * medium.k_c])
    grid = spectral.roots_grid(medium, k)
    assert grid.delta0[0] <= 0 and not grid.real_c_regime[0] and grid.big_c[0] == 0
    assert np.isnan(grid.lambda0[0]) and np.isnan(spectral.scaled_residuals(medium, grid)[0])
    assert spectral.nonfinite_roots(medium, grid) is None
    with pytest.raises(ComplexRegimeError, match="at 1 wavenumber"):
        mode_products(medium, k)
    with pytest.raises(ComplexRegimeError):
        eta0_hat(medium, float(k[0]))


# water plus 40 seeded ratios tau0/tau1 in [0.02, 1] and the two ends
_RATIOS = (*np.random.default_rng(8).uniform(0.02, 1.0, 40), 0.02, 1.0)
_MEDIA = pytest.mark.parametrize(
    "medium", [WATER] + [nondimensional_medium(r) for r in _RATIOS],
    ids=["water"] + [f"{r:.4g}" for r in _RATIOS])
_UNIT_K = np.concatenate([[0.0], np.logspace(-14, 3, 200),
                          np.linspace(0.0, 10.0, 201)[1:]])


@_MEDIA
def test_mode_products_contracts_across_media(medium):
    k = _UNIT_K * medium.k_c
    k = k[spectral.roots_grid(medium, k).real_c_regime]
    mp = mode_products(medium, k)
    for a in (mp.lambda0, mp.mu, mp.theta, mp.p0, mp.p1_re, mp.p1_im):
        assert np.all(np.isfinite(a))
    assert np.all(mp.theta[1:] > 0)

    # 0 < tau0 <= tau1 bounds the decay rates: the cubic is positive for
    # lambda < 0, mu is a product of non-negative factors, and by Vieta
    # lambda0 + 2 mu = 1/tau0, so no rate exceeds 1/tau0; the forward
    # operator and the zeta3 refusal in time_reversal_image rest on these
    assert np.all(mp.lambda0 > 0) and np.all(mp.mu >= 0)
    eps = np.finfo(float).eps
    assert max(mp.lambda0.max(), mp.mu.max()) <= (1.0 / medium.tau0) * (1.0 + 4.0 * eps)

    # lambda0 and mu +- i theta solve the cubic, and sum_j p_j lambda_j^{m-1}
    # = a_m with p2 = conj(p1), lambda2 = conj(lambda1), to round-off
    cubic, moment = _contract_residuals(medium, mp)
    assert cubic <= 1e-13 and moment <= 1e-13

    # cross-check with the independent 3x3 solve of the moment system at
    # sampled k; its own round-off grows like 1e-15 k_c / k as the pair
    # closes in on 0 (1.9e-8 at 7e-8 k_c), so the samples start at 1e-3 k_c
    # and the moment residual above covers smaller k
    for i in np.flatnonzero(k >= 1e-3 * medium.k_c)[::8]:
        roots = spectral.cardano_roots(medium, float(k[i]))
        solved = spectral.solve_vandermonde(roots, medium)
        assert mp.p1[i] == pytest.approx(solved.a1_coef * roots.lambda1, rel=1e-10)

    # k = 0 without a substituted limit; (tau0 - tau1)/tau0 is 1 - tau1/tau0
    # without the rounding of tau1/tau0
    assert k[0] == 0.0 and mp.mu[0] == 0.0 and mp.theta[0] == 0.0
    assert mp.p0[0] == pytest.approx((medium.tau0 - medium.tau1) / medium.tau0,
                                     rel=1e-15, abs=1e-300)
    assert mp.p1[0] == pytest.approx(-0.5, rel=1e-15)


def _exact_disc_nonnegative(medium, k):
    """Delta1^2 - 4 Delta0^3 >= 0, in exact rational arithmetic on the
    double inputs (the cubic's discriminant up to a negative factor)."""
    t0, t1 = Fraction(medium.tau0), Fraction(medium.tau1)
    out = []
    for kk in k:
        ck2 = (Fraction(medium.c0) * Fraction(float(kk))) ** 2
        d0 = 1 - 3 * t0 * t1 * ck2
        d1 = 2 + 9 * t0 * (3 * t0 - t1) * ck2
        out.append(d1 * d1 - 4 * d0**3 >= 0)
    return np.asarray(out)


@_MEDIA
def test_roots_grid_contracts_across_media(medium):
    # the band disc < 0 sampled at up to 50 points of a 20001-point grid
    dense = np.linspace(0.0, 10.0 * medium.k_c, 20001)
    band = dense[~spectral.roots_grid(medium, dense).real_c_regime]
    band = band[::max(1, band.size // 50)]
    k = np.concatenate([_UNIT_K * medium.k_c, band])
    grid = spectral.roots_grid(medium, k)
    assert np.all(spectral.scaled_residuals(medium, grid) <= 1e-13)
    regime = _exact_disc_nonnegative(medium, k)
    np.testing.assert_array_equal(grid.real_c_regime, regime)
    assert np.all(grid.theta[regime].imag == 0) and np.all(grid.theta.real >= 0)

    # on the band: real lambda0 > mu + |theta| > mu - |theta|, the companion
    # matrix roots in descending order
    inside = ~regime
    assert np.all(grid.theta[inside].real == 0) and np.all(grid.theta[inside].imag > 0)
    mu, theta = grid.mu[inside].real, grid.theta[inside].imag
    got = np.stack([grid.lambda0[inside].real, mu + theta, mu - theta], axis=1)
    assert np.all(grid.lambda0[inside].imag == 0) and np.all(grid.mu[inside].imag == 0)
    ref = np.asarray([
        np.sort(np.roots([-medium.tau0, 1.0, -medium.tau1 * ck2, ck2]).real)[::-1]
        for ck2 in (medium.c0 * k[inside]) ** 2]).reshape(-1, 3)
    np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_kernel_table_columns():
    ks = np.linspace(0.0, 2 * KC, 50)
    table = kernels.kernel_table(WATER, ks, T_WATER, d=3)
    assert list(table.keys()) == ["k", "zeta1", "zeta2", "zeta3_mantissa",
                                  "zeta3_logscale", "eta0",
                                  "multiplier_no_zeta3"]
    assert all(len(v) == 50 for v in table.values())
    assert np.all(np.isfinite(table["multiplier_no_zeta3"]))
    assert np.array_equal(table["multiplier_no_zeta3"],
                          kernels.multiplier_grid(WATER, ks, T_WATER))
    assert np.array_equal(table["eta0"], [eta0_hat(WATER, k, d=3) for k in ks])
