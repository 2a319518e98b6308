from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from patrev.medium import (Medium, RawParams, derive_medium, nondimensional_medium,
                           water_params)
from patrev.spectral import (
    DegenerateRootsError,
    amplitudes,
    amplitudes_grid,
    asymptotic_limits,
    cardano_roots,
    degenerate_mask,
    moment_residuals,
    moment_targets,
    nonfinite_roots,
    roots_grid,
    scaled_residuals,
    solve_vandermonde,
    three_root_band,
)
from patrev import kernels, spectral
from patrev.experiments import config_from_mapping, read_config_mapping

WATER = derive_medium(water_params())
KC = WATER.k_c
LOG_GRID = np.logspace(-3, 3, 200) * KC
LOSSLESS = derive_medium(RawParams(tau1=1e-9, kappa1=0.0, rho=1e3, speed=1500.0))


def companion_roots(medium, k):
    # independent oracle: numpy companion-matrix root finder
    return np.roots([-medium.tau0, 1.0, -medium.c0**2 * medium.tau1 * k * k,
                     medium.c0**2 * k * k])


def test_k_zero_degenerates_to_relaxation_root():
    r = cardano_roots(WATER, 0.0)
    assert r.delta0 == 1.0
    assert r.delta1 == 2.0
    assert r.big_c == 1.0
    assert r.lambda0 == pytest.approx(1.0 / WATER.tau0, rel=1e-14)
    assert r.mu == 0.0
    assert r.theta == 0.0


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        cardano_roots(WATER, -1.0)


@pytest.mark.parametrize("kfac", [0.01, 0.5, 1.0, 20.0])
def test_cardano_diagnostic_formulas(kfac):
    k = kfac * KC
    d = cardano_roots(WATER, k)
    t0, t1, c0 = WATER.tau0, WATER.tau1, WATER.c0
    assert d.delta0 == pytest.approx(1.0 - 3.0 * c0**2 * t0 * t1 * k**2,
                                     rel=1e-12)
    assert d.delta1 == pytest.approx(
        2.0 + 9.0 * c0**2 * t0 * (3.0 * t0 - t1) * k**2, rel=1e-12)
    assert d.real_c_regime == (abs(d.big_c.imag) <= 1e-10 * abs(d.big_c))
    # C is a principal cube root of (Delta1 + sqrt(Delta1^2 - 4 Delta0^3))/2
    target = (d.delta1 + np.sqrt(complex(d.delta1**2 - 4.0 * d.delta0**3))) / 2.0
    assert d.big_c**3 == pytest.approx(target, rel=1e-10)


@pytest.mark.parametrize("k", [1e-3 * KC, 0.1 * KC, KC, 10 * KC, 1e3 * KC])
def test_roots_match_companion_oracle(k):
    r = cardano_roots(WATER, k)
    got = sorted(map(complex, (r.lambda0, r.lambda1, r.lambda2)),
                 key=lambda z: (z.real, z.imag))
    expected = sorted(map(complex, companion_roots(WATER, k)),
                      key=lambda z: (z.real, z.imag))
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-9)


def test_cubic_residuals_on_log_grid():
    grid = roots_grid(WATER, LOG_GRID)
    assert np.all(scaled_residuals(WATER, grid) <= 1e-9)


def test_real_c_regime_has_exactly_real_parts():
    grid = roots_grid(WATER, LOG_GRID)
    assert np.all(grid.real_c_regime)
    assert np.all(grid.lambda0.imag == 0.0)
    assert np.all(grid.mu.imag == 0.0)
    assert np.all(grid.theta.imag == 0.0)
    # lambda1/lambda2 exact conjugates by construction
    assert np.all(grid.lambda1 == np.conj(grid.lambda2))


@pytest.mark.parametrize("medium,k", [
    (WATER, 0.3 * KC),
    (WATER, 10 * KC),
    # Delta1 < 0: C is the real cube root, where the principal complex one
    # made the u_0 root complex
    (nondimensional_medium(0.1), 1.8),
    (nondimensional_medium(0.1), 1.78),  # three real roots, principal C
])
def test_pair_decomposition_matches_u_root_formulas(medium, k):
    r = cardano_roots(medium, k)
    u1 = (-1.0 + 1j * np.sqrt(3.0)) / 2.0
    direct = [(1.0 + u * r.big_c + r.delta0 / (u * r.big_c)) / (3 * medium.tau0)
              for u in (1.0, u1, np.conj(u1))]
    assert r.lambda0 == pytest.approx(direct[0], rel=1e-10)
    assert r.lambda0.imag == 0.0
    # the pair is labelled by theta (lambda1 = mu + i theta, theta >= 0 or
    # purely imaginary with positive imaginary part), not by u_1, u_2
    assert r.theta.real >= 0.0 and r.theta.imag >= 0.0
    if abs(r.lambda1 - direct[1]) > abs(r.lambda1 - direct[2]):
        direct[1:] = direct[2], direct[1]
    assert r.lambda1 == pytest.approx(direct[1], rel=1e-10)
    assert r.lambda2 == pytest.approx(direct[2], rel=1e-10)


def test_vieta_identities():
    grid = roots_grid(WATER, LOG_GRID)
    l0, l1, l2 = grid.lambda0, grid.lambda1, grid.lambda2
    t0, t1, c0 = WATER.tau0, WATER.tau1, WATER.c0
    k2 = LOG_GRID**2
    assert np.allclose(l0 + l1 + l2, 1.0 / t0, rtol=1e-9)
    assert np.allclose(l0 * l1 * l2, c0 * c0 * k2 / t0, rtol=1e-9)
    assert np.allclose(l0 * l1 + l0 * l2 + l1 * l2, c0 * c0 * t1 * k2 / t0,
                       rtol=1e-9)


def test_branch_continuity_no_swaps():
    grid = roots_grid(WATER, LOG_GRID)
    for f in (grid.lambda0.real, grid.mu.real, grid.theta.real):
        step = np.abs(np.diff(f))
        scale = np.abs(f).max()
        # adjacent log-grid samples vary smoothly; a branch swap would jump
        # by order max|f|
        local = np.maximum((step[:-2] + step[2:]) / 2.0, 1e-12 * scale)
        assert np.all(step[1:-1] <= 10.0 * local)


def test_asymptotics_at_large_k():
    lam0_inf, mu_inf = asymptotic_limits(WATER)
    assert lam0_inf == pytest.approx(1e9, rel=1e-12)
    assert mu_inf == pytest.approx(5.6250e8, rel=1e-12)
    r = cardano_roots(WATER, 1000.0 * KC)
    assert abs(r.lambda0.real - lam0_inf) / lam0_inf <= 5e-3
    assert abs(r.mu.real - mu_inf) / mu_inf <= 5e-3
    # theta grows like c_inf k at large k
    assert r.theta.real / (1000.0 * KC) == pytest.approx(WATER.c_inf, rel=1e-4)


def test_asymptotic_limits_dissipation_free():
    m = derive_medium(RawParams(tau1=1e-9, kappa1=0.0, rho=1e3, speed=1500.0))
    lam0_inf, mu_inf = asymptotic_limits(m)
    assert lam0_inf == pytest.approx(1e9)
    assert mu_inf == 0.0


def lossless_oracle(k):
    # kappa1 = 0 factors the cubic: lambda0 = 1/tau1, lambda_{1,2} = +-i c0 k
    return 1.0 / LOSSLESS.tau1 + 0j, 0j, LOSSLESS.c0 * k + 0j


def test_dissipation_free_roots_analytic():
    k = np.asarray([0.0, 1e3])
    lam0, mu, theta = lossless_oracle(k)
    assert lam0 == pytest.approx(1e9, rel=1e-14)
    assert theta[1] == pytest.approx(1.5e6, rel=1e-14)
    exact = replace(roots_grid(LOSSLESS, k), lambda0=np.full(2, lam0),
                    mu=np.full(2, mu), theta=theta)
    assert np.all(scaled_residuals(LOSSLESS, exact) <= 1e-15)
    r0 = cardano_roots(LOSSLESS, 0.0)
    assert r0.lambda1 == 0 and r0.lambda2 == 0


def test_dissipation_free_matches_cardano_path():
    # tau0 = tau1 runs the general Cardano-Newton-Vieta path: d = 0 makes
    # mu exactly 0, and lambda0 and theta agree with the factored cubic to
    # round-off
    m = LOSSLESS
    for k in np.linspace(0.0, 10 * m.k_c, 20):
        lam0, _, theta = lossless_oracle(k)
        card = cardano_roots(m, k)
        assert card.lambda0 == pytest.approx(lam0, rel=1e-15)
        assert card.theta == pytest.approx(theta, rel=1e-15)
        assert card.mu == 0.0


def test_amplitudes_dissipation_free_closed_form():
    m = derive_medium(RawParams(tau1=1e-9, kappa1=0.0, rho=1e3, speed=1500.0))
    r = cardano_roots(m, m.k_c)
    a = amplitudes(r, m)
    lam1 = r.lambda1
    assert a.a0_coef == pytest.approx(0.0, abs=1e-12 * abs(a.a1_coef))
    assert a.a1_coef == pytest.approx(-1.0 / (2.0 * lam1), rel=1e-12)
    assert a.a2_coef == pytest.approx(-a.a1_coef, rel=1e-12)


def test_vandermonde_dissipation_free():
    m = LOSSLESS
    lam0, mu, theta = lossless_oracle(m.k_c)
    r = replace(cardano_roots(m, m.k_c), lambda0=lam0, mu=mu, theta=theta)
    v = solve_vandermonde(r, m)
    assert v.a0_coef == pytest.approx(0.0, abs=1e-12 * abs(v.a1_coef))
    assert v.a1_coef == pytest.approx(-1.0 / (2.0 * r.lambda1), rel=1e-10)
    assert v.a2_coef == pytest.approx(-v.a1_coef, rel=1e-10)


def test_lossless_amplitude_curve_is_constant():
    # |A1(k)| k = 1/(2 c0) for every k when kappa1 = 0
    m = derive_medium(RawParams(tau1=1e-9, kappa1=0.0, rho=1e3, speed=1500.0))
    ks = np.linspace(0.1, 10.0, 50) * m.k_c
    grid = roots_grid(m, ks)
    _, a1, a2, _ = amplitudes_grid(m, grid)
    assert np.allclose(np.abs(a1) * ks, 1.0 / (2.0 * m.c0), rtol=1e-12)
    assert np.allclose(np.abs(a2) * ks, 1.0 / (2.0 * m.c0), rtol=1e-12)


def test_moment_residuals_on_log_grid():
    grid = roots_grid(WATER, LOG_GRID)
    a0, a1, a2, degen = amplitudes_grid(WATER, grid)
    assert not np.any(degen)
    targets = moment_targets(WATER)
    for m in range(3):
        lhs = a0 * grid.lambda0**m + a1 * grid.lambda1**m + a2 * grid.lambda2**m
        scale = np.maximum.reduce([
            np.abs(a0 * grid.lambda0**m),
            np.abs(a1 * grid.lambda1**m),
            np.abs(a2 * grid.lambda2**m),
        ]) + abs(targets[m])
        assert np.all(np.abs(lhs - targets[m]) <= 1e-9 * scale)


@pytest.mark.parametrize("medium", [WATER, *(nondimensional_medium(r) for r in (
    1e-8, 1e-4, 0.01, 0.05, 0.1, 0.2, 0.5, 0.999))], ids=lambda m: f"r={1 / m.tau_ratio:.3g}")
def test_pair_weights_are_conjugate_bit_for_bit(medium):
    # A2 is conj(A1) bit for bit wherever the pair is conjugate, from k = 0 to
    # 1e12 k_c and off the three-real-root band; the division p2 / lambda2
    # alone equals it in value but not in the sign of a zero real part, which
    # a CSV writes as "-0" (water's coeffs table at 1e8 k_c)
    k = medium.k_c * np.concatenate([np.linspace(0.0, 100.0, 20001),
                                     np.logspace(-12.0, 12.0, 20001)])
    grid = roots_grid(medium, k)
    _, a1, a2, _ = amplitudes_grid(medium, grid)
    pair = grid.real_c_regime & np.isfinite(a1)
    assert np.count_nonzero(pair) > 17000
    assert np.array_equal(a2[pair].view(np.int64), np.conj(a1[pair]).view(np.int64))


def test_conjugate_pair_structure():
    # for real moment data and lambda2 = conj(lambda1): A0 real, A2 = conj(A1)
    grid = roots_grid(WATER, LOG_GRID)
    a0, a1, a2, _ = amplitudes_grid(WATER, grid)
    assert np.all(a0.imag == 0.0)
    assert np.all(np.abs(a2 - np.conj(a1)) <= 1e-10 * np.abs(a1))
    assert np.all(np.abs(np.abs(a1) - np.abs(a2)) <= 1e-12 * np.abs(a1))
    # equivalently: equal real parts, opposite imaginary parts
    assert np.allclose(a1.real, a2.real, rtol=1e-10, atol=0.0)
    assert np.allclose(a1.imag, -a2.imag, rtol=1e-10, atol=0.0)
    # the combination entering the image multiplier is real
    pair = a1 * grid.lambda1 + a2 * grid.lambda2
    assert np.all(np.abs(pair.imag) <= 1e-10 * np.abs(pair))


def test_amplitudes_match_vandermonde_on_log_grid():
    grid = roots_grid(WATER, LOG_GRID)
    a0, a1, a2, _ = amplitudes_grid(WATER, grid)
    for i in [0, 25, 50, 100, 150, 199]:
        r = cardano_roots(WATER, float(LOG_GRID[i]))
        v = solve_vandermonde(r, WATER)
        assert v.a0_coef == pytest.approx(complex(a0[i]), rel=1e-8)
        assert v.a1_coef == pytest.approx(complex(a1[i]), rel=1e-8)
        assert v.a2_coef == pytest.approx(complex(a2[i]), rel=1e-8)


@pytest.mark.parametrize("kfac", [0.1, 10.0])
def test_vandermonde_cross_path(kfac):
    r = cardano_roots(WATER, kfac * KC)
    a = amplitudes(r, WATER)
    v = solve_vandermonde(r, WATER)
    for x, y in zip(a.as_tuple(), v.as_tuple()):
        assert x == pytest.approx(y, rel=1e-8)


def test_degenerate_roots_raise():
    r = cardano_roots(WATER, 0.0)
    with pytest.raises(DegenerateRootsError):
        amplitudes(r, WATER)
    with pytest.raises(DegenerateRootsError):
        solve_vandermonde(r, WATER)


def test_amplitude_limits_for_small_k():
    # series oracle: the weights approach A0 -> tau0 - tau1 and
    # A1 lambda1 -> -1/2 along k -> 0
    r = cardano_roots(WATER, 1e-6 * KC)
    a = amplitudes(r, WATER)
    assert a.a0_coef.real == pytest.approx(WATER.tau0 - WATER.tau1, rel=1e-6)
    assert a.a1_coef * r.lambda1 == pytest.approx(-0.5, abs=1e-5)


def _scaled_moment_residual(medium, weights, roots):
    lams = (roots.lambda0, roots.lambda1, roots.lambda2)
    worst = 0.0
    for m, target in enumerate(moment_targets(medium)):
        terms = [a * lam**m for a, lam in zip(weights, lams)]
        scale = max(abs(t) for t in terms) + abs(target)
        worst = max(worst, abs(sum(terms) - target) / scale)
    return worst


@pytest.mark.parametrize("kfac", [1e-12, 1e-9])
def test_weights_defined_at_tiny_k(kfac):
    # A_j = p_j / lambda_j holds at every k > 0: no band of small k is refused
    r = cardano_roots(WATER, kfac * KC)
    a = amplitudes(r, WATER)
    v = solve_vandermonde(r, WATER)
    assert _scaled_moment_residual(WATER, a.as_tuple(), r) <= 1e-14
    for x, y in zip(a.as_tuple(), v.as_tuple()):
        assert x == pytest.approx(y, rel=1e-8)


def test_degenerate_mask_is_k_zero_only():
    unit_k = np.concatenate([[0.0], np.logspace(-14, 3, 2000)])
    for medium in (WATER, nondimensional_medium(0.036), LOSSLESS):
        grid = roots_grid(medium, unit_k * medium.k_c)
        mask = degenerate_mask(grid.lambda0, grid.lambda1, grid.lambda2)
        assert np.flatnonzero(mask).tolist() == [0]
        assert np.flatnonzero(amplitudes_grid(medium, grid)[3]).tolist() == [0]


@pytest.mark.parametrize("medium", [
    nondimensional_medium(0.036),
    derive_medium(replace(water_params(), kappa1=9e-9)),
], ids=["ratio_0.036", "water_kappa9e-9"])
def test_band_weights_real_and_match_vandermonde(medium):
    # three real roots: theta and im_p1 are imaginary, so p1, p2 and the
    # weights are real
    ks = np.linspace(0.0, 10.0, 4001)[1:] * medium.k_c
    grid = roots_grid(medium, ks)
    band = np.flatnonzero(~grid.real_c_regime)
    assert band.size > 100
    a0, a1, a2, degen = amplitudes_grid(medium, grid)
    assert not np.any(degen)
    assert np.all(a1[band].imag == 0) and np.all(a2[band].imag == 0)
    for i in band:
        v = solve_vandermonde(cardano_roots(medium, float(ks[i])), medium)
        for x, y in zip((a0[i], a1[i], a2[i]), v.as_tuple()):
            assert x == pytest.approx(y, rel=1e-12)


# tau0/tau1 over (0, 1]: uniform, down to 1e-12, and around 1/9 (where the
# band closes), the last ones on either side of it, and three ratios whose
# edges are ill-conditioned (8 ulps at 0.085 to 3.4e7 at 0.11111)
BAND_RATIOS = np.concatenate([np.linspace(0.0, 1.0, 201)[1:], np.logspace(-12, -1, 23),
                              (1.0 + np.linspace(-1e-3, 1e-3, 21)) / 9.0,
                              [0.085, 0.1111, 0.11111]])


def test_three_root_band_matches_the_flag():
    # the closed form decides the flag outside its band: every k there reads
    # "pair", also where roots_grid's rounded disc < 0.  Inside, the flag is
    # the rounded disc >= 0, which reads "pair" only within a few ulps of an
    # edge.  The edges' condition number 1/sqrt(q), q = (1 - 9 r)^3 (1 - r),
    # grows as the band closes at r = 1/9 (8 ulps at r = 0.085, 46 at
    # 0.105); the k at and next to each edge are probed, and 241 k within
    # 1e8 ulps of it
    eps = np.finfo(float).eps
    for ratio in BAND_RATIOS:
        medium = nondimensional_medium(float(ratio))
        band = three_root_band(medium)
        k = np.linspace(0.0, 3.0, 4001) * medium.k_c
        if band is not None:
            assert 0.0 < band[0] < band[1]
            r = medium.tau0 / medium.tau1
            cond = 1.0 + ((1.0 - 9.0 * r) ** 3 * (1.0 - r)) ** -0.5
            near_edge = np.concatenate([1.0 + eps * np.arange(-8, 9) * cond,
                                        1.0 + eps * np.linspace(-1e8, 1e8, 241)])
            k = np.concatenate([k, band[0] * near_edge, band[1] * near_edge])
        flagged = ~roots_grid(medium, k).real_c_regime
        inside = (np.zeros_like(flagged) if band is None
                  else (k > band[0]) & (k < band[1]))
        assert not np.any(flagged & ~inside), ratio
        off = k[inside & ~flagged]
        if off.size:
            dist = np.minimum(np.abs(off / band[0] - 1.0), np.abs(off / band[1] - 1.0))
            assert np.all(dist <= 4.0 * eps * cond), ratio


def test_three_root_band_edges_match_mpmath():
    # the roots of 4 r s^2 + b s + 4 in 60 digits, with the unfactored
    # q = b^2 - 64 r: the closed form is within 2 ulps of them
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for ratio in BAND_RATIOS:
        medium = nondimensional_medium(float(ratio))
        band = three_root_band(medium)
        if band is None:
            continue
        r = mpmath.mpf(medium.tau0) / mpmath.mpf(medium.tau1)
        b = 27 * r * r - 18 * r - 1
        sq = mpmath.sqrt(b * b - 64 * r)
        for edge, s in zip(band, ((-b - sq) / (8 * r), (-b + sq) / (8 * r))):
            exact = mpmath.mpf(medium.k_c) / 2 * mpmath.sqrt(s)
            assert abs(edge / exact - 1) <= 2 * np.finfo(float).eps, ratio


def test_three_root_band_exists_only_below_one_ninth():
    for ratio in BAND_RATIOS:
        band = three_root_band(nondimensional_medium(float(ratio)))
        if ratio >= 1.0001 / 9.0:
            assert band is None, ratio
        elif ratio <= 0.9999 / 9.0:
            assert band is not None, ratio
    nondim_cfg = Path(__file__).resolve().parents[1] / "configs" / "nondim.cfg"
    for medium in (WATER, LOSSLESS, nondimensional_medium(1.0),
                   config_from_mapping(read_config_mapping(nondim_cfg), ".").medium):
        assert three_root_band(medium) is None
    # the measured edges at tau0/tau1 = 0.1: 0.883883-0.894427 k_c
    lo, hi = three_root_band(nondimensional_medium(0.1))
    kc = nondimensional_medium(0.1).k_c
    assert lo / kc == pytest.approx(0.883883, abs=1e-6)
    assert hi / kc == pytest.approx(0.894427, abs=1e-6)


def test_growth_orders_on_grid():
    ks = np.logspace(0, 3, 200) * KC
    grid = roots_grid(WATER, ks)
    a0, a1, a2, _ = amplitudes_grid(WATER, grid)
    assert np.max(grid.lambda0.real) <= 1.0 / WATER.tau0
    assert np.max(grid.mu.real) <= asymptotic_limits(WATER)[1] * (1 + 1e-9)
    ratio = grid.theta.real / ks
    assert WATER.c0 * 0.9 <= ratio.min() and ratio.max() <= WATER.c_inf * 1.01
    assert np.isfinite(np.max(np.abs(a0) * ks**2))
    assert np.isfinite(np.max(np.abs(a1) * ks))


def test_complex_c_regime_reported_not_failed():
    # strongly dissipative ratio: C goes complex in a k band
    m = nondimensional_medium(0.1)
    grid = roots_grid(m, np.linspace(0.0, 5.0, 400))
    assert not np.all(grid.real_c_regime)
    # roots still satisfy the cubic there
    assert np.all(scaled_residuals(m, grid) <= 1e-9)


def test_residual_helper_matches_scale_definition():
    k = float(KC)
    grid = roots_grid(WATER, np.asarray([k]))
    assert scaled_residuals(WATER, grid)[0] <= 1e-9
    # a root off by 1e-6 relative: the ratio is its residual over the
    # largest of the four cubic terms
    lam = grid.lambda0[0] * (1.0 + 1e-6)
    t0, t1, c0 = WATER.tau0, WATER.tau1, WATER.c0
    terms = (-t0 * lam**3, lam**2, -c0**2 * t1 * k**2 * lam, c0**2 * k**2)
    expected = abs(sum(terms)) / max(abs(t) for t in terms)
    off = replace(grid, lambda0=np.asarray([lam]))
    assert scaled_residuals(WATER, off)[0] == pytest.approx(expected, rel=1e-6)


def test_nonfinite_roots_names_the_cause(monkeypatch):
    water = derive_medium(water_params())
    # the exact triple root (C = 0, NaN roots) is not a non-finite root
    triple = Medium(tau1=3.0, tau0=1.0 / 3.0, c0=1.0, c_inf=3.0, kappa1=8.0 / 9.0,
                    rho=1.0, k_c=2.0 / 3.0)
    # 1/tau0 = 1e315 is not a double, while k_c = 2e304 1/m is
    tiny = derive_medium(RawParams(tau1=1e-315, kappa1=0.0, rho=1e3, speed=1e11))
    with np.errstate(all="ignore"):
        ks = [0.0, water.k_c, 1e3 * water.k_c]
        grids = [(water, roots_grid(water, ks)),
                 (triple, roots_grid(triple, [3.0 ** -0.5])),
                 (water, roots_grid(water, [water.k_c, 1e52 * water.k_c])),
                 (tiny, roots_grid(tiny, [0.0, tiny.k_c]))]
    # the cause is a closed form: no root is solved again
    monkeypatch.setattr(spectral, "roots_grid", None)
    assert nonfinite_roots(*grids[0]) is None
    assert nonfinite_roots(*grids[1]) is None
    # the (r, s) discriminant overflows beyond about 1e51 k_c: the k range
    # is the cause
    assert nonfinite_roots(*grids[2]).endswith(
        "they are finite at k_c = 1.94365e+06 1/m: lower the largest k")
    assert not np.isfinite(grids[3][1].lambda0[0])
    assert nonfinite_roots(*grids[3]) == (
        "1/tau0 is not a finite double at tau0 = 1e-315 s: the medium's tau "
        "scale leaves double range")


@pytest.mark.parametrize("m", [-200, -120, 0, 60, 150])
def test_roots_and_products_are_scale_free(m):
    # water with tau1 scaled by 10^m has the same tau0/tau1 and c0 tau1 k_c:
    # its roots times tau1 and its products p_j = A_j lambda_j are water's.
    # At m = -120 the dimensional products overflowed (lambda0^2), at
    # m = 150 the dispersion coefficient 4 tau0 tau1^3 did, and at m = -200
    # s = (c0 tau1 k)^2 is subnormal at k = 1e-3 k_c
    water = derive_medium(water_params())
    scaled = derive_medium(replace(water_params(), tau1=water.tau1 * 10.0**m))
    x = np.concatenate([[0.0], np.logspace(-3, 3, 61)])

    def scale_free(medium):
        grid = roots_grid(medium, x * medium.k_c)
        roots = [grid.lambda0 * medium.tau1, grid.lambda1 * medium.tau1]
        products = kernels.mode_products(medium, x * medium.k_c)
        return roots + [products.p0, products.p1]

    for got, want in zip(scale_free(scaled), scale_free(water)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    # and agree at k_c with the independent 3x3 solve of water's moment
    # system, which is dimensional and overflows at m = -200
    roots = cardano_roots(water, water.k_c)
    p1 = solve_vandermonde(roots, water).a1_coef * roots.lambda1
    assert complex(kernels.mode_products(scaled, scaled.k_c).p1) == pytest.approx(
        p1, rel=1e-10)


def test_roots_and_products_hold_at_the_smallest_tau_ratio():
    # tau0/tau1 = 2^-53, the smallest a Medium admits: l0 = tau1/tau0 at
    # k = 0 is 9e15, and no root, product or residual term overflows
    m = derive_medium(RawParams(tau1=1.0, kappa1=1.0 - 2.0**-53, rho=1.0, speed=1.0,
                                speed_kind="c_zero"))
    assert m.tau0 / m.tau1 == 2.0**-53
    grid = roots_grid(m, np.concatenate([[0.0], np.logspace(-6, 3, 200)]) * m.k_c)
    assert grid.ell0[0] == 2.0**53
    for a in (grid.lambda0, grid.mu, grid.theta, *spectral.pair_products(m, grid)):
        assert np.all(np.isfinite(a))
    assert np.max(scaled_residuals(m, grid)) <= 1e-9
    a0, a1, a2, degen = amplitudes_grid(m, grid)
    keep = ~degen
    lams = [lam[keep] for lam in (grid.lambda0, grid.lambda1, grid.lambda2)]
    assert np.max(moment_residuals(m, lams, (a0[keep], a1[keep], a2[keep]))) <= 1e-9


def test_moment_residuals_measure_a_perturbed_weight():
    grid = roots_grid(WATER, np.asarray([KC]))
    a0, a1, a2, _ = amplitudes_grid(WATER, grid)
    lams = (grid.lambda0, grid.lambda1, grid.lambda2)
    assert moment_residuals(WATER, lams, (a0, a1, a2))[0] <= 1e-12
    # A0 off by 1e-6 relative: the worst ratio is that of the dimensional
    # system, evaluated at l = lambda tau1
    off = (a0 * (1.0 + 1e-6), a1, a2)
    want = 0.0
    for m, target in enumerate(moment_targets(WATER)):
        terms = [a * lam**m for a, lam in zip(off, lams)]
        want = max(want, float(abs(sum(terms) - target)[0]
                               / (max(abs(t)[0] for t in terms) + abs(target))))
    assert moment_residuals(WATER, lams, off)[0] == pytest.approx(want, rel=1e-6)

