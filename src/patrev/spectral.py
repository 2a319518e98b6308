"""Roots and amplitude coefficients of the dispersion cubic.

Per wavenumber k the temporal behaviour of the pressure modes is governed by
the cubic

    -tau0 lambda^3 + lambda^2 - c0^2 tau1 k^2 lambda + c0^2 k^2 = 0.

``roots_grid`` is its one solver, in real arithmetic after Kahan ("To solve a
real cubic equation", 1986): one accurate real root, then deflation.  With
Delta0 = 1 - 3 c0^2 tau0 tau1 k^2, Delta1 = 2 + 9 c0^2 tau0 (3 tau0 - tau1) k^2
and disc = Delta1^2 - 4 Delta0^3, lambda0 = (1 + C + Delta0/C) / (3 tau0) is
Cardano's real root, C = cbrt((Delta1 + sign(Delta1) sqrt(disc)) / 2), where
disc >= 0; where disc < 0 (three real roots) it is the u_0 root of the
principal C = sqrt(Delta0) e^{i phi/3}, phi = atan2(sqrt(-disc), Delta1).  One
Newton step polishes lambda0, and the pair lambda_{1,2} = mu +- i theta
follows by Vieta:

    lambda1 lambda2 = mu^2 + theta^2 = c0^2 k^2 / (tau0 lambda0),
    2 mu = (tau1/tau0 - 1) c0^2 k^2 lambda0 / (lambda0^2 + c0^2 k^2).

Every root is accurate to round-off down to k = 0.  Where disc >= 0
(``real_c_regime``: C is real) theta >= 0 and the pair is conjugate; where
disc < 0 theta is purely imaginary and lambda_{1,2} = mu -+ |theta|.  The
labels follow from lambda0 and the sign of theta, never from sorting numeric
roots, so they cannot swap along a k grid.

The mode weights A_j solve the moment system sum_j A_j lambda_j^m = a_m,
m = 0, 1, 2, with a_0 = 0, a_1 = -tau1/tau0, a_2 = (1 - tau1/tau0)/tau0.
``pair_products`` is the one home of the products p_j = A_j lambda_j: it
takes them from the moment relations sum_j p_j lambda_j^{m-1} = a_m on the
deflated roots, accurate to round-off down to k = 0 and on the
three-real-root band.  The weights follow as A_j = p_j / lambda_j
(``amplitudes``), defined wherever the roots are pairwise distinct, that is
at every k > 0 off the triple root; a direct 3x3 linear solve of the moment
system (``solve_vandermonde``) is the independent cross-check.  For a
conjugate root pair and real moment data, A0 is real and A2 = conj(A1).

All functions are pure; grid evaluation is vectorized and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .medium import Medium

__all__ = [
    "Amplitudes",
    "RootsGrid",
    "DegenerateRootsError",
    "cardano_roots",
    "roots_grid",
    "nonfinite_roots",
    "three_root_band",
    "moment_targets",
    "pair_products",
    "amplitudes",
    "amplitudes_grid",
    "solve_vandermonde",
    "asymptotic_limits",
    "scaled_residuals",
    "degenerate_mask",
]

class DegenerateRootsError(ValueError):
    """Two roots coincide (k = 0) or are undefined (the triple root): the
    moment system has no unique solution there."""


@dataclass(frozen=True)
class Amplitudes:
    """Mode weights A0, A1, A2 solving the moment system at one wavenumber."""

    a0_coef: complex
    a1_coef: complex
    a2_coef: complex

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.a0_coef, self.a1_coef, self.a2_coef)


@dataclass(frozen=True)
class RootsGrid:
    """Roots of the dispersion cubic over a k grid (fft-layout agnostic).

    lambda0 and mu are real, and lambda_{1,2} = mu +- i theta.  Where
    ``real_c_regime`` (disc >= 0) theta >= 0 and the pair is conjugate;
    elsewhere theta (then a complex array) is purely imaginary, all three
    roots are real, and big_c is the principal complex C.  ck2 = c0^2 k^2 and
    pair = lambda1 lambda2 = ck2 / (tau0 lambda0) feed ``mode_products``.  A
    0-d k gives the roots at one wavenumber (``cardano_roots``).
    """

    k: np.ndarray
    lambda0: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    delta0: np.ndarray
    delta1: np.ndarray
    big_c: np.ndarray
    real_c_regime: np.ndarray  # bool
    ck2: np.ndarray
    pair: np.ndarray

    @property
    def lambda1(self) -> np.ndarray:
        return self.mu + 1j * self.theta

    @property
    def lambda2(self) -> np.ndarray:
        return self.mu - 1j * self.theta


def roots_grid(medium: Medium, k) -> RootsGrid:
    """Roots of the dispersion cubic over a k grid (k >= 0), in real
    arithmetic (see the module docstring).

    At the exact triple root Delta0 = Delta1 = 0 (tau0/tau1 = 1/9 at one k)
    C = 0 and the roots are NaN.  Without dissipation (tau0 = tau1) the
    cubic factors as (1 - tau1 l)(l^2 + c0^2 k^2): d = 0 below gives mu = 0
    exactly, and lambda0 = 1/tau1, theta = c0 k to round-off.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("wavenumbers must be non-negative")
    t0, t1, c0 = medium.tau0, medium.tau1, medium.c0
    ck2 = c0 * c0 * k * k
    d0 = 1.0 - 3.0 * t0 * t1 * ck2
    d1 = 2.0 + 9.0 * t0 * (3.0 * t0 - t1) * ck2
    # disc = d1^2 - 4 d0^3 expanded in ck2: both terms tend to 4 as k -> 0,
    # and their difference 108 t0^2 ck2 would drown in their rounding
    try:
        q1 = 3.0 * (3.0 * t0 - t1) ** 2 - 4.0 * t1 * t1
        q2 = 4.0 * t0 * t1**3
    except OverflowError:       # tau beyond double range: the roots are not finite
        q1 = q2 = math.inf
    disc = 27.0 * t0 * t0 * ck2 * (4.0 + ck2 * (q1 + q2 * ck2))
    regime = disc >= 0
    # Cardano's real root with the real cube root; the sign of d1 keeps the
    # sum free of cancellation, so C = 0 only at the triple root.  Entries
    # with disc < 0 are NaN here and replaced below.
    with np.errstate(invalid="ignore", divide="ignore"):
        big_c = np.cbrt(0.5 * (d1 + np.copysign(np.sqrt(disc), d1)))
        lam0 = (1.0 + big_c + d0 / big_c) / (3.0 * t0)
    any_band = not np.all(regime)
    if any_band:
        # three real roots: the u_0 root of the principal C, for which
        # |C|^2 = d0 and C + d0/C = 2 Re C
        with np.errstate(invalid="ignore"):
            c_band = np.sqrt(d0) * np.exp(1j / 3.0 * np.arctan2(np.sqrt(-disc), d1))
        big_c = np.where(regime, big_c, c_band)
        lam0 = np.where(regime, lam0, (1.0 + 2.0 * c_band.real) / (3.0 * t0))
    del disc
    # one Newton step on -t0 l^3 + l^2 - t1 ck2 l + ck2
    f = ((1.0 - t0 * lam0) * lam0 - t1 * ck2) * lam0 + ck2
    df = (2.0 - 3.0 * t0 * lam0) * lam0 - t1 * ck2
    lam0 = lam0 - f / df
    del f, df
    # deflation by Vieta: lambda1 lambda2 = ck2 / (t0 lambda0), and the root
    # sum with the pair sum of products give mu in a form free of
    # cancellation (1/t0 - lambda0 cancels at small k, the pair-sum form at
    # large k); d = tau1/tau0 - 1 is formed from t1 - t0, which is exact
    # for t0 >= t1/2
    d = (t1 - t0) / t0
    mu = 0.5 * d * ck2 * lam0 / (lam0 * lam0 + ck2)
    pair = ck2 / (t0 * lam0)
    theta = np.sqrt(np.abs(pair - mu * mu))
    if any_band:
        theta = np.where(regime, theta, 1j * theta)     # theta^2 < 0 there
    return RootsGrid(k, lam0, mu, theta, d0, d1, big_c, regime, ck2, pair)


def nonfinite_roots(medium: Medium, grid: RootsGrid) -> str | None:
    """None if every root of ``grid`` is a finite double (the triple root's
    NaN aside, C = 0), else the cause: the k range (finite at k_c, lost from
    about 1e30 k_c) or the tau scale.  theta alone is tested: it is formed
    from mu and the pair product, both from lambda0, and is not finite where
    any root is not."""
    finite = np.isfinite(grid.theta)
    if finite.all() or np.all(finite | (grid.big_c == 0)):
        return None
    with np.errstate(all="ignore"):
        at_kc = roots_grid(medium, medium.k_c)
    if np.isfinite(at_kc.theta):
        return f"they are finite at k_c = {medium.k_c:.6g} 1/m: lower the largest k"
    return (f"they are not finite at k_c = {medium.k_c:.6g} 1/m either: the medium's "
            f"tau scale (tau1 = {medium.tau1:.6g} s) leaves double range")


def three_root_band(medium: Medium) -> tuple[float, float] | None:
    """The open |k| band (k_lo, k_hi) where the cubic has three real roots
    (``roots_grid``'s disc < 0), or None where it has none.

    It depends on r = tau0/tau1 alone.  With s = (c0 tau1 k)^2 = 4 (k/k_c)^2,
    disc < 0 exactly where 4 r s^2 + b s + 4 < 0, b = 27 r^2 - 18 r - 1.  Its
    discriminant q = b^2 - 64 r = (1 - 9 r)^3 (1 - r) is positive only for
    r < 1/9, where b < 0: water (r = 0.47) has no band.  The roots
    s_lo = 8 / (-b + sqrt(q)) and s_hi = (-b + sqrt(q)) / (8 r) are free of
    cancellation and overflow nowhere (k_hi may be inf).  The edges are
    within an ulp; the flag's own round-off is larger, by 1/sqrt(q).
    """
    r = float(medium.tau0) / float(medium.tau1)
    if not 9.0 * r < 1.0:
        return None
    root = -(27.0 * r - 18.0) * r + 1.0 + math.sqrt((1.0 - 9.0 * r) ** 3 * (1.0 - r))
    half_kc = 0.5 * float(medium.k_c)
    return half_kc * math.sqrt(8.0 / root), half_kc * math.sqrt(root / (8.0 * r))


def cardano_roots(medium: Medium, k: float) -> RootsGrid:
    """``roots_grid`` at one wavenumber, as a 0-d RootsGrid.

    Where the cubic has three real roots ``real_c_regime`` is False
    (downstream imaging refuses such media; the root data itself is valid).
    """
    return roots_grid(medium, float(k))


def moment_targets(medium: Medium) -> tuple[float, float, float]:
    """Right-hand side (a0, a1, a2) of the moment system."""
    r = medium.tau_ratio
    return 0.0, -r, (1.0 - r) / medium.tau0


def degenerate_mask(lambda0, lambda1, lambda2) -> np.ndarray:
    """True where two roots coincide exactly or a root is NaN: k = 0, where
    lambda1 = lambda2 = 0, and the triple root."""
    return ((lambda0 == lambda1) | (lambda0 == lambda2) | (lambda1 == lambda2)
            | np.isnan(lambda0 + lambda1 + lambda2))


def pair_products(medium: Medium, grid: RootsGrid):
    """Mode products (p0, re_p1, im_p1), p_j = A_j lambda_j, over a roots grid.

    From the moment relations sum_j p_j lambda_j^{m-1} = a_m, m = 0, 1, 2,
    with p1,2 = re_p1 +- i im_p1; a2 - 2 a1 mu = p0_zero lambda0^3 / g by
    the cubic.  Each ratio below is exactly 1 at k = 0, so p0 = p0_zero =
    1 - tau1/tau0 and re_p1 = -1/2 there (p0 = +0 without dissipation), and
    im_p1 = 0 where theta = 0.  Where theta is imaginary (three real roots)
    im_p1 is imaginary too, so p1 and p2 are real.
    """
    lam0, mu, theta, ck2, pair = grid.lambda0, grid.mu, grid.theta, grid.ck2, grid.pair
    p0_zero = (medium.tau0 - medium.tau1) / medium.tau0
    lam0_sq = lam0 * lam0
    g = lam0_sq + ck2
    p0 = p0_zero * (lam0_sq / g) * (lam0_sq / (lam0 * (lam0 - 2.0 * mu) + pair))
    re_p1 = -0.5 + 0.5 * (p0_zero - p0)
    im_p1 = np.divide(-mu * re_p1 - p0 * pair / (2.0 * lam0), theta,
                      out=np.zeros_like(theta), where=theta != 0)
    return p0, re_p1, im_p1


def amplitudes_grid(medium: Medium, grid: RootsGrid):
    """Mode weights A_j = p_j / lambda_j over a roots grid.

    Returns ``(a0, a1, a2, degenerate)``; where ``degenerate`` (k = 0 or the
    triple root) A1 and A2 are not finite, while A0 is finite at k = 0.
    Where the pair is conjugate (``real_c_regime``) A0 is real and A2 is
    conj(A1); on the three-real-root band all three are real.
    """
    p0, re_p1, im_p1 = pair_products(medium, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        a0 = p0 / grid.lambda0 + 0j
        a1 = (re_p1 + 1j * im_p1) / grid.lambda1
        a2 = (re_p1 - 1j * im_p1) / grid.lambda2
    a2 = np.where(grid.real_c_regime, np.conj(a1), a2)
    return a0, a1, a2, degenerate_mask(grid.lambda0, grid.lambda1, grid.lambda2)


def _check_not_degenerate(roots: RootsGrid, what: str):
    if bool(degenerate_mask(roots.lambda0, roots.lambda1, roots.lambda2)):
        raise DegenerateRootsError(
            f"{what} at k = {roots.k:.6g}: two roots coincide (k = 0) or are "
            "NaN (the triple root)"
        )


def amplitudes(roots: RootsGrid, medium: Medium) -> Amplitudes:
    """Mode weights A_j = p_j / lambda_j at one wavenumber.

    Requires pairwise-distinct roots (k > 0); at k = 0 the double root
    lambda1 = lambda2 = 0 leaves A1, A2 undefined and a DegenerateRootsError
    is raised.
    """
    _check_not_degenerate(roots, "amplitudes undefined")
    a0, a1, a2, _ = amplitudes_grid(medium, roots)
    return Amplitudes(complex(a0), complex(a1), complex(a2))


def solve_vandermonde(roots: RootsGrid, medium: Medium) -> Amplitudes:
    """Amplitudes by a direct 3x3 linear solve of the moment system.

    Independent route kept as a cross-check of ``amplitudes``; agreement is
    about 1e-8 relative componentwise at every k > 0, limited by this solve
    (its error in A1 grows like 1e-15 k_c / k as the pair closes in on 0,
    up to 2e-8 between 1e-8 and 1e-7 k_c; the small A0 cancels at k >> k_c).
    """
    _check_not_degenerate(roots, "moment system singular")
    l0, l1, l2 = roots.lambda0, roots.lambda1, roots.lambda2
    mat = np.array(
        [[1.0, 1.0, 1.0], [l0, l1, l2], [l0 * l0, l1 * l1, l2 * l2]],
        dtype=complex,
    )
    rhs = np.asarray(moment_targets(medium), dtype=complex)
    # row equilibration: |lambda| spans ~12 decades over the supported k
    # range and the unscaled system loses most of its accuracy to that
    scale = np.max(np.abs(mat), axis=1)
    sol = np.linalg.solve(mat / scale[:, None], rhs / scale)
    return Amplitudes(complex(sol[0]), complex(sol[1]), complex(sol[2]))


def asymptotic_limits(medium: Medium) -> tuple[float, float]:
    """(lim lambda0, lim mu) for k -> infinity: (1/tau1, (1/tau0 - 1/tau1)/2)."""
    return 1.0 / medium.tau1, 0.5 * (1.0 / medium.tau0 - 1.0 / medium.tau1)


def scaled_residuals(medium: Medium, grid: RootsGrid) -> np.ndarray:
    """Worst residual/scale ratio over the three roots, per grid point.

    The contract is residual <= 1e-9 * scale with
    scale = max(|tau0 lam^3|, |lam^2|, |c0^2 tau1 k^2 lam|, c0^2 k^2).
    """
    t0, t1, c0 = medium.tau0, medium.tau1, medium.c0
    k2 = grid.k * grid.k
    worst = np.zeros_like(grid.k)
    for lam in (grid.lambda0, grid.lambda1, grid.lambda2):
        terms = (-t0 * lam**3, lam**2, -c0 * c0 * t1 * k2 * lam,
                 (c0 * c0 * k2).astype(complex))
        residual = np.abs(terms[0] + terms[1] + terms[2] + terms[3])
        scale = np.maximum.reduce([np.abs(t) for t in terms])
        # the zero root at k = 0 makes every term vanish identically; a NaN
        # root gives a NaN ratio
        ratio = np.divide(residual, scale, out=np.zeros_like(residual),
                          where=scale != 0)
        worst = np.maximum(worst, ratio)
    return worst
