"""Roots and amplitude coefficients of the dispersion cubic.

Per wavenumber k the temporal behaviour of the pressure modes is governed by
the cubic -tau0 lambda^3 + lambda^2 - c0^2 tau1 k^2 lambda + c0^2 k^2 = 0.
With l = lambda tau1, r = tau0/tau1 and s = (c0 tau1 k)^2 = 4 (k/k_c)^2 it is
-r l^3 + l^2 - s l + s = 0, free of the scale 1/tau1, which enters at the
edge.  ``roots_grid`` is its one solver, in real arithmetic after Kahan ("To
solve a real cubic equation", 1986): with Delta0 = 1 - 3 r s,
Delta1 = 2 + 9 r (3 r - 1) s and disc = Delta1^2 - 4 Delta0^3 =
27 r^2 s (4 r s^2 + b s + 4), l0 = (1 + C + Delta0/C) / (3 r) is Cardano's
real root, C = cbrt((Delta1 + sign(Delta1) sqrt(disc)) / 2), where
disc >= 0; where disc < 0 (three real roots) it is the u_0 root of the
principal C = sqrt(Delta0) e^{i phi/3}, phi = atan2(sqrt(-disc), Delta1).
Where a band exists the closed form ``three_root_band`` decides the regime:
outside it a rounded disc < 0 is round-off and the pair is taken.  Inside
it, and for r >= 1/9, the rounded disc decides.  One Newton step polishes
l0, and the pair (mu +- i theta) tau1 follows by Vieta: its product is
s / (r l0), and 2 mu tau1 = (1/r - 1) s l0 / (l0^2 + s).  mu tau1 / s and
g = theta / (c0 k) stay finite as s -> 0 (s underflows at tau1 ~ 1e-200 s
and water's k), so mu = (mu tau1 / s) (c0 k) (c0 tau1 k) and theta = c0 k g
need no division by s.  Every root is accurate to round-off down to k = 0.
In the pair regime (``real_c_regime``) theta >= 0 and the pair is
conjugate; else theta is purely imaginary and lambda_{1,2} = mu -+ |theta|.
The labels follow from lambda0 and the sign of theta, never from sorting
numeric roots, so they cannot swap along a k grid.

The mode weights A_j solve the moment system sum_j A_j lambda_j^m = a_m,
m = 0, 1, 2, with a_0 = 0, a_1 = -tau1/tau0, a_2 = (1 - tau1/tau0)/tau0.
``pair_products`` is the one home of the products p_j = A_j lambda_j,
functions of (r, s) alone, taken from the moment relations on the deflated
roots to round-off down to k = 0 and on the three-real-root band.  The
weights follow as A_j = p_j / lambda_j (``amplitudes``) wherever the roots
are pairwise distinct (every k > 0 off the triple root); a direct 3x3 solve
of the moment system (``solve_vandermonde``) is the independent cross-check.
For a conjugate pair A0 is real and A2 = conj(A1).  All functions are pure.
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
    "moment_residuals",
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
    ``real_c_regime`` (see ``roots_grid``) theta >= 0, the pair conjugate;
    elsewhere theta (then a complex array) is purely imaginary, all three
    roots are real, and big_c is the principal complex C.  ``pair_products``
    reads the scale-free roots w = c0 tau1 k, ell0 = lambda0 tau1,
    mu_s = mu tau1 / s and g = theta / (c0 k).  A 0-d k is one wavenumber.
    """

    k: np.ndarray
    lambda0: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    delta0: np.ndarray
    delta1: np.ndarray
    big_c: np.ndarray
    real_c_regime: np.ndarray  # bool
    w: np.ndarray
    ell0: np.ndarray
    mu_s: np.ndarray
    g: np.ndarray

    @property
    def lambda1(self) -> np.ndarray:
        return self.mu + 1j * self.theta

    @property
    def lambda2(self) -> np.ndarray:
        return self.mu - 1j * self.theta


def _disc_b(r: float) -> float:
    """b of disc = 27 r^2 s (4 r s^2 + b s + 4), b = 27 r^2 - 18 r - 1."""
    return (27.0 * r - 18.0) * r - 1.0


def roots_grid(medium: Medium, k) -> RootsGrid:
    """Roots of the dispersion cubic over a k grid (k >= 0); see the module
    docstring.  ``Medium`` admits no r below 2^-53, for either speed kind,
    so l0 <= 1/r < 1e16.  No k off ``three_root_band`` is flagged.
    From about 1e20 k_c the roots may be inexact (C + Delta0/C cancels beyond
    one Newton step) and from about 1e30 k_c not finite.  At the
    (near-)triple root (r ~ 1/9 at one k) C = 0 and the roots are NaN.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("wavenumbers must be non-negative")
    t0, t1 = medium.tau0, medium.tau1
    r = t0 / t1
    w = (medium.c0 * t1) * k
    s = w * w
    d0 = 1.0 - 3.0 * r * s
    d1 = 2.0 + 9.0 * r * (3.0 * r - 1.0) * s
    # disc = d1^2 - 4 d0^3 expanded in s: both terms tend to 4 as k -> 0,
    # and their difference 108 r^2 s would drown in their rounding
    disc = 27.0 * r * r * s * (4.0 + s * (_disc_b(r) + 4.0 * r * s))
    if (band := three_root_band(medium)) is not None:
        # outside the closed-form band a rounded disc < 0 is round-off
        disc = np.where((k > band[0]) & (k < band[1]), disc, np.maximum(disc, 0.0))
    regime = disc >= 0
    # Cardano's real root with the real cube root; the sign of d1 keeps the
    # sum free of cancellation, so C = 0 only at the triple root.  Entries
    # with disc < 0 are NaN here and replaced below.
    with np.errstate(invalid="ignore", divide="ignore"):
        big_c = np.cbrt(0.5 * (d1 + np.copysign(np.sqrt(disc), d1)))
        ell0 = (1.0 + big_c + d0 / big_c) / (3.0 * r)
    any_band = not np.all(regime)
    if any_band:
        # three real roots need d0 > 0 (else the (near-)triple root, C = 0): the
        # u_0 root of the principal C, for which |C|^2 = d0 and C + d0/C = 2 Re C
        with np.errstate(invalid="ignore"):
            c_band = np.sqrt(d0) * np.exp(1j / 3.0 * np.arctan2(np.sqrt(-disc), d1))
        big_c = np.select([regime, d0 > 0], [big_c, c_band], 0.0)
        ell0 = np.select([regime, d0 > 0], [ell0, (1.0 + 2.0 * c_band.real) / (3.0 * r)], np.nan)
    del disc
    # one Newton step on -r l^3 + l^2 - s l + s; at the triple root l0 is
    # not finite (C = 0) and the step makes it NaN
    f = ((1.0 - r * ell0) * ell0 - s) * ell0 + s
    df = (2.0 - 3.0 * r * ell0) * ell0 - s
    with np.errstate(invalid="ignore"):
        ell0 = ell0 - f / df
    del f, df
    # deflation by Vieta (module docstring), in a form free of cancellation
    # (1/r - l0 cancels at small k, the pair-sum form at large k); 1/r - 1
    # is formed from t1 - t0, which is exact for t0 >= t1/2
    mu_s = 0.5 * ((t1 - t0) / t0) * ell0 / (ell0 * ell0 + s)
    g = np.sqrt(np.abs(1.0 / (r * ell0) - (mu_s * w) ** 2))
    if any_band:
        g = np.where(regime, g, 1j * g)     # theta^2 < 0 there
    ck = medium.c0 * k
    return RootsGrid(k, ell0 / t1, mu_s * ck * w, ck * g, d0, d1, big_c, regime,
                     w, ell0, mu_s, g)


def nonfinite_roots(medium: Medium, grid: RootsGrid) -> str | None:
    """None if every root of ``grid`` is a finite double (the triple root's
    NaN aside, C = 0), else the cause: 1/tau0, the root at k = 0 and the
    largest rate, or else the k range."""
    finite = np.isfinite(grid.lambda0) & np.isfinite(grid.mu) & np.isfinite(grid.theta)
    if np.all(finite | (grid.big_c == 0)):
        return None
    if math.isfinite(1.0 / medium.tau0):
        return f"they are finite at k_c = {medium.k_c:.6g} 1/m: lower the largest k"
    return (f"1/tau0 is not a finite double at tau0 = {medium.tau0:.6g} s: the "
            "medium's tau scale leaves double range")


def three_root_band(medium: Medium) -> tuple[float, float] | None:
    """The open |k| band (k_lo, k_hi) where the cubic has three real roots
    (the solver's disc < 0: 4 r s^2 + b s + 4 < 0, s = 4 (k/k_c)^2), or None
    where it has none.  The quadratic's discriminant q = b^2 - 64 r =
    (1 - 9 r)^3 (1 - r) is positive only for r < 1/9, where b < 0: water
    (r = 0.47) has no band.  Its roots s_lo = 8 / (-b + sqrt(q)) and
    s_hi = (-b + sqrt(q)) / (8 r) are free of cancellation and overflow
    nowhere (k_hi may be inf).  The edges are within an ulp, the rounded
    disc 1/sqrt(q) times less close, so ``roots_grid`` flags no k off them.
    """
    r = float(medium.tau0) / float(medium.tau1)
    if not 9.0 * r < 1.0:
        return None
    root = -_disc_b(r) + math.sqrt((1.0 - 9.0 * r) ** 3 * (1.0 - r))
    half_kc = 0.5 * float(medium.k_c)
    return half_kc * math.sqrt(8.0 / root), half_kc * math.sqrt(root / (8.0 * r))


def cardano_roots(medium: Medium, k: float) -> RootsGrid:
    """``roots_grid`` at one wavenumber, as a 0-d RootsGrid; where its
    ``real_c_regime`` is False the roots are valid and the imaging path refuses."""
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
    """Mode products (p0, re_p1, im_p1), p_j = A_j lambda_j, over a roots
    grid, from its scale-free roots (w, l0, mu tau1 / s, g).

    From the moment relations sum_j p_j l_j^{m-1} = a_m tau1^{m-1}, m = 0, 1,
    2, with p1,2 = re_p1 +- i im_p1; (a2 - 2 a1 mu) tau1 = p0_zero l0^3 /
    (l0^2 + s) by the cubic.  Each ratio below is exactly 1 at k = 0, so
    p0 = p0_zero = 1 - tau1/tau0 and re_p1 = -1/2 there (p0 = +0 without
    dissipation), and im_p1, a multiple of w / g, is 0.  Where g is
    imaginary (three real roots) im_p1 is too, so p1 and p2 are real.
    """
    r = medium.tau0 / medium.tau1
    p0_zero = (medium.tau0 - medium.tau1) / medium.tau0
    w, l0, mu_s, g = grid.w, grid.ell0, grid.mu_s, grid.g
    s = w * w
    l0_sq = l0 * l0
    p0 = p0_zero * (l0_sq / (l0_sq + s)) * (l0_sq / (l0 * (l0 - 2.0 * mu_s * s) + s / (r * l0)))
    re_p1 = -0.5 + 0.5 * (p0_zero - p0)
    im_p1 = np.divide(w * (-mu_s * re_p1 - p0 / (2.0 * r * l0_sq)), g,
                      out=np.zeros_like(g), where=g != 0)
    return p0, re_p1, im_p1


def amplitudes_grid(medium: Medium, grid: RootsGrid):
    """Mode weights A_j = p_j / lambda_j over a roots grid.

    Returns ``(a0, a1, a2, degenerate)``; where ``degenerate`` (k = 0 or the
    triple root) A1 and A2 are not finite, while A0 is finite at k = 0, and
    a weight is inf where its |lambda_j| is subnormal.  Where the pair is
    conjugate (``real_c_regime``) A0 is real and A2 is conj(A1), copied: the
    division alone gives the real part -0 where that of A1 cancels to +0
    (water from ~2.5e7 k_c); on the three-real-root band all three are real.
    """
    p0, re_p1, im_p1 = pair_products(medium, grid)
    with np.errstate(all="ignore"):
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
    """Mode weights A_j = p_j / lambda_j at one wavenumber k > 0: at k = 0 the
    double root lambda1 = lambda2 = 0 leaves A1, A2 undefined, and a
    DegenerateRootsError is raised."""
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


def _worst_ratio(sums) -> np.ndarray:
    """Worst |sum_j t_j - target| / (max_j |t_j| + |target|) over ``sums``,
    pairs (terms, target): 0 where every term and the target vanish (the
    zero root at k = 0), NaN where a term is NaN."""
    worst = 0.0
    for terms, target in sums:
        scale = np.maximum.reduce([np.abs(t) for t in terms]) + abs(target)
        residual = np.abs(sum(terms) - target)
        worst = np.maximum(worst, np.divide(residual, scale, out=np.zeros_like(residual),
                                            where=scale != 0))
    return worst


def scaled_residuals(medium: Medium, grid: RootsGrid) -> np.ndarray:
    """Worst residual/scale ratio over the three roots, per grid point.

    The contract is residual <= 1e-9 * scale with
    scale = max(|tau0 lam^3|, |lam^2|, |c0^2 tau1 k^2 lam|, c0^2 k^2).  The
    ratio is that of the (r, s) cubic at l = lam tau1, whose terms are these
    times tau1^2, so it is taken there, where no term overflows.
    """
    r = medium.tau0 / medium.tau1
    s = ((medium.c0 * medium.tau1) * grid.k) ** 2 + 0j
    ells = [lam * medium.tau1 for lam in (grid.lambda0, grid.lambda1, grid.lambda2)]
    return _worst_ratio(((-r * ell**3, ell**2, -s * ell, s), 0.0) for ell in ells)


def moment_residuals(medium: Medium, lambdas, weights) -> np.ndarray:
    """Worst residual/scale ratio of the moment system per k, for roots
    ``lambdas`` and weights ``weights``; taken, like ``scaled_residuals``, at
    l = lambda tau1: sum_j (A_j / tau1) l_j^m = a_m tau1^(m-1), m = 0, 1, 2,
    has the same ratios and no term beyond double range."""
    t1 = medium.tau1
    a0, a1, a2 = moment_targets(medium)
    ells = [lam * t1 for lam in lambdas]
    return _worst_ratio(([a / t1 * ell**m for a, ell in zip(weights, ells)], target)
                        for m, target in enumerate((a0 / t1, a1, a2 * t1)))
