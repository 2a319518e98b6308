"""Roots and amplitude coefficients of the dispersion cubic.

Per wavenumber k the temporal behaviour of the pressure modes is governed by
the cubic

    -tau0 lambda^3 + lambda^2 - c0^2 tau1 k^2 lambda + c0^2 k^2 = 0,

solved here in closed form (Cardano, principal complex branches) with the
deterministic labelling

    lambda_j = (1 + u_j C + Delta0/(u_j C)) / (3 tau0),   u_0 = 1,
    u_1 = (-1 + i sqrt3)/2,  u_2 = conj(u_1),
    Delta0 = 1 - 3 c0^2 tau0 tau1 k^2,
    Delta1 = 2 + 9 c0^2 tau0 (3 tau0 - tau1) k^2,
    C = cbrt((Delta1 + sqrt(Delta1^2 - 4 Delta0^3)) / 2).

lambda0 is always the u_0 root, and the conjugate-pair decomposition
lambda_{1,2} = mu +- i theta is derived from (C, Delta0) directly, never by
sorting numeric roots, so branches cannot swap along a k grid.  When
C is real (water-like media) the arithmetic runs over the projected real C and
lambda0, mu, theta come out with exactly zero imaginary part.

The mode weights A_j solve the moment system sum_j A_j lambda_j^m = a_m,
m = 0, 1, 2, with a_0 = 0, a_1 = -tau1/tau0, a_2 = (1 - tau1/tau0)/tau0,
either in closed form (``amplitudes``) or by a direct 3x3 linear solve
(``solve_vandermonde``), which serve as mutual cross-checks.  For a conjugate
root pair and real moment data, A0 is real and A2 = conj(A1); the pair is
constructed that way in the real-C regime.

All functions are pure; grid evaluation is vectorized and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .medium import Medium

__all__ = [
    "REAL_C_IM_TOL",
    "DEGENERATE_REL_TOL",
    "Amplitudes",
    "RootsGrid",
    "DegenerateRootsError",
    "cardano_roots",
    "roots_grid",
    "moment_targets",
    "amplitudes",
    "amplitudes_grid",
    "solve_vandermonde",
    "asymptotic_limits",
    "scaled_residuals",
    "degenerate_mask",
]

#: C counts as real when |Im C| <= REAL_C_IM_TOL * |C|
REAL_C_IM_TOL = 1e-10

#: roots count as degenerate when min pairwise |l_i - l_j| < tol * max |l_j|;
#: below this the closed-form A_j lose ~8 digits, so ``amplitudes`` and
#: ``solve_vandermonde`` refuse such roots and ``amplitudes_grid`` flags them.
DEGENERATE_REL_TOL = 1e-8


class DegenerateRootsError(ValueError):
    """Roots too close for the closed-form/linear amplitude solve."""


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
    """Vectorized root data over a k grid (complex arrays, fft-layout agnostic).

    lambda1 = mu + i theta and lambda2 = mu - i theta by construction; in the
    real-C regime mu and theta carry exactly zero imaginary part, making the
    pair exact conjugates.  A 0-d k gives the roots at one wavenumber
    (``cardano_roots``).
    """

    k: np.ndarray
    lambda0: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    delta0: np.ndarray
    delta1: np.ndarray
    big_c: np.ndarray
    real_c_regime: np.ndarray  # bool

    @property
    def lambda1(self) -> np.ndarray:
        return self.mu + 1j * self.theta

    @property
    def lambda2(self) -> np.ndarray:
        return self.mu - 1j * self.theta


def _cardano_arrays(tau0: float, tau1: float, c0: float, k: np.ndarray):
    k2 = k * k
    d0 = 1.0 - 3.0 * c0 * c0 * tau0 * tau1 * k2
    d1 = 2.0 + 9.0 * c0 * c0 * tau0 * (3.0 * tau0 - tau1) * k2
    sq = np.sqrt((d1 * d1 - 4.0 * d0**3).astype(complex))
    big_c = ((d1 + sq) / 2.0) ** (1.0 / 3.0)

    # |C| = 0 only at d0 = 0 with d1 <= 0; the other Cardano branch is nonzero
    # there unless d0 = d1 = 0 (exact triple root, handled below).
    zero = big_c == 0
    if np.any(zero):
        alt = ((d1 - sq) / 2.0) ** (1.0 / 3.0)
        big_c = np.where(zero, alt, big_c)
        triple = big_c == 0
        big_c = np.where(triple, 1.0, big_c)  # placeholder, roots patched below
    else:
        triple = None

    regime = np.abs(big_c.imag) <= REAL_C_IM_TOL * np.abs(big_c)
    # project onto the real axis in the real regime so that lambda0, mu, theta
    # come out with exactly zero imaginary part
    cproj = np.where(regime, big_c.real + 0j, big_c)
    w = cproj + d0 / cproj
    v = cproj - d0 / cproj
    lam0 = (1.0 + w) / (3.0 * tau0)
    mu = (2.0 - w) / (6.0 * tau0)
    theta = np.sqrt(3.0) * v / (6.0 * tau0)
    if triple is not None and np.any(triple):
        lam0 = np.where(triple, 1.0 / (3.0 * tau0) + 0j, lam0)
        mu = np.where(triple, 1.0 / (3.0 * tau0) + 0j, mu)
        theta = np.where(triple, 0j, theta)
    return lam0, mu, theta, d0, d1, big_c, regime


def roots_grid(medium: Medium, k) -> RootsGrid:
    """Cardano roots over an array of wavenumbers (k >= 0 elementwise)."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("wavenumbers must be non-negative")
    lam0, mu, theta, d0, d1, big_c, regime = _cardano_arrays(
        medium.tau0, medium.tau1, medium.c0, k
    )
    return RootsGrid(k, lam0, mu, theta, d0, d1, big_c, regime)


def cardano_roots(medium: Medium, k: float) -> RootsGrid:
    """``roots_grid`` at one wavenumber, as a 0-d RootsGrid.

    Never fails for k >= 0; a complex intermediate C is reported through
    ``real_c_regime = False`` (downstream imaging refuses such media, the
    root data itself stays valid).
    """
    return roots_grid(medium, float(k))


def moment_targets(medium: Medium) -> tuple[float, float, float]:
    """Right-hand side (a0, a1, a2) of the moment system."""
    r = medium.tau_ratio
    return 0.0, -r, (1.0 - r) / medium.tau0


def degenerate_mask(lambda0, lambda1, lambda2) -> np.ndarray:
    """True where the minimum pairwise root distance is below the threshold."""
    lam0 = np.asarray(lambda0)
    lam1 = np.asarray(lambda1)
    lam2 = np.asarray(lambda2)
    dmin = np.minimum(
        np.abs(lam0 - lam1),
        np.minimum(np.abs(lam0 - lam2), np.abs(lam1 - lam2)),
    )
    lmax = np.maximum(np.abs(lam0), np.maximum(np.abs(lam1), np.abs(lam2)))
    return dmin < DEGENERATE_REL_TOL * lmax


def amplitudes_grid(medium: Medium, grid: RootsGrid):
    """Closed-form A0, A1, A2 over a roots grid.

    Returns ``(a0, a1, a2, degenerate)``; entries flagged degenerate contain
    unusable values (the A_j curve tables substitute their k -> 0 limits
    there; ``kernels.mode_products`` does not use the A_j).  In the real-C
    regime A0 is projected to its exactly real value and A2 is constructed
    as conj(A1), which the conjugate-pair structure makes exact; outside the
    regime all three closed forms are evaluated directly.
    """
    _, m1, m2 = moment_targets(medium)
    l0, l1, l2 = grid.lambda0, grid.lambda1, grid.lambda2
    degen = degenerate_mask(l0, l1, l2)
    if medium.tau0 == medium.tau1:
        # dissipation-free (kappa1 = 0, or c0^2 rho kappa1 below double
        # resolution): the cubic factors exactly, A0 = 0 and
        # A1 = -1/(2 lambda1) = -A2; evaluating the generic closed forms
        # would leave round-off dust in A0 that the exponentially large
        # relaxation cross terms then amplify
        with np.errstate(divide="ignore", invalid="ignore"):
            a1 = -0.5 / l1
        a0 = np.zeros_like(a1)
        return a0, a1, np.conj(a1), degen
    with np.errstate(divide="ignore", invalid="ignore"):
        a0 = (m2 - m1 * (l2 + l1)) / ((l2 - l0) * (l1 - l0))
        a1 = (m1 * (l2 + l0) - m2) / ((l1 - l0) * (l2 - l1))
        a2 = (m2 - m1 * (l1 + l0)) / ((l2 - l0) * (l2 - l1))
    a0 = np.where(grid.real_c_regime, a0.real + 0j, a0)
    a2 = np.where(grid.real_c_regime, np.conj(a1), a2)
    return a0, a1, a2, degen


def _check_not_degenerate(roots: RootsGrid, what: str):
    if bool(degenerate_mask(roots.lambda0, roots.lambda1, roots.lambda2)):
        raise DegenerateRootsError(
            f"{what} at k = {roots.k:.6g}: pairwise root distance below "
            f"{DEGENERATE_REL_TOL:g} * max|lambda|; the products A_j lambda_j "
            "of kernels.mode_products hold down to k = 0"
        )


def amplitudes(roots: RootsGrid, medium: Medium) -> Amplitudes:
    """Closed-form amplitude coefficients at one wavenumber.

    Requires pairwise-distinct roots (k > 0); at and near k = 0 the double
    root lambda1 = lambda2 makes the closed forms singular and a
    DegenerateRootsError is raised.
    """
    _check_not_degenerate(roots, "closed-form amplitudes degenerate")
    a0, a1, a2, _ = amplitudes_grid(medium, roots)
    return Amplitudes(complex(a0), complex(a1), complex(a2))


def solve_vandermonde(roots: RootsGrid, medium: Medium) -> Amplitudes:
    """Amplitudes by a direct 3x3 linear solve of the moment system.

    Independent route kept as a cross-check of ``amplitudes``; agreement is
    1e-8 relative componentwise on the supported k range.
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
        # the zero root at k = 0 makes every term vanish identically
        ratio = np.divide(residual, scale, out=np.zeros_like(residual),
                          where=scale > 0)
        worst = np.maximum(worst, ratio)
    return worst
