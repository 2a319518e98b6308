"""Imaging kernels of the spectral time-reversal functional.

The time-reversal image of an initial pressure phi is diagonal in k:
I_hat = M(k) phi_hat with the dimensionless multiplier

    M(k) = 2 sum_j (A_j lambda_j)^2
         + 4 sum_{j<l} A_j A_l lambda_j lambda_l cosh((lambda_j - lambda_l) T).

For a real conjugate pair (water-like media) M splits into real pieces,
stored here with the d-dimensional convolution normalization (2 pi)^{d/2}:

    zeta1_hat = (2 sum_j (A_j l_j)^2 + 4 |A_1 l_1|^2) / (2 pi)^{d/2}
    zeta2_hat = 8 |A_1 l_1|^2 sin^2(theta T) / (2 pi)^{d/2}
    zeta3_hat = relaxation-oscillation cross terms, carrying the factor
                cosh(Re(lambda0 - lambda1) T)

Re(lambda0 - lambda1) T reaches ~1e6 at physical tissue scale, far beyond
double range, so zeta3 is computed exclusively as a mantissa array and a
log-scale array (``zeta_arrays``, ``kernel_table``), and converting it to
plain doubles (``multiplier_grid`` with ``include_zeta3``) is an explicit,
fallible step.  The default imaging path excludes zeta3; the
small-wavenumber kernel eta0_hat = 2 sum_j (A_j l_j)^2 / (2 pi)^{d/2} with DC
gain (2 pi)^{d/2} eta0_hat(0) = 2 (1 - tau1/tau0)^2 + 1 describes the image on
the reconstruction region.

At wavenumbers below the root-degeneracy threshold the amplitude products are
replaced by their analytic limits A0 l0 -> 1 - tau1/tau0 and
A1 l1, A2 l2 -> -1/2, with theta ~ c0 k kept k-dependent for the oscillatory
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .medium import Medium
from . import spectral

__all__ = [
    "EXP_REAL_LIMIT",
    "ModeProducts",
    "ComplexRegimeError",
    "ScaleOverflowError",
    "mode_products",
    "zeta_arrays",
    "multiplier_grid",
    "eta0_hat",
    "eta0_grid",
    "dc_constant",
    "kernel_table",
]

#: largest exponent exp() can take before overflowing a double
EXP_REAL_LIMIT = 700.0


class ComplexRegimeError(ValueError):
    """The Cardano intermediate C is complex at some requested wavenumber.

    The real-valued zeta/eta decomposition (and with it the imaging path)
    is only defined for media whose conjugate-pair structure is real.
    """


class ScaleOverflowError(OverflowError):
    """An exponentially large term does not fit a plain double.

    For the imaging multiplier this signals that the zeta3 term is not
    representable at the requested physical scale and the small-wavenumber
    kernel path must be used instead.
    """


@dataclass(frozen=True)
class ModeProducts:
    """Per-k roots and amplitude products with the small-k limit patch applied.

    p_j = A_j lambda_j; below the degeneracy threshold the products carry
    their analytic limits and lambda/theta their leading-order forms, so every
    array is usable down to k = 0.  The methods below are the one home of the
    real-regime p_j algebra of the imaging multipliers.
    """

    k: np.ndarray
    lambda0: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    theta: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    real_c_regime: np.ndarray
    limit_patched: np.ndarray

    def require_real_regime(self) -> "ModeProducts":
        if not bool(np.all(self.real_c_regime)):
            bad = self.k[~self.real_c_regime]
            raise ComplexRegimeError(
                f"complex Cardano C at {bad.size} wavenumber(s), e.g. "
                f"k = {bad.flat[0]:.6g}; the real-valued kernel decomposition "
                "is undefined for this medium"
            )
        return self

    def eta0_multiplier(self) -> np.ndarray:
        """(2 pi)^{d/2} eta0_hat = 2 sum_j p_j^2 = 2 (p0^2 + 2 Re p1^2)."""
        return 2.0 * (self.p0.real**2 + 2.0 * (self.p1 * self.p1).real)

    def abs_p1_sq(self) -> np.ndarray:
        """|p1|^2 = |p2|^2."""
        return (self.p1 * np.conj(self.p1)).real

    def multiplier(self, T: float) -> np.ndarray:
        """zeta3-excluded image multiplier 2 sum_j p_j^2 + 4 |p1|^2 cos(2 theta T)."""
        return self.eta0_multiplier() + 4.0 * self.abs_p1_sq() * np.cos(
            2.0 * self.theta.real * T
        )


def mode_products(medium: Medium, k) -> ModeProducts:
    """Roots and A_j lambda_j products over a k grid, limit-patched near k = 0."""
    k = np.asarray(k, dtype=float)
    grid = spectral.roots_grid(medium, k)
    a0, a1, a2, degen = spectral.amplitudes_grid(medium, grid)
    lam0, lam1, lam2 = grid.lambda0, grid.lambda1, grid.lambda2
    theta = grid.theta
    p0 = a0 * lam0
    p1 = a1 * lam1
    p2 = a2 * lam2
    if np.any(degen):
        # analytic limits: A0 l0 -> 1 - tau1/tau0, A1 l1 = A2 l2 -> -1/2; roots
        # keep their leading k dependence so oscillatory factors stay correct
        lam0_lim, mu_lim, th_lim = spectral.small_k_limits(medium, k[degen])
        p0[degen] = 1.0 - medium.tau_ratio
        p1[degen] = -0.5
        p2[degen] = -0.5
        lam0[degen] = lam0_lim
        lam1[degen] = mu_lim + 1j * th_lim
        lam2[degen] = mu_lim - 1j * th_lim
        theta[degen] = th_lim
    return ModeProducts(
        k=k,
        lambda0=lam0,
        lambda1=lam1,
        lambda2=lam2,
        theta=theta,
        p0=p0,
        p1=p1,
        p2=p2,
        real_c_regime=grid.real_c_regime,
        limit_patched=degen,
    )


def _norm(d: int) -> float:
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    return (2.0 * math.pi) ** (d / 2.0)


def _real_products(medium: Medium, k, T: float) -> ModeProducts:
    """Real-regime mode products for an image at time T > 0."""
    if T <= 0:
        raise ValueError("T must be positive")
    return mode_products(medium, k).require_real_regime()


def _zeta_pieces(mp: ModeProducts, T: float, d: int):
    """(zeta1_hat, zeta2_hat, zeta3_mantissa, zeta3_log_scale) of real-regime
    mode products; see ``zeta_arrays``."""
    norm = _norm(d)
    p0 = mp.p0.real
    p1 = mp.p1
    abs_p1_sq = mp.abs_p1_sq()
    z1 = (mp.eta0_multiplier() + 4.0 * abs_p1_sq) / norm
    z2 = 8.0 * abs_p1_sq * np.sin(mp.theta.real * T) ** 2 / norm
    dlam = mp.lambda0 - mp.lambda1
    x = dlam.real * T
    y = dlam.imag * T
    ax = np.abs(x)
    decay = np.exp(-2.0 * ax)
    cosh_m = 0.5 * (1.0 + decay)                 # cosh(x) = e^{|x|} cosh_m
    sinh_m = 0.5 * (1.0 - decay) * np.sign(x)    # sinh(x) = e^{|x|} sinh_m
    z3_m = (
        8.0
        * p0
        * (p1.real * np.cos(y) * cosh_m - p1.imag * np.sin(y) * sinh_m)
        / norm
    )
    return z1, z2, z3_m, ax


def zeta_arrays(medium: Medium, k, T: float, d: int = 3):
    """(zeta1_hat, zeta2_hat, zeta3_mantissa, zeta3_log_scale) over a k grid.

    zeta3 value = mantissa * exp(log_scale) with log_scale =
    |Re(lambda0 - lambda1)| * T (equal to Re(lambda0 - lambda1) T for media
    where the relaxation root dominates).  Requires the real-C regime and
    T > 0.
    """
    return _zeta_pieces(_real_products(medium, k, T), T, d)


def eta0_grid(medium: Medium, k, d: int = 3) -> np.ndarray:
    """Small-wavenumber kernel eta0_hat = 2 sum_j (A_j l_j)^2 / (2 pi)^{d/2}."""
    return mode_products(medium, k).require_real_regime().eta0_multiplier() / _norm(d)


def eta0_hat(medium: Medium, k: float, d: int = 3) -> float:
    """eta0_hat at one wavenumber; uses the analytic limit below the
    degeneracy threshold (in particular at k = 0)."""
    return float(eta0_grid(medium, np.asarray([float(k)]), d)[0])


def dc_constant(medium: Medium) -> float:
    """DC gain (2 pi)^{d/2} eta0_hat(0) = 2 (1 - tau1/tau0)^2 + 1.

    This is the factor by which the zeta3-excluded image scales a
    band-limited phantom on the reconstruction region; it tends to 1 as
    kappa1 -> 0.
    """
    r = medium.tau_ratio
    return 2.0 * (1.0 - r) ** 2 + 1.0


def multiplier_grid(medium: Medium, k, T: float, include_zeta3: bool = False) -> np.ndarray:
    """Dimensionless image multiplier M(k) over a k grid.

    With include_zeta3 the scaled zeta3 term is converted to plain doubles,
    raising ScaleOverflowError where exp(log_scale) does not fit (physical
    tissue scale); the zeta3-excluded multiplier is always finite and real.
    """
    mp = _real_products(medium, k, T)
    m = mp.multiplier(T)
    if include_zeta3:
        _, _, z3_m, z3_ls = _zeta_pieces(mp, T, d=3)
        nonzero = z3_m != 0
        logmag = np.where(
            nonzero, z3_ls + np.log(np.abs(np.where(nonzero, z3_m, 1.0))), -np.inf
        )
        if np.any(logmag > EXP_REAL_LIMIT):
            raise ScaleOverflowError(
                "zeta3 exceeds double range on this grid "
                f"(max log magnitude {np.max(logmag):.3g}); use the "
                "small-wavenumber kernel path instead"
            )
        # reassemble as sign * exp(log magnitude): exp(z3_ls) alone may
        # overflow even when the product is representable
        z3 = np.where(nonzero, np.sign(z3_m) * np.exp(logmag), 0.0)
        m = m + _norm(3) * z3
    return m


def kernel_table(medium: Medium, k, T: float, d: int = 3):
    """Column dict for CSV export of the kernel curves over a k grid."""
    mp = _real_products(medium, k, T)
    z1, z2, z3_m, z3_ls = _zeta_pieces(mp, T, d)
    return {
        "k": mp.k,
        "zeta1": z1,
        "zeta2": z2,
        "zeta3_mantissa": z3_m,
        "zeta3_logscale": z3_ls,
        "eta0": mp.eta0_multiplier() / _norm(d),
        "multiplier_no_zeta3": mp.multiplier(T),
    }
