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

The products p_j = A_j lambda_j come from ``spectral.pair_products``, the
home the A_j tables read too; their algebra (M, eta0, the zeta pieces, the
forward mode sum) lives in ``ModeProducts`` alone, here and for
``transform``.  They are functions of r = tau0/tau1 and s = (c0 tau1 k)^2
alone, and the scale enters the multiplier only through theta T =
c0 k T g(r, s), so every array is accurate to round-off at any tau scale and
down to k = 0.  Where the cubic has three real roots there is no
pair: ``spectral.three_root_band`` decides where, and the image refuses its
band before any evaluation.  ``mode_products`` refuses each k that
``roots_grid`` flags, for the tables that report per k; no k off the band is
flagged, so it never refuses an admitted image.  ``regime_refusal`` is that
refusal's one home.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .medium import Medium

__all__ = [
    "EXP_REAL_LIMIT",
    "ModeProducts",
    "ComplexRegimeError",
    "ScaleOverflowError",
    "mode_products",
    "regime_refusal",
    "zeta_arrays",
    "multiplier_grid",
    "eta0_hat",
    "dc_constant",
    "kernel_table",
]

#: largest exponent exp() can take before overflowing a double
EXP_REAL_LIMIT = 700.0


class ComplexRegimeError(ValueError):
    """The cubic has three real roots, or the (near-)triple root C = 0, at
    some requested wavenumber: the real-valued zeta/eta decomposition, and
    with it the imaging path, needs a conjugate pair."""


class ScaleOverflowError(OverflowError):
    """A term does not fit a plain double.

    For the imaging multiplier this signals that the zeta3 term or theta T is
    not representable at the requested physical scale, or that the
    dispersion roots are not (``mode_products``: the k range, or 1/tau0).
    """


@dataclass(frozen=True)
class ModeProducts:
    """Per-k real root data and mode products of a real-regime medium.

    lambda0 is the real root and lambda_{1,2} = mu +- i theta the conjugate
    pair; p0 = A0 lambda0 is real and p2 = A2 lambda2 = conj(p1), so p1 alone
    carries the pair.  Every array is usable down to k = 0.  The methods below
    are the one home of the p_j algebra, for the kernel tables and for every
    image multiplier of ``transform``.
    """

    k: np.ndarray
    lambda0: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    p0: np.ndarray
    p1_re: np.ndarray
    p1_im: np.ndarray

    @property
    def p1(self) -> np.ndarray:
        """p1 = A1 lambda1 as a complex array."""
        return self.p1_re + 1j * self.p1_im

    def eta0_multiplier(self) -> np.ndarray:
        """(2 pi)^{d/2} eta0_hat = 2 sum_j p_j^2 = 2 (p0^2 + 2 Re p1^2)."""
        return 2.0 * (self.p0**2 + 2.0 * (self.p1_re**2 - self.p1_im**2))

    def multiplier(self, T: float) -> np.ndarray:
        """zeta3-excluded image multiplier 2 sum_j p_j^2 + 4 |p1|^2 cos(2 theta T).

        Evaluated as 2 p0^2 + 8 (Re p1)^2 (1 - s^2) - 8 (Im p1 s)^2 with
        s = sin(theta T): next to the three-real-root band Im p1 grows like
        1/theta, and the cos(2 theta T) form cancels its square.
        """
        s = np.sin(self.theta * T)
        b = self.p1_im * s
        b *= b
        s *= s
        s -= 1.0
        s *= self.p1_re
        s *= self.p1_re
        s += b                  # -(Re p1)^2 (1 - s^2) + (Im p1 s)^2
        s *= 8.0
        m = self.p0 * self.p0
        m *= 2.0
        m -= s
        return m

    def mode_sum(self, t: float) -> np.ndarray:
        """sum_j A_j lambda_j e^{-lambda_j t}, real since p2 e^{-lambda2 t} is the
        conjugate of p1 e^{-lambda1 t}; minus it is the forward multiplier
        p_hat / phi_hat, and 2 mode_sum(T) mode_sum(-T) the image with zeta3."""
        phase = self.theta * t
        return self.p0 * np.exp(-self.lambda0 * t) + 2.0 * np.exp(-self.mu * t) * (
            self.p1_re * np.cos(phase) + self.p1_im * np.sin(phase)
        )

    def zeta_pieces(self, T: float, d: int):
        """(zeta1_hat, zeta2_hat, zeta3_mantissa, zeta3_log_scale) at time T in
        d dimensions; see ``zeta_arrays``."""
        norm = _norm(d)
        abs_p1_sq = self.p1_re**2 + self.p1_im**2     # |p1|^2 = |p2|^2
        z1 = (self.eta0_multiplier() + 4.0 * abs_p1_sq) / norm
        z2 = 8.0 * abs_p1_sq * np.sin(self.theta * T) ** 2 / norm
        x = (self.lambda0 - self.mu) * T        # Re(lambda0 - lambda1) T
        y = -self.theta * T                     # Im(lambda0 - lambda1) T
        ax = np.abs(x)
        decay = np.exp(-2.0 * ax)
        cosh_m = 0.5 * (1.0 + decay)                 # cosh(x) = e^{|x|} cosh_m
        sinh_m = 0.5 * (1.0 - decay) * np.sign(x)    # sinh(x) = e^{|x|} sinh_m
        z3_m = 8.0 * self.p0 * (self.p1_re * np.cos(y) * cosh_m
                                - self.p1_im * np.sin(y) * sinh_m) / norm
        return z1, z2, z3_m, ax


def mode_products(medium: Medium, k) -> ModeProducts:
    """Real root data and A_j lambda_j products over a k grid (k >= 0).

    Raises ScaleOverflowError where the roots are not finite doubles
    (``spectral.nonfinite_roots``), and ComplexRegimeError where the cubic
    has three real roots or the triple root (C = 0): the real pair
    decomposition, and with it every imaging multiplier, is undefined there.
    """
    with np.errstate(all="ignore"):     # roots that are not finite are refused
        grid = spectral.roots_grid(medium, k)
    if (why := spectral.nonfinite_roots(medium, grid)) is not None:
        raise ScaleOverflowError(f"the dispersion roots are not finite doubles; {why}")
    bad = ~grid.real_c_regime | (grid.big_c == 0)
    if np.any(bad):
        raise regime_refusal(grid.k[bad])
    p0, p1_re, p1_im = spectral.pair_products(medium, grid)
    return ModeProducts(grid.k, grid.lambda0, grid.mu, grid.theta, p0, p1_re, p1_im)


def regime_refusal(k: np.ndarray) -> ComplexRegimeError:
    """The refusal of the imaging path at the wavenumbers ``k`` (non-empty)
    where the cubic has three real roots or the triple root."""
    return ComplexRegimeError(
        f"three real roots at {k.size} wavenumber(s), e.g. "
        f"k = {k.flat[0]:.6g}; the real-valued kernel decomposition "
        "is undefined for this medium"
    )


def _norm(d: int) -> float:
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    return (2.0 * math.pi) ** (d / 2.0)


def _real_products(medium: Medium, k, T: float) -> ModeProducts:
    """Mode products for an image at time T > 0."""
    if T <= 0:
        raise ValueError("T must be positive")
    return mode_products(medium, k)


def zeta_arrays(medium: Medium, k, T: float, d: int = 3):
    """(zeta1_hat, zeta2_hat, zeta3_mantissa, zeta3_log_scale) over a k grid.

    zeta3 value = mantissa * exp(log_scale) with log_scale =
    |Re(lambda0 - lambda1)| * T (equal to Re(lambda0 - lambda1) T for media
    where the relaxation root dominates).  Requires the real-C regime and
    T > 0.
    """
    return _real_products(medium, k, T).zeta_pieces(T, d)


def eta0_hat(medium: Medium, k: float, d: int = 3) -> float:
    """Small-wavenumber kernel eta0_hat = 2 sum_j (A_j l_j)^2 / (2 pi)^{d/2}
    at one wavenumber, k = 0 included."""
    return float(mode_products(medium, np.asarray(float(k))).eta0_multiplier() / _norm(d))


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
        _, _, z3_m, z3_ls = mp.zeta_pieces(T, d=3)
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
    z1, z2, z3_m, z3_ls = mp.zeta_pieces(T, d)
    return {
        "k": mp.k,
        "zeta1": z1,
        "zeta2": z2,
        "zeta3_mantissa": z3_m,
        "zeta3_logscale": z3_ls,
        "eta0": mp.eta0_multiplier() / _norm(d),
        "multiplier_no_zeta3": mp.multiplier(T),
    }
