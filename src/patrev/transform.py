"""Gridded Fourier machinery: phantoms, spectral multipliers, the image.

Fields live on uniform, origin-centered periodic grids of 2^m samples per
axis (d = 1, 2 or 3).  All propagation and imaging operators are diagonal in
k and radial, so everything reduces to FFT round trips with radial
multipliers; a real, radial multiplier applied to a real field returns a real
field up to round-off (the tests check Parseval and the imaginary residue).

Multipliers are evaluated once per distinct |k|: ``GridSpec.radial_table``
lists the distinct |k| of the non-negative frequencies with an index of
shape ``(n//2+1,) * d`` (``slice(None)`` in 1-D, where that is the real-FFT
half spectrum).  A multiplier callable receives consecutive slices of that
1-D table, so it must be elementwise in k: blocks of 8192 |k| keep the ~20
temporaries of a root solve in a 2 MB L2 cache (35 ms against 72 ms in one
call for the 2^20-point water table on a Xeon; README has the sweep).

The public operators run numpy's real-FFT round trip, ``rfftn`` then
``irfftn``, with the index folded onto the negative frequencies of axes
0 ... d-2 (frequencies i and n - i share |k|).

``_gaussian_images``, the image route of the reconstruction and the kappa1
sweep in every dimension, runs no forward pass and no complex one.  The
Gaussian phantom is the outer product of one factor per axis (the peak on
the last), and the DFT is separable.  A factor is grid-centred, so it is
circularly even and its DFT is real and even to round-off; times a radial
multiplier, the spectrum is even on every axis but the last.  So the
inverse takes the non-negative frequencies only: a real ``irfft`` per
leading axis, that axis's factor multiplied in just before its pass, then
the last factor's complex ``rfft`` and one ``irfft``.  Each pass keeps only
the lines that reach the phantom's support box.  In 1-D that is ``rfft``,
the multiplier, ``irfft``.

Periodic wrap-around is the one discretization hazard: identities of the
form F^{-1}{sin^2(c0 k T) phi_hat} = phi/2 hold on the interior region only
because the outgoing shells sit at |x| = 2 c0 T, and on a periodic grid those
shells re-enter unless the extent exceeds about 4 c0 T.  A GridAliasingWarning
is emitted when that margin is violated.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .medium import Medium
from . import kernels, spectral

__all__ = [
    "GridSpec",
    "Field",
    "InteriorRegion",
    "PhantomSupportError",
    "GridAliasingWarning",
    "gaussian_phantom",
    "apply_multiplier",
    "propdelta_check",
    "time_reversal_image",
]


class PhantomSupportError(ValueError):
    """The requested phantom does not fit the grid."""


class GridAliasingWarning(UserWarning):
    """Outgoing shells wrap around the periodic grid back into the region."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid, origin-centered, extent metres per axis."""

    dim: int
    n_per_axis: int
    extent: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.n_per_axis
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_per_axis must be a power of two >= 2, got {n}")
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")

    @property
    def spacing(self) -> float:
        return self.extent / self.n_per_axis

    @property
    def nyquist(self) -> float:
        """Largest resolvable wavenumber pi * n / extent [1/m]."""
        return math.pi * self.n_per_axis / self.extent

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates of one axis, centered at the origin."""
        n = self.n_per_axis
        return (np.arange(n) - n // 2) * self.spacing

    def _magnitude(self, ax: np.ndarray) -> np.ndarray:
        """sqrt(sum_i ax_i^2) on the full grid, with ax along every axis."""
        if self.dim == 1:
            return np.abs(ax)
        total = functools.reduce(np.add.outer, [ax * ax] * self.dim)
        return np.sqrt(total, out=total)

    def radius(self) -> np.ndarray:
        """|x| on the full grid."""
        return self._magnitude(self.axis_coords())

    def k_magnitude(self) -> np.ndarray:
        """|k| on the full grid in FFT layout [1/m].

        No operator uses it; it is the reference that the tests check
        ``radial_table`` and the radial route against, and a benchmark
        tracer target.
        """
        return self._magnitude(2.0 * math.pi * np.fft.fftfreq(self.n_per_axis, self.spacing))

    def radial_table(self) -> tuple[np.ndarray, np.ndarray | slice]:
        """Distinct |k| of the non-negative frequencies and an index into them.

        Returns ``(k_table, index)``: ``k_table`` is the strictly increasing
        1-D array of distinct |k| [1/m], and ``k_table[index]`` equals
        ``k_magnitude()`` on the octant of frequencies 0 ... n/2 of every
        axis (exactly in 1-D, where ``index`` is ``slice(None)`` and the
        octant is the half spectrum of ``np.fft.rfft``; to round-off
        otherwise).  On the periodic lattice
        |k|^2 = (2 pi / extent)^2 q with integer q = sum_i m_i^2 <= d (n/2)^2,
        so the distinct values are found by marking the occupied q.
        """
        n, d = self.n_per_axis, self.dim
        m = np.arange(n // 2 + 1)
        step = 1.0 / (n * self.spacing)     # fftfreq's, so 1-D |k| match k_magnitude()
        if d == 1:
            return 2.0 * math.pi * (m * step), slice(None)
        q = functools.reduce(np.add.outer, [m * m] * d)
        occupied = np.zeros(d * (n // 2) ** 2 + 1, dtype=bool)
        occupied[q] = True
        rank = np.cumsum(occupied) - 1
        return 2.0 * math.pi * step * np.sqrt(np.flatnonzero(occupied)), rank[q]

    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.dim


@dataclass(frozen=True)
class Field:
    """Real-valued samples on a grid."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.shape != self.grid.shape():
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid "
                f"{self.grid.shape()}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("field samples must be finite")

    def integral(self) -> float:
        return float(np.sum(self.samples) * self.grid.spacing**self.grid.dim)


@dataclass(frozen=True)
class InteriorRegion:
    """Ball of given radius around the origin on which identities are asserted."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("region radius must be positive")

    def mask(self, grid: GridSpec) -> np.ndarray:
        return grid.radius() <= self.radius


def gaussian_phantom(grid: GridSpec, D: float) -> Field:
    """Normalized Gaussian phi(x) = (4 pi D)^{-d/2} exp(-|x|^2 / (4 D)).

    D is the squared-length scale [m^2]; the standard deviation is
    sqrt(2 D).  The support (6 sigma) must fit inside half the extent so the
    discrete integral equals 1 to 1e-6.  phi is the outer product of its axis
    factors, the closed form to round-off (exactly in 1-D).
    """
    return Field(grid, functools.reduce(np.multiply.outer, _gaussian_factors(grid, D)))


def _gaussian_factors(grid: GridSpec, D: float) -> list[np.ndarray]:
    """Axis factors of ``gaussian_phantom``, after its refusals: g =
    exp(-x^2 / (4 D)) (1 at the origin; an overflow of x^2 / (4 D) gives
    exp(-inf) = 0 exactly) on axes 0 ... d-2, g (4 pi D)^{-d/2} on the last."""
    D = float(D)
    if not D > 0:
        raise PhantomSupportError(f"the phantom width D = {D:.6g} m^2 is not positive")
    sigma = math.sqrt(2.0 * D)
    if 6.0 * sigma > grid.extent / 2.0:
        raise PhantomSupportError(f"6 sigma = {6 * sigma:.6g} m exceeds half the extent "
                                  f"({grid.extent / 2:.6g} m)")
    # |x| <= extent / 2, and 4 pi D < (extent / 2)^2 by the support check
    if not math.isfinite((grid.extent / 2.0) * (grid.extent / 2.0)):
        raise PhantomSupportError(f"x^2 at |x| = {grid.extent / 2:.6g} m "
                                  "is not a finite double")
    try:
        scale = (4.0 * math.pi * D) ** (-grid.dim / 2.0)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise PhantomSupportError(f"the peak (4 pi D)^(-{grid.dim}/2) at D = {D:.6g} m^2 "
                                  "is not a finite double > 0")
    g = np.abs(grid.axis_coords())      # in place: -(x^2) / (4 D) = x^2 / (-4 D) exactly
    g *= g
    with np.errstate(over="ignore"):
        g /= -4.0 * D
    np.exp(g, out=g)
    return [g] * (grid.dim - 1) + [g * scale]


#: |k| per block of multiplier evaluation; see the module docstring
_BLOCK = 8192


def _radial_multipliers(grid: GridSpec, evaluates: list[Callable[[np.ndarray], np.ndarray]]
                        ) -> tuple[list[np.ndarray], np.ndarray | slice]:
    """Finite real ``evaluate(k)`` of each of ``evaluates`` on one
    ``grid.radial_table()`` in _BLOCK slices, and the table's index."""
    k_table, index = grid.radial_table()
    mults = []
    for evaluate in evaluates:
        mults.append(mult := np.empty_like(k_table))
        for start in range(0, k_table.size, _BLOCK):
            block = mult[start:start + _BLOCK]
            block[...] = evaluate(k_table[start:start + _BLOCK])
            if not np.all(np.isfinite(block)):
                raise ValueError("multiplier produced non-finite values on the grid")
    return mults, index


def _apply_radial(fld: Field, mult: np.ndarray, index: np.ndarray | slice) -> Field:
    """F^{-1}{mult[index] F{fld}} by numpy's real-FFT round trip; ``mult``
    and ``index`` from ``_radial_multipliers``, the index folded onto the
    half spectrum (frequency i of axes 0 ... d-2 takes the |k| of min(i, n - i))."""
    grid = fld.grid
    n, d = grid.n_per_axis, grid.dim
    spec = np.fft.rfftn(fld.samples)
    if d > 1:
        fold = np.minimum(np.arange(n), n - np.arange(n))
        index = index[np.ix_(*[fold] * (d - 1), np.arange(n // 2 + 1))]
    spec *= mult[index]
    return Field(grid, np.fft.irfftn(spec, s=grid.shape(), axes=range(d)))


def apply_multiplier(field: Field, multiplier: Callable[[np.ndarray], np.ndarray]) -> Field:
    """Apply a radial spectral multiplier: F^{-1}{ multiplier(|k|) F{field} }.

    The multiplier receives consecutive slices of the 1-D table of distinct
    |k| (``GridSpec.radial_table``), so it must be elementwise in k and return
    finite real values (or a scalar); the output is real by construction.
    """
    (mult,), index = _radial_multipliers(field.grid, [multiplier])
    return _apply_radial(field, mult, index)


def propdelta_check(field: Field, medium: Medium, T: float,
                    region: InteriorRegion) -> float:
    """Relative L-inf residual of F^{-1}{sin^2(c0 k T) phi_hat} = phi/2 on the region.

    Valid when the outgoing shells at |x| = 2 c0 T clear both the region and
    the field support; on a periodic grid that additionally requires
    extent >= 4 c0 T, otherwise a GridAliasingWarning is emitted and the
    caller must enlarge the extent or accept the wrap.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if region.radius >= medium.c0 * T:
        raise ValueError(
            f"region radius {region.radius:.6g} must be below c0 T = "
            f"{medium.c0 * T:.6g}"
        )
    if field.grid.extent < 4.0 * medium.c0 * T:
        warnings.warn(
            f"extent {field.grid.extent:.6g} < 4 c0 T = {4 * medium.c0 * T:.6g}: "
            "outgoing shells wrap back into the region",
            GridAliasingWarning,
            stacklevel=2,
        )
    c0 = medium.c0
    half = apply_multiplier(field, lambda kk: np.sin(c0 * kk * T) ** 2)
    mask = region.mask(field.grid)
    target = field.samples / 2.0
    denom = float(np.max(np.abs(target[mask])))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(half.samples[mask] - target[mask])) / denom)


def _mode_sum(mp: kernels.ModeProducts, t: float) -> np.ndarray:
    """sum_j A_j lambda_j e^{-lambda_j t}, real since p2 e^{-lambda2 t} is the
    conjugate of p1 e^{-lambda1 t}; minus it is the forward multiplier p_hat / phi_hat."""
    phase = mp.theta * t
    return mp.p0 * np.exp(-mp.lambda0 * t) + 2.0 * np.exp(-mp.mu * t) * (
        mp.p1_re * np.cos(phase) + mp.p1_im * np.sin(phase)
    )


def time_reversal_image(medium: Medium, phantom: Field, T: float,
                        include_zeta3: bool = False) -> Field:
    """Time-reversal image I = 2 q|_{t=T} of a phantom evolved to time T.

    With ``include_zeta3`` the literal two-stage product is formed,

        I_hat = 2 [sum_j A_j l_j e^{-l_j T}] [sum_l A_l l_l e^{+l_l T}] phi_hat,

    which requires every exp(Re lambda_j T) to be representable.  By Vieta
    lambda0 + 2 mu = 1/tau0 with mu >= 0, so the largest Re lambda_j T of any
    table is lambda0(0) T = T/tau0, and the pipeline is refused with a
    ScaleOverflowError before any evaluation exactly when T/tau0 > 700; at
    physical tissue scale T/tau0 ~ 1e6.  Without the flag the
    relaxation-oscillation cross terms are dropped and the remaining product
    reduces to ``kernels.ModeProducts.multiplier``,

        I_hat = 2 [p0^2 + 2 Re(p1^2) + 2 |p1|^2 cos(2 theta T)] phi_hat,

    which is finite at any scale and equals ``kernels.multiplier_grid``.
    Both are real and are evaluated on the grid's radial table.  Both need
    theta T finite: theta^2 <= c0^2 k^2 / (tau0 lambda0) <= c_inf^2 k^2 as
    lambda0 >= 1/tau1, and |k| <= sqrt(d) k_nyquist, so a ScaleOverflowError
    refuses first when c_inf T sqrt(d) k_nyquist is not a finite double.
    Last, still before any evaluation, a ComplexRegimeError counts the table
    |k| on the three-real-root band (``spectral.three_root_band``).
    """
    return apply_multiplier(phantom, _image_multiplier(medium, phantom.grid, T,
                                                       include_zeta3))


def _image_multiplier(medium: Medium, grid: GridSpec, T: float,
                      include_zeta3: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """The multiplier of ``time_reversal_image`` as a function of |k|, after
    its refusals of T, of the scale and of the three-real-root band on the
    grid's radial table.  The bounds are taken in Python floats, which
    overflow to inf without a warning."""
    c_inf, T, tau0 = float(medium.c_inf), float(T), float(medium.tau0)
    if T <= 0:
        raise ValueError("T must be positive")
    if not math.isfinite(c_inf * T * math.sqrt(grid.dim) * grid.nyquist):
        raise kernels.ScaleOverflowError(
            f"theta T is not a finite double at c_inf = {c_inf:.6g} m/s, T = {T:.6g} s")
    if include_zeta3 and T / tau0 > kernels.EXP_REAL_LIMIT:
        raise kernels.ScaleOverflowError(
            f"exp(Re lambda T) with Re lambda T = {T / tau0:.3g} is not "
            "representable; the exact reversed pipeline is only computable "
            "at nondimensional scale (use include_zeta3=False)"
        )
    if (band := spectral.three_root_band(medium)) is not None:
        k_table = grid.radial_table()[0]
        refused = k_table[np.searchsorted(k_table, band[0], "right"):
                          np.searchsorted(k_table, band[1], "left")]
        if refused.size:
            raise kernels.regime_refusal(refused)

    def table(kk):
        mp = kernels.mode_products(medium, kk)
        if include_zeta3:
            return 2.0 * _mode_sum(mp, T) * _mode_sum(mp, -T)
        return mp.multiplier(T)

    return table


#: the phantom support: its samples at this fraction of the peak or above
SUPPORT_LEVEL = 0.01


def _support_box(factors: list[np.ndarray]) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Support box of the phantom reduce(np.multiply.outer, factors), and the
    phantom and its support mask on it.  It peaks where the last factor does
    and rounded products are monotone in each factor, so that factor's support
    spans the box on axes 0 ... d-2; the last axis, inverted on the box's lines
    anyway, stays whole (the 1-D box is the whole line)."""
    level = SUPPORT_LEVEL * float(np.max(factors[-1]))
    line = np.flatnonzero(factors[-1] >= level)
    core = slice(line[0], line[-1] + 1)
    phi = functools.reduce(np.multiply.outer, [f[core] for f in factors[:-1]] + factors[-1:])
    return (core,) * (len(factors) - 1) + (slice(None),), phi, phi >= level


def _leading_inverse(spec: np.ndarray, leading: list[np.ndarray], n: int,
                     box: tuple[slice, ...]) -> np.ndarray:
    """Inverse passes of axes 0 ... d-2 of a real spectrum ``spec`` on the
    non-negative frequencies, even on those axes: ``leading[a]`` is
    multiplied in on axis a (in place) just before that axis's ``irfft``, and
    the pass keeps the box's lines.  A pass computes each line as the whole
    pass does, so the box values are bit-identical to the whole grid's."""
    for axis, factor in enumerate(leading):
        spec *= factor.reshape((-1,) + (1,) * (spec.ndim - 1 - axis))
        spec = np.fft.irfft(spec, n, axis=axis)[(slice(None),) * axis + (box[axis],)]
    return spec


def _gaussian_images(grid: GridSpec, D: float, medium: Medium, T: float,
                     *extra: Callable[[np.ndarray], np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Phantom ``gaussian_phantom(grid, D)``, its support mask and its images
    on the support box: ``time_reversal_image(medium, phantom, T)``, then
    F^{-1}{m(|k|) F{phi}} for each m of ``extra``; one radial table, the
    factors' spectra, no forward pass of the phantom, and the phantom's
    refusals first."""
    n = grid.n_per_axis
    factors = _gaussian_factors(grid, D)
    box, phi, mask = _support_box(factors)
    mults, index = _radial_multipliers(grid, [_image_multiplier(medium, grid, T), *extra])
    # real and even to round-off: the factors are grid-centred
    leading = [np.fft.rfft(f).real for f in factors[:-1]]
    last = np.fft.rfft(factors[-1])
    images = []
    for mult in mults:
        spec = _leading_inverse(mult[index], leading, n, box)
        if leading or mult is not mults[-1]:
            spec = spec * last
        else:           # 1-D, the last image: in place, one half spectrum fewer
            last *= spec
            spec = last
        images.append(np.fft.irfft(spec, n))
    return phi, mask, images
