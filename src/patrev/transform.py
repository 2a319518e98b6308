"""Gridded Fourier machinery: phantoms, spectral multipliers, the image.

Fields live on uniform, origin-centered periodic grids of 2^m samples per
axis (d = 1, 2 or 3).  All propagation and imaging operators are diagonal in
k and radial, so everything reduces to FFT round trips with radial
multipliers; a real, radial multiplier applied to a real field returns a real
field up to round-off (the tests check Parseval and the imaginary residue).

Multipliers are evaluated once per distinct |k|: ``GridSpec.radial_table``
lists the distinct |k| of the non-negative frequencies with an index of
shape ``(n//2+1,) * d``.  A multiplier callable receives consecutive slices
of that 1-D table, so it must be elementwise in k: blocks of 8192 |k| keep
the ~20 temporaries of a root solve in a 2 MB L2 cache.  The image
multipliers are functions of a ``kernels.ModeProducts``, the one home of the
mode-product algebra: one ``kernels.mode_products`` per block serves every
image of a set, and this module reads no root and no p_j.

The public operators run numpy's real-FFT round trip, ``rfftn`` then
``irfftn``, with the index folded onto the negative frequencies of axes
0 ... d-2 (frequencies i and n - i share |k|).

``_gaussian_images``, the image route of the reconstruction and the kappa1
sweep in every dimension, runs no forward pass and touches no line that no
caller reads: the Gaussian phantom's DFT is a product of real, even axis
spectra, so each image is one real inverse pass per axis on the
non-negative lines of the phantom's support box, mirrored once.  README
describes the three routes of a pass and their timings.

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

    def radial_table(self, q_max: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Distinct |k| of the non-negative frequencies and an index into them.

        Returns ``(k_table, index)``: ``k_table`` is the strictly increasing
        1-D array of distinct |k| [1/m], and ``k_table[index]`` equals
        ``k_magnitude()`` on the octant of frequencies 0 ... n/2 of every
        axis (exactly in 1-D, where ``index`` is ``arange(n//2 + 1)`` and the
        octant is the half spectrum of ``np.fft.rfft``; to round-off
        otherwise).  On the periodic lattice
        |k|^2 = (2 pi / extent)^2 q with integer q = sum_i m_i^2 <= d (n/2)^2,
        so the distinct values are found by marking the occupied q.

        With ``q_max`` the table holds the |k| with q <= q_max only, the
        index covers frequencies 0 ... min(n/2, isqrt(q_max)) of every axis,
        and it holds ``k_table.size`` where q > q_max.
        """
        n, d = self.n_per_axis, self.dim
        top = d * (n // 2) ** 2 if q_max is None else min(q_max, d * (n // 2) ** 2)
        m = np.arange(min(n // 2, math.isqrt(top)) + 1)
        step = 1.0 / (n * self.spacing)     # fftfreq's, so 1-D |k| match k_magnitude()
        if d == 1:
            return 2.0 * math.pi * (m * step), m
        q = np.minimum(functools.reduce(np.add.outer, [m * m] * d), top + 1)
        occupied = np.zeros(top + 2, dtype=bool)   # the last entry: every q > top
        occupied[q] = True
        rank = np.cumsum(occupied) - 1
        return 2.0 * math.pi * step * np.sqrt(np.flatnonzero(occupied[:-1])), rank[q]

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
    factors (``_support_box``), the closed form to round-off (exactly in 1-D).
    """
    return Field(grid, _support_box(grid, *_gaussian_peak(grid, D), whole=True)[1])


def _gaussian_peak(grid: GridSpec, D: float) -> tuple[float, float]:
    """``(D, (4 pi D)^{-d/2})`` in floats, after the phantom's refusals."""
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
        peak = (4.0 * math.pi * D) ** (-grid.dim / 2.0)
    except OverflowError:
        peak = math.inf
    if not 0.0 < peak < math.inf:
        raise PhantomSupportError(f"the peak (4 pi D)^(-{grid.dim}/2) at D = {D:.6g} m^2 "
                                  "is not a finite double > 0")
    return D, peak


def _axis_factor(grid: GridSpec, D: float, lines: slice) -> np.ndarray:
    """g = exp(-x^2 / (4 D)) on the samples ``lines`` of an axis (1 at the
    origin; an overflow of x^2 / (4 D) gives exp(-inf) = 0 exactly), for a
    D that ``_gaussian_peak`` admits; the same rounded values on any lines."""
    n = grid.n_per_axis
    g = np.abs((np.arange(*lines.indices(n)) - n // 2) * grid.spacing)
    g *= g                              # in place: -(x^2) / (4 D) = x^2 / (-4 D) exactly
    with np.errstate(over="ignore"):
        g /= -4.0 * D
    np.exp(g, out=g)
    return g


#: |k| per block of multiplier evaluation; see the module docstring
_BLOCK = 8192


def _radial_multipliers(k_table: np.ndarray,
                        evaluate: Callable[[np.ndarray], list[np.ndarray]]) -> list[np.ndarray]:
    """Every multiplier of the set ``evaluate(k)`` on the radial table
    ``k_table``, one call per _BLOCK slice; each must be finite and real."""
    mults = []
    for start in range(0, k_table.size, _BLOCK):
        values = evaluate(k_table[start:start + _BLOCK])
        mults = mults or [np.empty_like(k_table) for _ in values]
        for mult, value in zip(mults, values):
            block = mult[start:start + _BLOCK]
            block[...] = value
            if not np.all(np.isfinite(block)):
                raise ValueError("multiplier produced non-finite values on the grid")
    return mults


def _apply_radial(fld: Field, mult: np.ndarray, index: np.ndarray) -> Field:
    """F^{-1}{mult[index] F{fld}} by numpy's real-FFT round trip; ``mult`` on
    ``GridSpec.radial_table()`` and its ``index``, the index folded onto the
    half spectrum (frequency i of axes 0 ... d-2 takes the |k| of min(i, n - i))."""
    grid = fld.grid
    n, d = grid.n_per_axis, grid.dim
    spec = np.fft.rfftn(fld.samples)
    fold = np.minimum(np.arange(n), n - np.arange(n))
    spec *= mult[index[np.ix_(*[fold] * (d - 1), np.arange(n // 2 + 1))]]
    return Field(grid, np.fft.irfftn(spec, s=grid.shape(), axes=range(d)))


def apply_multiplier(field: Field, multiplier: Callable[[np.ndarray], np.ndarray]) -> Field:
    """Apply a radial spectral multiplier: F^{-1}{ multiplier(|k|) F{field} }.

    The multiplier receives consecutive slices of the 1-D table of distinct
    |k| (``GridSpec.radial_table``), so it must be elementwise in k and return
    finite real values (or a scalar); the output is real by construction.
    """
    k_table, index = field.grid.radial_table()
    (mult,) = _radial_multipliers(k_table, lambda k: [multiplier(k)])
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
    refuses first when c_inf T sqrt(d) k_nyquist is not a finite double, and
    after the zeta3 refusal when it exceeds 2^53 rad, where one ulp of
    theta T is a whole radian and cos(2 theta T) has no significant digit.
    Last, still before any evaluation, a ComplexRegimeError counts the table
    |k| on the three-real-root band (``spectral.three_root_band``), the one
    definition of that regime: an admitted image meets no later refusal of it.
    """
    image = _image_multiplier(medium, phantom.grid, T, include_zeta3)
    return apply_multiplier(phantom, lambda k: image(kernels.mode_products(medium, k)))


def _image_multiplier(medium: Medium, grid: GridSpec, T: float,
                      include_zeta3: bool = False
                      ) -> Callable[[kernels.ModeProducts], np.ndarray]:
    """The multiplier of ``time_reversal_image`` as a function of the mode
    products (``kernels.ModeProducts.mode_sum`` and ``multiplier``), after
    its refusals of T, of the scale and of the three-real-root band on the
    grid's radial table.  The bounds are taken in Python floats, which
    overflow to inf without a warning."""
    c_inf, T, tau0 = float(medium.c_inf), float(T), float(medium.tau0)
    if T <= 0:
        raise ValueError("T must be positive")
    theta_T = c_inf * T * math.sqrt(grid.dim) * grid.nyquist
    if not math.isfinite(theta_T):
        raise kernels.ScaleOverflowError(
            f"theta T is not a finite double at c_inf = {c_inf:.6g} m/s, T = {T:.6g} s")
    if include_zeta3 and T / tau0 > kernels.EXP_REAL_LIMIT:
        raise kernels.ScaleOverflowError(
            f"exp(Re lambda T) with Re lambda T = {T / tau0:.3g} is not "
            "representable; the exact reversed pipeline is only computable "
            "at nondimensional scale (use include_zeta3=False)"
        )
    if theta_T > 2.0**53:
        raise kernels.ScaleOverflowError(
            f"theta T up to {theta_T:.6g} rad exceeds 2^53 at c_inf = {c_inf:.6g} m/s, "
            f"T = {T:.6g} s: cos(2 theta T) has no significant digit")
    if (band := spectral.three_root_band(medium)) is not None:
        k_table = grid.radial_table()[0]
        refused = k_table[np.searchsorted(k_table, band[0], "right"):
                          np.searchsorted(k_table, band[1], "left")]
        if refused.size:
            raise kernels.regime_refusal(refused)
    if include_zeta3:
        return lambda mp: 2.0 * mp.mode_sum(T) * mp.mode_sum(-T)
    return lambda mp: mp.multiplier(T)


#: the phantom support: its samples at this fraction of the peak or above
SUPPORT_LEVEL = 0.01

#: D |k|^2 beyond which exp(-D |k|^2) < 2^-64, under double round-off of the
#: spectrum's peak: the band of the Gaussian image route
_BAND_EXPONENT = 64.0 * math.log(2.0)


def _support_box(grid: GridSpec, D: float, peak: float, whole: bool = False
                 ) -> tuple[tuple[slice, ...], np.ndarray, np.ndarray]:
    """Support box of ``gaussian_phantom(grid, D)`` of peak ``peak``, and
    the phantom (``_axis_factor`` on axes 0 ... d-2, times the peak on the
    last) and its support mask on it, bit for bit those of the whole
    phantom.  The box takes, on every axis, the lines where the last axis
    factor reaches SUPPORT_LEVEL of the peak (every line when ``whole``):
    the phantom peaks where that factor does and rounded products are
    monotone in each factor, so its support spans those lines.  The factor
    is evaluated on the closed-form reach sqrt(4 D ln(1/SUPPORT_LEVEL)) plus
    2 samples, which holds every rounded support sample."""
    n = grid.n_per_axis
    half = n // 2
    if not whole:
        reach = math.sqrt(4.0 * D * math.log(1.0 / SUPPORT_LEVEL)) / grid.spacing
        half = min(half, int(reach) + 2)
    window = slice(n // 2 - half, min(n, n // 2 + half + 1))
    g = _axis_factor(grid, D, window)
    last = g * peak
    level = SUPPORT_LEVEL * peak        # the last factor's maximum, g = 1 at the origin
    core = slice(0, g.size)
    if not whole:
        line = np.flatnonzero(last >= level)
        core = slice(line[0], line[-1] + 1)
    phi = functools.reduce(np.multiply.outer, [g[core]] * (grid.dim - 1) + [last[core]])
    box = slice(window.start + core.start, window.start + core.stop)
    return (box,) * grid.dim, phi, phi >= level


def _chirps(top: int, n: int) -> np.ndarray:
    """exp(i pi j^2 / n) for j = 0 ... top, with j^2 reduced mod 2n in int64
    first: the angle stays below 2 pi, and (j^2 mod 2n) / n is exact for
    n = 2^m."""
    j = np.arange(top + 1)
    angle = (j * j) % (2 * n) / n
    angle *= np.pi
    chirps = np.empty(j.size, dtype=complex)
    np.cos(angle, out=chirps.real)
    np.sin(angle, out=chirps.imag)
    return chirps


def _weights(size: int, n: int) -> np.ndarray:
    """c_m of the inverse DFT of an n-point spectrum, real and even, given on
    its frequencies 0 ... size - 1: 1/n at m = 0 and at a Nyquist m = n/2,
    2/n elsewhere, so the sum over m is 2 Re of the half sum."""
    c = np.full(size, 2.0 / n)
    c[0] = 1.0 / n
    if size - 1 == n // 2:
        c[-1] = 1.0 / n
    return c


def _zoom(spec: np.ndarray, n: int, lines: np.ndarray, axis: int) -> np.ndarray:
    """``_inverse_pass``'s sum at the consecutive output samples ``lines``
    by Bluestein's chirp-z transform: j m = (j^2 + m^2 - (j - m)^2) / 2
    turns the sum over m of s_m e^{2 pi i j m / n} into a linear
    convolution with the chirp e^{-i pi l^2 / n}, l = j - m, one product of
    three FFTs of the next power of two L >= m_b + w for w lines."""
    size, w = spec.shape[axis], lines.size
    fft_size = 1 << (size + w - 2).bit_length()
    shape = (-1,) + (1,) * (spec.ndim - 1 - axis)
    lags = np.arange(lines[0] - size + 1, lines[-1] + 1)
    chirps = _chirps(max(size - 1, -lags[0], lags[-1]), n)      # even in j
    weight = chirps[:size] * _weights(size, n)
    conv = np.fft.ifft(np.fft.fft(spec * weight.reshape(shape), fft_size, axis=axis)
                       * np.fft.fft(chirps[np.abs(lags)].conj(), fft_size).reshape(shape),
                       axis=axis)
    conv = conv[(slice(None),) * axis + (slice(size - 1, size - 1 + w),)]
    return (conv * chirps[np.abs(lines)].reshape(shape)).real


def _direct(spec: np.ndarray, n: int, lines: np.ndarray, axis: int) -> np.ndarray:
    """``_inverse_pass``'s sum at the output samples ``lines`` by one real
    w x (m_b + 1) matrix C[j, m] = c_m cos(2 pi ((l_j m) mod n) / n),
    l_j m reduced in int64 first as in ``_chirps``, with the weights c_m of
    ``_weights``, shared by every line along the other axes.

    ``np.einsum`` applies it without BLAS, whose sums depend on the BLAS
    thread count once a product is large enough to be split (``np.matmul``,
    one gemm per slice, moved a 2-D 4096^2 image between 1 and 2 OpenBLAS
    threads).  The pass axis is taken last and contiguous (a copy only where
    it is not), the other axes in memory order, so each sum over m runs in
    numpy's SIMD dot loop: a strided sum of 513 terms missed ``irfft`` by
    1.24e-15 of the line's max, the contiguous one by 9.8e-16.  The output
    axis comes first in memory, so in passes over axes 0, 1, ... of an
    array whose axis 0 is contiguous every pass reads contiguous sums."""
    size = spec.shape[axis]
    angle = np.multiply.outer(lines, np.arange(size)) % n * (2.0 / n)
    angle *= np.pi
    matrix = np.cos(angle)
    matrix *= _weights(size, n)
    others = sorted((a for a in range(spec.ndim) if a != axis), key=lambda a: -spec.strides[a])
    moved = np.ascontiguousarray(spec.transpose(others + [axis]))
    out = np.einsum("...m,jm->j...", moved, matrix, order="C")
    return out.transpose(np.argsort([axis] + others))


def _route(shape: tuple[int, ...], n: int, w: int, axis: int) -> str:
    """The route of ``_inverse_pass`` for a spectrum of ``shape`` and w
    output lines; README gives the rule and its timings."""
    size = shape[axis]
    if 8 * w * size <= math.prod(shape) // size * n:
        return "direct"
    if 8 * (size - 1 + w) <= n:
        return "zoom"
    return "irfft"


def _inverse_pass(spec: np.ndarray, n: int, box: slice, axis: int) -> np.ndarray:
    """Inverse DFT along ``axis`` of an n-point spectrum that is real and
    even on that axis, given on its frequencies 0 ... m_b <= n/2 (zero
    beyond), on the grid lines ``box``.  Grid line j holds output sample
    j - n/2, which undoes the phase (-1)^m of a grid-centred phantom.  The
    sum is taken by the route of ``_route``: ``_direct``, ``_zoom``, or
    ``irfft`` and the box's lines."""
    lines = np.arange(box.start, box.stop) - n // 2
    route = _route(spec.shape, n, lines.size, axis)
    if route == "direct":
        return _direct(spec, n, lines, axis)
    if route == "zoom":
        return _zoom(spec, n, lines, axis)
    return np.fft.irfft(spec, n, axis=axis).take(lines % n, axis=axis)


def _gaussian_images(grid: GridSpec, D: float, medium: Medium, T: float,
                     *extra: Callable[[kernels.ModeProducts], np.ndarray],
                     whole: bool = False
                     ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Phantom ``gaussian_phantom(grid, D)``, its support mask and its images
    on the support box (the whole grid when ``whole``):
    ``time_reversal_image(medium, phantom, T)``, then F^{-1}{m(mp) F{phi}}
    for each m of ``extra``, a function of the ``kernels.ModeProducts`` mp
    of |k|; each |k| block is solved once for all of them.  The refusals
    of the phantom, then of the image multiplier, precede any evaluation; a
    max|M| times the peak that is no finite double is refused per image.

    No forward pass and no full line is needed.  The phantom is the peak
    times g(x_1) ... g(x_d), g = exp(-x^2 / (4 D)), so its DFT is the
    product of one axis spectrum per axis.  Centred on the grid, that is
    (-1)^m S_m with S real and even; ``_inverse_pass`` undoes the phase.  On
    the lattice k_m = 2 pi m / extent,

        S_m = sqrt(4 pi D) / dx exp(-D k_m^2),

    the spectrum of the periodised Gaussian, differs from the DFT of the
    samples by at most the phantom's edge value exp(-(extent/2)^2 / (4 D))
    (<= e^-18 by the support refusal) plus the alias exp(-D (pi / dx)^2),
    relative to S_0.  Where both exponents exceed _BAND_EXPONENT, so both
    terms are below 2^-64, the closed form is taken on the band
    D |k|^2 <= _BAND_EXPONENT, zero beyond, and the multipliers are
    evaluated on the band's distinct |k| only (``GridSpec.radial_table``
    with ``q_max``).  Otherwise the band is every frequency and S is the
    real DFT of the sampled g: a phantom narrower than a sample keeps its
    spectrum.  Each image is then one ``_inverse_pass`` per axis, that
    axis's S multiplied in just before it, on the box's non-negative lines
    0 ... h only (h its largest |line - n/2|).  M and phi are radial, so the
    image is even: it is that half box mirrored once, even bit for bit.
    """
    n, d = grid.n_per_axis, grid.dim
    D, peak = _gaussian_peak(grid, D)
    box, phi, mask = _support_box(grid, D, peak, whole)
    multipliers = [_image_multiplier(medium, grid, T), *extra]
    alpha = (2.0 * math.pi * math.sqrt(D) / grid.extent) ** 2     # D k_m^2 = alpha m^2
    half = grid.extent / 2.0
    if min(alpha * (n // 2) ** 2, half * half / (4.0 * D)) > _BAND_EXPONENT:
        q_band = int(_BAND_EXPONENT / alpha)
        k_table, index = grid.radial_table(q_band)
        m = np.arange(math.isqrt(q_band) + 1)
        spectrum = math.sqrt(4.0 * math.pi * D) / grid.spacing * np.exp(-alpha * (m * m))
    else:
        k_table, index = grid.radial_table()
        spectrum = np.fft.rfft(np.fft.ifftshift(_axis_factor(grid, D, slice(None)))).real

    def evaluate(k):
        mp = kernels.mode_products(medium, k)
        return [multiplier(mp) for multiplier in multipliers]

    start, stop = box[0].start - n // 2, box[0].stop - n // 2      # lines start ... stop - 1
    nonneg = slice(n // 2, n // 2 + max(-start, stop - 1) + 1)
    images = []
    for mult in _radial_multipliers(k_table, evaluate):
        if not math.isfinite(float(np.max(np.abs(mult))) * peak):
            raise kernels.ScaleOverflowError(
                f"max|M| (4 pi D)^(-{d}/2) at D = {D:.6g} m^2 is not a finite double")
        # lattice points beyond the band index one past the table; the octant
        # is symmetric in its axes, so its transpose (axis 0 contiguous) is
        # the same array in the layout the direct passes read without a copy
        spec = np.append(mult * peak, 0.0)[index].T
        for axis in range(d):
            spec *= spectrum.reshape((-1,) + (1,) * (d - 1 - axis))
            spec = _inverse_pass(spec, n, nonneg, axis)
        # the mirror's index is built per image: no n-long index lives through a pass
        images.append(spec[np.ix_(*[np.abs(np.arange(start, stop))] * d)])
    return phi, mask, images
