"""Gridded Fourier machinery: phantoms, spectral multipliers, wave evolution.

Fields live on uniform, origin-centered periodic grids of 2^m samples per
axis (d = 1, 2 or 3).  All propagation and imaging operators are diagonal in
k and radial, so everything reduces to FFT round trips with radial
multipliers; a real, radial multiplier applied to a real field returns a real
field up to round-off, which is checked by the tests (Parseval and
imaginary-residue contracts).

Imaging multipliers are therefore evaluated once per distinct |k|, not once
per grid point.  ``GridSpec.radial_table`` lists the distinct |k| of the
real-FFT half spectrum (layout of ``np.fft.rfftn``: shape
(n,)*(d-1) + (n//2+1,), FFT order on every axis, non-negative frequencies
only on the last) together with an integer index per half-spectrum point;
``apply_multiplier`` and ``time_reversal_image`` evaluate on that 1-D table,
gather with the index and run one rfftn/irfftn round trip.  A multiplier
callable hence receives the 1-D table of distinct |k|, not a grid-shaped
array, and must be elementwise in k.

Periodic wrap-around is the one discretization hazard: identities of the
form F^{-1}{sin^2(c0 k T) phi_hat} = phi/2 hold on the interior region only
because the outgoing shells sit at |x| = 2 c0 T, and on a periodic grid those
shells re-enter unless the extent exceeds about 4 c0 T.  A GridAliasingWarning
is emitted when that margin is violated.

Serialization: raw little-endian float64 samples plus a sidecar text header
(dim, n_per_axis, extent, label); 1-D profiles export to CSV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .medium import Medium
from . import kernels

__all__ = [
    "GridSpec",
    "Field",
    "InteriorRegion",
    "PhantomSupportError",
    "GridAliasingWarning",
    "gaussian_phantom",
    "apply_multiplier",
    "propdelta_check",
    "forward_pressure_hat",
    "time_reversal_image",
    "save_field",
    "load_field",
    "field_profile_csv",
]


class PhantomSupportError(ValueError):
    """The requested phantom does not fit the grid."""


class GridAliasingWarning(UserWarning):
    """Outgoing shells wrap around the periodic grid back into the region."""


def _outer_sum(vectors: list[np.ndarray]) -> np.ndarray:
    """sum_i v_i broadcast with v_i along axis i, added in axis order."""
    d = len(vectors)
    return sum(v.reshape((-1,) + (1,) * (d - 1 - i)) for i, v in enumerate(vectors))


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
        if not self.extent > 0:
            raise ValueError(f"extent must be positive, got {self.extent}")

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
        total = _outer_sum([ax * ax] * self.dim)
        return np.sqrt(total, out=total)

    def radius(self) -> np.ndarray:
        """|x| on the full grid."""
        return self._magnitude(self.axis_coords())

    def _k_axis(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_per_axis, d=self.spacing)

    def k_magnitude(self) -> np.ndarray:
        """|k| on the full grid in FFT layout [1/m]."""
        return self._magnitude(self._k_axis())

    def radial_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct |k| of the real-FFT half spectrum and an index into them.

        Returns ``(k_table, index)``: ``k_table`` is the strictly increasing
        1-D array of distinct |k| [1/m] and ``index`` has the half-spectrum
        shape (n,)*(d-1) + (n//2+1,) of ``np.fft.rfftn``, with
        ``k_table[index]`` equal to ``k_magnitude()[..., :n//2+1]`` (exactly
        in 1-D, to round-off otherwise).  On the periodic lattice
        |k|^2 = (2 pi / extent)^2 q with integer q = sum_i m_i^2 <= d (n/2)^2,
        so the distinct values are found by marking the occupied q.
        """
        n, d = self.n_per_axis, self.dim
        half = n // 2 + 1
        kax = self._k_axis()
        if d == 1:
            return np.abs(kax[:half]), np.arange(half)
        m = (np.arange(n) + n // 2) % n - n // 2
        q = _outer_sum([m * m] * (d - 1) + [np.arange(half) ** 2])
        occupied = np.zeros(d * (n // 2) ** 2 + 1, dtype=bool)
        occupied[q] = True
        rank = np.cumsum(occupied) - 1
        return kax[1] * np.sqrt(np.flatnonzero(occupied)), rank[q]

    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.dim


@dataclass(frozen=True)
class Field:
    """Real-valued samples on a grid."""

    grid: GridSpec
    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.samples.shape != self.grid.shape():
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid "
                f"{self.grid.shape()}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("field samples must be finite")

    def l2_norm(self) -> float:
        """Discrete L2 norm including the volume element."""
        return float(
            np.sqrt(np.sum(self.samples**2)) * self.grid.spacing ** (self.grid.dim / 2.0)
        )

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
    discrete integral equals 1 to 1e-6.
    """
    if not D > 0:
        raise ValueError("D must be positive")
    sigma = math.sqrt(2.0 * D)
    if 6.0 * sigma > grid.extent / 2.0:
        raise PhantomSupportError(
            f"6 sigma = {6 * sigma:.6g} m exceeds half the extent "
            f"({grid.extent / 2:.6g} m)"
        )
    r = grid.radius()
    samples = (4.0 * math.pi * D) ** (-grid.dim / 2.0) * np.exp(-(r * r) / (4.0 * D))
    return Field(grid, samples, label=f"gaussian D={D:.6g}")


def _apply_radial(fld: Field, mult: np.ndarray, index: np.ndarray, label: str) -> Field:
    """F^{-1}{mult[index] F{fld}} by one real-FFT round trip.

    ``mult`` holds real multiplier values on ``fld.grid.radial_table()`` and
    ``index`` is that table's half-spectrum index.
    """
    spec = np.fft.rfftn(fld.samples)
    spec *= mult[index]
    out = np.fft.irfftn(spec, s=fld.grid.shape(), axes=tuple(range(fld.grid.dim)))
    return Field(fld.grid, out, label=label)


def apply_multiplier(field: Field, multiplier: Callable[[np.ndarray], np.ndarray]) -> Field:
    """Apply a radial spectral multiplier: F^{-1}{ multiplier(|k|) F{field} }.

    The multiplier callable receives the 1-D array of distinct |k| of the
    grid (``GridSpec.radial_table``), not a grid-shaped array, so it must be
    elementwise in k; it must return finite real values on it.  The result
    is gathered onto the real-FFT half spectrum, so the output is real by
    construction.
    """
    k_table, index = field.grid.radial_table()
    mvals = np.broadcast_to(np.asarray(multiplier(k_table), dtype=float), k_table.shape)
    if not np.all(np.isfinite(mvals)):
        raise ValueError("multiplier produced non-finite values on the grid")
    return _apply_radial(field, mvals, index, field.label)


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


def _checked_products(medium: Medium, k: np.ndarray) -> kernels.ModeProducts:
    mp = kernels.mode_products(medium, k)
    mp.require_real_regime()
    if np.min(mp.lambda0.real) < 0 or np.min(mp.lambda1.real) < -1e-12 / medium.tau0:
        raise ValueError(
            "negative decay rate on the grid: forward evolution would grow"
        )
    return mp


def forward_pressure_hat(medium: Medium, phantom: Field, t: float) -> np.ndarray:
    """Spectral pressure p_hat(k, t) = -phi_hat(k) sum_j A_j lambda_j e^{-lambda_j t}.

    Reduces to phi_hat cos(c0 k t) for kappa1 = 0 and to (tau1/tau0) phi_hat
    as t -> 0+.  Requires Re(lambda_j) >= 0 on the whole grid (true for
    water-like media), so the forward factors never overflow.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    mp = _checked_products(medium, phantom.grid.k_magnitude())
    decay = (
        mp.p0 * np.exp(-mp.lambda0 * t)
        + mp.p1 * np.exp(-mp.lambda1 * t)
        + mp.p2 * np.exp(-mp.lambda2 * t)
    )
    return -np.fft.fftn(phantom.samples) * decay


def time_reversal_image(medium: Medium, phantom: Field, T: float,
                        include_zeta3: bool = False) -> Field:
    """Time-reversal image I = 2 q|_{t=T} of a phantom evolved to time T.

    With ``include_zeta3`` the literal two-stage product is formed,

        I_hat = 2 [sum_j A_j l_j e^{-l_j T}] [sum_l A_l l_l e^{+l_l T}] phi_hat,

    which requires every exp(Re lambda_j T) to be representable; at physical
    tissue scale it is not (Re lambda0 T ~ 1e6) and a ScaleOverflowError is
    raised, directing callers to the small-wavenumber kernel path.  Without
    the flag the relaxation-oscillation cross terms are dropped and the
    remaining product is reduced analytically,

        I_hat = 2 [p0^2 + 2 Re(p1^2) + 2 |p1|^2 cos(2 theta T)] phi_hat,

    which is finite at any scale and equals the zeta3-excluded multiplier of
    the kernels module.  Both are evaluated on the grid's radial table.  With
    the flag only the real part of the product is applied: for a radial
    multiplier on a real field its imaginary part only adds an imaginary
    residue to the image.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    k_table, index = phantom.grid.radial_table()
    mp = _checked_products(medium, k_table)
    if include_zeta3:
        max_rate = max(
            float(np.max(mp.lambda0.real)),
            float(np.max(mp.lambda1.real)),
            float(np.max(mp.lambda2.real)),
        )
        if max_rate * T > kernels.EXP_REAL_LIMIT:
            raise kernels.ScaleOverflowError(
                f"exp(Re lambda T) with Re lambda T = {max_rate * T:.3g} is not "
                "representable; the exact reversed pipeline is only computable "
                "at nondimensional scale (use include_zeta3=False)"
            )
        s_minus = -(
            mp.p0 * np.exp(-mp.lambda0 * T)
            + mp.p1 * np.exp(-mp.lambda1 * T)
            + mp.p2 * np.exp(-mp.lambda2 * T)
        )
        s_plus = -(
            mp.p0 * np.exp(mp.lambda0 * T)
            + mp.p1 * np.exp(mp.lambda1 * T)
            + mp.p2 * np.exp(mp.lambda2 * T)
        )
        mult = (2.0 * s_minus * s_plus).real
    else:
        p0sq = mp.p0.real**2
        p1 = mp.p1
        mult = 2.0 * (
            p0sq
            + 2.0 * (p1 * p1).real
            + 2.0 * (p1 * np.conj(p1)).real * np.cos(2.0 * mp.theta.real * T)
        )
    return _apply_radial(phantom, mult, index, "time reversal image")


# -- serialization -------------------------------------------------------------


def save_field(fld: Field, basepath) -> tuple[Path, Path]:
    """Write <base>.f64 (raw little-endian float64, C order) and <base>.hdr."""
    base = Path(basepath)
    data_path = base.with_suffix(".f64")
    hdr_path = base.with_suffix(".hdr")
    fld.samples.astype("<f8").tofile(data_path)
    hdr_path.write_text(
        f"dim = {fld.grid.dim}\n"
        f"n_per_axis = {fld.grid.n_per_axis}\n"
        f"extent_m = {fld.grid.extent!r}\n"
        f"label = {fld.label}\n",
        encoding="utf-8",
    )
    return data_path, hdr_path


def load_field(basepath) -> Field:
    base = Path(basepath)
    hdr: dict[str, str] = {}
    for line in base.with_suffix(".hdr").read_text(encoding="utf-8").splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            hdr[key.strip()] = value.strip()
    grid = GridSpec(
        dim=int(hdr["dim"]),
        n_per_axis=int(hdr["n_per_axis"]),
        extent=float(hdr["extent_m"]),
    )
    samples = np.fromfile(base.with_suffix(".f64"), dtype="<f8").reshape(grid.shape())
    return Field(grid, samples, label=hdr.get("label", ""))


def field_profile_csv(fld: Field, path) -> Path:
    """CSV export (x, value) of a 1-D field."""
    if fld.grid.dim != 1:
        raise ValueError("profile export is 1-D only")
    path = Path(path)
    x = fld.grid.axis_coords()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# 1-D field profile\n")
        fh.write(f"# label: {fld.label}\n")
        fh.write("x_m,value\n")
        for xi, vi in zip(x, fld.samples):
            fh.write(f"{xi:.17g},{vi:.17g}\n")
    return path
