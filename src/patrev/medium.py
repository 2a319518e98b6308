"""Physical parameters of a one-relaxation dissipative acoustic medium.

The model is parametrized by a relaxation time ``tau1``, a compressibility
``kappa1``, a density ``rho`` and one of the two sound speeds: the
low-frequency (equilibrium) speed ``c0`` or the high-frequency limit
``c_inf``.  Everything else is derived:

    tau0  = (1 - c0^2 rho kappa1) tau1 = tau1 / (1 + c_inf^2 rho kappa1)
    c_inf = sqrt(tau1/tau0) c0
    k_c   = 2 / (c0 tau1)      (threshold between weakly and strongly
                                dispersed wavenumbers)

``tau0 in (0, tau1]`` is required for a finite wavefront speed; equality
holds in the dissipation-free case ``kappa1 = 0`` and also whenever
``c0^2 rho kappa1`` is below double resolution (e.g. ``kappa1 = 1e-30`` at
unit scale).  The general formulas cover both, so no code path branches on
dissipation; only the reconstruction report's identity check keys on
``tau0 == tau1``.  All quantities are SI; ``Medium`` is immutable.  This is
the physics only: config files and their key names belong to ``experiments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SPEED_KINDS",
    "RawParams",
    "Medium",
    "UnphysicalMediumError",
    "derive_medium",
    "nondimensional_medium",
    "water_params",
]

SPEED_KINDS = ("c_infinity", "c_zero")

#: relative tolerance of the internal consistency relations between stored fields
_REL_TOL = 1e-12

#: smallest admitted tau0/tau1: 1 - c0^2 rho kappa1 is 0 or at least 2^-53 in
#: doubles, and the dispersion solver's root l0 <= tau1/tau0 stays below 1e16
_MIN_TAU_RATIO = 2.0**-53


class UnphysicalMediumError(ValueError):
    """Raised when the parameters admit no finite wavefront speed (tau0 <= 0)."""


@dataclass(frozen=True)
class RawParams:
    """User-supplied medium parameters.

    ``speed`` is tagged by ``speed_kind``: ``"c_infinity"`` if the
    high-frequency speed is given (the usual tabulated sound speed),
    ``"c_zero"`` for the equilibrium speed appearing in the wave operator.
    """

    tau1: float        # relaxation time [s]
    kappa1: float      # compressibility [m^2/N]
    rho: float         # density [kg/m^3]
    speed: float       # [m/s], meaning set by speed_kind
    speed_kind: str = "c_infinity"

    def __post_init__(self):
        for name in ("tau1", "rho", "speed"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.kappa1 < math.inf:
            raise ValueError(f"kappa1 must be non-negative and finite, got {self.kappa1}")
        if self.speed_kind not in SPEED_KINDS:
            raise ValueError(
                f"speed_kind must be one of {SPEED_KINDS}, got {self.speed_kind!r}"
            )


@dataclass(frozen=True)
class Medium:
    """Validated medium with all derived constants.

    Invariants (checked on construction):
      * 0 < tau0 <= tau1, equality for kappa1 = 0 and for kappa1 so small
        that c0^2 rho kappa1 rounds away against 1
      * c_inf = sqrt(tau1/tau0) c0        (to 1e-12 relative)
      * tau0/tau1 >= 2^-53
      * tau1/tau0 = 1 + c_inf^2 rho kappa1 (to 1e-12 relative), a sum of
        positive terms that holds to round-off for either speed kind, where
        the equivalent tau0 = (1 - c0^2 rho kappa1) tau1 cancels
      * k_c = 2/(c0 tau1) exactly as computed from the stored fields
    """

    tau1: float    # relaxation time [s]
    tau0: float    # relaxed time [s]
    c0: float      # equilibrium sound speed [m/s]
    c_inf: float   # high-frequency sound speed [m/s]
    kappa1: float  # compressibility [m^2/N]
    rho: float     # density [kg/m^3]
    k_c: float     # critical wavenumber [1/m]

    def __post_init__(self):
        if not 0 < self.tau0 <= self.tau1:
            raise UnphysicalMediumError(
                f"tau0 must lie in (0, tau1], got tau0={self.tau0}, tau1={self.tau1}"
            )
        if self.tau0 / self.tau1 < _MIN_TAU_RATIO:
            raise ValueError(
                f"tau0 inconsistent with c0^2 rho kappa1: tau0/tau1 = "
                f"{self.tau0 / self.tau1:.6g} is below 2^-53, the resolution of "
                "1 - c0^2 rho kappa1")
        if self.kappa1 == 0 and self.tau0 != self.tau1:
            raise ValueError("kappa1 = 0 requires tau0 = tau1 exactly")
        if not math.isclose(
            self.c_inf, math.sqrt(self.tau1 / self.tau0) * self.c0, rel_tol=_REL_TOL
        ):
            raise ValueError("c_inf and c0 are inconsistent with tau1/tau0")
        if not math.isclose(
            self.tau1 / self.tau0, 1.0 + self.c_inf * self.c_inf * self.rho * self.kappa1,
            rel_tol=_REL_TOL,
        ):
            raise ValueError("tau0 inconsistent with c0^2 rho kappa1")
        if self.k_c != 2.0 / (self.c0 * self.tau1):
            raise ValueError("k_c must equal 2/(c0 tau1) exactly")

    @property
    def tau_ratio(self) -> float:
        """tau1/tau0, the dissipation strength entering the moment data."""
        return self.tau1 / self.tau0


def derive_medium(raw: RawParams) -> Medium:
    """Derive the full constant set from raw parameters.

    With ``speed_kind == "c_infinity"``::

        tau0 = tau1 / (1 + c_inf^2 rho kappa1),  c0 = c_inf sqrt(tau0/tau1)

    with ``speed_kind == "c_zero"``::

        tau0 = (1 - c0^2 rho kappa1) tau1,  c_inf = sqrt(tau1/tau0) c0

    The two forms are algebraically equivalent and round-trip to 1e-12; at
    kappa1 = 0 both give tau0 = tau1 and c0 = c_inf exactly.

    Raises
    ------
    UnphysicalMediumError
        If the derived tau0 is not a positive double: c0^2 rho kappa1 >= 1,
        which would mean an infinite wavefront speed, or c^2 rho kappa1
        overflowing.
    ValueError
        If k_c = 2/(c0 tau1) is not a positive double: c0 tau1 underflowing
        (to 0 or below 2/DBL_MAX) or overflowing.
    """
    try:
        c2_rho_kappa1 = raw.speed**2 * raw.rho * raw.kappa1
    except OverflowError:
        c2_rho_kappa1 = math.inf
    tau0 = (raw.tau1 / (1.0 + c2_rho_kappa1) if raw.speed_kind == "c_infinity"
            else (1.0 - c2_rho_kappa1) * raw.tau1)
    if not tau0 > 0.0:
        raise UnphysicalMediumError(
            f"c^2 rho kappa1 = {c2_rho_kappa1:.6g} gives tau0 = {tau0:.6g}: "
            "no finite wavefront speed"
        )
    if raw.speed_kind == "c_infinity":
        c_inf = raw.speed
        c0 = c_inf * math.sqrt(tau0 / raw.tau1)
    else:
        c0 = raw.speed
        c_inf = math.sqrt(raw.tau1 / tau0) * c0
    c0_tau1 = c0 * raw.tau1
    k_c = 2.0 / c0_tau1 if c0_tau1 > 0.0 else math.inf
    if not 0.0 < k_c < math.inf:
        raise ValueError(f"c0 tau1 = {c0_tau1:.6g} gives k_c = {k_c:.6g}: "
                         "no finite positive critical wavenumber")
    return Medium(
        tau1=raw.tau1,
        tau0=tau0,
        c0=c0,
        c_inf=c_inf,
        kappa1=raw.kappa1,
        rho=raw.rho,
        k_c=k_c,
    )


def nondimensional_medium(tau0_over_tau1: float) -> Medium:
    """Medium with tau1 = 1, c0 = 1, rho = 1 and the given time ratio.

    Useful for tests of the relaxation-mode terms: with physical parameters
    the factor exp(Re(lambda0 - lambda1) T) is not representable in double
    precision, while at these scales every quantity is.
    """
    if not 0 < tau0_over_tau1 <= 1:
        raise ValueError("tau0/tau1 must lie in (0, 1]")
    kappa1 = 1.0 - tau0_over_tau1  # from tau0 = (1 - c0^2 rho kappa1) tau1
    return derive_medium(
        RawParams(tau1=1.0, kappa1=kappa1, rho=1.0, speed=1.0, speed_kind="c_zero")
    )


def water_params() -> RawParams:
    """Standard parameter set for tissue similar to water at normal temperature."""
    return RawParams(
        tau1=1e-9, kappa1=5e-10, rho=1e3, speed=1500.0, speed_kind="c_infinity"
    )
