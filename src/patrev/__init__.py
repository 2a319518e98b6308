"""patrev: spectral-domain time reversal for photoacoustic tomography in
relaxing dissipative acoustic media.

The package derives medium constants, solves the dispersion cubic in closed
form, assembles the exact and small-wavenumber imaging kernels (the
relaxation cross terms stay in overflow-safe mantissa/log-scale arrays), and
runs gridded reconstruction experiments against declared tolerances.
"""

from .medium import (
    Medium,
    RawParams,
    UnphysicalMediumError,
    derive_medium,
    nondimensional_medium,
    water_params,
)
from .spectral import (
    Amplitudes,
    DegenerateRootsError,
    amplitudes,
    asymptotic_limits,
    cardano_roots,
    solve_vandermonde,
)
from .kernels import (
    ComplexRegimeError,
    ScaleOverflowError,
    dc_constant,
    eta0_hat,
)
from .transform import (
    Field,
    GridSpec,
    InteriorRegion,
    apply_multiplier,
    gaussian_phantom,
    propdelta_check,
    time_reversal_image,
)

__version__ = "0.1.0"

__all__ = [
    "Medium", "RawParams", "UnphysicalMediumError", "derive_medium",
    "nondimensional_medium", "water_params",
    "Amplitudes", "DegenerateRootsError", "amplitudes", "asymptotic_limits",
    "cardano_roots", "solve_vandermonde",
    "ComplexRegimeError", "ScaleOverflowError", "dc_constant", "eta0_hat",
    "Field", "GridSpec", "InteriorRegion", "apply_multiplier",
    "gaussian_phantom", "propdelta_check", "time_reversal_image",
]
