import functools
import math
import sys

import numpy as np
import pytest

from patrev.medium import RawParams, derive_medium, nondimensional_medium, water_params
from patrev import kernels, spectral, transform
from patrev.transform import (
    Field,
    GridSpec,
    GridAliasingWarning,
    InteriorRegion,
    PhantomSupportError,
    apply_multiplier,
    gaussian_phantom,
    propdelta_check,
    time_reversal_image,
)

WATER = derive_medium(water_params())
T_WATER = 4.0 * 0.5 / WATER.c_inf

NONDIM = nondimensional_medium(WATER.tau0 / WATER.tau1)
LOSSLESS_1 = nondimensional_medium(1.0)

DESK = GridSpec(dim=1, n_per_axis=4096, extent=64.0)
T_DESK = 6.0
D_DESK = 0.25
REGION = InteriorRegion(2.0)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(dim=4, n_per_axis=64, extent=1.0)
    with pytest.raises(ValueError):
        GridSpec(dim=1, n_per_axis=100, extent=1.0)
    with pytest.raises(ValueError):
        GridSpec(dim=1, n_per_axis=64, extent=0.0)
    g = GridSpec(dim=2, n_per_axis=64, extent=4.0)
    assert g.spacing == 4.0 / 64
    assert g.nyquist == pytest.approx(math.pi * 64 / 4.0)


def test_gaussian_phantom_normalization_and_peak():
    g = GridSpec(dim=1, n_per_axis=4096, extent=40.0)
    phi = gaussian_phantom(g, 1.0)
    assert np.sum(phi.samples) * g.spacing ** g.dim == pytest.approx(1.0, abs=1e-6)
    # peak value (4 pi D)^{-1/2} at the origin
    assert phi.samples.max() == pytest.approx((4 * math.pi) ** -0.5, rel=1e-12)


def test_gaussian_phantom_2d_normalization():
    g = GridSpec(dim=2, n_per_axis=256, extent=40.0)
    phi = gaussian_phantom(g, 1.0)
    assert np.sum(phi.samples) * g.spacing ** g.dim == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("grid", [GridSpec(dim=1, n_per_axis=4096, extent=40.0),
                                  GridSpec(dim=3, n_per_axis=32, extent=40.0)])
def test_gaussian_phantom_is_the_closed_form_bit_for_bit(grid):
    # 1-D is the closed form; 3-D is the product of one factor per axis, the
    # peak on the last, and the radial closed form to round-off
    peak = (4.0 * math.pi * 1.5) ** (-grid.dim / 2.0)
    r = grid.radius()
    radial = peak * np.exp(-(r * r) / (4.0 * 1.5))
    samples = gaussian_phantom(grid, 1.5).samples
    if grid.dim == 1:
        assert np.array_equal(samples, radial)
        return
    x = grid.axis_coords()
    g = np.exp(-(x * x) / (4.0 * 1.5))
    assert np.array_equal(samples, g[:, None, None] * g[None, :, None] * (g * peak)[None, None, :])
    assert np.max(np.abs(samples - radial)) <= 1e-15 * peak


@pytest.mark.parametrize("D", [1e-300, 1e-250])
def test_gaussian_phantom_refuses_a_peak_beyond_doubles(D):
    # (4 pi D)^{-3/2} overflows, so the phantom has no peak to scale by
    with pytest.raises(PhantomSupportError, match="is not a finite double"):
        gaussian_phantom(GridSpec(dim=3, n_per_axis=16, extent=1.0), D)


def test_gaussian_phantom_of_subnormal_D_is_a_single_spike():
    # x^2 / (-4 D) overflows to -inf off the origin, whose exp is 0 exactly
    grid = GridSpec(dim=1, n_per_axis=16, extent=1.0)
    samples = gaussian_phantom(grid, 5e-324).samples
    assert np.flatnonzero(samples).tolist() == [8]
    assert samples[8] == (4.0 * math.pi * 5e-324) ** -0.5


@pytest.mark.parametrize("grid", [GridSpec(dim=2, n_per_axis=64, extent=16.0),
                                  GridSpec(dim=3, n_per_axis=32, extent=16.0),
                                  GridSpec(dim=1, n_per_axis=4096, extent=16.0)])
@pytest.mark.parametrize("D", [0.001, 0.05, 0.5])
def test_gaussian_spectrum_equals_forward_transform(grid, D):
    # on the non-negative frequencies the phantom's spectrum is the product
    # of the leading factors' real spectra and the last factor's rfft
    D, peak = transform._gaussian_peak(grid, D)
    g = transform._axis_factor(grid, D, slice(None))
    leading, last = [g] * (grid.dim - 1), g * peak
    spec = functools.reduce(np.multiply.outer,
                            [np.fft.rfft(f).real for f in leading] + [np.fft.rfft(last)])
    reference = np.fft.rfftn(gaussian_phantom(grid, D).samples)
    reference = reference[(slice(grid.n_per_axis // 2 + 1),) * grid.dim]
    if grid.dim == 1:   # rfft of the one factor is the forward transform itself
        assert np.array_equal(spec, reference)
    assert spec.shape == reference.shape
    assert np.max(np.abs(spec - reference)) <= 1e-14 * np.max(np.abs(reference))


@pytest.mark.parametrize("n", [2, 4, 16, 64, 128])
@pytest.mark.parametrize("dim", [2, 3])
def test_leading_factor_spectra_are_real_and_even(dim, n):
    # the premise of the image route: a grid-centred factor is circularly
    # even, so its DFT is real and F[n - k] = F[k] to round-off, for D from
    # the smallest the phantom's peak admits (subnormal D overflows it) to
    # the support limit 6 sigma = extent / 2
    grid = GridSpec(dim=dim, n_per_axis=n, extent=1.0)
    limit = (grid.extent / 12.0) ** 2 / 2.0
    for D in ({2: 1e-300, 3: 1e-200}[dim], 1e-20, 1e-6, 1e-4, limit):
        F = np.fft.fft(transform._axis_factor(grid, transform._gaussian_peak(grid, D)[0],
                                              slice(None)))
        top = np.max(np.abs(F))
        assert np.max(np.abs(F.imag)) <= 1e-15 * top
        assert np.max(np.abs(F[n - np.arange(1, n)] - F[1:])) <= 1e-15 * top


def test_gaussian_support_check():
    g = GridSpec(dim=1, n_per_axis=256, extent=4.0)
    with pytest.raises(PhantomSupportError):
        gaussian_phantom(g, 1.0)


def test_reference_phantom_band_limit():
    # D0 (kc/100)^2 = 25 exactly, so the spectrum at kc/100 is e^{-25}
    d0 = (500.0 / WATER.k_c) ** 2
    assert d0 == pytest.approx(6.618e-8, rel=1e-3)
    exponent = d0 * (WATER.k_c / 100.0) ** 2
    assert exponent == pytest.approx(25.0, rel=1e-12)
    assert math.exp(-exponent) == pytest.approx(1.4e-11, rel=0.02)


def test_identity_multiplier_round_trip():
    phi = gaussian_phantom(DESK, D_DESK)
    out = apply_multiplier(phi, lambda k: np.ones_like(k))
    rel = np.linalg.norm(out.samples - phi.samples) / np.linalg.norm(phi.samples)
    assert rel <= 1e-12


def test_parseval_round_trip():
    phi = gaussian_phantom(DESK, D_DESK)
    spec = np.fft.fftn(phi.samples)
    back = np.fft.ifftn(spec).real
    assert np.linalg.norm(back - phi.samples) <= 1e-12 * np.linalg.norm(phi.samples)


def test_imaginary_residue_is_roundoff():
    phi = gaussian_phantom(DESK, D_DESK)
    kmag = DESK.k_magnitude()
    out = np.fft.ifftn(np.cos(kmag) * np.fft.fftn(phi.samples))
    assert np.linalg.norm(out.imag) <= 1e-9 * np.linalg.norm(out.real)


def test_lossless_multiplier_restores_phantom_on_region():
    # 2 - 2 sin^2(c0 k T) acts as the identity inside the region: the
    # outgoing shells sit at |x| = 2 c0 T, far outside it
    phi = gaussian_phantom(DESK, D_DESK)
    c0 = LOSSLESS_1.c0
    out = apply_multiplier(
        phi, lambda k: 2.0 - 2.0 * np.sin(c0 * k * T_DESK) ** 2)
    mask = REGION.mask(DESK)
    err = np.max(np.abs(out.samples[mask] - phi.samples[mask]))
    assert err <= 1e-3 * np.max(np.abs(phi.samples[mask]))


def test_multiplier_must_be_finite():
    phi = gaussian_phantom(DESK, D_DESK)
    with pytest.raises(ValueError):
        apply_multiplier(phi, lambda k: np.where(k == 0, np.inf, 1.0))


@pytest.mark.parametrize("grid, size", [
    (GridSpec(dim=1, n_per_axis=4096, extent=64.0), 4096 // 2 + 1),
    (GridSpec(dim=2, n_per_axis=64, extent=32.0), None),
    (GridSpec(dim=3, n_per_axis=128, extent=8.0), 8041),
    (GridSpec(dim=2, n_per_axis=2, extent=1.0), 3),
    (GridSpec(dim=3, n_per_axis=2, extent=1.0), 4),
])
def test_radial_table_matches_grid(grid, size):
    # the index covers frequencies 0 ... n/2 of every axis; n = 2 has only
    # the Nyquist frequency, which np.fft.fftfreq makes negative, and the
    # table must still hold |k|
    n = grid.n_per_axis
    k_table, index = grid.radial_table()
    assert k_table[0] == 0.0 and np.all(np.diff(k_table) > 0)
    octant = grid.k_magnitude()[(slice(n // 2 + 1),) * grid.dim]
    if grid.dim == 1:
        assert np.array_equal(index, np.arange(n // 2 + 1))
        assert np.array_equal(k_table[index], octant)
    else:
        assert index.shape == (n // 2 + 1,) * grid.dim
        np.testing.assert_allclose(k_table[index], octant, rtol=1e-15, atol=0.0)
        assert np.unique(index).size == k_table.size
    if size is not None:
        assert k_table.size == size


def _full_grid_route(phi, mult):
    """Reference: complex FFT round trip with the multiplier on every point."""
    spec = mult(phi.grid.k_magnitude()) * np.fft.fftn(phi.samples)
    return np.fft.ifftn(spec).real


def _forward(medium, t):
    """Forward pressure multiplier -sum_j A_j l_j e^{-l_j t}, the factor the
    zeta3 pipeline uses, for ``apply_multiplier``."""
    return lambda k: -kernels.mode_products(medium, k).mode_sum(t)


def _full_grid_forward(medium, t):
    """Reference forward multiplier -sum_j A_j l_j e^{-l_j t}, complex, with
    lambda_{1,2} = mu +- i theta and p2 = conj(p1)."""
    def mult(k):
        mp = kernels.mode_products(medium, k)
        lam1 = mp.mu + 1j * mp.theta
        return -(mp.p0 * np.exp(-mp.lambda0 * t) + mp.p1 * np.exp(-lam1 * t)
                 + np.conj(mp.p1) * np.exp(-np.conj(lam1) * t))
    return mult


def _full_grid_image(medium, T, include_zeta3):
    def mult(k):
        if include_zeta3:
            return (2.0 * _full_grid_forward(medium, T)(k)
                    * _full_grid_forward(medium, -T)(k))
        mp = kernels.mode_products(medium, k)
        p1 = mp.p1
        return 2.0 * (mp.p0 ** 2 + 2.0 * (p1 * p1).real
                      + 2.0 * (p1 * np.conj(p1)).real * np.cos(2.0 * mp.theta * T))
    return mult


@pytest.mark.parametrize("grid, D", [
    (GridSpec(dim=2, n_per_axis=64, extent=32.0), 0.5),
    (GridSpec(dim=3, n_per_axis=32, extent=16.0), 0.25),
])
def test_radial_route_equals_full_grid_route(grid, D):
    phi = gaussian_phantom(grid, D)
    T = 2.0

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    def eta_like(k):
        return kernels.multiplier_grid(NONDIM, k, T, include_zeta3=False)

    out = apply_multiplier(phi, eta_like)
    assert rel(out.samples, _full_grid_route(phi, eta_like)) <= 1e-12
    for flag in (False, True):
        img = time_reversal_image(NONDIM, phi, T, include_zeta3=flag)
        ref = _full_grid_route(phi, _full_grid_image(NONDIM, T, flag))
        assert rel(img.samples, ref) <= 1e-12
    fwd = apply_multiplier(phi, _forward(NONDIM, T))
    assert rel(fwd.samples, _full_grid_route(phi, _full_grid_forward(NONDIM, T))) <= 1e-12


# -- propdelta -----------------------------------------------------------------


def analytic_half_delta(phi, grid, shift):
    # F^{-1}{sin^2(c k T) phi_hat} = phi/2 - [phi(x-2cT) + phi(x+2cT)]/4 on a
    # periodic grid; the shifted copies realign on grid points when
    # shift/spacing is an integer
    n = grid.n_per_axis
    steps = int(round(shift / grid.spacing))
    left = np.roll(phi, steps)
    right = np.roll(phi, -steps)
    return phi / 2.0 - (left + right) / 4.0


def test_propdelta_identity_and_oracle():
    phi = gaussian_phantom(DESK, D_DESK)
    res = propdelta_check(phi, LOSSLESS_1, T_DESK, REGION)
    assert res <= 1e-3
    # oracle: shifted-copy representation of the sin^2 multiplier
    half = apply_multiplier(phi, lambda k: np.sin(LOSSLESS_1.c0 * k * T_DESK) ** 2)
    oracle = analytic_half_delta(phi.samples, DESK, 2 * LOSSLESS_1.c0 * T_DESK)
    assert np.max(np.abs(half.samples - oracle)) <= 1e-9 * np.max(np.abs(oracle))


def test_propdelta_at_half_time():
    phi = gaussian_phantom(DESK, D_DESK)
    assert propdelta_check(phi, LOSSLESS_1, T_DESK / 2.0, REGION) <= 1e-3


def test_propdelta_zero_field():
    zero = Field(DESK, np.zeros(DESK.shape()))
    assert propdelta_check(zero, LOSSLESS_1, T_DESK, REGION) == 0.0


def test_propdelta_aliasing_warning():
    big_t = 20.0  # extent 64 < 4 c0 T = 80
    phi = gaussian_phantom(DESK, D_DESK)
    with pytest.warns(GridAliasingWarning):
        propdelta_check(phi, LOSSLESS_1, big_t, REGION)


def test_propdelta_region_must_fit():
    phi = gaussian_phantom(DESK, D_DESK)
    with pytest.raises(ValueError):
        propdelta_check(phi, LOSSLESS_1, 1.0, InteriorRegion(2.0))


# -- forward evolution ---------------------------------------------------------


def test_forward_pressure_dissipation_free_is_dalembert():
    phi = gaussian_phantom(DESK, D_DESK)
    t = 3.0
    phat = np.fft.fftn(apply_multiplier(phi, _forward(LOSSLESS_1, t)).samples)
    kmag = DESK.k_magnitude()
    expected = np.fft.fftn(phi.samples) * np.cos(LOSSLESS_1.c0 * kmag * t)
    assert np.allclose(phat, expected, rtol=0, atol=1e-9 * np.max(np.abs(expected)))


def test_forward_pressure_small_time_limit():
    phi = gaussian_phantom(DESK, D_DESK)
    t = 1e-9
    phat = np.fft.fftn(apply_multiplier(phi, _forward(NONDIM, t)).samples)
    expected = np.fft.fftn(phi.samples) * NONDIM.tau_ratio
    assert np.allclose(phat, expected, rtol=1e-6)


def test_forward_pressure_triangle_bound():
    # an impulse has phi_hat = 1 on every k; a Gaussian's spectrum underflows
    # below the round-off that the real-space round trip leaves on each mode
    impulse = np.zeros(DESK.shape())
    impulse[0] = 1.0
    phi = Field(DESK, impulse)
    phat = np.fft.fftn(apply_multiplier(phi, _forward(NONDIM, T_DESK)).samples)
    mp = kernels.mode_products(NONDIM, DESK.k_magnitude())
    bound = np.abs(np.fft.fftn(phi.samples)) * (
        np.abs(mp.p0) + 2.0 * np.abs(mp.p1)
    )
    assert np.all(np.abs(phat) <= bound * (1 + 1e-9) + 1e-300)


# -- time reversal -------------------------------------------------------------


def test_lossless_identity_end_to_end():
    phi = gaussian_phantom(DESK, D_DESK)
    img = time_reversal_image(LOSSLESS_1, phi, T_DESK, include_zeta3=True)
    mask = REGION.mask(DESK)
    err = np.max(np.abs(img.samples[mask] - phi.samples[mask]))
    err /= np.max(np.abs(phi.samples[mask]))
    assert err <= 1e-3


def test_composed_pipeline_equals_multiplier_nondim():
    phi = gaussian_phantom(DESK, D_DESK)
    img = time_reversal_image(NONDIM, phi, T_DESK, include_zeta3=True)
    direct = apply_multiplier(
        phi,
        lambda kk: kernels.multiplier_grid(NONDIM, kk, T_DESK, include_zeta3=True),
    )
    rel = np.linalg.norm(img.samples - direct.samples) / np.linalg.norm(direct.samples)
    assert rel <= 1e-6


def test_flag_off_equals_zeta3_excluded_multiplier():
    phi = gaussian_phantom(DESK, D_DESK)
    img = time_reversal_image(NONDIM, phi, T_DESK, include_zeta3=False)
    direct = apply_multiplier(
        phi,
        lambda kk: kernels.multiplier_grid(NONDIM, kk, T_DESK, include_zeta3=False),
    )
    rel = np.linalg.norm(img.samples - direct.samples) / np.linalg.norm(direct.samples)
    assert rel <= 1e-6


@pytest.mark.parametrize("grid, D", [
    (GridSpec(dim=1, n_per_axis=1 << 14, extent=8.0), (500.0 / WATER.k_c) ** 2),
    (GridSpec(dim=3, n_per_axis=32, extent=8.0), 0.125),
], ids=["1d", "3d"])
def test_image_and_multiplier_grid_share_one_formula(grid, D):
    phi = gaussian_phantom(grid, D)
    img = time_reversal_image(WATER, phi, T_WATER)
    direct = apply_multiplier(phi, lambda kk: kernels.multiplier_grid(WATER, kk, T_WATER))
    assert np.array_equal(img.samples, direct.samples)


def test_identity_when_kappa1_rounds_away():
    # c0^2 rho kappa1 = 1e-30 vanishes against 1: tau0 == tau1 with kappa1 > 0,
    # and any A0 dust would be amplified by exp(lambda0 T) = e^40
    medium = derive_medium(RawParams(tau1=1.0, kappa1=1e-30, rho=1.0, speed=1.0,
                                     speed_kind="c_zero"))
    assert medium.kappa1 > 0 and medium.tau0 == medium.tau1
    grid = GridSpec(dim=1, n_per_axis=1 << 14, extent=176.0)
    phi = gaussian_phantom(grid, D_DESK)
    img = time_reversal_image(medium, phi, 40.0, include_zeta3=True)
    mask = REGION.mask(grid)
    err = np.max(np.abs(img.samples[mask] - phi.samples[mask]))
    err /= np.max(np.abs(phi.samples[mask]))
    assert err <= 1e-12


def test_water_scale_zeta3_pipeline_overflows():
    grid = GridSpec(dim=1, n_per_axis=1 << 14, extent=8.0)
    phi = gaussian_phantom(grid, (500.0 / WATER.k_c) ** 2)
    with pytest.raises(kernels.ScaleOverflowError):
        time_reversal_image(WATER, phi, T_WATER, include_zeta3=True)


def test_water_scale_flag_off_is_finite_and_scales_phantom():
    grid = GridSpec(dim=1, n_per_axis=1 << 16, extent=8.0)
    phi = gaussian_phantom(grid, (500.0 / WATER.k_c) ** 2)
    img = time_reversal_image(WATER, phi, T_WATER, include_zeta3=False)
    mask = phi.samples >= 0.01 * phi.samples.max()
    gain = kernels.dc_constant(WATER)
    err = np.max(np.abs(img.samples[mask] - gain * phi.samples[mask]))
    err /= np.max(gain * phi.samples[mask])
    assert err <= 0.02


def test_zeta3_negligible_for_weak_dissipation():
    weak = nondimensional_medium(1.0 - 1e-5)
    grid = GridSpec(dim=1, n_per_axis=8192, extent=256.0)
    phi = gaussian_phantom(grid, D_DESK)
    with_z3 = time_reversal_image(weak, phi, T_DESK, include_zeta3=True)
    without = time_reversal_image(weak, phi, T_DESK, include_zeta3=False)
    mask = InteriorRegion(2.0).mask(grid)
    rel = np.linalg.norm(with_z3.samples[mask] - without.samples[mask])
    rel /= np.linalg.norm(with_z3.samples[mask])
    assert rel <= 1e-3


def test_zeta3_dominates_at_strong_dissipation():
    # at the water time ratio the relaxation cross terms are not negligible
    # on the region: the reversed relaxation mode outgrows the outgoing-wave
    # suppression for every T
    grid = GridSpec(dim=1, n_per_axis=8192, extent=256.0)
    phi = gaussian_phantom(grid, D_DESK)
    with_z3 = time_reversal_image(NONDIM, phi, T_DESK, include_zeta3=True)
    without = time_reversal_image(NONDIM, phi, T_DESK, include_zeta3=False)
    mask = InteriorRegion(2.0).mask(grid)
    rel = np.linalg.norm(with_z3.samples[mask] - without.samples[mask])
    rel /= np.linalg.norm(with_z3.samples[mask])
    assert rel > 0.5


def test_image_linearity():
    phi1 = gaussian_phantom(DESK, D_DESK)
    phi2 = gaussian_phantom(DESK, 4 * D_DESK)
    combo = Field(DESK, 2.0 * phi1.samples - 3.0 * phi2.samples)
    img_combo = time_reversal_image(NONDIM, combo, T_DESK)
    img1 = time_reversal_image(NONDIM, phi1, T_DESK)
    img2 = time_reversal_image(NONDIM, phi2, T_DESK)
    lhs = img_combo.samples
    rhs = 2.0 * img1.samples - 3.0 * img2.samples
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_radial_symmetry_preserved_1d():
    phi = gaussian_phantom(DESK, D_DESK)
    img = time_reversal_image(NONDIM, phi, T_DESK).samples
    mirrored = np.concatenate(([img[0]], img[1:][::-1]))
    assert np.max(np.abs(img - mirrored)) <= 1e-9 * np.max(np.abs(img))


def test_radial_symmetry_preserved_2d():
    grid = GridSpec(dim=2, n_per_axis=64, extent=32.0)
    phi = gaussian_phantom(grid, 0.5)
    img = time_reversal_image(NONDIM, phi, 2.0).samples
    assert np.max(np.abs(img - img.T)) <= 1e-9 * np.max(np.abs(img))
    flipped = np.flip(np.roll(np.roll(img, -1, axis=0), -1, axis=1))
    assert np.max(np.abs(img - flipped)) <= 1e-9 * np.max(np.abs(img))


def test_image_convergence_as_kappa_vanishes():
    errs = []
    for ratio in (0.9, 0.99, 0.999):
        medium = nondimensional_medium(ratio)
        phi = gaussian_phantom(DESK, D_DESK)
        img = time_reversal_image(medium, phi, T_DESK)
        mask = REGION.mask(DESK)
        errs.append(float(np.max(np.abs(img.samples[mask] - phi.samples[mask]))
                          / np.max(np.abs(phi.samples[mask]))))
    assert errs[2] < errs[1] < errs[0]


def test_complex_regime_rejected():
    # ratio 0.02 has a wide complex-C band (k ~ 2..4) that the desk grid hits
    phi = gaussian_phantom(DESK, D_DESK)
    with pytest.raises(kernels.ComplexRegimeError):
        time_reversal_image(nondimensional_medium(0.02), phi, T_DESK)



# -- blocked multiplier evaluation ---------------------------------------------

# 2^15 points: the radial table has 16385 |k|, two full blocks and a last
# block of one point (the Nyquist wavenumber)
RAGGED = GridSpec(dim=1, n_per_axis=1 << 15, extent=29000.0)
# nondimensional_medium(0.1) has three real roots for k in about
# [1.7678, 1.7889]; on RAGGED they sit at table entries 8160-8256, across the
# first block boundary
BAND_MEDIUM = nondimensional_medium(0.1)
# 464 distinct |k|, 7 of them on that band
BAND_GRID_3D = GridSpec(dim=3, n_per_axis=32, extent=64.0)


def _single_call(phi, mult):
    """Reference: np.fft.rfftn, the multiplier evaluated on the whole radial
    table in one call and gathered on the half spectrum (the frequency
    m = fftfreq(n)[i] * n of a leading axis at octant row |m|), ifft on axes
    0 ... d-2 and irfft on the last axis."""
    grid = phi.grid
    n = grid.n_per_axis
    k_table, index = grid.radial_table()
    if grid.dim > 1:
        m = np.abs(np.fft.fftfreq(n, 1.0 / n)).astype(int)
        index = index[np.ix_(*[m] * (grid.dim - 1), np.arange(n // 2 + 1))]
    spec = np.fft.rfftn(phi.samples)
    spec *= np.broadcast_to(mult(k_table), k_table.shape)[index]
    for axis in range(grid.dim - 1):
        spec = np.fft.ifft(spec, axis=axis)
    return np.fft.irfft(spec, n=n, axis=-1)


def _assert_operators_equal_single_call(phi, t, zeta3_options=(False, True)):
    def image(k):
        return kernels.mode_products(NONDIM, k).multiplier(t)

    def pipeline(k):
        mp = kernels.mode_products(NONDIM, k)
        return 2.0 * mp.mode_sum(t) * mp.mode_sum(-t)

    def sine(k):
        return np.sin(NONDIM.c0 * k * t) ** 2

    for include_zeta3 in zeta3_options:
        assert np.array_equal(
            time_reversal_image(NONDIM, phi, t, include_zeta3=include_zeta3).samples,
            _single_call(phi, pipeline if include_zeta3 else image))
    assert np.array_equal(apply_multiplier(phi, sine).samples, _single_call(phi, sine))


def test_ragged_grid_has_a_partial_last_block():
    k_table, _ = RAGGED.radial_table()
    assert k_table.size > 2 * transform._BLOCK
    assert k_table.size % transform._BLOCK == 1


def test_blocked_operators_equal_single_call_round_trip():
    _assert_operators_equal_single_call(gaussian_phantom(RAGGED, 4.0), 30.0)


def test_blocked_scalar_multiplier_broadcasts():
    phi = gaussian_phantom(RAGGED, 4.0)
    out = apply_multiplier(phi, lambda k: 0.5)
    assert np.array_equal(out.samples, _single_call(phi, lambda k: 0.5))


def test_image_set_solves_each_block_once(monkeypatch):
    # the image and the reconstruction's eta0 image share one mode_products
    # call per block: a phantom about a sample wide takes the whole 1-D
    # table, 16385 |k| in three blocks
    calls = []
    mode_products = kernels.mode_products
    monkeypatch.setattr(kernels, "mode_products",
                        lambda medium, k: calls.append(k) or mode_products(medium, k))
    _, _, images = transform._gaussian_images(RAGGED, 1.0, NONDIM, 2.0,
                                              kernels.ModeProducts.eta0_multiplier)
    k_table, _ = RAGGED.radial_table()
    assert len(images) == 2
    assert len(calls) == 3 == -(-k_table.size // transform._BLOCK)
    assert np.array_equal(np.concatenate(calls), k_table)


def test_non_finite_value_in_last_block_is_refused():
    phi = gaussian_phantom(RAGGED, 4.0)
    k_last = RAGGED.radial_table()[0][-1]
    with pytest.raises(ValueError, match="non-finite"):
        apply_multiplier(phi, lambda k: np.where(k == k_last, np.nan, 1.0))


def test_blocked_refusal_counts_the_whole_table():
    k_table, _ = RAGGED.radial_table()
    refused = ~spectral.roots_grid(BAND_MEDIUM, k_table).real_c_regime
    block = transform._BLOCK
    assert refused[:block].any() and refused[block:].any()
    with pytest.raises(kernels.ComplexRegimeError) as whole:
        kernels.mode_products(BAND_MEDIUM, k_table)
    assert f"at {np.count_nonzero(refused)} wavenumber(s)" in str(whole.value)
    phi = gaussian_phantom(RAGGED, 4.0)
    with pytest.raises(kernels.ComplexRegimeError) as refusal:
        time_reversal_image(BAND_MEDIUM, phi, 2.0)
    assert str(refusal.value) == str(whole.value)
    # a 3-D table is not uniform in |k|: the band holds q = 325-332 but 327,
    # which no sum of three squares reaches
    k_table, _ = BAND_GRID_3D.radial_table()
    assert np.count_nonzero(~spectral.roots_grid(BAND_MEDIUM, k_table).real_c_regime) == 7
    with pytest.raises(kernels.ComplexRegimeError) as whole:
        kernels.mode_products(BAND_MEDIUM, k_table)
    assert "at 7 wavenumber(s)" in str(whole.value)
    with pytest.raises(kernels.ComplexRegimeError) as refusal:
        time_reversal_image(BAND_MEDIUM, gaussian_phantom(BAND_GRID_3D, 4.0), 2.0)
    assert str(refusal.value) == str(whole.value)


def test_blocked_zeta3_overflow_names_the_whole_table():
    phi = gaussian_phantom(RAGGED, 4.0)
    k_table, _ = RAGGED.radial_table()
    mp = kernels.mode_products(WATER, k_table)
    rate = max(float(np.max(mp.lambda0)), float(np.max(mp.mu))) * T_WATER
    with pytest.raises(kernels.ScaleOverflowError) as refusal:
        time_reversal_image(WATER, phi, T_WATER, include_zeta3=True)
    assert str(refusal.value) == (
        f"exp(Re lambda T) with Re lambda T = {rate:.3g} is not "
        "representable; the exact reversed pipeline is only computable "
        "at nondimensional scale (use include_zeta3=False)"
    )


def test_zeta3_refusal_precedes_every_evaluation(monkeypatch):
    # the largest Re lambda T of any table is T/tau0, so the refusal needs
    # no mode products; on the three-real-root band it comes first too, and
    # the band's own refusal needs none either
    calls = []
    mode_products = kernels.mode_products
    monkeypatch.setattr(kernels, "mode_products",
                        lambda *args: calls.append(args) or mode_products(*args))
    phi = gaussian_phantom(RAGGED, 4.0)
    with pytest.raises(kernels.ScaleOverflowError):
        time_reversal_image(WATER, phi, T_WATER, include_zeta3=True)
    with pytest.raises(kernels.ScaleOverflowError):
        time_reversal_image(BAND_MEDIUM, phi, 701.0 * BAND_MEDIUM.tau0,
                            include_zeta3=True)
    assert calls == []
    with pytest.raises(kernels.ComplexRegimeError):
        time_reversal_image(BAND_MEDIUM, phi, 700.0 * BAND_MEDIUM.tau0,
                            include_zeta3=True)
    assert calls == []


@pytest.mark.parametrize("grid", [RAGGED, BAND_GRID_3D], ids=["1d", "3d"])
def test_band_refusal_precedes_every_evaluation(monkeypatch, grid):
    # the band comes from tau0/tau1 alone: neither image route solves a root
    # before it refuses
    calls = []
    for module, name in ((kernels, "mode_products"), (spectral, "roots_grid")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=original: calls.append(args) or f(*args))
    phi = gaussian_phantom(grid, 4.0)
    for include_zeta3 in (False, True):
        with pytest.raises(kernels.ComplexRegimeError, match="three real roots"):
            time_reversal_image(BAND_MEDIUM, phi, 2.0, include_zeta3=include_zeta3)
    with pytest.raises(kernels.ComplexRegimeError, match="three real roots"):
        transform._gaussian_images(grid, 4.0, BAND_MEDIUM, 2.0, lambda mp: 1.0)
    assert calls == []


def test_band_between_table_points_is_served():
    # the band of tau0/tau1 = 0.1111 spans 3.1e-7 k_c, between two |k| of
    # this table: the image evaluates and is finite
    medium = nondimensional_medium(0.1111)
    lo, hi = spectral.three_root_band(medium)
    k_table, _ = RAGGED.radial_table()
    assert np.searchsorted(k_table, lo) == np.searchsorted(k_table, hi)
    image = time_reversal_image(medium, gaussian_phantom(RAGGED, 4.0), 2.0)
    assert np.all(np.isfinite(image.samples))


@pytest.mark.parametrize("grid", [DESK, GridSpec(dim=3, n_per_axis=16, extent=8.0)],
                         ids=["1d", "3d"])
def test_theta_T_refusal_precedes_every_evaluation(monkeypatch, grid):
    # theta <= c_inf |k| <= c_inf sqrt(d) k_nyquist: past the first refusal
    # cos(2 theta T) is undefined on the table, past the second one ulp of
    # theta T is a radian or more, and just below 2^53 rad the image is finite
    calls = []
    mode_products = kernels.mode_products
    monkeypatch.setattr(kernels, "mode_products",
                        lambda *args: calls.append(args) or mode_products(*args))
    phi = gaussian_phantom(grid, 0.01)
    per_T = LOSSLESS_1.c_inf * math.sqrt(grid.dim) * grid.nyquist
    T = sys.float_info.max / per_T
    for include_zeta3 in (False, True):
        with pytest.raises(kernels.ScaleOverflowError, match="theta T is not a finite"):
            time_reversal_image(LOSSLESS_1, phi, 1.01 * T, include_zeta3=include_zeta3)
    for T_refused in (0.99 * T, 1.01 * 2.0**53 / per_T):
        with pytest.raises(kernels.ScaleOverflowError, match="exceeds 2\\^53"):
            time_reversal_image(LOSSLESS_1, phi, T_refused)
    assert calls == []
    image = time_reversal_image(LOSSLESS_1, phi, 0.99 * 2.0**53 / per_T)
    assert len(calls) == 1
    assert np.all(np.isfinite(image.samples))


def test_scale_refusals_take_numpy_scalars():
    # the bounds are formed in Python floats, so a float64 T that overflows
    # them is refused rather than raising a RuntimeWarning (an error here)
    phi = gaussian_phantom(GridSpec(dim=3, n_per_axis=16, extent=8.0), 0.01)
    for include_zeta3 in (False, True):
        with pytest.raises(kernels.ScaleOverflowError, match="theta T is not a finite"):
            time_reversal_image(LOSSLESS_1, phi, np.float64(sys.float_info.max),
                                include_zeta3=include_zeta3)
    # theta T finite, T / tau0 = 2e309 is not
    with pytest.raises(kernels.ScaleOverflowError, match="Re lambda T = inf"):
        time_reversal_image(WATER, phi, np.float64(1e300), include_zeta3=True)


# -- the round trips ---------------------------------------------------------


@pytest.mark.parametrize("include_zeta3", [False, True])
@pytest.mark.parametrize("grid", [
    GridSpec(dim=2, n_per_axis=2, extent=16.0),
    GridSpec(dim=2, n_per_axis=4, extent=16.0),
    GridSpec(dim=2, n_per_axis=64, extent=32.0),
    GridSpec(dim=3, n_per_axis=2, extent=16.0),
    GridSpec(dim=3, n_per_axis=4, extent=16.0),
    GridSpec(dim=3, n_per_axis=16, extent=16.0),
])
def test_passes_equal_library_round_trip(grid, include_zeta3):
    # a random field has no symmetry that could hide a misfolded index:
    # frequencies i and n - i of a leading axis must take one |k|
    phi = Field(grid, np.random.default_rng(grid.dim * grid.n_per_axis)
                .standard_normal(grid.shape()))
    _assert_operators_equal_single_call(phi, 2.0, (include_zeta3,))


#: per axis (up to three), as functions of n
_BOXES = {
    "centred": lambda n: [slice(n // 2 - 3, n // 2 + 4)] * 3,
    "off_centre": lambda n: [slice(1, 6), slice(n - 5, n), slice(0, 2)],
    "single_sample": lambda n: [slice(n // 2 + 1, n // 2 + 2), slice(3, 4), slice(n - 1, n)],
    "full_axes": lambda n: [slice(0, n), slice(2, 9), slice(0, n)],
    "whole_grid": lambda n: [slice(0, n)] * 3,
}


def _even_extension(octant: np.ndarray, n: int) -> np.ndarray:
    """The n^d spectrum, frequency i of every axis at octant entry min(i, n - i)
    (zero past the octant), whose inverse the passes compute."""
    padded = np.zeros((n // 2 + 1,) * octant.ndim)
    padded[(slice(0, octant.shape[0]),) * octant.ndim] = octant
    fold = np.minimum(np.arange(n), n - np.arange(n))
    return padded[np.ix_(*[fold] * octant.ndim)]


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("box", sorted(_BOXES))
@pytest.mark.parametrize("grid", [GridSpec(dim=2, n_per_axis=32, extent=16.0),
                                  GridSpec(dim=3, n_per_axis=16, extent=16.0)],
                         ids=["2d", "3d"])
def test_box_inverse_equals_full_inverse_on_the_box(grid, box, gaussian):
    # the passes on the box's lines give the whole passes' values on the box,
    # for random data on every frequency and for a radial multiplier on a band
    # table (zero beyond its ball) times closed-form axis spectra: bit for bit
    # where every pass takes the same route for the box as for the whole
    # lines, else to round-off; the whole passes are the inverse DFT of the
    # even extension, read from n/2, to round-off
    n, d = grid.n_per_axis, grid.dim
    box = tuple(_BOXES[box](n)[:d])
    if gaussian:
        k_table, index = grid.radial_table((n // 4) ** 2)
        octant = np.append(np.cos(k_table), 0.0)[index]
        m = np.arange(octant.shape[0])
        spectrum = np.exp(-0.25 * (2.0 * np.pi * m / grid.extent) ** 2)
    else:
        rng = np.random.default_rng(n)
        octant = rng.standard_normal((n // 2 + 1,) * d)
        spectrum = rng.standard_normal(n // 2 + 1)

    def passes(lines):
        spec, routes = octant, []
        for axis in range(d):
            spec = spec * spectrum.reshape((-1,) + (1,) * (d - 1 - axis))
            routes.append(transform._route(spec.shape, n, lines[axis].stop - lines[axis].start,
                                           axis))
            spec = transform._inverse_pass(spec, n, lines[axis], axis)
        return spec, routes

    full, full_routes = passes((slice(0, n),) * d)
    on_box, box_routes = passes(box)
    product = octant * functools.reduce(np.multiply.outer, [spectrum] * d)
    whole = np.fft.fftshift(np.fft.ifftn(_even_extension(product, n)).real)
    if box_routes == full_routes:
        assert np.array_equal(on_box, full[box])
    else:
        assert np.max(np.abs(on_box - full[box])) <= 1e-14 * np.max(np.abs(whole))
    assert np.max(np.abs(full - whole)) <= 1e-14 * np.max(np.abs(whole))


#: (start, stop) of the output lines, as functions of n
_LINES = {
    "centred_odd": lambda n: (n // 2 - 3, n // 2 + 4),
    "centred_even": lambda n: (n // 2 - 4, n // 2 + 4),
    "off_centre_odd": lambda n: (1, 6),
    "off_centre_even": lambda n: (n - 6, n),
    "single_sample": lambda n: (n // 2 + 1, n // 2 + 2),
    "whole_line": lambda n: (0, n),
}


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("band", ["0", "1", "n/2"])
@pytest.mark.parametrize("lines", sorted(_LINES))
@pytest.mark.parametrize("n", [64, 1024])
def test_zoom_equals_irfft_on_the_box(n, lines, band, axis):
    # Bluestein's zoom and the direct cosine matrix are each the irfft of the
    # band, zero-padded to n, on the output lines, for random real even band
    # spectra (three of them along the other axis): within 1e-15 of the
    # line's max, the scale of its round-off, for any band, box and line
    m_b = {"0": 0, "1": 1, "n/2": n // 2}[band]
    shape = [3, 3]
    shape[axis] = m_b + 1
    spec = np.random.default_rng(n + m_b).standard_normal(shape)
    start, stop = _LINES[lines](n)
    out = np.arange(start, stop) - n // 2
    line = np.fft.irfft(spec, n, axis=axis)
    expected = line.take(out % n, axis=axis)
    for route in (transform._zoom, transform._direct):
        got = route(spec, n, out, axis)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(line))


#: (grid, D, whole, spectrum branch, routes of the half-box passes)
_IMAGE_CASES = {
    "whole_line_1d": (GridSpec(dim=1, n_per_axis=4096, extent=64.0), 0.25, True, "band",
                      ["irfft"]),
    "zoomed_box_1d": (GridSpec(dim=1, n_per_axis=4096, extent=64.0), 0.25, False, "band",
                      ["zoom"]),
    "direct_2d": (GridSpec(dim=2, n_per_axis=1024, extent=64.0), 0.390625, False, "band",
                  ["direct"] * 2),
    "direct_3d": (GridSpec(dim=3, n_per_axis=64, extent=16.0), 0.31640625, False, "band",
                  ["direct"] * 3),
    "sampled_2d": (GridSpec(dim=2, n_per_axis=64, extent=16.0), 0.25, False, "sampled",
                   ["irfft"] * 2),
    "sampled_3d": (GridSpec(dim=3, n_per_axis=16, extent=16.0), 0.25, False, "sampled",
                   ["direct", "direct", "irfft"]),
}


@pytest.mark.parametrize("case", sorted(_IMAGE_CASES))
def test_gaussian_images_are_even_and_their_half_is_the_full_box_pass(monkeypatch, case):
    # the passes run on the lines 0 ... h of the box and the image is their
    # mirror, so it equals its own reversal on every axis bit for bit (past
    # line -n/2 of the whole line, the mirror of +n/2).  Its non-negative
    # half is that of the same routes' passes over the whole box, bit for
    # bit unless a pass zooms (the chirp-z lags of the half box start at 0)
    grid, D, whole, branch, pass_routes = _IMAGE_CASES[case]
    n, d = grid.n_per_axis, grid.dim
    alpha = (2.0 * math.pi * math.sqrt(D) / grid.extent) ** 2
    band = min(alpha * (n // 2) ** 2, grid.extent ** 2 / (16.0 * D)) > transform._BAND_EXPONENT
    assert branch == ("band" if band else "sampled")
    box = transform._support_box(grid, *transform._gaussian_peak(grid, D), whole)[0][0]
    routes, last = [], []

    def route(*args, route=transform._route):
        routes.append(route(*args))
        return routes[-1]

    def images():
        return transform._gaussian_images(grid, D, NONDIM, T_DESK,
                                          kernels.ModeProducts.eta0_multiplier, whole=whole)

    def full_box_pass(spec, n, lines, axis, inverse_pass=transform._inverse_pass):
        out = inverse_pass(spec, n, box, axis)
        if axis == d - 1:
            last.append(out)
        return out

    monkeypatch.setattr(transform, "_route", route)
    _, _, half = images()
    assert routes == 2 * pass_routes
    replay = iter(list(routes))
    monkeypatch.setattr(transform, "_route", lambda *args: next(replay))
    monkeypatch.setattr(transform, "_inverse_pass", full_box_pass)
    images()
    lines = np.arange(box.start, box.stop) - n // 2
    nonneg = np.ix_(*[np.flatnonzero((lines >= 0) | (lines == -n // 2))] * d)
    assert len(half) == len(last) == 2
    for image, full in zip(half, last, strict=True):
        assert image.shape == full.shape == (lines.size,) * d
        inner = image[(slice(1, None),) * d] if whole else image
        for axis in range(d):
            assert np.array_equal(inner, np.flip(inner, axis))
        if "zoom" in pass_routes:
            assert np.max(np.abs(image[nonneg] - full[nonneg])) <= 1e-15 * np.max(np.abs(full))
        else:
            assert np.array_equal(image[nonneg], full[nonneg])


def test_band_route_matches_the_exact_image():
    # I(x) = (1/pi) int_0^K M(k) e^{-D k^2} cos(k x) dk by Gauss-Legendre,
    # 24 nodes per panel, each panel a quarter of the cos(2 theta T) period
    # pi / (c0 T), to K = sqrt(60 / D) where e^{-D K^2} = e^-60: a rule
    # independent of the FFT image, itself a trapezoid rule on the periodised
    # integrand.  The extent 64 >= 4 c0 T = 24 keeps the periodic echoes off
    # the support; the band holds 136 of the 2049 |k|, and the box is zoomed
    grid = GridSpec(dim=1, n_per_axis=4096, extent=64.0)
    phi, _, (image,) = transform._gaussian_images(grid, D_DESK, NONDIM, T_DESK)
    x = (np.arange(phi.size) - phi.size // 2) * grid.spacing
    K = math.sqrt(60.0 / D_DESK)
    edges = np.linspace(0.0, K, math.ceil(K / (math.pi / (4.0 * NONDIM.c0 * T_DESK))) + 1)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half = np.diff(edges)[:, None] / 2.0
    k = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * nodes).ravel()
    integrand = (kernels.mode_products(NONDIM, k).multiplier(T_DESK) * np.exp(-D_DESK * k * k)
                 * (half * weights).ravel())
    exact = np.cos(np.multiply.outer(x, k)) @ integrand / math.pi
    assert np.max(np.abs(image - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_refusal_on_3d_grid_starts_no_pass(monkeypatch):
    passes = []
    for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, lambda *args, name=name, **kwargs: passes.append(name))
    grid = GridSpec(dim=3, n_per_axis=16, extent=8.0)
    phi = gaussian_phantom(grid, 0.01)
    with pytest.raises(kernels.ComplexRegimeError):
        time_reversal_image(nondimensional_medium(0.02), phi, T_DESK)
    with pytest.raises(kernels.ScaleOverflowError):
        time_reversal_image(WATER, phi, T_WATER, include_zeta3=True)
    with pytest.raises(kernels.ComplexRegimeError):
        transform._gaussian_images(grid, 0.01, nondimensional_medium(0.02), T_DESK)
    assert passes == []
