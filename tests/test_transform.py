import math

import numpy as np
import pytest

from patrev.medium import derive_medium, nondimensional_medium, water_params
from patrev import kernels
from patrev.transform import (
    Field,
    GridSpec,
    GridAliasingWarning,
    InteriorRegion,
    PhantomSupportError,
    apply_multiplier,
    field_profile_csv,
    forward_pressure_hat,
    gaussian_phantom,
    load_field,
    propdelta_check,
    save_field,
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
    assert phi.integral() == pytest.approx(1.0, abs=1e-6)
    # peak value (4 pi D)^{-1/2} at the origin
    assert phi.samples.max() == pytest.approx((4 * math.pi) ** -0.5, rel=1e-12)


def test_gaussian_phantom_2d_normalization():
    g = GridSpec(dim=2, n_per_axis=256, extent=40.0)
    phi = gaussian_phantom(g, 1.0)
    assert phi.integral() == pytest.approx(1.0, abs=1e-6)


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
])
def test_radial_table_matches_grid(grid, size):
    n = grid.n_per_axis
    k_table, index = grid.radial_table()
    assert np.all(np.diff(k_table) > 0)
    assert index.shape == (n,) * (grid.dim - 1) + (n // 2 + 1,)
    full = grid.k_magnitude()[..., : n // 2 + 1]
    if grid.dim == 1:
        assert np.array_equal(k_table[index], full)
    else:
        np.testing.assert_allclose(k_table[index], full, rtol=1e-15, atol=0.0)
    assert np.unique(index).size == k_table.size
    if size is not None:
        assert k_table.size == size


def _full_grid_route(phi, mult):
    """Reference: complex FFT round trip with the multiplier on every point."""
    spec = mult(phi.grid.k_magnitude()) * np.fft.fftn(phi.samples)
    return np.fft.ifftn(spec).real


def _full_grid_image(medium, T, include_zeta3):
    def mult(k):
        mp = kernels.mode_products(medium, k)
        if include_zeta3:
            s_minus = -(mp.p0 * np.exp(-mp.lambda0 * T) + mp.p1 * np.exp(-mp.lambda1 * T)
                        + mp.p2 * np.exp(-mp.lambda2 * T))
            s_plus = -(mp.p0 * np.exp(mp.lambda0 * T) + mp.p1 * np.exp(mp.lambda1 * T)
                       + mp.p2 * np.exp(mp.lambda2 * T))
            return 2.0 * s_minus * s_plus
        p1 = mp.p1
        return 2.0 * (mp.p0.real ** 2 + 2.0 * (p1 * p1).real
                      + 2.0 * (p1 * np.conj(p1)).real * np.cos(2.0 * mp.theta.real * T))
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
    phat = forward_pressure_hat(LOSSLESS_1, phi, t)
    kmag = DESK.k_magnitude()
    expected = np.fft.fftn(phi.samples) * np.cos(LOSSLESS_1.c0 * kmag * t)
    assert np.allclose(phat, expected, rtol=0, atol=1e-9 * np.max(np.abs(expected)))


def test_forward_pressure_small_time_limit():
    phi = gaussian_phantom(DESK, D_DESK)
    t = 1e-9
    phat = forward_pressure_hat(NONDIM, phi, t)
    expected = np.fft.fftn(phi.samples) * NONDIM.tau_ratio
    assert np.allclose(phat, expected, rtol=1e-6)


def test_forward_pressure_triangle_bound():
    phi = gaussian_phantom(DESK, D_DESK)
    phat = forward_pressure_hat(NONDIM, phi, T_DESK)
    mp = kernels.mode_products(NONDIM, DESK.k_magnitude())
    bound = np.abs(np.fft.fftn(phi.samples)) * (
        np.abs(mp.p0) + np.abs(mp.p1) + np.abs(mp.p2)
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


# -- serialization -------------------------------------------------------------


def test_field_round_trip(tmp_path):
    phi = gaussian_phantom(DESK, D_DESK)
    save_field(phi, tmp_path / "phantom")
    back = load_field(tmp_path / "phantom")
    assert back.grid == phi.grid
    assert np.array_equal(back.samples, phi.samples)
    assert back.label == phi.label


def test_field_round_trip_2d(tmp_path):
    grid = GridSpec(dim=2, n_per_axis=32, extent=16.0)
    phi = gaussian_phantom(grid, 0.25)
    save_field(phi, tmp_path / "phantom2d")
    back = load_field(tmp_path / "phantom2d")
    assert np.array_equal(back.samples, phi.samples)


def test_profile_csv(tmp_path):
    phi = gaussian_phantom(DESK, D_DESK)
    path = field_profile_csv(phi, tmp_path / "profile.csv")
    lines = path.read_text().splitlines()
    assert lines[2] == "x_m,value"
    assert len(lines) == 3 + DESK.n_per_axis
    with pytest.raises(ValueError):
        field_profile_csv(
            gaussian_phantom(GridSpec(dim=2, n_per_axis=32, extent=16.0), 0.25),
            tmp_path / "p2.csv",
        )
