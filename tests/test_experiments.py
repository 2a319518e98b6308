import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from patrev import experiments, kernels, transform
from patrev.medium import derive_medium, water_params
from patrev.experiments import (
    _CSV_BLOCK_ROWS,
    ConfigError,
    ExperimentConfig,
    Report,
    _water_mapping,
    config_from_mapping,
    read_config_mapping,
    run_kappa_sweep,
    run_kernel_tables,
    run_reconstruction,
    run_resolution_study,
    run_water_constants,
    write_csv,
)


def water_cfg(out_dir, **overrides: str) -> ExperimentConfig:
    """The CLI's built-in water config with config-key overrides."""
    return config_from_mapping({**_water_mapping(), **overrides}, out_dir)


def test_report_bookkeeping():
    rep = Report("demo")
    e = rep.check("x", 1.01, 1.0, 0.02)
    assert e.passed and e.deviation == pytest.approx(0.01)
    rep.check("y", 2.0, 1.0, 0.1)
    assert not rep.passed
    assert rep.entry("x").value == 1.01
    with pytest.raises(KeyError):
        rep.entry("nope")


def test_report_file_format(tmp_path):
    rep = Report("demo")
    rep.check("x", 1.0, 1.0, 0.01, provenance="reference")
    rep.record("y", 2.5)
    path = rep.write(tmp_path / "report.txt")
    text = path.read_text()
    assert "title = demo" in text
    assert "overall_pass = true" in text
    assert "x.value = 1" in text
    assert "x.tolerance = 0.01" in text
    assert "x.provenance = reference" in text
    assert "y.value = 2.5" in text


def test_write_csv_format_and_determinism(tmp_path):
    cols = [np.array([1.0, 2.0]), np.array([0.1, 0.2])]
    p1 = write_csv(tmp_path / "a.csv", ["note"], ["x", "y"], cols)
    p2 = write_csv(tmp_path / "b.csv", ["note"], ["x", "y"], cols)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "# note"
    assert lines[1] == "x,y"
    # 17 significant digits round-trip doubles exactly
    assert lines[2] == "1,0.10000000000000001"
    assert float(lines[2].split(",")[1]) == 0.1


def _per_cell_csv(comments, names, columns) -> str:
    """The per-cell writer that write_csv replaced, kept as the reference."""
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        return f"{float(v):.17g}"

    lines = [f"# {c}" for c in comments] + [",".join(names)]
    lines += [",".join(cell(c[i]) for c in columns) for i in range(len(columns[0]))]
    return "\n".join(lines) + "\n"


@pytest.fixture
def mirrored(monkeypatch):
    """The sizes and verdicts of write_csv's mirror checks during a test."""
    seen, mirrors = [], experiments._mirrors

    def spy(columns):
        seen.append((len(columns[0]), mirrors(columns)))
        return seen[-1][1]

    monkeypatch.setattr(experiments, "_mirrors", spy)
    return seen


def _even(column, n):
    """The first n values with row n/2 - j set to row n/2 + j, 0 < j < n/2."""
    c = np.array(column[:n])
    c[n // 2 - 1:0:-1] = c[n // 2 + 1:]
    return c


def _odd_positive(column, n):
    """The first n values made positive (NaN and 0 read 1) beyond row n/2 and
    negated into the rows below it; rows 0 and n/2 keep their bits."""
    c = np.array(column[:n])
    upper = np.abs(c[n // 2 + 1:])
    upper[~(upper > 0)] = 1.0
    c[n // 2 + 1:], c[n // 2 - 1:0:-1] = upper, -upper
    return c


def test_write_csv_matches_per_cell_formatting(tmp_path, mirrored):
    rng = np.random.default_rng(20131)
    # random bit patterns: every binade, subnormals, infinities and NaN payloads
    bits = rng.integers(0, 2**64, size=2**18, dtype=np.uint64)
    doubles = bits.view(np.float64)
    cols = [doubles[: 2**17], doubles[2**17:]]
    path = write_csv(tmp_path / "bits.csv", ["bits"], ["a", "b"], cols)
    assert path.read_text() == _per_cell_csv(["bits"], ["a", "b"], cols)

    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                        1.7976931348623157e308, 1e16, 1e17, 1e-4, 1e-5])
    big = np.array([2**60 + 1, -(2**63), 2**53 + 1, 7], dtype=np.int64)
    names = ["x", "special", "int64", "flag"]
    for n in (0, 1, 2, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2**16, 2**16 + 1):
        cols = [doubles[:n], np.resize(special, n), np.resize(big, n),
                np.arange(n) % 3 == 0]
        path = write_csv(tmp_path / f"mixed_{n}.csv", ["mixed", "rows"], names, cols)
        text = path.read_text()
        assert text == _per_cell_csv(["mixed", "rows"], names, cols)
        assert len(text.splitlines()) == 3 + n

    def case(label, n, cols, mirrors):
        del mirrored[:]
        path = write_csv(tmp_path / f"{label}_{n}.csv", [label], names, cols)
        assert path.read_text() == _per_cell_csv([label], names, cols), (label, n)
        assert mirrored == [(n, mirrors)], (label, n)

    # mirrored files, formatted from their centre: the bit patterns, made even
    # in every column but the first, across block seams and the centre row
    for n in (2, 4, 2 * _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 2, 8 * _CSV_BLOCK_ROWS + 6):
        cols = [_odd_positive(doubles, n), _even(doubles[2**17:], n),
                _even(np.resize(special, n), n), _even(np.arange(n) % 3 == 0, n)]
        case("mirrored", n, cols, True)

    # near misses write every row through the block path
    n = 2 * _CSV_BLOCK_ROWS + 2
    base = [_odd_positive(doubles, n), _even(doubles[2**17:], n),
            _even(np.resize(special, n), n), _even(np.arange(n) % 3 == 0, n)]
    for row in (1, n // 2 - 1, n // 2 + 1, n - 1):
        flipped = base[1].copy()
        flipped.view(np.uint64)[row] ^= np.uint64(1) << np.uint64(row % 64)
        case(f"bit{row}", n, [base[0], flipped, *base[2:]], False)
        signed = base[1].copy()
        signed[row], signed[n - row] = 0.0, -0.0
        case(f"zero{row}", n, [base[0], signed, *base[2:]], False)
        for value in (0.0, -1.0, np.nan):
            x = base[0].copy()
            x[max(row, n - row)] = value
            x[min(row, n - row)] = -value
            case(f"x{value}_{row}", n, [x, *base[1:]], False)
    for m in (1, 3, n - 1):
        case("odd", m, [c[:m] for c in base], False)
    case("odd_centred", n - 1, [c[1:] for c in base], False)
    # at n = 4 a zero or negative x above the centre falls back; n = 2 has no
    # row beyond its centre, so it mirrors whatever column 0 holds
    small = [_even(c, 4) for c in base[1:]]
    for label, x in (("negative_x", [-2.0, 1.0, 0.0, -1.0]), ("zero_x", [-2.0, -0.0, 0.0, 0.0])):
        case(label, 4, [np.array(x), *small], False)
        case(label, 2, [np.array(x[:2]), *(c[:2] for c in small)], True)

    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", [], ["a", "b"], [np.zeros(3), np.zeros(4)])


def test_water_profile_formats_its_centre_half(tmp_path, monkeypatch):
    # the grid-centred image is even bit for bit, so the 2^17-row profile
    # formats row 0 and rows n/2 ... n-1 only
    formatted, row_blocks = [], experiments._row_blocks

    def spy(row, columns, lo, hi):
        formatted.append(hi - lo)
        return row_blocks(row, columns, lo, hi)

    monkeypatch.setattr(experiments, "_row_blocks", spy)
    run_reconstruction(water_cfg(tmp_path))
    n = 2**17
    assert sum(formatted) == n // 2 + 1
    assert len((tmp_path / "reconstruction_profile.csv").read_text().splitlines()) == 2 + n


def test_water_constants_pass(tmp_path):
    rep = run_water_constants(water_cfg(tmp_path))
    assert rep.passed
    assert rep.entry("tau0_s").value == pytest.approx(4.705882352941176e-10)
    assert rep.entry("dc_gain").value == pytest.approx(3.53125)
    assert rep.entry("lambda0_at_1000kc_per_s").deviation <= 0.005
    assert rep.entry("mu_at_1000kc_per_s").deviation <= 0.005


def test_water_constants_lossless_variant(tmp_path):
    rep = run_water_constants(water_cfg(tmp_path, kappa1_m2_per_N="0"))
    assert rep.passed
    assert rep.entry("dc_gain").value == 1.0
    assert rep.entry("mu_limit_per_s").value == 0.0


def test_water_constants_halved_kappa(tmp_path):
    rep = run_water_constants(water_cfg(tmp_path, kappa1_m2_per_N="2.5e-10"))
    assert rep.entry("dc_gain").value == pytest.approx(1.6328125, rel=1e-12)


def test_kernel_tables(tmp_path):
    cfg = water_cfg(tmp_path / "out", k_num="400")
    rep = run_kernel_tables(cfg)
    assert rep.passed
    names = {p.name for p in rep.csv_paths}
    assert names == {
        "roots_10kc.csv", "amplitudes_10kc.csv", "kernels_10kc.csv",
        "roots_100kc.csv", "amplitudes_100kc.csv", "kernels_100kc.csv",
    }
    # frozen growth-order sup values (stable across runs to much better
    # than 1e-6; computed on the 200-point log grid over [kc, 1e3 kc])
    assert rep.entry("sup_abs_a0_k2").value == pytest.approx(160.77, rel=1e-3)
    assert rep.entry("sup_abs_a1_k").value == pytest.approx(7.6355e-4, rel=1e-3)
    assert rep.entry("theta_over_k_plateau_m_per_s").value == pytest.approx(
        1500.0, rel=1e-3)
    header = (cfg.out_dir / "kernels_10kc.csv").read_text().splitlines()[1]
    assert header == "k,zeta1,zeta2,zeta3_mantissa,zeta3_logscale,eta0,multiplier_no_zeta3"


def test_amplitude_table_defines_k_zero_row_only(tmp_path):
    # A_j = p_j / lambda_j at every k > 0; at k = 0 A1 k = -A2 k = i/(2 c0)
    # by definition and A0 k = 0 comes out of the products
    cfg = water_cfg(tmp_path / "out", k_num="100")
    run_kernel_tables(cfg)
    lines = (cfg.out_dir / "amplitudes_10kc.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    col = dict(zip(lines[1].split(","), rows.T))
    assert np.flatnonzero(col["limit_patched"]).tolist() == [0]
    assert np.all(np.isfinite(rows))
    half = 0.5 / cfg.medium.c0
    assert (col["re_a0_k"][0], col["im_a0_k"][0]) == (0.0, 0.0)
    assert (col["re_a1_k"][0], col["im_a1_k"][0]) == (0.0, half)
    assert (col["re_a2_k"][0], col["im_a2_k"][0]) == (0.0, -half)


def test_kernel_tables_deterministic(tmp_path):
    cfg1 = water_cfg(tmp_path / "r1", k_num="100")
    cfg2 = water_cfg(tmp_path / "r2", k_num="100")
    run_kernel_tables(cfg1)
    run_kernel_tables(cfg2)
    for name in ("roots_10kc.csv", "kernels_100kc.csv"):
        b1 = (cfg1.out_dir / name).read_bytes()
        b2 = (cfg2.out_dir / name).read_bytes()
        assert b1 == b2


def test_reconstruction_water(tmp_path):
    rep = run_reconstruction(water_cfg(tmp_path / "out"))
    assert rep.passed
    assert rep.entry("err_linf_vs_gain_phi").value <= 0.02
    # against the phantom itself the error is dominated by the gain
    assert rep.entry("err_linf_vs_phi").value == pytest.approx(2.53125, rel=0.01)
    assert (cfg_path := tmp_path / "out" / "reconstruction_profile.csv").exists()
    assert cfg_path.read_text().splitlines()[1] == "x_m,phi,image,image_eta0,gain_phi"


def test_reconstruction_lossless_identity(tmp_path):
    rep = run_reconstruction(water_cfg(tmp_path, kappa1_m2_per_N="0"))
    assert rep.passed
    assert rep.entry("err_linf_identity").value <= 1e-3
    assert rep.entry("err_linf_vs_phi").value <= 1e-3


def test_reconstruction_identity_checked_when_kappa1_rounds_away(tmp_path):
    # c_inf^2 rho kappa1 = 2.25e-21 rounds away against 1, so tau0 == tau1
    rep = run_reconstruction(water_cfg(tmp_path, kappa1_m2_per_N="1e-30"))
    assert rep.passed
    assert rep.entry("err_linf_identity").value <= 1e-3


def _full_grid_reconstruction_entries(cfg) -> dict[str, float]:
    """Report values of run_reconstruction from whole-grid arrays."""
    medium = cfg.medium
    T = cfg.resolve_T(medium)
    phantom = transform.gaussian_phantom(cfg.grid, cfg.phantom_D(medium))
    image = transform.time_reversal_image(medium, phantom, T, include_zeta3=False)
    image_eta0 = transform.apply_multiplier(
        phantom,
        lambda kk: kernels.mode_products(medium, kk).eta0_multiplier(),
    )
    oracle = kernels.dc_constant(medium) * phantom.samples
    mask = phantom.samples >= 0.01 * float(np.max(phantom.samples))

    def linf(a, b):
        return float(np.max(np.abs(a[mask] - b[mask])) / np.max(np.abs(b[mask])))

    entries = {
        "err_linf_vs_gain_phi": linf(image.samples, oracle),
        "err_l2_vs_gain_phi": float(np.linalg.norm(image.samples[mask] - oracle[mask])
                                    / np.linalg.norm(oracle[mask])),
        "err_linf_eta0_vs_gain_phi": linf(image_eta0.samples, oracle),
        "err_linf_vs_phi": linf(image.samples, phantom.samples),
    }
    if medium.tau0 == medium.tau1:
        entries["err_linf_identity"] = entries["err_linf_vs_phi"]
    return entries


@pytest.mark.parametrize("medium_overrides", [{}, {"kappa1_m2_per_N": "0"}],
                         ids=["water", "dissipation_free"])
def test_reconstruction_3d_matches_full_grid_formulas(tmp_path, medium_overrides):
    cfg = water_cfg(tmp_path / "out", grid_dim="3", grid_n="32", phantom_D_m2="0.125",
                    **medium_overrides)
    rep = run_reconstruction(cfg)
    expected = _full_grid_reconstruction_entries(cfg)
    assert ("err_linf_identity" in expected) == (cfg.raw.kappa1 == 0.0)
    for name, value in expected.items():
        assert rep.entry(name).value == pytest.approx(value, rel=0, abs=1e-14), name
    assert rep.passed
    assert rep.csv_paths == []
    assert not (tmp_path / "out" / "reconstruction_profile.csv").exists()


def _full_grid_sweep_entries(cfg) -> dict[str, float]:
    """Error entries of run_kappa_sweep from whole-grid arrays."""
    entries = {}
    for j in range(6):
        medium = derive_medium(replace(cfg.raw, kappa1=cfg.raw.kappa1 * 2.0 ** (-j)))
        phantom = transform.gaussian_phantom(cfg.grid, cfg.phantom_D(medium))
        image = transform.time_reversal_image(medium, phantom, cfg.resolve_T(medium)).samples
        phi = phantom.samples
        mask = phi >= 0.01 * float(np.max(phi))
        entries[f"err_linf_j{j}"] = float(np.max(np.abs(image[mask] - phi[mask]))
                                          / np.max(phi[mask]))
    return entries


@pytest.mark.parametrize("dissipation_free", [False, True])
@pytest.mark.parametrize("dim, n, runner, reference", [
    pytest.param("2", "64", run_reconstruction, _full_grid_reconstruction_entries, id="64^2"),
    pytest.param("3", "16", run_reconstruction, _full_grid_reconstruction_entries, id="16^3"),
    pytest.param("2", "64", run_kappa_sweep, _full_grid_sweep_entries, id="64^2-sweep"),
    pytest.param("3", "16", run_kappa_sweep, _full_grid_sweep_entries, id="16^3-sweep"),
])
def test_support_route_matches_whole_image_route(tmp_path, dim, n, runner, reference,
                                                 dissipation_free):
    # the real passes on the non-negative frequencies and the support give
    # the entries of the whole images of time_reversal_image and
    # apply_multiplier (the sweep: of time_reversal_image per medium); the
    # spectra differ by round-off.  Without dissipation the reconstruction
    # also checks err_linf_identity
    media = {"kappa1_m2_per_N": "0"} if dissipation_free else {}
    cfg = water_cfg(tmp_path, grid_dim=dim, grid_n=n, phantom_D_m2="0.125", **media)
    rep = runner(cfg)
    for name, value in reference(cfg).items():
        assert rep.entry(name).value == pytest.approx(value, rel=0, abs=1e-14), name


@pytest.mark.parametrize("runner, image_sets", [(run_reconstruction, 1), (run_kappa_sweep, 6)],
                         ids=["reconstruction", "sweep"])
@pytest.mark.parametrize("dim, n", [("1", "4096"), ("2", "64"), ("3", "16")])
def test_image_sets_take_the_one_route(monkeypatch, tmp_path, dim, n, runner, image_sets):
    # one radial table per image set and no forward transform, in every
    # dimension: the 1-D reconstruction built two tables and ran two
    # forward passes
    tables = []
    radial_table = transform.GridSpec.radial_table

    def counted(grid, *args):
        tables.append(grid)
        return radial_table(grid, *args)

    def refused(*args, **kwargs):
        raise AssertionError("the Field route was taken")

    monkeypatch.setattr(transform.GridSpec, "radial_table", counted)
    for name in ("gaussian_phantom", "time_reversal_image", "apply_multiplier", "_apply_radial"):
        monkeypatch.setattr(transform, name, refused)
    runner(water_cfg(tmp_path, grid_dim=dim, grid_n=n, phantom_D_m2="0.125"))
    assert len(tables) == image_sets


@pytest.mark.parametrize("D_over_h2", [1e-3, 0.1, 1.0, 10.0, 100.0, 1e4])
@pytest.mark.parametrize("n", [2, 4, 16, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_support_box_equals_whole_phantom_support(dim, n, D_over_h2):
    # box, mask and phi from the axis factor on a window alone equal those of
    # the whole phantom, bit for bit, for boxes from one sample to the whole
    # grid (the largest D lies beyond the support check, so the whole phantom
    # is the outer product that gaussian_phantom forms); the box spans the
    # support on every axis, and with whole=True it is the whole grid
    grid = transform.GridSpec(dim=dim, n_per_axis=n, extent=16.0)
    D = D_over_h2 * grid.spacing ** 2
    x = grid.axis_coords()
    g, scale = np.exp(x * x / (-4.0 * D)), (4.0 * np.pi * D) ** (-dim / 2.0)
    factors = [g] * (dim - 1) + [g * scale]
    whole = functools.reduce(np.multiply.outer, factors)
    if 6.0 * (2.0 * D) ** 0.5 <= grid.extent / 2.0:
        admitted, peak = transform._gaussian_peak(grid, D)
        g = transform._axis_factor(grid, admitted, slice(None))
        for built, expected in zip([g] * (dim - 1) + [g * peak], factors, strict=True):
            assert np.array_equal(built, expected)
        assert np.array_equal(transform.gaussian_phantom(grid, D).samples, whole)
    whole_mask = whole >= transform.SUPPORT_LEVEL * np.max(whole)
    box, phi, mask = transform._support_box(grid, D, scale)
    support = [slice(i.min(), i.max() + 1) for i in np.nonzero(whole_mask)]
    assert box == tuple(support)
    assert np.array_equal(phi, whole[box])
    assert np.array_equal(mask, whole_mask[box])
    width = {1e-3: 1, 1e4: n}.get(D_over_h2)
    assert width is None or support[0].stop - support[0].start == width
    box, phi, mask = transform._support_box(grid, D, scale, whole=True)
    assert box == (slice(0, n),) * dim
    assert np.array_equal(phi, whole) and np.array_equal(mask, whole_mask)


@pytest.mark.parametrize("overrides, error", [
    ({"kappa1_m2_per_N": "9e-9", "grid_extent_m": "1e-5"}, kernels.ComplexRegimeError),
    ({"L_m": "1e308"}, kernels.ScaleOverflowError),
], ids=["complex_regime", "scale_overflow"])
@pytest.mark.parametrize("D", ["1", "1e-300"], ids=["wide", "peak_overflow"])
def test_support_route_refuses_the_phantom_first(tmp_path, overrides, error, D):
    cfg = water_cfg(tmp_path, grid_dim="3", grid_n="16", phantom_D_m2=D, **overrides)
    with pytest.raises(transform.PhantomSupportError):
        run_reconstruction(cfg)
    with pytest.raises(error):      # the medium and T alone are refused
        run_reconstruction(water_cfg(tmp_path, grid_dim="3", grid_n="16",
                                     phantom_D_m2="1e-13", **overrides))


@pytest.mark.parametrize("overrides, error", [
    # the three-real-root band of tau0/tau1 = 0.047 lies at 0.95 ... 1.21 k_c,
    # inside this grid's |k|; L_m = 1e308 makes T infinite
    ({"kappa1_m2_per_N": "9e-9", "grid_extent_m": "1e-5", "phantom_D_m2": "1e-13"},
     kernels.ComplexRegimeError),
    ({"L_m": "1e308", "phantom_D_m2": "0.125"}, kernels.ScaleOverflowError),
], ids=["complex_regime", "scale_overflow"])
@pytest.mark.parametrize("dim, n", [("2", "64"), ("3", "16")], ids=["64^2", "16^3"])
def test_support_route_refuses_as_time_reversal_image(tmp_path, overrides, error, dim, n):
    cfg = water_cfg(tmp_path, grid_dim=dim, grid_n=n, **overrides)
    phantom = transform.gaussian_phantom(cfg.grid, cfg.phantom_D(cfg.medium))
    with pytest.raises(error) as reference:
        transform.time_reversal_image(cfg.medium, phantom, cfg.resolve_T(cfg.medium))
    with pytest.raises(error) as refusal:
        run_reconstruction(cfg)
    assert str(refusal.value) == str(reference.value)


_WATER_128_CUBED = {"grid_dim": "3", "grid_n": "128", "phantom_D_m2": "0.03125"}


def test_3d_reconstruction_runs_real_passes_only(monkeypatch, tmp_path):
    # per image (two) one direct cosine-matrix pass per axis, from the band's
    # frequencies 0 ... 47 to the 13 non-negative lines of the 25-line box,
    # mirrored once at the end: no FFT at all, neither for the axis spectrum
    # (its closed form) nor for a pass
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(a, *args, name=name, fft=getattr(np.fft, name), **kwargs):
            calls.append((name, np.shape(a)))
            return fft(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    passes = []

    def inverse_pass(spec, n, box, axis, inverse_pass=transform._inverse_pass):
        out = inverse_pass(spec, n, box, axis)
        passes.append((spec.shape, out.shape))
        return out
    monkeypatch.setattr(transform, "_inverse_pass", inverse_pass)
    run_reconstruction(water_cfg(tmp_path, **_WATER_128_CUBED))
    assert calls == []
    chain = [(48, 48, 48), (13, 48, 48), (13, 13, 48), (13, 13, 13)]
    assert passes == 2 * list(zip(chain, chain[1:]))


@pytest.mark.parametrize("run, overrides, expected", [
    # the 1-D reconstruction's whole 2^17 line (its profile CSV writes it),
    # two images
    (run_reconstruction, {"grid_n": str(2 ** 17)}, ["irfft"] * 2),
    # the 2^20 sweep's support box, one image per medium
    (run_kappa_sweep, {"grid_n": str(2 ** 20)}, ["zoom"] * 6),
    (run_reconstruction, {**_WATER_128_CUBED}, ["direct"] * 6),
    (run_reconstruction, {**_WATER_128_CUBED, "grid_n": "64"}, ["direct"] * 6),
], ids=["1d_2e17_whole_line", "1d_2e20_sweep_box", "3d_128", "3d_64"])
def test_each_pass_keeps_its_route(monkeypatch, tmp_path, run, overrides, expected):
    # the direct matrix takes every 3-D axis and no 1-D pass, so the 1-D
    # workloads keep the irfft and the zoom of before it
    routes = []

    def inverse_pass(spec, n, box, axis, inverse_pass=transform._inverse_pass):
        routes.append(transform._route(spec.shape, n, box.stop - box.start, axis))
        return inverse_pass(spec, n, box, axis)
    monkeypatch.setattr(transform, "_inverse_pass", inverse_pass)
    monkeypatch.setattr(experiments, "write_csv", lambda path, *args: path)
    run(water_cfg(tmp_path, **overrides))
    assert routes == expected


def test_3d_reconstruction_live_peak(tmp_path):
    # no whole phantom and no half spectrum, only band octants and box
    # lines: 2.5 MiB with direct passes (5.9 MiB with irfft passes, 14.7 MiB
    # on 65^3 octants), where the complex half spectrum and box inverses took
    # 49.8 MiB and two whole round trips 67 MiB
    cfg = water_cfg(tmp_path, **_WATER_128_CUBED)
    tracemalloc.start()
    try:
        run_reconstruction(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


def test_sweep_live_peak(tmp_path):
    # one medium's arrays at a time: 3.8 MiB at 2^18 (7.25 MiB with the
    # whole line's factor, spectrum and image), where keeping the last
    # medium's phantom, mask and image through the next call took 11.5 MiB
    cfg = water_cfg(tmp_path, grid_n=str(2 ** 18))
    tracemalloc.start()
    try:
        run_kappa_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def test_2e20_sweep_builds_no_line(tmp_path):
    # the benchmark's sweep grid: only the band (22.7k-32.5k |k|) and the
    # zoom's L <= 2^16 arrays, 5.2 MiB; one float64 line of 2^20 samples
    # alone takes 8 MiB
    cfg = water_cfg(tmp_path, grid_n=str(2 ** 20))
    tracemalloc.start()
    try:
        run_kappa_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_reconstruction_smoother_phantom_is_better(tmp_path):
    cfg1 = water_cfg(tmp_path / "d0")
    d0 = (500.0 / cfg1.medium.k_c) ** 2
    cfg4 = water_cfg(tmp_path / "d4", phantom_D_m2=repr(4.0 * d0))
    err1 = run_reconstruction(cfg1).entry("err_linf_vs_gain_phi").value
    err4 = run_reconstruction(cfg4).entry("err_linf_vs_gain_phi").value
    assert err4 < err1


def test_kappa_sweep(tmp_path):
    rep = run_kappa_sweep(water_cfg(tmp_path / "out"))
    assert rep.passed
    errs = [rep.entry(f"err_linf_j{j}").value for j in range(6)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 0.005
    assert errs[0] == pytest.approx(2.53125, rel=0.01)
    assert (tmp_path / "out" / "kappa_sweep.csv").exists()


def test_resolution_study(tmp_path):
    rep = run_resolution_study(water_cfg(tmp_path))
    assert rep.passed
    sigma = rep.entry("sigma_m").value
    assert sigma == pytest.approx(3.638e-4, rel=1e-3)
    assert rep.entry("claimed_resolution_m").value == 3.6e-5
    assert rep.entry("claimed_resolution_m").provenance == "reference"
    # the derived scale and the quoted claim disagree by a factor ~10,
    # reported side by side rather than asserted equal
    assert rep.entry("sigma_over_claim").value == pytest.approx(10.1, rel=0.01)
    assert rep.entry("bandlimit_exponent").value == pytest.approx(25.0, rel=1e-12)


def test_config_mapping_round_trip(tmp_path):
    mapping = {
        "tau1_s": "1e-9",
        "kappa1_m2_per_N": "5e-10",
        "rho_kg_per_m3": "1e3",
        "speed_m_per_s": "1500.0",
        "speed_kind": "c_infinity",
        "T_s": "2e-3",
        "grid_dim": "1",
        "grid_n": "4096",
        "grid_extent_m": "16.0",
        "phantom_D_m2": "1e-7",
        "k_max": "5kc",
    }
    cfg = config_from_mapping(mapping, tmp_path)
    assert cfg.raw == water_params()
    assert cfg.T_s == 2e-3
    assert cfg.grid.n_per_axis == 4096
    assert cfg.phantom_D_m2 == 1e-7
    assert cfg.k_max_over_kc == 5.0
    assert cfg.out_dir == tmp_path
    medium = cfg.medium
    assert cfg.resolve_T(medium) == 2e-3
    assert cfg.k_grid(medium).max() == pytest.approx(5.0 * medium.k_c)


def test_config_rejects_unknown_keys(tmp_path):
    # out_dir (the output directory is --out alone) and T_rule (T is T_s or
    # 4 L_m / c_inf) are keys no longer
    for key, value in [("bogus_key", "1"), ("out_dir", str(tmp_path / "x")),
                       ("T_rule", "4L/c_inf")]:
        mapping = {
            "tau1_s": "1e-9", "kappa1_m2_per_N": "0", "rho_kg_per_m3": "1e3",
            "speed_m_per_s": "1500.0", "speed_kind": "c_infinity",
            key: value,
        }
        with pytest.raises(ConfigError, match=key):
            config_from_mapping(mapping, tmp_path)


def test_config_rejects_plain_k_max(tmp_path):
    mapping = {
        "tau1_s": "1e-9", "kappa1_m2_per_N": "0", "rho_kg_per_m3": "1e3",
        "speed_m_per_s": "1500.0", "speed_kind": "c_infinity",
        "k_max": "123.0",
    }
    with pytest.raises(ConfigError, match="kc"):
        config_from_mapping(mapping, tmp_path)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "medium.cfg"
    path.write_text(
        "# comment line\n"
        "tau1_s = 1e-9\n"
        "kappa1_m2_per_N = 5e-10   # trailing comment\n"
        "rho_kg_per_m3 = 1e3\n"
        "speed_m_per_s = 1500.0\n"
        "speed_kind = c_infinity\n"
    )
    raw = config_from_mapping(read_config_mapping(path), tmp_path).raw
    assert raw == water_params()


def test_config_missing_key(tmp_path):
    path = tmp_path / "medium.cfg"
    path.write_text("tau1_s = 1e-9\n")
    with pytest.raises(ValueError, match="missing"):
        config_from_mapping(read_config_mapping(path), tmp_path)


def test_config_malformed_line(tmp_path):
    path = tmp_path / "medium.cfg"
    path.write_text("tau1_s 1e-9\n")
    with pytest.raises(ValueError, match="key = value"):
        read_config_mapping(path)


@pytest.mark.parametrize("key", list(_water_mapping()))
def test_config_missing_one_medium_key(tmp_path, key):
    mapping = _water_mapping()
    del mapping[key]
    with pytest.raises(ConfigError, match=f"^missing medium keys: {key}$"):
        config_from_mapping(mapping, tmp_path)


def test_shipped_configs_parse(tmp_path):
    from pathlib import Path
    for name in ("water.cfg", "nondim.cfg"):
        path = Path(__file__).resolve().parents[1] / "configs" / name
        cfg = config_from_mapping(read_config_mapping(path), tmp_path)
        assert cfg.medium.tau0 > 0
