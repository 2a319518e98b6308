import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patrev import cli, experiments
from patrev.cli import main

ROOT = Path(__file__).resolve().parents[1]

#: a medium whose root 1/tau0 at k = 0 is not a double, with k_c = 2e304 1/m
TINY_TAU0 = ["--set", "tau1_s=1e-315", "--set", "speed_m_per_s=1e11",
             "--set", "kappa1_m2_per_N=0"]

#: the same tau scale with k_c = 2e307 1/m, so that 10 k_c is not a double
TINY_TAU0_HUGE_KC = ["--set", "tau1_s=1e-315", "--set", "speed_m_per_s=1e8",
                     "--set", "kappa1_m2_per_N=0"]

#: the small tables of the refusal sweep
SMALL_K = ["--set", "grid_n=4096", "--set", "k_num=50"]

WATER_CFG = """
tau1_s          = 1e-9
kappa1_m2_per_N = 5e-10
rho_kg_per_m3   = 1e3
speed_m_per_s   = 1500.0
speed_kind      = c_infinity
grid_n          = 65536
"""


@pytest.fixture
def water_cfg_file(tmp_path):
    path = tmp_path / "water.cfg"
    path.write_text(WATER_CFG)
    return path


def test_unknown_subcommand_exits_64(capsys):
    assert main(["frobnicate"]) == 64


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["roots", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bad_override_exits_2(tmp_path, capsys):
    code = main(["roots", "--set", "not_a_key=1", "--out", str(tmp_path / "out")])
    assert code == 2


def test_k_num_zero_flag_reaches_validation(tmp_path, capsys):
    code = main(["roots", "--set", "k_num=0", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "k_num must be at least 2" in capsys.readouterr().err


def test_coeffs_all_degenerate_grid_exits_2(tmp_path, water_cfg_file, capsys):
    # a k grid of k = 0 only, where the mode weights are undefined, leaves no
    # amplitude to report
    code = main(["coeffs", "--config", str(water_cfg_file), "--set", "k_max=0kc",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "raise k_max" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["roots", "--set", "k_max=0kc", "--set", "k_spacing=log"], "needs k_max > 0"),
    (["roots", "--set", "k_max=-1kc"], "must be non-negative"),
    (["roots", "--set", "k_min=-1"], "must be non-negative"),
    (["coeffs", "--set", "k_max=-1kc"], "must be non-negative"),
    (["roots", "--set", "k_min=inf"], "must be non-negative and finite"),
    (["roots", "--set", "k_max=infkc"], "must be non-negative and finite"),
    (["resolution", "--set", "kappa1_m2_per_N=inf"], "kappa1 must be non-negative"),
    (["resolution", "--set", "rho_kg_per_m3=inf"], "rho must be positive and finite"),
    (["resolution", "--set", "tau1_s=inf"], "tau1 must be positive and finite"),
    (["reconstruct", "--set", "grid_n=256", "--set", "L_m=0"], "L_m must be positive"),
    (["reconstruct", "--set", "grid_n=256", "--set", "L_m=-1"], "L_m must be positive"),
    (["reconstruct", "--set", "grid_n=256", "--set", "L_m=inf"], "L_m must be positive"),
    (["reconstruct", "--set", "grid_n=256", "--set", "T_s=inf"], "T_s must be positive"),
    (["reconstruct", "--set", "grid_n=256", "--set", "grid_extent_m=inf"],
     "extent must be positive and finite"),
    (["reconstruct", "--set", "grid_n=256", "--set", "phantom_D_m2=-1"],
     "phantom_D_m2 must be positive"),
    # c0 tau1 = 1e-317 and 0: k_c = 2/(c0 tau1) is not a double
    (["resolution", "--set", "tau1_s=1e-320"], "gives k_c = inf"),
    (["resolution", "--set", "speed_m_per_s=1e-320"], "c0 tau1 = 0 gives k_c = inf"),
    # the roots stop being finite doubles from about 1e30 k_c
    (["roots", "--set", "k_max=1e150kc"], "the k grid [0, 1.94365e+156] 1/m reaches"),
    (["roots", "--set", "k_spacing=log", "--set", "k_min=1e300"],
     "the k grid [1.94365e+07, 1e+300] 1/m reaches"),
    (["coeffs", "--set", "k_max=1e150kc"], "the k grid [0, 1.94365e+156] 1/m reaches"),
    # 1/tau0 is not a double (tau1 = tau0 = 1e-315 s, c = 1e11 m/s for a finite
    # 1000 k_c): the roots of every runner that tabulates them, the report's
    # water constants at 1000 k_c first, are refused, at k = 0 already
    (["roots", *TINY_TAU0, "--set", "k_num=50"],
     "the k grid [0, 2e+305] 1/m reaches"),
    (["coeffs", *TINY_TAU0, "--set", "k_num=50"],
     "the k grid [0, 2e+305] 1/m reaches"),
    (["kernels", *TINY_TAU0, "--set", "k_num=50"],
     "the k grid [0, 2e+305] 1/m reaches"),
    (["report", *TINY_TAU0, "--set", "k_num=50", "--set", "grid_n=64"],
     "the k grid [2e+307, 2e+307] 1/m reaches"),
    # an end of the k grid is not a double: k_c = 2e307 1/m (1/tau0 is not
    # one either) and 10 k_c, or 1e30 k_c at k_c = 1.9e297 1/m; refused
    # before numpy forms the grid
    *[([sub, *SMALL_K, *TINY_TAU0_HUGE_KC], "the k grid [0, inf] 1/m leaves double range")
      for sub in ("roots", "coeffs", "kernels")],
    *[([sub, *SMALL_K, "--set", "tau1_s=1e-300", "--set", "k_max=1e30kc"],
       "the k grid [0, inf] 1/m leaves double range") for sub in ("roots", "coeffs")],
    # the ends of a log grid, 1e-20 k_c and 1e-6 of it at k_c = 1.9e-303 1/m,
    # underflow to 0
    (["roots", *SMALL_K, "--set", "k_spacing=log", "--set", "tau1_s=1e300",
      "--set", "k_max=1e-20kc"], "the k grid [0, 1.97626e-323] 1/m leaves double range"),
    # |lambda1| ~ c0 k ~ 2e-310 is subnormal and A1 ~ 2.5e309 overflows
    (["coeffs", *SMALL_K, "--set", "tau1_s=1e300", "--set", "k_max=1e-10kc"],
     "the k grid [0, 1.94365e-313] 1/m reaches wavenumbers where the mode weights "
     "are not finite doubles"),
], ids=["log_zero_k_max", "roots_negative_k_max", "negative_k_min",
        "coeffs_negative_k_max", "infinite_k_min", "infinite_k_max",
        "infinite_kappa1", "infinite_rho", "infinite_tau1", "zero_L", "negative_L",
        "infinite_L", "infinite_T", "infinite_extent", "negative_phantom_D",
        "subnormal_tau1", "subnormal_speed", "roots_huge_k_max", "roots_huge_log_k_min",
        "coeffs_huge_k_max", "roots_tiny_tau1", "coeffs_tiny_tau1", "kernels_tiny_tau1",
        "report_tiny_tau1", "roots_inf_10kc", "coeffs_inf_10kc", "kernels_inf_10kc",
        "roots_inf_k_max", "coeffs_inf_k_max", "roots_log_zero_end",
        "coeffs_subnormal_lambda1"])
def test_bad_k_grid_exits_2(tmp_path, capsys, argv, message):
    # the suite turns warnings into errors, so a RuntimeWarning fails here too
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1
    if "speed_m_per_s=1e11" in argv:
        assert err.endswith("1/tau0 is not a finite double at tau0 = 1e-315 s: "
                            "the medium's tau scale leaves double range\n")
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["roots", "coeffs", "kernels"])
@pytest.mark.parametrize("tau1", ["1e-300", "1e300"], ids=["tiny_tau1", "huge_tau1"])
def test_tau_scale_tables_run(tmp_path, capsys, subcommand, tau1):
    # the roots are solved in tau0/tau1 and c0 tau1 k and scaled by 1/tau1
    # at the edge: the tables at either end of double range pass their
    # checks, with no RuntimeWarning (an error here)
    out = tmp_path / "out"
    assert main([subcommand, "--set", f"tau1_s={tau1}", "--set", "k_num=50",
                 "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["roots", "--set", "speed_kind=c_zero", "--set", "kappa1_m2_per_N=1e-5"],
     "no finite wavefront speed"),
    (["reconstruct", "--set", "phantom_D_m2=10"], "exceeds half the extent"),
    (["report", "--set", "kappa1_m2_per_N=9e-9"], "three real roots"),
    (["resolution", "--set", "speed_m_per_s=1e200"], "no finite wavefront speed"),
    # theta T overflows on the grid; L_m = 1e308 derives T = 4 L_m / c_inf = inf
    (["reconstruct", "--set", "T_s=1e308"], "theta T is not a finite double"),
    (["sweep-kappa", "--set", "T_s=1e308"], "theta T is not a finite double"),
    (["report", "--set", "L_m=1e308"], "theta T is not a finite double"),
    # the peak (4 pi D)^{-d/2} of the phantom is not a double
    (["reconstruct", "--set", "grid_dim=3", "--set", "grid_n=16",
      "--set", "phantom_D_m2=1e-300"], "is not a finite double"),
    (["reconstruct", "--set", "grid_dim=2", "--set", "grid_n=16",
      "--set", "phantom_D_m2=5e-324"], "is not a finite double"),
    # ... or is, but the image's, up to a factor 3.53, is not
    (["reconstruct", "--set", "grid_dim=2", "--set", "grid_n=16",
      "--set", "phantom_D_m2=1e-309"], "max|M| (4 pi D)^(-2/2) at D = 1e-309 m^2"),
    (["reconstruct", "--set", "grid_dim=2", "--set", "grid_n=16",
      "--set", "tau1_s=1e-160"], "is not a finite double"),
    # ... or underflows to 0, which made every error 0/0
    (["reconstruct", "--set", "grid_dim=3", "--set", "grid_n=16",
      "--set", "grid_extent_m=1e150", "--set", "phantom_D_m2=1e297"],
     "is not a finite double > 0"),
    # x^2 overflows at the grid edge (the phantom read 0 there, or 0 everywhere
    # once 4 pi D overflowed too)
    (["reconstruct", "--set", "grid_n=16", "--set", "grid_extent_m=1e160",
      "--set", "phantom_D_m2=3e307"], "x^2 at |x| = 5e+159 m is not a finite double"),
    (["reconstruct", "--set", "grid_n=16", "--set", "grid_extent_m=1e155",
      "--set", "phantom_D_m2=1e307"], "x^2 at |x| = 5e+154 m is not a finite double"),
    # a report refused by its reconstruction, after the kernel tables ran
    (["report", "--set", "phantom_D_m2=1"], "exceeds half the extent"),
    # ... or by its sweep, after the reconstruction ran: D = (500/k_c)^2
    # grows as kappa1 halves
    (["report", "--set", "grid_extent_m=0.005", "--set", "grid_n=4096"],
     "exceeds half the extent (0.0025 m)"),
    # ... or by three real roots on the reconstruction's radial table, at
    # 0.884-0.894 k_c, between the kernel tables' k grids
    (["report", "--set", "kappa1_m2_per_N=4e-9", "--set", "k_num=50",
      "--set", "grid_extent_m=0.01", "--set", "grid_n=16384"],
     "three real roots at 71 wavenumber(s)"),
    # the reference width D0 = (500/k_c)^2 underflows to 0 or overflows
    (["reconstruct", "--set", "tau1_s=1e-300", "--set", "grid_n=64"],
     "the phantom width D = 0 m^2 is not positive"),
    (["sweep-kappa", "--set", "tau1_s=1e-300", "--set", "grid_n=64"],
     "the phantom width D = 0 m^2 is not positive"),
    (["reconstruct", "--set", "tau1_s=1e300", "--set", "grid_n=64"],
     "6 sigma = inf m exceeds half the extent"),
    (["sweep-kappa", "--set", "tau1_s=1e300", "--set", "grid_n=64"],
     "6 sigma = inf m exceeds half the extent"),
    (["resolution", "--set", "tau1_s=1e-300"],
     "D0 (k_c/100)^2, is not a finite double > 0 at k_c = 1.94365e+297 1/m"),
    (["resolution", "--set", "tau1_s=1e300"],
     "D0 (k_c/100)^2, is not a finite double > 0 at k_c = 1.94365e-303 1/m"),
    # D0 is a subnormal double, and (k_c/100)^2 overflows
    (["resolution", "--set", "tau1_s=1e-160"],
     "D0 (k_c/100)^2, is not a finite double > 0 at k_c = 1.94365e+157 1/m"),
    # the dispersion roots on the image's radial table are not finite doubles:
    # it reaches 1.3e104 k_c, where the (r, s) discriminant overflows, or
    # 1/tau0 overflows
    (["reconstruct", "--set", "tau1_s=1e100", "--set", "phantom_D_m2=0.01",
      "--set", "grid_n=64"],
     "the dispersion roots are not finite doubles; they are finite at k_c = "
     "1.94365e-103 1/m: lower the largest k"),
    (["reconstruct", *TINY_TAU0, "--set", "phantom_D_m2=0.01", "--set", "grid_n=64"],
     "the dispersion roots are not finite doubles; 1/tau0 is not a finite double"),
    # the report's kernel tables run at either end of the tau scale; its
    # reconstruction refuses the reference width D0 = (500/k_c)^2
    (["report", "--set", "tau1_s=1e-300", "--set", "k_num=50", "--set", "grid_n=64"],
     "the phantom width D = 0 m^2 is not positive"),
    (["report", "--set", "tau1_s=1e300", "--set", "k_num=50", "--set", "grid_n=64"],
     "6 sigma = inf m exceeds half the extent"),
], ids=["unphysical_medium", "phantom_support", "complex_regime",
        "overflowing_c2_rho_kappa1", "overflowing_theta_T_reconstruct",
        "overflowing_theta_T_sweep", "overflowing_theta_T_report",
        "overflowing_phantom_peak_3d", "overflowing_phantom_peak_2d",
        "overflowing_image_peak_2d", "overflowing_image_peak_2d_tiny_tau1",
        "underflowing_phantom_peak_3d", "overflowing_x2_and_4piD", "overflowing_x2",
        "report_phantom_support", "report_sweep_phantom_support",
        "report_reconstruction_complex_regime", "underflowing_D0_reconstruct",
        "underflowing_D0_sweep", "overflowing_D0_reconstruct", "overflowing_D0_sweep",
        "underflowing_D0_resolution", "overflowing_D0_resolution",
        "overflowing_exponent_resolution", "huge_tau1_image_roots",
        "tiny_tau1_image_roots", "report_tiny_tau1", "report_huge_tau1"])
def test_refused_input_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_tau_ratio_beyond_double_resolution_is_a_config_error(tmp_path, capsys):
    # c_inf^2 rho kappa1 = 2.25e159 would give tau0/tau1 ~ 4e-160 and
    # (tau1/tau0)^2 beyond double range in the solver; the medium refuses
    # tau0/tau1 below 2^-53 first, for either speed kind
    out = tmp_path / "out"
    code = main(["reconstruct", "--set", "kappa1_m2_per_N=1e150", "--set",
                 "phantom_D_m2=0.01", "--set", "grid_n=64", "--set", "T_s=1e-6",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: tau0 inconsistent with c0^2 rho kappa1: tau0/tau1 = 4.44444e-160 "
        "is below 2^-53, the resolution of 1 - c0^2 rho kappa1\n")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["reconstruct", "sweep-kappa"])
def test_tiny_tau1_image_runs(tmp_path, capsys, subcommand):
    # lambda0 ~ 1/tau0 > 1.3e154 squared to inf in the dimensional mode
    # products, which were refused; the products of the (r, s) roots are
    # bounded, and the run passes its checks with no RuntimeWarning
    out = tmp_path / "out"
    code = main([subcommand, "--set", "tau1_s=1e-160", "--set", "phantom_D_m2=0.01",
                 "--set", "grid_n=64", "--out", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


def _err_linf(out: Path) -> float:
    report = (out / "report_reconstruction.txt").read_text()
    return float(report.split("err_linf_vs_gain_phi.value = ")[1].split()[0])


def test_image_is_tau_scale_free(tmp_path, capsys):
    # the image depends on tau1 only through c0 k T and the (r, s) products;
    # at 1e-200 s and below s = (c0 tau1 k)^2 underflows to 0, and theta T
    # formed as (theta tau1) / tau1 read 0.283 there instead of 3.59e-06
    errs = []
    for tau1 in ("1e-60", "1e-160", "1e-200", "1e-300"):
        out = tmp_path / tau1
        assert main(["reconstruct", "--config", str(ROOT / "configs" / "water.cfg"),
                     "--set", "grid_n=64", "--set", "phantom_D_m2=0.01",
                     "--set", f"tau1_s={tau1}", "--out", str(out)]) == 0
        errs.append(_err_linf(out))
    assert errs[0] == pytest.approx(3.59187e-06, rel=1e-5)
    for err in errs[1:]:
        assert err == pytest.approx(errs[0], rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--set", "phantom_D_m2=5e-324"],
    ["reconstruct", "--set", "grid_dim=3", "--set", "grid_n=16", "--set", "phantom_D_m2=1e-200"],
], ids=["1d_subnormal_D", "3d_peak_7e298"])
def test_tiny_phantom_runs_without_warnings(tmp_path, capsys, argv):
    # a phantom of one nonzero sample: x^2 / (-4 D) overflows to -inf off the
    # origin and ||phi||^2 overflows, neither of them an error
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report_reconstruction.txt").read_text()
    assert "\noverall_pass = true\n" in report
    l2 = float(report.split("err_l2_vs_gain_phi.value = ")[1].split()[0])
    assert 0.0 < l2 < 0.02


def test_unwritable_out_exits_2(tmp_path, capsys):
    # an existing file, a path below a file, and a CSV name taken by a directory
    afile = tmp_path / "afile"
    afile.write_text("")
    (tmp_path / "taken" / "roots.csv").mkdir(parents=True)
    for argv in (["resolution", "--out", str(afile)],
                 ["resolution", "--out", str(afile / "sub")],
                 ["roots", "--set", "k_num=50", "--out", str(tmp_path / "taken")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # the CSVs are published before the report that names them
    assert [p.name for p in (tmp_path / "taken").iterdir()] == ["roots.csv"]


def test_refused_report_keeps_existing_out(tmp_path, capsys):
    # a refused run neither replaces nor adds an entry, a staging directory
    # included
    out = tmp_path / "out"
    out.mkdir()
    (out / "roots_10kc.csv").write_bytes(b"k\n1\n")
    (out / "report.txt").write_bytes(b"title = combined\n")
    assert main(["report", "--set", "kappa1_m2_per_N=4e-9", "--set", "k_num=50",
                 "--set", "grid_extent_m=0.01", "--set", "grid_n=16384",
                 "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["report.txt", "roots_10kc.csv"]
    assert (out / "roots_10kc.csv").read_bytes() == b"k\n1\n"
    assert (out / "report.txt").read_bytes() == b"title = combined\n"


@pytest.mark.parametrize("override", ["T_s=1e300", "L_m=1e300"])
def test_theta_T_without_significant_digits_is_refused(tmp_path, capsys, override):
    # theta T up to ~1e305 rad: sin(theta T) would follow the last bit of
    # theta T, so the run is refused before any evaluation
    out = tmp_path / "out"
    out.mkdir()
    (out / "report_reconstruction.txt").write_bytes(b"title = earlier\n")
    assert main(["reconstruct", "--set", override, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: theta T up to ") and err.count("\n") == 1
    assert "exceeds 2^53" in err
    assert [p.name for p in out.iterdir()] == ["report_reconstruction.txt"]
    assert (out / "report_reconstruction.txt").read_bytes() == b"title = earlier\n"


def test_crashed_run_leaves_out_empty(tmp_path, monkeypatch):
    # an uncaught exception after a CSV was written leaves neither the CSV
    # nor the staging directory
    def crash(cfg):
        experiments.write_csv(cfg.out_dir / "roots.csv", [], ["k"], [[1.0]])
        raise RuntimeError("crash")

    monkeypatch.setitem(cli._DISPATCH, "roots", crash)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="crash"):
        main(["roots", "--out", str(out)])
    assert list(out.iterdir()) == []


def test_main_reuses_one_parser_without_sharing_overrides(tmp_path, monkeypatch, capsys):
    # --set appends to a copy of the shared parser's default, so each call
    # sees only its own overrides
    def no_parser(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
    seen = []
    assemble = cli._assemble_config
    monkeypatch.setattr(cli, "_assemble_config",
                        lambda args: seen.append(args.overrides) or assemble(args))
    for overrides in (["--set", "tau1_s=2e-9"], ["--set", "tau1_s=3e-9"], []):
        assert main(["resolution", *overrides, "--out", str(tmp_path)]) == 0
    assert seen == [["tau1_s=2e-9"], ["tau1_s=3e-9"], []]
    assert cli._PARSER.parse_args(["resolution"]).overrides == []


def test_nonfinite_sup_value_fails_without_traceback(tmp_path, capsys):
    # theta T overflows at T = 1e300 s: the NaN sup value is a failed check
    # without a target
    out = tmp_path / "out"
    assert main(["kernels", "--set", "T_s=1e300", "--set", "k_num=50",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "kernel_tables.sup_zeta2 = nan: FAIL\n" in captured.out
    assert "Traceback" not in captured.err
    assert "sup_zeta2.pass" not in (out / "report_kernel_tables.txt").read_text()


def test_files_land_in_out(tmp_path, monkeypatch, capsys):
    # --out is the only output directory: a config's out_dir key is refused
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "with_out_dir.cfg"
    cfg.write_text(WATER_CFG + f"out_dir = {tmp_path / 'elsewhere'}\n")
    assert main(["roots", "--config", str(cfg), "--out", "o1"]) == 2
    assert "unknown config keys: out_dir" in capsys.readouterr().err
    assert main(["roots", "--set", "k_num=50", "--out", "o2"]) == 0
    assert main(["report", "--set", "grid_n=4096", "--set", "k_num=64", "--out", "o3"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o2", "o3", "with_out_dir.cfg"]
    # exactly the run's files: no staging directory is left behind
    assert sorted(p.name for p in (tmp_path / "o2").iterdir()) == [
        "report_roots.txt", "roots.csv"]
    assert "csv = o2/roots.csv\n" in (tmp_path / "o2" / "report_roots.txt").read_text()
    assert sorted(p.name for p in (tmp_path / "o3").iterdir()) == [
        "amplitudes_100kc.csv", "amplitudes_10kc.csv", "kappa_sweep.csv",
        "kernels_100kc.csv", "kernels_10kc.csv", "reconstruction_profile.csv",
        "report.txt", "report_kappa_sweep.txt", "report_kernel_tables.txt",
        "report_reconstruction.txt", "report_resolution_study.txt",
        "report_water_constants.txt", "roots_100kc.csv", "roots_10kc.csv"]
    assert "csv = o3/kappa_sweep.csv\n" in (tmp_path / "o3" / "report.txt").read_text()


def test_refused_report_leaves_no_tables(tmp_path, capsys):
    # tau0/tau1 = 0.047 refuses in the kernel tables, after the roots and
    # amplitudes of the same k grid are staged
    out = tmp_path / "out"
    assert main(["report", "--set", "kappa1_m2_per_N=9e-9", "--out", str(out)]) == 2
    assert sorted(out.glob("roots_*")) + sorted(out.glob("amplitudes_*")) == []


def test_scale_refused_report_leaves_no_tables(tmp_path, capsys):
    # T = 4 L / c_inf is infinite: the kernel tables are staged (with NaN
    # kernels), and the reconstruction's theta T refusal discards them
    out = tmp_path / "out"
    assert main(["report", "--set", "grid_n=4096", "--set", "L_m=1e308",
                 "--out", str(out)]) == 2
    assert "theta T is not a finite double" in capsys.readouterr().err
    assert sorted(out.glob("*")) == []


@pytest.mark.parametrize("override", ["k_spacing=log", "kappa1_m2_per_N=9e-9"])
def test_roots_residual_check_passes(tmp_path, capsys, override):
    # log spacing reaches down to 1e-5 kc, and tau0/tau1 = 0.047 crosses
    # the three-real-root band; both failed the 1e-9 residual check when the
    # roots came from a principal complex cube root
    out = tmp_path / "out"
    assert main(["roots", "--set", override, "--out", str(out)]) == 0
    assert "max_cubic_residual_scaled.pass = true" in (
        out / "report_roots.txt").read_text()


def test_roots_subcommand(tmp_path, water_cfg_file, capsys):
    out = tmp_path / "out"
    code = main(["roots", "--config", str(water_cfg_file),
                 "--set", "k_max=10kc", "--set", "k_num=200", "--out", str(out)])
    assert code == 0
    csv = (out / "roots.csv").read_text().splitlines()
    header = csv[1].split(",")
    assert "abs_lambda1" in header      # the column list of roots_10kc.csv
    residual_col = header.index("max_cubic_residual_scaled")
    residuals = [float(line.split(",")[residual_col]) for line in csv[2:]]
    assert max(residuals) <= 1e-9
    assert (out / "report_roots.txt").exists()


def test_roots_idempotent(tmp_path, water_cfg_file):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["roots", "--config", str(water_cfg_file),
                     "--set", "k_num=50", "--out", str(out)]) == 0
    assert (out1 / "roots.csv").read_bytes() == (out2 / "roots.csv").read_bytes()


def test_coeffs_subcommand(tmp_path, water_cfg_file):
    out = tmp_path / "out"
    code = main(["coeffs", "--config", str(water_cfg_file),
                 "--set", "k_num=100", "--out", str(out)])
    assert code == 0
    lines = (out / "coeffs.csv").read_text().splitlines()
    assert lines[1].startswith("k,re_a0,im_a0")


def test_kernels_subcommand(tmp_path, water_cfg_file):
    out = tmp_path / "out"
    code = main(["kernels", "--config", str(water_cfg_file),
                 "--set", "k_num=100", "--out", str(out)])
    assert code == 0
    assert (out / "kernels_10kc.csv").exists()
    assert (out / "kernels_100kc.csv").exists()


def test_reconstruct_water(tmp_path, water_cfg_file, capsys):
    out = tmp_path / "out"
    code = main(["reconstruct", "--config", str(water_cfg_file),
                 "--out", str(out)])
    assert code == 0
    report = (out / "report_reconstruction.txt").read_text()
    assert "err_linf_vs_gain_phi.pass = true" in report


def test_reconstruct_override_lossless(tmp_path, water_cfg_file):
    # flag > config: zero the compressibility, image must equal the phantom
    out = tmp_path / "out"
    code = main(["reconstruct", "--config", str(water_cfg_file),
                 "--set", "kappa1_m2_per_N=0", "--out", str(out)])
    assert code == 0
    report = (out / "report_reconstruction.txt").read_text()
    assert "err_linf_identity.pass = true" in report
    assert "dc_gain.value = 1\n" in report


def test_failed_check_exits_1(tmp_path, water_cfg_file, capsys):
    # a tiny time period leaves the sin^2 term unaveraged, so the image gain
    # is 4.53 rather than 3.53 and the 2% reconstruction check fails
    out = tmp_path / "out"
    code = main(["reconstruct", "--config", str(water_cfg_file),
                 "--set", "T_s=1e-9", "--out", str(out)])
    assert code == 1
    report = (out / "report_reconstruction.txt").read_text()
    assert "err_linf_vs_gain_phi.pass = false" in report


def test_resolution_subcommand_default_config(tmp_path):
    out = tmp_path / "out"
    assert main(["resolution", "--out", str(out)]) == 0
    report = (out / "report_resolution_study.txt").read_text()
    assert "sigma_m.value = 0.00036" in report
    assert "claimed_resolution_m.value = 3.6" in report


def test_sweep_subcommand(tmp_path, water_cfg_file):
    out = tmp_path / "out"
    assert main(["sweep-kappa", "--config", str(water_cfg_file),
                 "--out", str(out)]) == 0
    csv = (out / "kappa_sweep.csv").read_text().splitlines()
    assert csv[1] == "kappa1,err_linf,err_l2,dc_gain_minus_1"
    errs = [float(line.split(",")[1]) for line in csv[2:]]
    assert len(errs) == 6
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_report_subcommand(tmp_path, water_cfg_file, capsys):
    out = tmp_path / "out"
    assert main(["report", "--config", str(water_cfg_file),
                 "--out", str(out)]) == 0
    combined = (out / "report.txt").read_text()
    assert "overall_pass = true" in combined
    assert "water_constants.tau0_s.value" in combined
    assert "resolution_study.sigma_m.value" in combined
    for sub in ("water_constants", "kernel_tables", "reconstruction",
                "kappa_sweep", "resolution_study"):
        assert (out / f"report_{sub}.txt").exists()


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tool_argvs():
    """(id, argv without --out) of every golden run and benchmark workload,
    each workload with and without its smoke suffix."""
    golden = _load("golden", ROOT / "tools" / "golden.py")
    bench = _load("perfbench_run", ROOT / "perfbench" / "run.py")
    runs = [(f"golden-{name}", argv) for name, argv in golden.RUNS]
    for name, wl in bench.WORKLOADS.items():
        runs += [(f"bench-{name}", wl["argv"]),
                 (f"bench-{name}-smoke", wl["argv"] + wl["smoke"])]
    return runs


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name)
                                  for name, argv in _tool_argvs()])
def test_tool_argv_assembles(tmp_path, monkeypatch, argv):
    # a key or flag removed from the CLI fails here, not in the golden run or
    # the benchmark; the workloads name configs relative to the checkout
    monkeypatch.chdir(ROOT)
    args = cli._PARSER.parse_args(argv + ["--out", str(tmp_path)])
    assert cli._assemble_config(args).out_dir == tmp_path


#: a fixed sample of tools/refusal_sweep.py's cases and the exit code of each:
#: every subcommand over the built-in water medium, then one extreme value of
#: each ONE_KEY key, spread over the subcommands (refusals of the medium, the
#: three-real-root band, theta T, the phantom, the grid and the k range)
REFUSAL_SAMPLE = [
    (["roots", *SMALL_K], 0),
    (["coeffs", *SMALL_K], 0),
    (["kernels", *SMALL_K], 0),
    (["reconstruct"], 0),
    (["sweep-kappa"], 0),
    (["resolution", *SMALL_K], 0),
    (["report"], 0),
    (["roots", *SMALL_K, "--set", "tau1_s=1e-320"], 2),
    (["kernels", *SMALL_K, "--set", "kappa1_m2_per_N=9e-9"], 2),
    (["coeffs", *SMALL_K, "--set", "speed_m_per_s=1e300"], 2),
    (["sweep-kappa", "--set", "rho_kg_per_m3=1e-320"], 1),
    (["report", "--set", "T_s=1e300"], 2),
    (["sweep-kappa", "--set", "L_m=1e308"], 2),
    (["reconstruct", "--set", "phantom_D_m2=1e300"], 2),
    (["reconstruct", "--set", "grid_extent_m=1e300"], 2),
    (["roots", *SMALL_K, "--set", "k_max=1e300kc"], 2),
]


def test_refusal_sample_runs_clean(tmp_path):
    # the sweep's own rule on each sampled case: no traceback, an exit code
    # in {0, 1, 2}, and one stderr line with exit 2; the code itself is pinned.
    # The suite turns warnings into errors, as the sweep does
    sweep = _load("refusal_sweep", ROOT / "tools" / "refusal_sweep.py")
    cases = sweep.cases()
    assert {argv[0] for argv, _ in REFUSAL_SAMPLE} == set(cli._SUBCOMMANDS)
    assert {argv[-1].split("=")[0] for argv, _ in REFUSAL_SAMPLE[7:]} == set(sweep.ONE_KEY)
    for i, (argv, expected) in enumerate(REFUSAL_SAMPLE):
        assert argv in cases
        code, err = sweep.run(argv, tmp_path / str(i))
        assert code == expected, (argv, err)
        assert code != 2 or len(err.splitlines()) == 1, (argv, err)


@pytest.mark.parametrize("grid", [
    ["grid_dim=3", "grid_n=128", "phantom_D_m2=0.03125"],
    ["grid_dim=3", "grid_n=512", "phantom_D_m2=0.03125"],
    # a phantom of a few samples: the axis spectrum is the sampled factor's
    # on all 1025 frequencies, and the first pass maps them to 7 lines on
    # 1025 lines
    ["grid_dim=2", "grid_n=2048", "phantom_D_m2=2e-5"],
], ids=["3d_128", "3d_512", "2d_2048_tiny_phantom"])
def test_image_report_is_independent_of_the_blas_thread_count(tmp_path, grid):
    # the direct passes use no BLAS and the L2 error is numpy's own sum: at
    # 512^3 a BLAS dot in the norm, and in 2-D a BLAS product in the direct
    # pass, moved the report's last digits between 1 and 2 threads
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
        subprocess.run([sys.executable, "-W", "error", "-m", "patrev.cli", "reconstruct",
                        "--config", str(ROOT / "configs" / "water.cfg"),
                        *[arg for setting in grid for arg in ("--set", setting)],
                        "--out", str(out)],
                       env=env, check=True, capture_output=True)
        reports.append((out / "report_reconstruction.txt").read_bytes())
    assert reports[0] == reports[1]
