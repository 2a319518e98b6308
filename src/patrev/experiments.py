"""Scripted desk-scale experiments reproducing the model's quantitative claims.

Each run_* function evaluates one claim family against declared tolerances,
writes plot-ready CSV curves, and returns a Report whose scalar entries carry
value, target, tolerance, measured deviation and a provenance tag:

    reference   a value quoted from the literature for this medium
    derived     computed here by an independent formula or oracle
    definition  an identity of the model, checked rather than measured

Outputs are deterministic: fixed grids, no randomness, no timestamps, full
17-significant-digit decimals, so repeated runs are byte-identical.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .medium import (
    Medium,
    RawParams,
    UnphysicalMediumError,
    derive_medium,
    water_params,
)
from . import kernels, spectral, transform

__all__ = [
    "ConfigError",
    "ReportEntry",
    "Report",
    "ExperimentConfig",
    "write_csv",
    "run_roots",
    "run_coeffs",
    "run_water_constants",
    "run_kernel_tables",
    "run_reconstruction",
    "run_kappa_sweep",
    "run_resolution_study",
    "run_all",
]

#: reference scalar values for the water-like medium and their tolerances
WATER_TAU0_REF = 4.7e-10          # s
WATER_LAMBDA0_INF_REF = 1.0e9     # 1/s
WATER_MU_INF_REF = 5.6250e8       # 1/s
WATER_DC_REF = 3.5
TAU0_TOL = 0.01
LAMBDA0_TOL = 0.005
MU_TOL = 0.005
DC_TOL = 0.015

#: resolution claim quoted for the water-like medium [m]
RESOLUTION_CLAIM_M = 0.036e-3

#: reconstruction acceptance: relative L-inf on the phantom support
RECONSTRUCTION_TOL = 0.02
SWEEP_FINAL_TOL = 0.005


class ConfigError(ValueError):
    """Bad or missing experiment configuration."""


@dataclass(frozen=True)
class ReportEntry:
    name: str
    value: float
    provenance: str
    target: float | None = None
    tolerance: float | None = None
    deviation: float | None = None
    passed: bool | None = None


@dataclass
class Report:
    title: str
    entries: list[ReportEntry] = field(default_factory=list)
    csv_paths: list[Path] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed is not False for e in self.entries)

    def record(self, name: str, value: float, provenance: str = "derived") -> ReportEntry:
        return self._append(ReportEntry(name, float(value), provenance))

    def check(self, name: str, value: float, target: float, tolerance: float,
              provenance: str = "derived") -> ReportEntry:
        """Record a scalar with a relative tolerance against its target."""
        scale = abs(target) if target != 0 else 1.0
        deviation = abs(value - target) / scale
        return self._append(ReportEntry(name, float(value), provenance, float(target),
                                        float(tolerance), float(deviation),
                                        bool(deviation <= tolerance)))

    def check_below(self, name: str, value: float, bound: float,
                    provenance: str = "derived") -> ReportEntry:
        """Record a scalar that must not exceed an absolute bound."""
        return self._append(ReportEntry(name, float(value), provenance, 0.0, float(bound),
                                        float(value), bool(value <= bound)))

    def _append(self, entry: ReportEntry) -> ReportEntry:
        self.entries.append(entry)
        return entry

    def entry(self, name: str) -> ReportEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def write(self, path) -> Path:
        path = Path(path)
        lines = [f"title = {self.title}", f"overall_pass = {str(self.passed).lower()}"]
        for e in self.entries:
            lines.append(f"{e.name}.value = {e.value:.17g}")
            lines.append(f"{e.name}.provenance = {e.provenance}")
            if e.target is not None:
                lines.append(f"{e.name}.target = {e.target:.17g}")
                lines.append(f"{e.name}.tolerance = {e.tolerance:.17g}")
                lines.append(f"{e.name}.deviation = {e.deviation:.17g}")
                lines.append(f"{e.name}.pass = {str(e.passed).lower()}")
        for p in self.csv_paths:
            lines.append(f"csv = {p}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


#: rows formatted per '%' call in write_csv; bounds the Python floats alive at once
_CSV_BLOCK_ROWS = 1024
#: write_csv formats the second half of a file with more rows than this in a child
_CSV_FORK_ROWS = 65536


def _write_rows(fh, row: str, columns: list[np.ndarray], lo: int, hi: int):
    """Rows [lo, hi) of the columns, one '%' call per block of rows."""
    for start in range(lo, hi, _CSV_BLOCK_ROWS):
        block = np.column_stack([c[start:min(start + _CSV_BLOCK_ROWS, hi)] for c in columns])
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_csv(path, comments: Iterable[str], names: list[str],
              columns: list[np.ndarray]) -> Path:
    """Plot-ready CSV: '#'-prefixed header comments, then one header row and
    full-precision values: every cell goes through float64 and CPython's
    '%.17g' (the routine behind f"{v:.17g}"), one block of rows per call.
    Above _CSV_FORK_ROWS rows, where os.fork exists and no other Python thread
    is alive, a forked child formats the second half (see _write_halves)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must have equal length")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(names) + "\n")
        if n > _CSV_FORK_ROWS and hasattr(os, "fork") and threading.active_count() == 1:
            _write_halves(path, fh, row, columns, n // 2, n)
        else:
            _write_rows(fh, row, columns, 0, n)
    return path


def _write_halves(path: Path, fh, row: str, columns: list[np.ndarray], mid: int, n: int):
    """Rows [0, mid) into ``fh`` while a forked child writes [mid, n) to
    ``path.part``, appended in 64 KiB blocks.  A failed child raises naming
    ``path``; a failure here kills it.  Every path reaps it and removes the part."""
    part = path.with_name(path.name + ".part")
    fh.flush()
    pid = os.fork()
    if pid == 0:
        try:
            with open(part, "w", encoding="utf-8", newline="\n") as tail:
                _write_rows(tail, row, columns, mid, n)
        except BaseException:
            os._exit(1)
        os._exit(0)
    status = None
    try:
        _write_rows(fh, row, columns, 0, mid)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise ChildProcessError(f"{path}: the process writing rows {mid}:{n} "
                                    f"exited with status {status}")
        fh.flush()
        with open(part, "rb") as tail:
            shutil.copyfileobj(tail, fh.buffer, 1 << 16)
    finally:
        if status is None:  # no status read: stop the child, unless already reaped
            import signal  # numpy does not load it; only a failure needs it
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        part.unlink(missing_ok=True)


def _reference_D(medium: Medium) -> float:
    """D0 = (500/k_c)^2 [m^2] by a product: inf or 0, not OverflowError."""
    width = 500.0 / medium.k_c
    return width * width


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters, built by ``config_from_mapping``.

    The time period is ``T_s`` when given, else ``4 L_m / c_inf``;
    phantom_D_m2 = None selects the medium's reference value D0 = (500/k_c)^2.
    """

    raw: RawParams
    medium: Medium
    grid: transform.GridSpec
    out_dir: Path
    T_s: float | None
    L_m: float
    phantom_D_m2: float | None
    k_min: float
    k_max_over_kc: float
    k_num: int
    k_spacing: str

    def __post_init__(self):
        for name in ("T_s", "L_m", "phantom_D_m2"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.k_spacing not in ("linear", "log"):
            raise ConfigError("k_spacing must be 'linear' or 'log'")
        if self.k_num < 2:
            raise ConfigError("k_num must be at least 2")
        if not (0 <= self.k_min < math.inf and 0 <= self.k_max_over_kc < math.inf):
            raise ConfigError("k_min and k_max must be non-negative and finite")
        if self.k_spacing == "log" and not self.k_max_over_kc > 0:
            raise ConfigError("a log-spaced k grid needs k_max > 0")

    def resolve_T(self, medium: Medium) -> float:
        if self.T_s is not None:
            return self.T_s
        return 4.0 * self.L_m / medium.c_inf

    def phantom_D(self, medium: Medium) -> float:
        return _reference_D(medium) if self.phantom_D_m2 is None else self.phantom_D_m2

    def k_grid(self, medium: Medium) -> np.ndarray:
        kmax = self.k_max_over_kc * medium.k_c
        if self.k_spacing == "log":
            lo = self.k_min if self.k_min > 0 else kmax * 1e-6
            return _k_range(lo, kmax, self.k_num, log=True)
        return _k_range(self.k_min, kmax, self.k_num)


def _k_range(lo: float, hi: float, num: int, log: bool = False, unit: float = 1.0
             ) -> np.ndarray:
    """The one builder of the tables' k grids: ``num`` wavenumbers [1/m] from
    ``lo`` to ``hi`` times ``unit``, evenly spaced in k or in log(k / unit).
    An end beyond double range (inf, or 0 on a log scale) is a ConfigError."""
    ends = lo * unit, hi * unit
    if not math.isfinite(ends[1]) or (log and not min(ends) > 0):
        raise ConfigError(f"the k grid [{ends[0]:.6g}, {ends[1]:.6g}] 1/m leaves double range")
    if log:
        return np.logspace(math.log10(lo), math.log10(hi), num) * unit
    return np.linspace(*ends, num)


_DEFAULTS = {
    "L_m": "0.5",
    "grid_dim": "1",
    "grid_n": str(1 << 17),
    "grid_extent_m": "8.0",
    "k_min": "0.0",
    "k_max": "10kc",
    "k_num": "2000",
    "k_spacing": "linear",
}

#: config key of each RawParams field, and the parser of its value
_MEDIUM_KEYS = {
    "tau1_s": ("tau1", float),
    "kappa1_m2_per_N": ("kappa1", float),
    "rho_kg_per_m3": ("rho", float),
    "speed_m_per_s": ("speed", float),
    "speed_kind": ("speed_kind", str),
}


def _water_mapping() -> dict[str, str]:
    """Medium keys of the built-in water parameter set."""
    raw = water_params()
    return {key: str(getattr(raw, name)) for key, (name, _) in _MEDIUM_KEYS.items()}


def config_from_mapping(mapping: dict[str, str], out_dir) -> ExperimentConfig:
    """Assemble an ExperimentConfig from a key/value mapping over ``_DEFAULTS``.

    Every refusal of the configuration itself leaves here: unknown keys (so
    typos in configs and --set overrides fail loudly), missing medium keys and
    unparsable or out-of-range values as ConfigError, a medium without a
    finite wavefront speed as UnphysicalMediumError.
    """
    merged = {**_DEFAULTS, **mapping}
    unknown = set(merged) - {*_DEFAULTS, *_MEDIUM_KEYS, "T_s", "phantom_D_m2"}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    k_max = merged["k_max"].strip()
    if not k_max.endswith("kc"):
        raise ConfigError("k_max must be given in units of kc, e.g. '10kc'")
    missing = [key for key in _MEDIUM_KEYS if key not in merged]
    if missing:
        raise ConfigError(f"missing medium keys: {', '.join(missing)}")
    try:
        raw = RawParams(**{name: parse(merged[key])
                           for key, (name, parse) in _MEDIUM_KEYS.items()})
        return ExperimentConfig(
            raw=raw,
            medium=derive_medium(raw),
            grid=transform.GridSpec(
                dim=int(merged["grid_dim"]),
                n_per_axis=int(merged["grid_n"]),
                extent=float(merged["grid_extent_m"]),
            ),
            out_dir=Path(out_dir),
            T_s=float(merged["T_s"]) if "T_s" in merged else None,
            L_m=float(merged["L_m"]),
            phantom_D_m2=(
                float(merged["phantom_D_m2"]) if "phantom_D_m2" in merged else None
            ),
            k_min=float(merged["k_min"]),
            k_max_over_kc=float(k_max[:-2]),
            k_num=int(merged["k_num"]),
            k_spacing=merged["k_spacing"],
        )
    except (ConfigError, UnphysicalMediumError):
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from exc


def read_config_mapping(path) -> dict[str, str]:
    """Key/value mapping of a UTF-8 config file: one ``key = value`` per line,
    ``#`` starts a comment; it and ``--set`` give the five ``_MEDIUM_KEYS``.
    An unreadable or undecodable file, or a line without '=', is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(str(exc)) from exc
    mapping = {}
    for lineno, line in enumerate(lines, start=1):
        key, eq, value = line.split("#", 1)[0].partition("=")
        if eq:
            mapping[key.strip()] = value.strip()
        elif key.strip():
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
    return mapping


# -- experiment runners --------------------------------------------------------


def run_water_constants(cfg: ExperimentConfig) -> Report:
    """Derived constants of the configured medium against reference values."""
    medium = cfg.medium
    rep = Report("water_constants")
    rep.record("c0_m_per_s", medium.c0)
    rep.record("k_c_per_m", medium.k_c)
    lam0_inf, mu_inf = spectral.asymptotic_limits(medium)
    rep.record("lambda0_limit_per_s", lam0_inf, provenance="definition")
    rep.record("mu_limit_per_s", mu_inf, provenance="definition")
    roots = _k_grid_roots(medium, np.asarray(1000.0 * medium.k_c))
    if cfg.raw == water_params():
        rep.check("tau0_s", medium.tau0, WATER_TAU0_REF, TAU0_TOL, "reference")
        rep.check("lambda0_at_1000kc_per_s", roots.lambda0.real,
                  WATER_LAMBDA0_INF_REF, LAMBDA0_TOL, "reference")
        rep.check("mu_at_1000kc_per_s", roots.mu.real,
                  WATER_MU_INF_REF, MU_TOL, "reference")
        rep.check("dc_gain", kernels.dc_constant(medium), WATER_DC_REF, DC_TOL,
                  "reference")
    else:
        rep.record("tau0_s", medium.tau0)
        rep.check("lambda0_at_1000kc_per_s", roots.lambda0.real, lam0_inf, 0.005)
        if mu_inf != 0:
            rep.check("mu_at_1000kc_per_s", roots.mu.real, mu_inf, 0.005)
        else:
            rep.check_below("mu_at_1000kc_per_s", abs(roots.mu.real),
                            1e-6 / medium.tau1)
        rep.record("dc_gain", kernels.dc_constant(medium))
    return rep


#: columns of every roots CSV, one per entry of ``_roots_columns``
_ROOTS_NAMES = ["k", "re_lambda0", "im_lambda0", "re_mu", "im_mu", "re_theta", "im_theta",
                "abs_lambda1", "delta0", "delta1", "re_C", "im_C", "real_c_regime",
                "max_cubic_residual_scaled"]


def _roots_columns(medium: Medium, grid: spectral.RootsGrid) -> list[np.ndarray]:
    """Roots CSV columns (``_ROOTS_NAMES``); the last is the scaled cubic residual."""
    return [grid.k, grid.lambda0.real, grid.lambda0.imag, grid.mu.real, grid.mu.imag,
            grid.theta.real, grid.theta.imag, np.abs(grid.lambda1), grid.delta0,
            grid.delta1, grid.big_c.real, grid.big_c.imag,
            grid.real_c_regime.astype(int), spectral.scaled_residuals(medium, grid)]


def _k_grid_roots(medium: Medium, ks: np.ndarray) -> spectral.RootsGrid:
    """Roots over a k grid.  A grid that reaches wavenumbers where they are
    not finite doubles is refused as a ConfigError naming the cause
    (``spectral.nonfinite_roots``); the NaN roots of the (near-)triple root
    (C = 0) are the runs' to report."""
    with np.errstate(all="ignore"):
        grid = spectral.roots_grid(medium, ks)
    if (why := spectral.nonfinite_roots(medium, grid)) is not None:
        raise ConfigError(
            f"the k grid [{ks.min():.6g}, {ks.max():.6g}] 1/m reaches wavenumbers "
            f"where the dispersion roots are not finite doubles; {why}")
    return grid


def _k_grid_amplitudes(medium: Medium, grid: spectral.RootsGrid):
    """``spectral.amplitudes_grid``; a grid where a weight off the degenerate k
    is not a finite double (its |lambda_j| subnormal) is refused as a ConfigError."""
    a0, a1, a2, degen = weights = spectral.amplitudes_grid(medium, grid)
    if not np.all(degen | np.isfinite([a0, a1, a2]).all(axis=0)):
        raise ConfigError(
            f"the k grid [{grid.k.min():.6g}, {grid.k.max():.6g}] 1/m reaches wavenumbers "
            "where the mode weights are not finite doubles: raise the smallest nonzero k")
    return weights


def run_roots(cfg: ExperimentConfig) -> Report:
    """Roots table over the configured k grid and its cubic-residual check."""
    medium = cfg.medium
    columns = _roots_columns(medium, _k_grid_roots(medium, cfg.k_grid(medium)))
    rep = Report("roots")
    rep.csv_paths.append(write_csv(
        cfg.out_dir / "roots.csv", [f"dispersion cubic roots, kc = {medium.k_c:.17g}"],
        _ROOTS_NAMES, columns))
    rep.check_below("max_cubic_residual_scaled", float(np.max(columns[-1])), 1e-9,
                    provenance="definition")
    return rep


def run_coeffs(cfg: ExperimentConfig) -> Report:
    """Mode weights over the configured k grid and their moment-residual check;
    rows where the weights are undefined (k = 0, the triple root) are left out."""
    medium = cfg.medium
    grid = _k_grid_roots(medium, cfg.k_grid(medium))
    a0, a1, a2, degen = _k_grid_amplitudes(medium, grid)
    keep = ~degen
    if not np.any(keep):
        raise ConfigError(
            "the k grid holds only k = 0 (or the triple root), where the "
            "amplitudes are undefined; raise k_max"
        )
    ks = grid.k[keep]
    a0, a1, a2 = a0[keep], a1[keep], a2[keep]
    worst = spectral.moment_residuals(
        medium, [lam[keep] for lam in (grid.lambda0, grid.lambda1, grid.lambda2)],
        (a0, a1, a2))
    rep = Report("coeffs")
    rep.csv_paths.append(write_csv(
        cfg.out_dir / "coeffs.csv",
        [f"amplitude coefficients, kc = {medium.k_c:.17g}"],
        ["k", "re_a0", "im_a0", "re_a1", "im_a1", "re_a2", "im_a2",
         "max_moment_residual_scaled"],
        [ks, a0.real, a0.imag, a1.real, a1.imag, a2.real, a2.imag, worst],
    ))
    rep.check_below("max_moment_residual_scaled", float(np.max(worst)), 1e-9,
                    provenance="definition")
    return rep


def run_kernel_tables(cfg: ExperimentConfig) -> Report:
    """CSV curve families plus the growth-order and pair-structure checks."""
    medium = cfg.medium
    T = cfg.resolve_T(medium)
    rep = Report("kernel_tables")

    for mult, tag in ((10.0, "10kc"), (100.0, "100kc")):
        ks = _k_range(0.0, mult, cfg.k_num, unit=medium.k_c)
        grid = _k_grid_roots(medium, ks)
        a0, a1, a2, _ = _k_grid_amplitudes(medium, grid)
        # A_j k; at k = 0, where lambda1 = lambda2 = 0, A1 k and A2 k are
        # defined by their limits +-i/(2 c0), while A0 k = 0 comes out exact
        at_zero = ks == 0
        with np.errstate(invalid="ignore"):
            a1k = np.where(at_zero, 0.5j / medium.c0, a1 * ks)
            a2k = np.where(at_zero, -0.5j / medium.c0, a2 * ks)
        a0k = a0 * ks
        rep.csv_paths.append(write_csv(
            cfg.out_dir / f"roots_{tag}.csv",
            [f"roots over [0, {mult:g} kc], kc = {medium.k_c:.17g}"],
            _ROOTS_NAMES, _roots_columns(medium, grid),
        ))
        rep.csv_paths.append(write_csv(
            cfg.out_dir / f"amplitudes_{tag}.csv",
            [f"amplitude curves over [0, {mult:g} kc]"],
            ["k", "re_a0_k", "im_a0_k", "re_a1_k", "im_a1_k", "re_a2_k",
             "im_a2_k", "abs_a0_k2", "abs_a1_k", "abs_a2_k", "limit_patched"],
            [ks, a0k.real, a0k.imag, a1k.real, a1k.imag,
             a2k.real, a2k.imag, np.abs(a0k) * ks, np.abs(a1k),
             np.abs(a2k), at_zero.astype(int)],
        ))
        # theta T overflows for an absurdly long T: the kernels come out NaN,
        # and the sup checks below fail the run
        with np.errstate(over="ignore", invalid="ignore"):
            table = kernels.kernel_table(medium, ks, T, d=3)
        rep.csv_paths.append(write_csv(
            cfg.out_dir / f"kernels_{tag}.csv",
            [f"kernel curves over [0, {mult:g} kc], T = {T:.17g}"],
            list(table.keys()),
            list(table.values()),
        ))

    # growth orders on [kc, 1e3 kc]; sup values are recorded and must be finite
    ks = _k_range(1.0, 1000.0, 200, log=True, unit=medium.k_c)
    grid = _k_grid_roots(medium, ks)
    a0, a1, a2, _ = _k_grid_amplitudes(medium, grid)
    sup_a0k2 = float(np.max(np.abs(a0) * ks * ks))
    sup_a1k = float(np.max(np.abs(a1) * ks))
    with np.errstate(over="ignore", invalid="ignore"):
        z1, z2, _, _ = kernels.zeta_arrays(medium, ks, T, d=3)
    checks = {
        "sup_abs_a0_k2": sup_a0k2,
        "sup_abs_a1_k": sup_a1k,
        "sup_zeta1": float(np.max(np.abs(z1))),
        "sup_zeta2": float(np.max(np.abs(z2))),
        "sup_lambda0": float(np.max(grid.lambda0.real)),
        "sup_mu": float(np.max(grid.mu.real)),
    }
    for name, value in checks.items():
        entry = rep.record(name, value)
        if not math.isfinite(value):
            rep.entries[-1] = replace(entry, passed=False)
    rep.check_below(
        "max_rel_abs_a1_a2_mismatch",
        float(np.max(np.abs(np.abs(a1) - np.abs(a2)) / np.abs(a1))),
        1e-10, provenance="definition",
    )
    rep.check_below(
        "max_rel_pair_conj_mismatch",
        float(np.max(np.abs(a2 - np.conj(a1)) / np.abs(a1))),
        1e-10, provenance="definition",
    )
    theta_over_k = grid.theta.real / ks
    rep.record("theta_over_k_plateau_m_per_s", float(theta_over_k[-1]))
    return rep


def _rel_linf(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _norm(x: np.ndarray) -> np.float64:
    """sqrt(sum x^2) by numpy's own pairwise sum: ``np.linalg.norm`` takes a
    BLAS dot, whose sum depends on the BLAS thread count."""
    return np.sqrt(np.sum(x * x))


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / ||b||, in units of max|b| where a squared norm overflows."""
    with np.errstate(over="ignore"):
        num, den = _norm(a - b), _norm(b)
    if math.isinf(num) or math.isinf(den):
        unit = float(np.max(np.abs(b)))
        num, den = _norm((a - b) / unit), _norm(b / unit)
    return float(num / den)


def run_reconstruction(cfg: ExperimentConfig) -> Report:
    """Reconstruct the reference Gaussian and compare against the DC-gain oracle."""
    medium = cfg.medium
    T = cfg.resolve_T(medium)
    D = cfg.phantom_D(medium)
    rep = Report("reconstruction")

    # the 1-D profile CSV writes the whole line
    phi_box, mask, images = transform._gaussian_images(
        cfg.grid, D, medium, T, kernels.ModeProducts.eta0_multiplier, whole=cfg.grid.dim == 1)
    phi = phi_box[mask]
    image, image_eta0 = (im[mask] for im in images)
    gain = kernels.dc_constant(medium)
    oracle = gain * phi

    rep.record("T_s", T, provenance="definition")
    rep.record("phantom_D_m2", D, provenance="definition")
    rep.record("dc_gain", gain, provenance="definition")
    rep.check_below("err_linf_vs_gain_phi", _rel_linf(image, oracle), RECONSTRUCTION_TOL)
    rep.record("err_l2_vs_gain_phi", _rel_l2(image, oracle))
    rep.record("err_linf_eta0_vs_gain_phi", _rel_linf(image_eta0, oracle))
    rep.record("err_linf_vs_phi", _rel_linf(image, phi))
    if medium.tau0 == medium.tau1:
        rep.check_below("err_linf_identity", _rel_linf(image, phi), 1e-3,
                        provenance="definition")

    if cfg.grid.dim == 1:
        rep.csv_paths.append(write_csv(
            cfg.out_dir / "reconstruction_profile.csv",
            [f"1-D reconstruction, T = {T:.17g}, D = {D:.17g}"],
            ["x_m", "phi", "image", "image_eta0", "gain_phi"],
            [cfg.grid.axis_coords(), phi_box, *images, gain * phi_box],
        ))
    return rep


def _sweep_errors(cfg: ExperimentConfig, medium: Medium) -> tuple[float, float]:
    """Relative L-inf and L2 image error on the phantom support; the arrays
    of one medium are freed on return, before the next medium's are built."""
    phi, mask, (image,) = transform._gaussian_images(
        cfg.grid, cfg.phantom_D(medium), medium, cfg.resolve_T(medium))
    phi, image = phi[mask], image[mask]
    return _rel_linf(image, phi), _rel_l2(image, phi)


def _sweep_media(cfg: ExperimentConfig) -> list[Medium]:
    """The configured medium with kappa1 halved 0 ... 5 times."""
    return [derive_medium(replace(cfg.raw, kappa1=cfg.raw.kappa1 * 2.0 ** (-j)))
            for j in range(6)]


def run_kappa_sweep(cfg: ExperimentConfig) -> Report:
    """Image error against the phantom for halving compressibilities.

    The error must decrease strictly and reach 0.5% at the weakest
    dissipation, the grid-level form of the kappa1 -> 0 convergence of the
    imaging functional.  Every medium's image takes the reconstruction's route,
    ``transform._gaussian_images``, on the phantom's band and support box
    only: the multipliers on the band's |k|, the inverse zoomed onto the box
    where that is cheaper, so a 2^20-sample grid builds no array of its
    line's length.  One medium's arrays are alive at a time.
    """
    rep = Report("kappa_sweep")
    kappas, errs_linf, errs_l2, gains = [], [], [], []
    for medium in _sweep_media(cfg):
        err_linf, err_l2 = _sweep_errors(cfg, medium)
        kappas.append(medium.kappa1)
        errs_linf.append(err_linf)
        errs_l2.append(err_l2)
        gains.append(kernels.dc_constant(medium))
    for j in range(6):
        rep.record(f"err_linf_j{j}", errs_linf[j])
    strict = all(errs_linf[j + 1] < errs_linf[j] for j in range(5))
    rep.check_below("final_err_linf", errs_linf[-1], SWEEP_FINAL_TOL)
    rep.check("strictly_decreasing", float(strict), 1.0, 0.0)
    rep.csv_paths.append(write_csv(
        cfg.out_dir / "kappa_sweep.csv",
        ["image error vs phantom for halving kappa1"],
        ["kappa1", "err_linf", "err_l2", "dc_gain_minus_1"],
        [np.asarray(kappas), np.asarray(errs_linf), np.asarray(errs_l2),
         np.asarray(gains) - 1.0],
    ))
    return rep


def run_resolution_study(cfg: ExperimentConfig) -> Report:
    """Resolution scale of the reference phantom, reported next to the quoted claim.

    The formula chain k_c -> D0 = (500/k_c)^2 -> sigma = sqrt(2 D0) is checked
    as identities; the quoted 0.036 mm resolution differs from the chain by a
    factor of ~10 and is recorded, not asserted.  A D0 or band-limit exponent
    beyond double range is refused, as the reconstruction refuses that phantom.
    """
    medium = cfg.medium
    rep = Report("resolution_study")
    d0 = _reference_D(medium)
    # band limit of the reference phantom: D0 (kc/100)^2 = 25 exactly
    try:
        exponent = d0 * (medium.k_c / 100.0) ** 2
    except OverflowError:
        exponent = math.inf
    if not (0.0 < d0 < math.inf and exponent < math.inf):
        raise transform.PhantomSupportError(
            "the reference width D0 = (500/k_c)^2, or D0 (k_c/100)^2, is not a "
            f"finite double > 0 at k_c = {medium.k_c:.6g} 1/m")
    sigma = math.sqrt(2.0 * d0)
    rep.record("k_c_per_m", medium.k_c, provenance="definition")
    rep.check("D0_m2", d0, (500.0 / medium.k_c) ** 2, 1e-12, "definition")
    rep.check("sigma_m", sigma, math.sqrt(2.0) * 500.0 / medium.k_c, 1e-12,
              "definition")
    rep.record("claimed_resolution_m", RESOLUTION_CLAIM_M, provenance="reference")
    rep.record("sigma_over_claim", sigma / RESOLUTION_CLAIM_M)
    rep.check("bandlimit_exponent", exponent, 25.0, 1e-12, "definition")
    rep.record("spectral_ratio_at_kc_over_100", math.exp(-exponent),
               provenance="definition")
    return rep


def run_all(cfg: ExperimentConfig) -> list[Report]:
    """Full battery in a fixed order."""
    return [
        run_water_constants(cfg),
        run_kernel_tables(cfg),
        run_reconstruction(cfg),
        run_kappa_sweep(cfg),
        run_resolution_study(cfg),
    ]
