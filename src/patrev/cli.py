"""Command-line interface.

Subcommands map onto the experiment runners:

    roots        tabulate cubic roots, Delta0/Delta1/C and residuals over a k grid
    coeffs       tabulate amplitude coefficients and moment residuals
    kernels      tabulate the imaging kernel curves
    reconstruct  run the Gaussian reconstruction experiment
    sweep-kappa  image error for halving compressibilities
    resolution   resolution formula chain and the quoted claim
    report       full battery, one combined report

Configuration comes from a key=value file (see configs/water.cfg), or the
built-in water medium without --config; any key can be overridden with
--set key=value (flags > file > defaults), and k_max takes the suffix "kc"
for multiples of the derived critical wavenumber.  Files go to --out, all or
none: a run writes into a .staging-* directory inside --out, and its files move
into --out, reports last, once it returns.  A refusal, crash or interrupt
leaves --out as it was; only a SIGKILL can leave the .staging-* directory.
Exit status: 0 all declared checks pass, 1 a check failed, 2 configuration
error or refused input (an unphysical medium, a phantom wider than the grid or
with a width or peak beyond double range, three real roots on the imaging
path, theta T beyond double range, a k grid or image whose roots are not
finite doubles, an unwritable --out), 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from . import experiments
from .experiments import ConfigError, ExperimentConfig, Report
from .kernels import ComplexRegimeError, ScaleOverflowError
from .medium import UnphysicalMediumError
from .transform import PhantomSupportError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_USAGE = 64

_DISPATCH = {
    "roots": experiments.run_roots,
    "coeffs": experiments.run_coeffs,
    "kernels": experiments.run_kernel_tables,
    "reconstruct": experiments.run_reconstruction,
    "sweep-kappa": experiments.run_kappa_sweep,
    "resolution": experiments.run_resolution_study,
}
_SUBCOMMANDS = (*_DISPATCH, "report")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrev",
        description="Spectral time-reversal toolkit for dissipative media",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="key=value config file (default: built-in water)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default: ./out)")
    return parser


_PARSER = _build_parser()      # built once; --set's append copies its default


def _assemble_config(args) -> ExperimentConfig:
    if args.config is not None:
        mapping = experiments.read_config_mapping(args.config)
    else:
        mapping = experiments._water_mapping()
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return experiments.config_from_mapping(mapping, args.out)


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems (unknown subcommand, bad flags);
        # map those to 64 and keep 0 for --help
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        cfg = _assemble_config(args)
        rep = _run(args.subcommand, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnphysicalMediumError, PhantomSupportError, ComplexRegimeError,
            ScaleOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _print_summary(rep)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _run(subcommand: str, cfg: ExperimentConfig) -> Report:
    """Run one subcommand in a staging directory inside --out, then move its
    files into --out, the report*.txt files last; returns the report."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=cfg.out_dir))
    try:
        staged = replace(cfg, out_dir=stage)
        reps = (experiments.run_all(staged) if subcommand == "report"
                else [_DISPATCH[subcommand](staged)])
        for r in reps:
            r.csv_paths = [cfg.out_dir / p.name for p in r.csv_paths]
            r.write(stage / f"report_{r.title}.txt")
        rep = reps[0]
        if subcommand == "report":
            rep = Report("combined", [replace(e, name=f"{r.title}.{e.name}")
                                      for r in reps for e in r.entries],
                         [p for r in reps for p in r.csv_paths])
            rep.write(stage / "report.txt")
        for name in sorted(os.listdir(stage), key=lambda n: (n.endswith(".txt"), n)):
            os.replace(stage / name, cfg.out_dir / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return rep


def _print_summary(rep: Report):
    for e in rep.entries:
        line = f"{rep.title}.{e.name} = {e.value:.6g}"
        if e.target is not None:
            line += f" (target {e.target:.6g}, tol {e.tolerance:.3g})"
        if e.passed is not None:
            line += ": pass" if e.passed else ": FAIL"
        print(line)
    for p in rep.csv_paths:
        print(f"wrote {p}")


if __name__ == "__main__":
    sys.exit(main())
