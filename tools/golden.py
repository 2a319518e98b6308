"""Golden run: every CLI path on the shipped configs, written under one directory.

    python3 tools/golden.py OUT_DIR

Runs the package of this checkout (``src/`` next to this file) in-process and
writes one subdirectory per run into OUT_DIR.  ``--out`` paths are relative
to OUT_DIR because ``report*.txt`` embeds the CSV paths, so two checkouts
compare with

    python3 tools/golden.py /tmp/a          # in checkout A
    python3 tools/golden.py /tmp/b          # in checkout B
    python3 tools/golden.py --compare /tmp/a /tmp/b

``--compare A B`` prints the number of byte-identical files; for each CSV
that differs, the max |B - A| of every column as a fraction of the column's
max |A|; and for every other file that differs, the lines that changed.  It
exits 0 when the trees are byte-identical and 1 otherwise, also when its
reader closes the pipe early.

Each run's exit status goes to ``OUT_DIR/status.txt`` (exit 1, a failed
check, is an output like any other: the nondimensional medium fails the
water-scale DC-gain oracle).  The script exits 1 if a run reports a
configuration or usage error.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from patrev.cli import main as patrev_main  # noqa: E402

WATER = str(ROOT / "configs" / "water.cfg")
NONDIM = str(ROOT / "configs" / "nondim.cfg")

#: (output subdirectory, argv without --out)
RUNS = [
    ("water_roots", ["roots", "--config", WATER]),
    ("water_coeffs", ["coeffs", "--config", WATER]),
    # log grid from 5.1e-10 k_c: k = 0 is the only point where the mode
    # weights are undefined, so every row is written
    ("water_coeffs_log", ["coeffs", "--config", WATER, "--set", "k_spacing=log",
                          "--set", "k_min=1e-3"]),
    ("water_kernels", ["kernels", "--config", WATER]),
    ("water_kernels_lossless", ["kernels", "--config", WATER,
                                "--set", "kappa1_m2_per_N=0"]),
    ("water_reconstruct", ["reconstruct", "--config", WATER]),
    ("water_reconstruct_lossless", ["reconstruct", "--config", WATER,
                                    "--set", "kappa1_m2_per_N=0"]),
    ("water_sweep_kappa", ["sweep-kappa", "--config", WATER]),
    # the grid of the sweep-kappa-1d benchmark workload
    ("water_sweep_kappa_2e20", ["sweep-kappa", "--config", WATER,
                                "--set", "grid_n=1048576"]),
    ("water_resolution", ["resolution", "--config", WATER]),
    ("water_report", ["report", "--config", WATER]),
    ("nondim_report", ["report", "--config", NONDIM]),
    ("nondim_roots", ["roots", "--config", NONDIM]),
    ("nondim_coeffs", ["coeffs", "--config", NONDIM]),
    # tau0/tau1 = 0.047: the k grid crosses the three-real-root band (53
    # points) and the Delta1 < 0 points next to it
    ("water_kappa9e-9_roots", ["roots", "--config", WATER,
                               "--set", "kappa1_m2_per_N=9e-9"]),
    ("water_kappa9e-9_coeffs", ["coeffs", "--config", WATER,
                                "--set", "kappa1_m2_per_N=9e-9"]),
    ("water_reconstruct_2d", ["reconstruct", "--config", WATER, "--set", "grid_dim=2",
                              "--set", "grid_n=256", "--set", "phantom_D_m2=0.03125"]),
    ("water_reconstruct_3d", ["reconstruct", "--config", WATER, "--set", "grid_dim=3",
                              "--set", "grid_n=64", "--set", "phantom_D_m2=0.03125"]),
    # the grid of the reconstruct-water-3d benchmark workload
    ("water_reconstruct_3d_128", ["reconstruct", "--config", WATER, "--set", "grid_dim=3",
                                  "--set", "grid_n=128", "--set", "phantom_D_m2=0.03125"]),
    # past the benchmark grid, where the direct cosine-matrix passes gain most
    ("water_reconstruct_3d_256", ["reconstruct", "--config", WATER, "--set", "grid_dim=3",
                                  "--set", "grid_n=256", "--set", "phantom_D_m2=0.03125"]),
    ("water_sweep_kappa_3d", ["sweep-kappa", "--config", WATER, "--set", "grid_dim=3",
                              "--set", "grid_n=64", "--set", "phantom_D_m2=0.03125"]),
    # the built-in medium: no --config
    ("builtin_roots", ["roots", "--set", "k_num=50"]),
    ("builtin_resolution", ["resolution"]),
]


def _read_csv(path: Path):
    """(column names, 2-D float array) of a CSV written by ``write_csv``."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    values = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    return lines[0].split(","), values


def _column_drift(a: Path, b: Path) -> list[str]:
    names, va = _read_csv(a)
    names_b, vb = _read_csv(b)
    if names != names_b or va.shape != vb.shape:
        return [f"  columns or rows differ: {names} {va.shape}, {names_b} {vb.shape}"]
    out = []
    for j, name in enumerate(names):
        delta = np.where(va[:, j] == vb[:, j], 0.0, np.abs(vb[:, j] - va[:, j]))
        scale = np.max(np.abs(va[:, j]), initial=0.0)
        worst = np.max(delta, initial=0.0)
        frac = worst / scale if scale > 0 else (0.0 if worst == 0 else math.inf)
        out.append(f"  {name}: {frac:.3g}")
    return out


def compare(a_dir: Path, b_dir: Path) -> int:
    """Print how tree B differs from tree A; 0 when byte-identical."""
    files_a = {p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file()}
    common = sorted(files_a & files_b)
    differ = [f for f in common
              if (a_dir / f).read_bytes() != (b_dir / f).read_bytes()]
    print(f"byte-identical: {len(common) - len(differ)} of "
          f"{len(files_a | files_b)} files")
    for f in sorted(files_a - files_b):
        print(f"only in A: {f}")
    for f in sorted(files_b - files_a):
        print(f"only in B: {f}")
    for f in differ:
        print(f"{f}:")
        if f.suffix == ".csv":
            print("\n".join(_column_drift(a_dir / f, b_dir / f)))
            continue
        diff = list(difflib.unified_diff(
            (a_dir / f).read_text(encoding="utf-8").splitlines(),
            (b_dir / f).read_text(encoding="utf-8").splitlines(), n=0, lineterm=""))
        for line in diff[2:]:               # after the ---/+++ file header
            if not line.startswith("@@"):
                print(f"  {line}")
    return 0 if files_a == files_b and not differ else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        try:
            return compare(Path(argv[1]), Path(argv[2]))
        except BrokenPipeError:
            # the reader stopped early (`--compare A B | head`): exit without a
            # traceback, and point stdout at devnull for the interpreter's
            # final flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 64
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    status = []
    for name, run in RUNS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = patrev_main(run + ["--out", name])
        Path(name, "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
        status.append(f"{name} {code}\n")
        print(f"{name}: exit {code}", file=sys.stderr)
    Path("status.txt").write_text("".join(status), encoding="utf-8")
    return 1 if any(line.endswith((" 2\n", " 64\n")) for line in status) else 0


if __name__ == "__main__":
    sys.exit(main())
