"""Golden run: every CLI path on the shipped configs, written under one directory.

    python3 tools/golden.py OUT_DIR

Runs the package of this checkout (``src/`` next to this file) in-process and
writes one subdirectory per run into OUT_DIR.  ``--out`` paths are relative
to OUT_DIR because ``report*.txt`` embeds the CSV paths, so two checkouts
compare with

    python3 tools/golden.py /tmp/a          # in checkout A
    python3 tools/golden.py /tmp/b          # in checkout B
    diff -r /tmp/a /tmp/b

Each run's exit status goes to ``OUT_DIR/status.txt`` (exit 1, a failed
check, is an output like any other: the nondimensional medium fails the
water-scale DC-gain oracle).  The script exits 1 if a run reports a
configuration or usage error.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from patrev.cli import main as patrev_main  # noqa: E402

WATER = str(ROOT / "configs" / "water.cfg")
NONDIM = str(ROOT / "configs" / "nondim.cfg")

#: (output subdirectory, argv without --out)
RUNS = [
    ("water_roots", ["roots", "--config", WATER]),
    ("water_coeffs", ["coeffs", "--config", WATER]),
    ("water_kernels", ["kernels", "--config", WATER]),
    ("water_reconstruct", ["reconstruct", "--config", WATER]),
    ("water_reconstruct_lossless", ["reconstruct", "--config", WATER,
                                    "--set", "kappa1_m2_per_N=0"]),
    ("water_sweep_kappa", ["sweep-kappa", "--config", WATER]),
    ("water_resolution", ["resolution", "--config", WATER]),
    ("water_report", ["report", "--config", WATER]),
    ("nondim_report", ["report", "--config", NONDIM]),
    ("nondim_roots", ["roots", "--config", NONDIM]),
    ("nondim_coeffs", ["coeffs", "--config", NONDIM]),
    ("water_reconstruct_2d", ["reconstruct", "--config", WATER, "--set", "grid_dim=2",
                              "--set", "grid_n=256", "--set", "phantom_D_m2=0.03125"]),
    ("water_reconstruct_3d", ["reconstruct", "--config", WATER, "--set", "grid_dim=3",
                              "--set", "grid_n=64", "--set", "phantom_D_m2=0.03125"]),
]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
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
