"""Every subcommand over extreme ``--set`` values, in-process, under -W error.

    python3 tools/refusal_sweep.py [-v]

Runs ``patrev.cli.main`` of this checkout (``src/`` next to this file) once
per case: each subcommand with the built-in water medium and one extreme
value of one key (tau1, kappa1, c, rho, T, L, D, the grid and the k range),
the 2-D and 3-D images (at most 64 samples per axis) over the medium, time
and width values, and media that combine extremes (the tau scales where
1/tau0 or k_c leaves double range, tau1 with k_max).  Every warning is an
error, so a RuntimeWarning that the program does not handle ends its run in
a traceback.

Prints the number of runs per exit code, and with ``-v`` one line per run:
its exit code, its arguments and the last line it wrote to stderr.  Exits 1
if a run ended in a traceback, with an exit code outside {0, 1, 2}, or with
exit 2 and not exactly one stderr line; else 0.  Outputs go to a temporary
directory, removed as the sweep goes.
"""

from __future__ import annotations

import collections
import contextlib
import io
import shutil
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from patrev.cli import _SUBCOMMANDS, main as patrev_main  # noqa: E402

#: extreme values of one key each, set over the built-in water medium; the
#: kappa1 values 3.5555e-9 and 3.5556e-9 put tau0/tau1 either side of 1/9
ONE_KEY = {
    "tau1_s": ["1e-320", "1e-315", "1e-300", "1e-200", "1e-160", "1e-100", "1e-80",
               "1e60", "1e100", "1e200", "1e300", "1e308"],
    "kappa1_m2_per_N": ["0", "1e-300", "3.5555e-9", "3.5556e-9", "4e-9", "9e-9", "1e-6",
                        "1", "1e100", "1e300"],
    "speed_m_per_s": ["1e-320", "1e-300", "1e-10", "1e10", "1e300", "1e308"],
    "rho_kg_per_m3": ["1e-320", "1e-300", "1e300", "1e308"],
    "T_s": ["0", "1e-320", "1e-300", "1e-12", "1e300"],
    "L_m": ["1e-300", "1e300", "1e308"],
    "phantom_D_m2": ["1e-320", "1e-300", "1e-12", "1", "1e300"],
    "grid_extent_m": ["1e-300", "1e-5", "1e5", "1e300"],
    "k_max": ["1e-300kc", "1e20kc", "1e300kc"],
}

#: small grids, with which the table subcommands and the combined cases stay cheap
SMALL = ["--set", "grid_n=4096", "--set", "k_num=50"]

#: 2-D and 3-D grids for the image subcommands
GRIDS = [["--set", "grid_dim=2", "--set", "grid_n=64"],
         ["--set", "grid_dim=3", "--set", "grid_n=32"],
         ["--set", "grid_dim=3", "--set", "grid_n=64"]]

#: values set over each of GRIDS, with the width of the golden 2-D/3-D runs
IMAGE_KEYS = {
    "tau1_s": ["1e-300", "1e-160", "1e300"],
    "kappa1_m2_per_N": ["0", "4e-9", "9e-9", "1e300"],
    "T_s": ["1e-300", "1e300"],
    "phantom_D_m2": ["1e-309", "1e-5", "1"],
    "grid_extent_m": ["1e-5", "1e300"],
}

#: media and grids that combine extremes: the 1/tau0-overflow medium, k_c
#: times k_max beyond double range, the three-real-root band on the image
#: grid, extreme k ranges (a log grid whose ends underflow to 0 among them),
#: and tau1 with k_max
COMBOS = [
    ["--set", "tau1_s=1e-315", "--set", "speed_m_per_s=1e11", "--set", "kappa1_m2_per_N=0"],
    ["--set", "tau1_s=1e-315", "--set", "speed_m_per_s=1e8", "--set", "kappa1_m2_per_N=0"],
    ["--set", "kappa1_m2_per_N=4e-9", "--set", "grid_extent_m=0.01", "--set", "grid_n=16384"],
    ["--set", "kappa1_m2_per_N=9e-9", "--set", "grid_extent_m=1e-5"],
    ["--set", "kappa1_m2_per_N=4.4e-9", "--set", "grid_extent_m=0.001"],
    ["--set", "k_spacing=log", "--set", "k_min=1e-300"],
    ["--set", "k_min=1e300", "--set", "k_max=1e300kc"],
    ["--set", "k_spacing=log", "--set", "tau1_s=1e300", "--set", "k_max=1e-20kc"],
    *[["--set", f"tau1_s={tau1}", "--set", f"k_max={k_max}"]
      for tau1 in ("1e-300", "1e300") for k_max in ("1e-10kc", "1e10kc", "1e30kc")],
]


def cases() -> list[list[str]]:
    """The argv of every run, without --out."""
    out = []
    for sub in _SUBCOMMANDS:
        small = SMALL if sub not in ("reconstruct", "sweep-kappa", "report") else []
        out.append([sub, *small])
        out += [[sub, *small, "--set", f"{key}={value}"]
                for key, values in ONE_KEY.items() for value in values]
        out += [[sub, *SMALL, *combo] for combo in COMBOS]
    for sub in ("reconstruct", "sweep-kappa"):
        for grid in GRIDS:
            base = [sub, *grid, "--set", "phantom_D_m2=0.03125"]
            out.append(base)
            out += [[*base, "--set", f"{key}={value}"]
                    for key, values in IMAGE_KEYS.items() for value in values]
    return out


def run(argv: list[str], out_dir: Path) -> tuple[int | str, str]:
    """(exit code or "traceback", stderr) of one in-process run."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = patrev_main([*argv, "--out", str(out_dir)])
    except Exception:       # noqa: BLE001 - any escape is a finding
        return "traceback", traceback.format_exc()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return code, err.getvalue()


def main(argv=None) -> int:
    verbose = "-v" in (argv if argv is not None else sys.argv[1:])
    warnings.simplefilter("error")
    counts = collections.Counter()
    bad = []
    with tempfile.TemporaryDirectory(prefix="refusal-sweep-") as tmp:
        for i, case in enumerate(cases()):
            code, err = run(case, Path(tmp) / str(i))
            counts[code] += 1
            lines = err.splitlines()
            if code not in (0, 1, 2) or (code == 2 and len(lines) != 1):
                bad.append((case, code, err))
            if verbose:
                print(f"{code} {' '.join(case)} | {lines[-1] if lines else ''}")
    print(f"{sum(counts.values())} runs by exit code: " + ", ".join(
        f"{code}: {n}" for code, n in sorted(counts.items(), key=lambda item: str(item[0]))))
    for case, code, err in bad:
        print(f"\n{code}: {' '.join(case)}\n{err}", end="")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
