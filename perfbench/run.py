"""patrev benchmark: three fixed CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout that has ``src/patrev`` and
``configs/water.cfg``; nothing needs building.  A run

* starts fresh interpreters that stop at the first derived medium, and
  reports their median time as ``setup_s``;
* runs the workload in a process of its own (``worker.py``), so
  ``peak_rss_mb`` belongs to it, with numpy pinned to one thread through the
  usual thread-count variables; ``wall_s`` is the median of the timed calls;
* with ``--trace 1`` alternates untraced calls and calls under
  ``spans.Tracer`` in that process, and reports the per-layer metrics and
  the tracing overhead instead of the end-to-end ones.

Inputs do not depend on the seed: the grids and configs are fixed.  The seed
only permutes the order of a run's phases (set-up probes before or after the
calls; with tracing, whether a traced or an untraced call comes first) and,
in smoke mode, the workload order; it is recorded with the result.  Every call is checked (see ``worker.py``); a failed call counts in
``failed``.  The last line of stdout is the JSON result; the full record
(samples, sha256 of every output file, machine and stack, spans) goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RECORDS = ROOT / ".perfbench_out"

#: the run must end within this many seconds of its start
RUN_DEADLINE_S = 170.0
SETUP_PROBES = 9
MIN_TIMED = 3

#: numpy, BLAS and OpenMP are pinned to one thread in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_REPORT_CHECKS = [
    ("report.txt", f"{name}.pass = true") for name in (
        "water_constants.tau0_s", "water_constants.dc_gain",
        "kernel_tables.max_rel_pair_conj_mismatch",
        "reconstruction.err_linf_vs_gain_phi",
        "kappa_sweep.final_err_linf", "kappa_sweep.strictly_decreasing",
        "resolution_study.bandlimit_exponent",
    )
]

#: why each workload exists is in README.md next to this file
WORKLOADS = {
    "report-water-1d": {
        "argv": ["report", "--config", "configs/water.cfg"],
        "smoke": ["--set", "grid_n=4096", "--set", "k_num=64"],
        "files": ["report.txt", "reconstruction_profile.csv", "kappa_sweep.csv",
                  "roots_10kc.csv", "amplitudes_10kc.csv", "kernels_10kc.csv",
                  "roots_100kc.csv", "amplitudes_100kc.csv", "kernels_100kc.csv"],
        "checks": _REPORT_CHECKS,
    },
    "reconstruct-water-3d": {
        "argv": ["reconstruct", "--config", "configs/water.cfg", "--set", "grid_dim=3",
                 "--set", "grid_n=128", "--set", "phantom_D_m2=0.03125"],
        "smoke": ["--set", "grid_n=16", "--set", "phantom_D_m2=0.125"],
        "files": ["report_reconstruction.txt"],
        "checks": [("report_reconstruction.txt", "err_linf_vs_gain_phi.pass = true")],
    },
    "sweep-kappa-1d": {
        "argv": ["sweep-kappa", "--config", "configs/water.cfg",
                 "--set", "grid_n=1048576"],
        "smoke": ["--set", "grid_n=4096"],
        "files": ["report_kappa_sweep.txt", "kappa_sweep.csv"],
        "checks": [("report_kappa_sweep.txt", "final_err_linf.pass = true"),
                   ("report_kappa_sweep.txt", "strictly_decreasing.pass = true")],
    },
}

#: per-layer metric units by name suffix; names not listed here are times
_UNITS = {
    ".calls": "count", ".points": "count", ".rows": "count", ".cells": "count",
    ".distinct_ratio": "ratio", "Error": "count", "Warning": "count",
    "experiments.write_csv.bytes": "bytes", "transform.fft.bytes": "bytes_computed",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed program call)."""


def unit_of(name):
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return {"peak_rss_mb": "MiB"}.get(name, "s")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(args[:2]))
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish in time") from exc
    return proc


def setup_probe(argv, deadline):
    """Seconds from spawning a fresh interpreter to the first derived medium,
    split into interpreter start, import, and CLI up to that medium."""
    spawned = time.monotonic()
    proc = run_child([str(HERE / "probe.py"), *argv], deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-500:]
    stamps = json.loads(lines[-1])
    return {
        "setup_s": stamps["done"] - spawned,
        "setup.interpreter.s": stamps["started"] - spawned,
        "setup.import_patrev.s": stamps["imported"] - stamps["started"],
        "setup.first_call.s": stamps["done"] - stamps["entered"],
    }, None


def worker(spec, deadline):
    proc = run_child([str(HERE / "worker.py"), json.dumps(spec)], deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker failed: " + proc.stderr.strip()[-2000:])
    return json.loads(lines[-1])


def cache_sizes():
    """{'L2': '2048K', 'L3': ...} of CPU 0 as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def machine_info():
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_workload": {v: "1" for v in THREAD_VARS},
    }
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, numpy.fft as f\n"
         "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
         "fft = 'pocketfft' if hasattr(f, '_pocketfft_umath') else f.__name__\n"
         "print(json.dumps({'numpy': numpy.__version__, 'fft_backend': fft,"
         " 'blas': cfg.get('name', '') + ' ' + cfg.get('version', '')}))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    if proc.returncode == 0:
        info.update(json.loads(proc.stdout))
    return info


def median_of(rows, key):
    return statistics.median(row.get(key, 0.0) for row in rows)


def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 11) / (n - 1), ordered[n - 11]


def layer_metrics(res, probes, names):
    rows = res["layers"]
    out = {}
    for name in names:
        if name == "trace.overhead_pct":
            base = statistics.median(res["samples"])
            out[name] = 100.0 * (statistics.median(res["traced_samples"]) - base) / base
        elif name.startswith("setup."):
            out[name] = statistics.median(p[name] for p in probes)
        elif name == "kernels.mode_products.distinct_ratio":
            warm = res["warmup_layers"]
            points = warm.get("kernels.mode_products.points", 0)
            out[name] = warm.get("kernels.mode_products.distinct", 0) / points if points else 0.0
        elif name.split(".")[-1] in ("s", "self_s", "calls", "points", "rows",
                                     "cells", "bytes"):
            out[name] = median_of(rows, name)
        else:  # refusal counts at layer boundaries
            out[name] = median_of(rows, "refusal:" + name)
    return out


def run_workload(name, seed, seconds, trace, bench, smoke=False):
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    wl = WORKLOADS[name]
    argv = wl["argv"] + (wl["smoke"] if smoke else [])
    work = WORK / name
    out = str((work / "out").relative_to(ROOT))
    rng = random.Random(seed)
    phases = ["setup", "calls"]
    rng.shuffle(phases)
    traced_first = trace and rng.random() < 0.5

    probes, failures = [], []
    attempted = failed = 0
    for phase in phases:
        if phase == "setup":
            for _ in range(SETUP_PROBES):
                probe, error = setup_probe(argv + ["--out", out], deadline)
                attempted += 1
                if probe is None:
                    failed += 1
                    failures.append("setup probe: " + error)
                else:
                    probes.append(probe)
            continue
        spec = {"argv": argv, "out": out, "src": str(SRC), "files": wl["files"],
                "checks": wl["checks"], "trace": trace, "traced_first": traced_first,
                "seconds": seconds, "min_timed": 2 if smoke else MIN_TIMED,
                "deadline_s": max(0.0, deadline - time.monotonic() - 15.0)}
        res = worker(spec, deadline)
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]
        if res["not_restored"]:
            failures.append("tracer left patrev attributes changed: "
                            + ", ".join(res["not_restored"][:5]))
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    if not probes or not res["samples"] or (trace and not res["traced_samples"]):
        raise BenchError("no successful measurement: " + "; ".join(failures))

    if trace:
        names = [m["name"] for m in bench["per_layer"]]
        values = layer_metrics(res, probes, names)
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        values = {"wall_s": statistics.median(res["samples"]),
                  "peak_rss_mb": res["peak_rss_mib"],
                  "setup_s": statistics.median(p["setup_s"] for p in probes)}
    metrics = {n: {"value": values[n], "unit": unit_of(n)} for n in names}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "phase_order": phases, "traced_first": traced_first,
        "argv": argv, "correct": failed == 0 and not failures,
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": metrics, "outputs_sha256": res["hashes"],
        "wall_samples_s": res["samples"], "warmup_s": res["warmup_s"],
        "traced_wall_samples_s": res["traced_samples"],
        "not_traced": res.get("missing", []), "setup_probes": probes,
        "spans": res.get("spans"), "elapsed_s": time.monotonic() - started,
    }


def print_summary(res, machine):
    order = " > ".join(res["phase_order"])
    if res["trace"]:
        order += ", traced call first" if res["traced_first"] else ", untraced call first"
    print(f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}"
          f"  order {order}  argv {' '.join(res['argv'])}")
    print("machine " + json.dumps(machine, sort_keys=True))
    samples = res["wall_samples_s"]
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples above it")
    print(f"wall per call: median {statistics.median(samples):.4f} s, {tail_text}, "
          f"n = {len(samples)} (warm-up call {res['warmup_s']:.4f} s, not counted)")
    if res["traced_wall_samples_s"]:
        print(f"traced wall per call: median "
              f"{statistics.median(res['traced_wall_samples_s']):.4f} s, "
              f"n = {len(res['traced_wall_samples_s'])}")
    print(f"error_rate {res['failed']}/{res['attempted']}")
    for failure in res["failures"]:
        print("FAILED " + failure)
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if res["not_traced"]:
        print("not traced (absent from patrev, read as 0): " + ", ".join(res["not_traced"]))
    if res["trace"]:
        times = {n: m["value"] for n, m in res["metrics"].items()
                 if n.endswith(".s") and not n.startswith(("setup.", "cli.",
                                                           "experiments.run_"))}
        top = max(times, key=times.get)
        print(f"largest layer (inclusive s, runner and cli spans excluded): {top}")
    for path, digest in res["outputs_sha256"].items():
        print(f"sha256 {digest}  {path}")


def result_line(res):
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": res["metrics"]})


def save_record(res, machine):
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}.json"
    path.write_text(json.dumps({**res, "machine": machine}, indent=1))
    return path


def smoke(bench, seed):
    """Each workload at a tiny size, untraced and traced: every declared metric
    is emitted with its declared unit, every call passes, the tracer restores
    every patrev attribute, and refusals are counted."""
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    problems = []
    order = list(WORKLOADS)
    random.Random(seed).shuffle(order)
    deadline = time.monotonic() + RUN_DEADLINE_S
    selftest = worker({"selftest": True}, deadline)
    problems += ["tracer selftest: " + p for p in selftest["problems"]]
    for name in order:
        for trace in (False, True):
            res = run_workload(name, seed, 1, trace, bench, smoke=True)
            group = bench["per_layer"] if trace else bench["end_to_end"]
            where = f"{name} trace {int(trace)}"
            if set(res["metrics"]) != {m["name"] for m in group}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            for metric, m in res["metrics"].items():
                if m["unit"] != declared.get(metric) or not isinstance(m["value"], float):
                    problems.append(f"{where}: {metric} has unit {m['unit']!r}, "
                                    f"value {m['value']!r}")
            if not res["correct"]:
                problems.append(f"{where}: " + "; ".join(res["failures"]))
            print(f"smoke {where}: {len(res['metrics'])} metrics, "
                  f"{res['attempted']} calls, {res['failed']} failed", flush=True)
    for p in problems:
        print("SMOKE FAILURE " + p)
    print("smoke " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, check the benchmark itself")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "patrev" / "__init__.py", ROOT / "configs" / "water.cfg",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print("perfbench: not a patrev checkout, missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.smoke:
            return smoke(bench, args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        res = run_workload(args.workload, args.seed, seconds, bool(args.trace), bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    machine = machine_info()
    print_summary(res, machine)
    print(f"record {save_record(res, machine).relative_to(ROOT)}")
    print(result_line(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
