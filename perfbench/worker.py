"""Workload process: repeated in-process calls of ``patrev.cli.main``.

Run as ``python3 perfbench/worker.py <spec JSON>`` with ``src`` on
PYTHONPATH; ``run.py`` builds the spec.  One untimed warm-up call is followed
by timed calls until ``seconds`` have passed and at least ``min_timed``
untraced calls were made.  Every call is checked: exit status 0, every ``report*.txt``
passing, the workload's required report lines present, its expected files
written, and every output file byte-identical (sha256) to the warm-up call's.
With ``trace`` every other call runs under ``spans.Tracer`` and returns its
layer totals; the tracer is installed just before and removed just after
each traced call, and at the end every ``patrev`` attribute is compared with
a snapshot taken before the first call.

Prints one JSON line on stdout.
"""

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def sha256_tree(root):
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        out[path.relative_to(root).as_posix()] = digest.hexdigest()
    return out


def check_outputs(spec, out, rc, hashes, reference):
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}")
    for name in spec["files"]:
        if name not in hashes:
            problems.append(f"missing output {name}")
    for report in sorted(out.glob("report*.txt")):
        if "overall_pass = true" not in report.read_text().splitlines():
            problems.append(f"{report.name}: a report check failed")
    for name, line in spec["checks"]:
        path = out / name
        if not path.is_file() or line not in path.read_text().splitlines():
            problems.append(f"{name}: missing '{line}'")
    if reference is not None and hashes != reference:
        changed = sorted(k for k in set(hashes) | set(reference)
                         if hashes.get(k) != reference.get(k))
        problems.append("output differs from the warm-up call: " + ", ".join(changed))
    return problems


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans

    if spec.get("selftest"):
        print(json.dumps({"problems": spans.selftest()}))
        return 0

    import patrev
    from patrev import cli

    src = Path(spec["src"]).resolve()
    if Path(patrev.__file__).resolve().parent.parent != src:
        print(f"patrev imported from {patrev.__file__}, not from {src}", file=sys.stderr)
        return 2

    out = Path(spec["out"])
    argv = spec["argv"] + ["--out", spec["out"]]
    tracer = spans.Tracer() if spec["trace"] else None
    before = spans.snapshot()
    result = {"samples": [], "traced_samples": [], "attempted": 0, "failed": 0,
              "failures": [], "layers": [], "hashes": None}

    def call(request, traced):
        shutil.rmtree(out, ignore_errors=True)
        rc, error = None, None
        if traced:
            tracer.request = request
            tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
            except Exception:
                error = traceback.format_exc(limit=4)
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        hashes = sha256_tree(out) if out.is_dir() else {}
        problems = [error] if error else []
        problems += check_outputs(spec, out, rc, hashes, result["hashes"])
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            if len(result["failures"]) < 5:
                result["failures"].append(f"call {request}: " + "; ".join(problems))
        if result["hashes"] is None:
            result["hashes"] = hashes
        return elapsed

    started = time.perf_counter()
    if tracer:
        # the warm-up call is traced once with the distinct-|k| count, which
        # is too slow to run inside timed calls
        tracer.count_distinct = True
        result["warmup_s"] = call(0, True)
        tracer.count_distinct = False
        result["warmup_layers"] = tracer.request_totals(0)
    else:
        result["warmup_s"] = call(0, False)
    loop_start = time.perf_counter()
    request = 1
    while (len(result["samples"]) < spec["min_timed"]
           or time.perf_counter() - loop_start < spec["seconds"]):
        if time.perf_counter() - started > spec["deadline_s"]:
            break
        # traced and untraced calls alternate, so both see the same machine
        traced = tracer is not None and request % 2 == int(spec["traced_first"])
        elapsed = call(request, traced)
        if traced:
            result["traced_samples"].append(elapsed)
            result["layers"].append(tracer.request_totals(request))
        else:
            result["samples"].append(elapsed)
        request += 1
    shutil.rmtree(out, ignore_errors=True)

    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["not_restored"] = spans.snapshot_diff(before, spans.snapshot())
    if tracer:
        result["missing"] = tracer.missing
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
