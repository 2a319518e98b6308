import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


BASE = {
    "status.txt": "run_a 0\n",
    "run_a/table.csv": "# title\nk,m\n0,4\n1,-2\n2,1\n",
    "run_a/report.txt": "title = a\nx.value = 1\ny.value = 2\n",
}


def test_compare_identical_trees(tmp_path, capsys):
    a = _tree(tmp_path / "a", BASE)
    b = _tree(tmp_path / "b", BASE)
    assert golden.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "byte-identical: 3 of 3 files\n"


def test_compare_reports_column_drift_and_changed_lines(tmp_path, capsys):
    a = _tree(tmp_path / "a", BASE)
    b = _tree(tmp_path / "b", {
        **BASE,
        "run_a/table.csv": "# title\nk,m\n0,4\n1,-2.5\n2,1\n",
        "run_a/report.txt": "title = a\nx.value = 1.5\ny.value = 2\n",
        "extra.txt": "new\n",
    })
    assert golden.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "byte-identical: 1 of 4 files",
        "only in B: extra.txt",
        "run_a/report.txt:",
        "  -x.value = 1",
        "  +x.value = 1.5",
        "run_a/table.csv:",
        "  k: 0",
        "  m: 0.125",          # |-2.5 - -2| / max|m| = 0.5 / 4
    ]


def test_compare_flags_reshaped_csv(tmp_path, capsys):
    a = _tree(tmp_path / "a", BASE)
    b = _tree(tmp_path / "b", {**BASE, "run_a/table.csv": "# title\nk,m\n0,4\n"})
    assert golden.compare(a, b) == 1
    assert "columns or rows differ" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["--compare", "a"], ["a", "b"]])
def test_usage_errors(argv, capsys):
    assert golden.main(argv) == 64
    assert "--compare" in capsys.readouterr().err


def test_compare_exits_quietly_on_a_closed_pipe(tmp_path):
    # ~1 MB of changed lines, far beyond a pipe's buffer: the reader takes one
    # line and closes the pipe, as `--compare A B | head -1` does
    a = _tree(tmp_path / "a", {"r.txt": "".join(f"a{i}\n" for i in range(40000))})
    b = _tree(tmp_path / "b", {"r.txt": "".join(f"b{i}\n" for i in range(40000))})
    proc = subprocess.Popen([sys.executable, golden.__file__, "--compare", str(a), str(b)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"byte-identical: 0 of 1 files\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


#: the child of the single-process run: a second live Python thread turns
#: write_csv's fork off, and a fork would fail the run
_THREADED = """
import os, runpy, sys, threading
def refuse_fork():
    raise AssertionError("write_csv forked with a second Python thread alive")
os.fork = refuse_fork
threading.Thread(target=threading.Event().wait, daemon=True).start()
sys.argv = [sys.argv[1], sys.argv[2]]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_golden_runs_are_deterministic(tmp_path):
    # whole golden runs, concurrently: under 1 and 2 OpenBLAS threads, and
    # with write_csv on its single-process path, every file is byte-identical
    python = [sys.executable, "-W", "error"]
    runs = {
        "blas1": (python + [golden.__file__], "1"),
        "blas2": (python + [golden.__file__], "2"),
        "threaded": (python + ["-c", _THREADED, golden.__file__], "1"),
    }
    procs = {}
    for name, (argv, threads) in runs.items():
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        procs[name] = subprocess.Popen(argv + [str(tmp_path / name)], env=env,
                                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, (name, err.decode()[-2000:])
    status = (tmp_path / "blas1" / "status.txt").read_text(encoding="utf-8")
    assert len(status.splitlines()) == len(golden.RUNS)
    files = sum(path.is_file() for path in (tmp_path / "blas1").rglob("*"))
    for name in ("blas2", "threaded"):
        compared = subprocess.run(
            [sys.executable, golden.__file__, "--compare", str(tmp_path / "blas1"),
             str(tmp_path / name)], capture_output=True, text=True, timeout=300)
        assert compared.stdout == f"byte-identical: {files} of {files} files\n", name
        assert compared.returncode == 0
