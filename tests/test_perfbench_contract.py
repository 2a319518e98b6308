"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` rebinds a fixed list of patrev functions by name; a
renamed or deleted target makes the benchmark refuse to run, so the suite
checks the list here.  ``perfbench/`` is only read.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_tracer_targets_resolve_and_restore():
    assert spans.selftest() == []
