"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` rebinds a fixed list of patrev functions by name; a
renamed or deleted target makes the benchmark refuse to run, so the suite
checks the list here.  ``perfbench/`` is only read.
"""

import sys
from pathlib import Path

import pytest

from patrev import kernels, transform
from patrev.medium import nondimensional_medium

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_tracer_targets_resolve_and_restore():
    assert spans.selftest() == []


def test_blocked_refusal_is_counted_once():
    # the three-real-root band of nondimensional_medium(0.1) spans the first
    # two blocks of this grid's radial table: the image refuses in the first
    # block and rewords that refusal with the count from the roots of the
    # rest of the table, which raises nothing, so the refusal counts once
    grid = transform.GridSpec(dim=1, n_per_axis=1 << 15, extent=29000.0)
    phantom = transform.gaussian_phantom(grid, 4.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(kernels.ComplexRegimeError):
            transform.time_reversal_image(nondimensional_medium(0.1), phantom, 2.0)
    finally:
        tracer.uninstall()
    totals = tracer.request_totals(0)
    assert totals["spectral.roots_grid.calls"] == 2
    assert totals["refusal:kernels.ComplexRegimeError"] == 1
