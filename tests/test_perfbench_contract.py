"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` rebinds a fixed list of patrev functions by name; a
renamed or deleted target makes the benchmark refuse to run, so the suite
checks the list here.  ``perfbench/`` is only read.
"""

import sys
from pathlib import Path

import numpy as np
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


def test_traced_3d_image_is_unchanged_and_restored(monkeypatch):
    # every pass runs one half on a worker thread while the tracer wraps the
    # np.fft functions: the bytes must not change and every binding must be
    # restored
    monkeypatch.setattr(transform, "_THREADED_SIZE", 0)
    monkeypatch.setattr(transform, "_CPUS", 2)
    grid = transform.GridSpec(dim=3, n_per_axis=16, extent=16.0)
    phantom = transform.gaussian_phantom(grid, 0.25)
    medium = nondimensional_medium(0.5)
    untraced = transform.time_reversal_image(medium, phantom, 2.0)
    before = spans.snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = transform.time_reversal_image(medium, phantom, 2.0)
    finally:
        tracer.uninstall()
    assert np.array_equal(traced.samples, untraced.samples)
    assert spans.snapshot_diff(before, spans.snapshot()) == []
    # rfft, fft on axes 1 and 0, ifft on axes 0 and 1, irfft: two halves each
    assert tracer.request_totals(0)["transform.fft.calls"] == 12
