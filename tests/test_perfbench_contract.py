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
    # two blocks of this grid's radial table: the image refuses the band in
    # closed form before any evaluation, so it solves no roots and the
    # refusal counts once
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
    assert totals.get("spectral.roots_grid.calls", 0) == 0
    assert totals.get("kernels.mode_products.calls", 0) == 0
    assert totals["refusal:kernels.ComplexRegimeError"] == 1


def _traced(call):
    """``call()`` under an installed tracer: its result, the tracer, and the
    identity snapshot taken before the install."""
    before = spans.snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = call()
    finally:
        tracer.uninstall()
    return result, tracer, before


def test_traced_3d_image_is_unchanged_and_restored():
    # the tracer wraps the np.fft functions that transform calls through its
    # np binding: the bytes must not change and every binding must be restored
    grid = transform.GridSpec(dim=3, n_per_axis=16, extent=16.0)
    phantom = transform.gaussian_phantom(grid, 0.25)
    medium = nondimensional_medium(0.5)
    untraced = transform.time_reversal_image(medium, phantom, 2.0)
    traced, tracer, before = _traced(
        lambda: transform.time_reversal_image(medium, phantom, 2.0))
    assert np.array_equal(traced.samples, untraced.samples)
    assert spans.snapshot_diff(before, spans.snapshot()) == []
    # numpy's rfftn and irfftn
    assert tracer.request_totals(0)["transform.fft.calls"] == 2


def test_traced_3d_gaussian_images_count_their_passes():
    # the image route calls its FFTs through transform.np too.  On this grid
    # the alias exp(-D (pi/dx)^2) is not below round-off, so the axis
    # spectrum is one rfft of the sampled, centred axis factor, shared by
    # the three axes.  The passes of each image run from the h^3 octant to
    # the w = 3 non-negative lines of the 5-line support box: the first two
    # are direct cosine matrices (8 w h <= lines n), which call no FFT, and
    # the last, on a (w, w, h) spectrum, is one irfft (8 w h > w w n, and a
    # zoom would need 8 (h - 1 + w) <= n)
    grid = transform.GridSpec(dim=3, n_per_axis=16, extent=16.0)
    medium = nondimensional_medium(0.5)

    def images():
        return transform._gaussian_images(grid, 0.25, medium, 2.0, lambda mp: np.cos(mp.k))

    untraced = images()
    traced, tracer, before = _traced(images)
    for a, b in zip([*untraced[:2], *untraced[2]], [*traced[:2], *traced[2]], strict=True):
        assert np.array_equal(a, b)
    assert spans.snapshot_diff(before, spans.snapshot()) == []
    totals = tracer.request_totals(0)
    assert totals["transform.fft.calls"] == 1 + 2
    n, h, w = 16, 9, 3
    # bytes read and written: the float64 factor and its complex spectrum,
    # then per image the float64 (w, w, h) spectrum and its (w, w, n) lines
    assert totals["transform.fft.bytes"] == 8 * n + 16 * h + 2 * (8 * w * w * h + 8 * w * w * n)


def test_traced_band_images_zoom_through_transform_np():
    # where the alias and the edge are below round-off the axis spectrum is
    # the closed form, with no FFT; a 1-D box past n/8 of the line is the
    # chirp-z zoom on its w non-negative lines, three complex FFTs of length
    # L = 512 per image
    grid = transform.GridSpec(dim=1, n_per_axis=4096, extent=64.0)
    medium = nondimensional_medium(0.5)

    def images():
        return transform._gaussian_images(grid, 0.25, medium, 6.0, lambda mp: np.cos(mp.k))

    untraced = images()
    traced, tracer, before = _traced(images)
    for a, b in zip([*untraced[:2], *untraced[2]], [*traced[:2], *traced[2]], strict=True):
        assert np.array_equal(a, b)
    assert spans.snapshot_diff(before, spans.snapshot()) == []
    totals = tracer.request_totals(0)
    assert totals["transform.fft.calls"] == 2 * 3
    m, w, L = 136, untraced[0].size // 2 + 1, 512   # band |k|, half-box lines, zoom length
    per_image = (16 * m + 16 * L) + (16 * (m + w - 1) + 16 * L) + (16 * L + 16 * L)
    assert totals["transform.fft.bytes"] == 2 * per_image
