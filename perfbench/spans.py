"""Layer spans for patrev, recorded from outside the package.

The tracer rebinds the module attributes through which patrev's layers call
each other (every binding of the same function object in every ``patrev``
module, including dispatch tables, since ``cli`` imports ``write_csv`` by
name) and restores them on ``uninstall``.  Nothing under ``src/`` changes.

A span is (id, parent id, name, start, end, request); all spans of one CLI
call share the request index.  Inclusive time of a name counts only its
outermost span when the name nests in itself; self time is a span's
duration minus the durations of its traced children.  Time the tracer spends
on its own bookkeeping and counters is subtracted from every open span.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np


def _k_points(tracer, args, kwargs, result):
    k = np.asarray(args[1] if len(args) > 1 else kwargs["k"], dtype=float)
    out = {"points": k.size}
    if tracer.count_distinct and k.size:
        # distinct up to round-off: sqrt(kx^2+ky^2+kz^2) of one |k|^2 differs
        # in the last bits between axis permutations
        scale = float(np.max(np.abs(k))) or 1.0
        out["distinct"] = np.unique(np.round(k / scale, 12)).size
    return out


def _grid_points(tracer, args, kwargs, result):
    return {"points": np.asarray(args[1] if len(args) > 1 else kwargs["k"]).size}


def _csv_counts(tracer, args, kwargs, result):
    columns = args[3] if len(args) > 3 else kwargs["columns"]
    rows = len(columns[0]) if columns else 0
    return {"rows": rows, "cells": rows * len(columns),
            "bytes": os.path.getsize(result)}


def _fft_bytes(tracer, args, kwargs, result):
    # computed from array sizes (input read + output written), not measured
    return {"bytes": np.asarray(args[0]).nbytes + result.nbytes}


#: (module, attribute or Class.attribute, span name, counter function)
TARGETS = (
    ("patrev.cli", "main", "cli.main", None),
    ("patrev.experiments", "config_from_mapping", "experiments.config_from_mapping", None),
    ("patrev.experiments", "run_water_constants", "experiments.run_water_constants", None),
    ("patrev.experiments", "run_kernel_tables", "experiments.run_kernel_tables", None),
    ("patrev.experiments", "run_reconstruction", "experiments.run_reconstruction", None),
    ("patrev.experiments", "run_kappa_sweep", "experiments.run_kappa_sweep", None),
    ("patrev.experiments", "run_resolution_study", "experiments.run_resolution_study", None),
    ("patrev.experiments", "Report.write", "experiments.Report.write", None),
    ("patrev.experiments", "write_csv", "experiments.write_csv", _csv_counts),
    ("patrev.medium", "derive_medium", "medium.derive_medium", None),
    ("patrev.spectral", "roots_grid", "spectral.roots_grid", _grid_points),
    ("patrev.spectral", "amplitudes_grid", "spectral.amplitudes_grid", None),
    ("patrev.spectral", "degenerate_mask", "spectral.degenerate_mask", None),
    ("patrev.spectral", "scaled_residuals", "spectral.scaled_residuals", None),
    ("patrev.kernels", "mode_products", "kernels.mode_products", _k_points),
    ("patrev.kernels", "zeta_arrays", "kernels.zeta_arrays", None),
    ("patrev.kernels", "multiplier_grid", "kernels.multiplier_grid", None),
    ("patrev.kernels", "kernel_table", "kernels.kernel_table", None),
    ("patrev.transform", "gaussian_phantom", "transform.gaussian_phantom", None),
    ("patrev.transform", "GridSpec.k_magnitude", "transform.GridSpec.k_magnitude", None),
    ("patrev.transform", "apply_multiplier", "transform.apply_multiplier", None),
    ("patrev.transform", "time_reversal_image", "transform.time_reversal_image", None),
)

#: numpy.fft entry points timed as the "transform.fft" span when transform
#: calls them through its ``np`` binding
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


class _Namespace:
    """Attribute view of ``target`` with some attributes replaced."""

    def __init__(self, target, overrides):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


def patrev_modules():
    return sorted((name, mod) for name, mod in sys.modules.items()
                  if mod is not None and (name == "patrev" or name.startswith("patrev.")))


def snapshot():
    """Identity map of every patrev module attribute, every module-level dict
    entry and every attribute of classes defined in patrev."""
    state = {}
    for modname, mod in patrev_modules():
        for key, value in list(vars(mod).items()):
            state[(modname, key)] = value
            if type(value) is dict:
                for dkey, dvalue in value.items():
                    state[(modname, key, "[]", dkey)] = dvalue
            if isinstance(value, type) and value.__module__ == modname:
                for ckey, cvalue in vars(value).items():
                    state[(modname, key, ".", ckey)] = cvalue
    return state


def snapshot_diff(before, after):
    """Keys whose object differs (by identity) between two snapshots."""
    keys = set(before) | set(after)
    return sorted((str(k) for k in keys
                   if k not in before or k not in after or before[k] is not after[k]))


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = 0
        self.count_distinct = False
        self.missing = []
        self._stack = []
        self._overhead = 0.0
        self._saved = []
        self._seen_errors = []
        self._next_id = 0

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        t0 = time.perf_counter()
        nested = any(f["name"] == name for f in self._stack)
        frame = {"id": self._next_id, "name": name, "nested": nested,
                 "child": 0.0, "ovh": self._overhead,
                 "parent": self._stack[-1]["id"] if self._stack else None}
        self._next_id += 1
        self._stack.append(frame)
        frame["t0"] = time.perf_counter()
        self._overhead += frame["t0"] - t0
        return frame

    def _exit(self, frame, counter, args, kwargs, result, error):
        t1 = time.perf_counter()
        self._stack.pop()
        dur = t1 - frame["t0"] - (self._overhead - frame["ovh"])
        if error is not None:
            counts = self._refusal(error)
        else:
            counts = counter(self, args, kwargs, result) if counter else {}
        if self._stack:
            self._stack[-1]["child"] += dur
        self.spans.append({
            "id": frame["id"], "parent": frame["parent"], "name": frame["name"],
            "request": self.request, "start": frame["t0"], "end": t1,
            "dur": dur, "self": dur - frame["child"], "nested": frame["nested"],
            "counts": counts,
        })
        self._overhead += time.perf_counter() - t1

    def _refusal(self, error):
        # count each refusal once, at the first traced boundary it leaves
        if any(error is e for e in self._seen_errors):
            return {}
        self._seen_errors.append(error)
        cls = type(error)
        if not cls.__module__.startswith("patrev."):
            return {}
        return {"refusal:" + cls.__module__.split(".")[-1] + "." + cls.__name__: 1}

    def _wrap(self, name, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, counter, args, kwargs, None, exc)
                raise
            tracer._exit(frame, counter, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _warn(self, real_warnings):
        tracer = self

        def warn(message, category=None, stacklevel=1, source=None):
            if category is None:
                category = message.__class__ if isinstance(message, Warning) else UserWarning
            t0 = time.perf_counter()
            key = ("refusal:" + category.__module__.split(".")[-1] + "."
                   + category.__name__)
            tracer.spans.append({
                "id": tracer._next_id, "name": "warning",
                "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                "request": tracer.request, "start": t0, "end": t0, "dur": 0.0,
                "self": 0.0, "nested": False, "counts": {key: 1},
            })
            tracer._next_id += 1
            tracer._overhead += time.perf_counter() - t0
            real_warnings.warn(message, category, stacklevel + 1, source)

        return _Namespace(real_warnings, {"warn": warn})

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement):
        for _, mod in patrev_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((setattr, mod, key, original))
                    setattr(mod, key, replacement)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._saved.append((dict.__setitem__, value, dkey, original))
                            value[dkey] = replacement

    def install(self):
        """Wrap every target; targets the package no longer has are listed in
        ``missing`` and read as zero."""
        import patrev.cli  # noqa: F401  (loads every layer module)

        self.missing = []
        for modname, path, name, counter in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{modname}.{path}")
                continue
            if owner_name:
                original = vars(owner)[attr]
                self._saved.append((setattr, owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))
            else:
                original = getattr(owner, attr)
                self._rebind(original, self._wrap(name, original, counter))

        transform = sys.modules["patrev.transform"]
        real_np = getattr(transform, "np", None)
        if real_np is np:
            fft = _Namespace(np.fft, {
                f: self._wrap("transform.fft", getattr(np.fft, f), _fft_bytes)
                for f in FFT_FUNCTIONS
            })
            self._saved.append((setattr, transform, "np", real_np))
            transform.np = _Namespace(np, {"fft": fft})
        else:
            self.missing.append("patrev.transform.np")
        real_warnings = getattr(transform, "warnings", None)
        if real_warnings is not None:
            self._saved.append((setattr, transform, "warnings", real_warnings))
            transform.warnings = self._warn(real_warnings)
        else:
            self.missing.append("patrev.transform.warnings")

    def uninstall(self):
        while self._saved:
            setter, owner, key, original = self._saved.pop()
            setter(owner, key, original)

    # -- aggregation ------------------------------------------------------

    def request_totals(self, request):
        """Per-name totals of one request: s, self_s, calls and counters."""
        out = defaultdict(float)
        for span in self.spans:
            if span["request"] != request:
                continue
            name = span["name"]
            for key, value in span["counts"].items():
                if key.startswith("refusal:"):
                    out[key] += value
                else:
                    out[f"{name}.{key}"] += value
            if name == "warning":
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += span["self"]
            if not span["nested"]:
                out[f"{name}.s"] += span["dur"]
        return dict(out)


def selftest():
    """Trigger one refusal of each counted kind under the tracer and check the
    counts and that every patrev attribute is restored afterwards."""
    import warnings

    import patrev
    import patrev.cli  # noqa: F401  (install loads every layer module)
    from patrev import kernels, transform

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    raised = defaultdict(int)
    try:
        water = patrev.derive_medium(patrev.water_params())
        grid = transform.GridSpec(dim=1, n_per_axis=256, extent=8.0)
        phantom = transform.gaussian_phantom(grid, 0.01)
        try:
            transform.time_reversal_image(water, phantom, 4.0 * 0.5 / water.c_inf,
                                          include_zeta3=True)
        except kernels.ScaleOverflowError:
            raised["refusal:kernels.ScaleOverflowError"] += 1
        nondim = patrev.nondimensional_medium(0.1)
        try:
            kernels.zeta_arrays(nondim, np.linspace(0.0, 10.0 * nondim.k_c, 2001), 1.0)
        except kernels.ComplexRegimeError:
            raised["refusal:kernels.ComplexRegimeError"] += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            transform.propdelta_check(phantom, water, 3.0 / water.c0,
                                      transform.InteriorRegion(0.1))
        raised["refusal:transform.GridAliasingWarning"] += sum(
            issubclass(w.category, transform.GridAliasingWarning) for w in caught)
    finally:
        tracer.uninstall()
    totals = tracer.request_totals(0)
    problems = []
    # a later medium-space fix may stop a case from refusing; the count must
    # still equal what was raised, and at least one refusal must be seen
    for key in ("refusal:kernels.ScaleOverflowError",
                "refusal:kernels.ComplexRegimeError",
                "refusal:transform.GridAliasingWarning"):
        if totals.get(key, 0) != raised[key]:
            problems.append(f"{key} counted {totals.get(key, 0)} times, "
                            f"raised {raised[key]} times")
    if not any(raised.values()):
        problems.append("no refusal was triggered")
    if not totals.get("transform.fft.calls"):
        problems.append("no transform.fft span recorded")
    changed = snapshot_diff(before, snapshot())
    if changed:
        problems.append("attributes not restored: " + ", ".join(changed[:5]))
    if tracer.missing:
        problems.append("targets not found: " + ", ".join(tracer.missing))
    return problems
