"""Spans around the package's entry points, recorded from outside the package.

Each hook replaces a function where its caller looks the name up (a module
global or a class attribute) with a wrapper that records one span per call:
name, start, end, parent span and case id.  Spans are kept in one typed
array in memory and written once, after the measured passes.  Self time
(span time minus the time covered by child spans) and per-name call counts
are summed while the spans close, so the per-layer metrics need no second
pass over the spans.

A hook whose target no longer exists is reported as missing; the run goes on
without that span.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import time
from array import array

import numpy as np

# (span name, module the caller reads the name from, attribute path there)
HOOKS = (
    ("integrate.rk3_step", "fvweno.integrate", "rk3_step"),
    ("integrate.rk3_step", "fvweno.dissect", "rk3_step"),
    ("integrate.cfl_dt", "fvweno.integrate", "cfl_dt"),
    ("solver.tendency", "fvweno.solver", "SemiDiscreteOp1D.__call__"),
    ("solver.tendency", "fvweno.solver", "SemiDiscreteOp1D.tendency_recorded"),
    ("solver.tendency", "fvweno.solver", "SemiDiscreteOp2D.__call__"),
    ("mesh.fill_ghosts", "fvweno.solver", "fill_ghosts"),
    ("physics.max_wave_speed", "fvweno.solver", "max_wave_speed"),
    ("physics.max_wave_speed", "fvweno.integrate", "max_wave_speed"),
    ("physics.EulerModel.validate", "fvweno.physics", "EulerModel.validate"),
    ("physics.lf_flux", "fvweno.solver", "lf_flux"),
    ("weno.interface_states", "fvweno.solver", "interface_states"),
    ("weno.gauss_point_values", "fvweno.solver", "gauss_point_values"),
    ("weno.nonlinear_weights", "fvweno.weno", "nonlinear_weights"),
    ("mesh.polygon_indicator_average", "fvweno.harness.problems",
     "polygon_indicator_average"),
    ("harness.norms", "fvweno.harness.runs", "norms"),
    ("harness.solve", "fvweno.harness.runs", "solve"),
    ("harness.convergence_study", "fvweno.harness", "convergence_study"),
    ("harness.run_problem", "fvweno.harness", "run_problem"),
    ("dissect.analyze_step", "fvweno.dissect", "analyze_step"),
    ("dissect.final_time_comparison", "fvweno.dissect", "final_time_comparison"),
)

# Span opened around every registered problem's exact solution.
EXACT_SPAN = "harness.exact"
# A call of this span starts a new case (one scheme at one resolution).
CASE_SPAN = "harness.solve"


def _windows(upad):
    """Five-cell windows reconstructed from a padded (..., N) array."""
    shape = np.shape(upad)
    return math.prod(shape[:-1]) * max(shape[-1] - 4, 0)


def _weight_windows(beta):
    """Windows whose weights one nonlinear_weights call evaluates."""
    return np.size(beta) // 3


# Fields of one recorded span, in the flat span array.
SPAN_FIELDS = ("index", "name_id", "start_ns", "end_ns", "parent", "case")


class Tracer:
    """In-memory span recorder with running per-name totals.

    Spans are numbered in the order they open and stored, as they close, in
    one flat int64 array of ``SPAN_FIELDS`` rows; the parent of a top-level
    span is -1.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = array("q")
        self.stats = []      # per name id: [calls, self ns, inclusive ns, windows]
        self.case_id = 0
        self.missing = []
        self._stack = []     # open spans: [index, start ns, child ns]
        self._count = 0

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0, 0, 0])
        return nid

    def new_case(self):
        self.case_id += 1

    def _call(self, nid, fn, args, kwargs, clock=time.perf_counter_ns):
        stack = self._stack
        frame = [self._count, 0, 0]
        self._count += 1
        stack.append(frame)
        frame[1] = start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            dur = end - start
            parent = -1
            if stack:
                top = stack[-1]
                top[2] += dur
                parent = top[0]
            st = self.stats[nid]
            st[0] += 1
            st[1] += dur - frame[2]
            st[2] += dur
            self.spans.extend((frame[0], nid, start, end, parent, self.case_id))

    def wrap(self, name, fn):
        """``fn`` with one span named ``name`` around every call."""
        if name == "weno.nonlinear_weights":
            return self._wrap_weights(fn)
        nid = self._id(name)
        call = self._call
        if name in ("weno.interface_states", "weno.gauss_point_values"):
            st = self.stats[nid]

            def traced(*args, **kwargs):
                st[3] += _windows(args[0])
                return call(nid, fn, args, kwargs)
        elif name == CASE_SPAN:
            def traced(*args, **kwargs):
                self.new_case()
                return call(nid, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                return call(nid, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_weights(self, fn):
        """nonlinear_weights(beta, scheme, d): one span name per family."""
        ids = {}
        call = self._call

        def traced(beta, scheme, *args, **kwargs):
            nid = ids.get(scheme.family)
            if nid is None:
                nid = ids[scheme.family] = self._id(f"weno.nonlinear_weights.{scheme.family}")
            self.stats[nid][3] += _weight_windows(beta)
            return call(nid, fn, (beta, scheme, *args), kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Bind every hook; return the targets that could not be found."""
        for span, modname, path in HOOKS:
            target = f"{modname}.{path}"
            try:
                owner = importlib.import_module(modname)
                *parents, leaf = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            setattr(owner, leaf, self.wrap(span, fn))
        self._install_exact()
        return self.missing

    def _install_exact(self):
        """Wrap the exact solution of every registered problem."""
        try:
            problems = importlib.import_module("fvweno.harness.problems")
            registry = problems.REGISTRY
        except (ImportError, AttributeError):
            self.missing.append("fvweno.harness.problems.REGISTRY")
            return
        for pid, prob in list(registry.items()):
            exact = getattr(prob, "exact", None)
            if exact is None:
                continue
            try:
                registry[pid] = dataclasses.replace(
                    prob, exact=self.wrap(EXACT_SPAN, exact))
            except TypeError:
                self.missing.append(f"fvweno.harness.problems.REGISTRY[{pid!r}].exact")

    def save(self, path):
        np.savez(path, names=np.array(self.names), fields=np.array(SPAN_FIELDS),
                 spans=np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS)))

    def span_count(self):
        return len(self.spans) // len(SPAN_FIELDS)

    def totals(self):
        return {name: {"calls": st[0], "self_s": st[1] * 1e-9, "incl_s": st[2] * 1e-9,
                       "work": st[3]}
                for name, st in zip(self.names, self.stats)}


FAMILIES = ("js", "m", "z", "zr", "zl")

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    ("weno.interface_states.calls", "count", "lower"),
    ("weno.interface_states.self_s", "s", "lower"),
    ("weno.interface_states.ns_per_cell", "ns", "lower"),
    *((f"weno.nonlinear_weights.{fam}.self_s", "s", "lower") for fam in FAMILIES),
    ("weno.weight_sets_per_window", "ratio", "lower"),
    ("weno.gauss_point_values.calls", "count", "lower"),
    ("weno.gauss_point_values.self_s", "s", "lower"),
    ("weno.gauss_point_values.ns_per_cell", "ns", "lower"),
    ("mesh.fill_ghosts.calls", "count", "lower"),
    ("mesh.fill_ghosts.self_s", "s", "lower"),
    ("integrate.rk3_step.calls", "count", "lower"),
    ("integrate.rk3_step.self_s", "s", "lower"),
    ("solver.tendency.calls", "count", "lower"),
    ("solver.tendency.self_s", "s", "lower"),
    ("harness.convergence_study.self_s", "s", "lower"),
    ("physics.max_wave_speed.calls_per_step", "calls/step", "lower"),
    ("physics.max_wave_speed.self_s", "s", "lower"),
    ("physics.EulerModel.validate.calls", "count", "lower"),
    ("physics.lf_flux.self_s", "s", "lower"),
    ("integrate.cfl_dt.self_s", "s", "lower"),
    ("mesh.polygon_indicator_average.self_s", "s", "lower"),
    ("harness.norms.self_s", "s", "lower"),
    ("harness.exact_s", "s", "lower"),
    ("dissect.analyze_step.self_s", "s", "lower"),
    ("dissect.final_time_comparison.self_s", "s", "lower"),
    ("integrate.steps", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.hooks_missing", "count", "lower"),
)

_NONE = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0}


def layer_values(totals, missing):
    """Per-layer values of one traced pass (everything but the overhead).

    ``ns_per_cell`` is the kernel's inclusive time (its weight evaluations
    included) per reconstructed five-cell window.  ``weight_sets_per_window``
    counts weight-formula evaluations per reconstructed window: 2 for the
    interface pass (both orientations), 4 for the Gauss-node pass (two node
    sets and the split center pair).
    """
    def get(name):
        return totals.get(name, _NONE)

    out = {}
    for kernel in ("interface_states", "gauss_point_values"):
        span = get(f"weno.{kernel}")
        out[f"weno.{kernel}.calls"] = span["calls"]
        out[f"weno.{kernel}.self_s"] = span["self_s"]
        out[f"weno.{kernel}.ns_per_cell"] = (
            span["incl_s"] * 1e9 / span["work"] if span["work"] else 0.0)
    for fam in FAMILIES:
        out[f"weno.nonlinear_weights.{fam}.self_s"] = \
            get(f"weno.nonlinear_weights.{fam}")["self_s"]
    windows = get("weno.interface_states")["work"] + get("weno.gauss_point_values")["work"]
    weight_windows = sum(v["work"] for k, v in totals.items()
                         if k.startswith("weno.nonlinear_weights."))
    out["weno.weight_sets_per_window"] = weight_windows / windows if windows else 0.0
    for name in ("mesh.fill_ghosts", "integrate.rk3_step", "solver.tendency"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.self_s"] = get(name)["self_s"]
    steps = get("integrate.rk3_step")["calls"]
    out["physics.max_wave_speed.calls_per_step"] = (
        get("physics.max_wave_speed")["calls"] / steps if steps else 0.0)
    out["physics.EulerModel.validate.calls"] = get("physics.EulerModel.validate")["calls"]
    for name in ("harness.convergence_study", "physics.max_wave_speed",
                 "physics.lf_flux", "integrate.cfl_dt",
                 "mesh.polygon_indicator_average", "harness.norms",
                 "dissect.analyze_step", "dissect.final_time_comparison"):
        out[f"{name}.self_s"] = get(name)["self_s"]
    out["harness.exact_s"] = get(EXACT_SPAN)["incl_s"]
    out["integrate.steps"] = steps
    out["trace.hooks_missing"] = len(missing)
    return out
