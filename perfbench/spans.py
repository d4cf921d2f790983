"""Span recorder for the traced benchmark run.

The recorder wraps the public functions and methods of each ``oscpair``
module from the outside; nothing under ``src/`` is edited.  Every wrapped
call made while the recorder is active becomes one span: name, start, end,
parent span and op id.  Spans live in flat in-memory arrays (a traced op
makes tens of thousands of them) and are written out once, when the run
ends.  Self times, per-layer totals and counts are computed from the spans
afterwards, never while the program runs.

Names re-imported into other modules (``from .propagator import
build_kernel`` in ``cli``, ``comparison`` and the package namespace) are
replaced by the same wrapper, so every call site is seen.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: module -> layer name used as the span prefix
LAYERS = {
    "oscpair.cli": "cli",
    "oscpair.scenario": "scenario",
    "oscpair.coefficients": "coefficients",
    "oscpair.system": "system",
    "oscpair.decoupling": "decoupling",
    "oscpair.ermakov": "ermakov",
    "oscpair.quadrature": "quadrature",
    "oscpair.propagator": "propagator",
    "oscpair.gaussian": "gaussian",
    "oscpair.oracle": "oracle",
    "oscpair.comparison": "comparison",
}

#: dunder methods that are part of a class's public behaviour
_PUBLIC_DUNDERS = {"__call__", "__post_init__"}

#: spans whose first positional argument after ``self`` is a point array;
#: its size is added to the ``<span>.points`` count
_POINT_ARGS = {
    "ermakov.ErmakovSolution.rho",
    "ermakov.ErmakovSolution.drho",
    "ermakov.ErmakovSolution.phi",
    "ermakov.ErmakovSolution.wronskian",
}
_KERNEL_EVALUATE = "propagator.Kernel.evaluate"

SOLVE_SPAN = "ermakov.solve_ermakov"


class SpanRecorder:
    """In-memory spans plus counters, filled only while ``active``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = Counter()
        self.active = False
        self.op_id = -1
        self._stack = [-1]
        self._restore = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current_span_name(self):
        idx = self._stack[-1]
        return None if idx < 0 else self.names[self.name_id[idx]]

    def wrap(self, fn, name):
        nid = self._intern(name)
        rec = self
        points = name in _POINT_ARGS
        kernel_points = name == _KERNEL_EVALUATE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.op.append(rec.op_id)
            rec.end.append(0.0)
            rec._stack.append(idx)
            if points:
                rec.counts[name + ".points"] += np.size(args[1])
            elif kernel_points:
                rec.counts[name + ".points"] += np.broadcast(*args[1:5]).size
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()

        return traced

    # --- installing and removing the wrappers ------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the traced modules."""
        mods = {m: importlib.import_module(m) for m in LAYERS}
        wrapped_funcs = {}
        for modname, layer in LAYERS.items():
            mod = mods[modname]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrapped_funcs[obj] = self.wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # replace each wrapped function wherever it is bound, re-imports included
        namespaces = [m for name, m in sys.modules.items()
                      if name == "oscpair" or name.startswith("oscpair.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrapped_funcs:
                    self._set(ns, attr, wrapped_funcs[val])
        # the ODE solver ermakov imports: counted, not spanned
        erm = mods["oscpair.ermakov"]
        solve_ivp = erm.solve_ivp
        rec = self

        @functools.wraps(solve_ivp)
        def counted_solve_ivp(*args, **kwargs):
            res = solve_ivp(*args, **kwargs)
            if rec.active and rec.current_span_name() == SOLVE_SPAN:
                rec.counts["ermakov.rhs_evals"] += int(res.nfev)
                rec.counts["ermakov.attempts"] += 1
            return res

        self._set(erm, "solve_ivp", counted_solve_ivp)

    def _wrap_class(self, cls, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, classmethod):
                self._set(cls, attr, classmethod(self.wrap(val.__func__, name)))
            elif isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(val.__func__, name)))
            elif inspect.isfunction(val):
                self._set(cls, attr, self.wrap(val, name))

    def uninstall(self):
        while self._restore:
            owner, attr, val = self._restore.pop()
            setattr(owner, attr, val)

    # --- results -----------------------------------------------------------

    def arrays(self):
        """Copies of the spans as numpy arrays: (name_id, start, end, parent, op)."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=float).copy(),
                np.frombuffer(self.end, dtype=float).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.op, dtype=np.int32).copy())

    def save(self, path):
        name_id, start, end, parent, op = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 start=start, end=end, parent=parent, op=op)

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly because every call is
        synchronous.
        """
        name_id, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        incl = np.bincount(name_id, weights=dur, minlength=n)
        slf = np.bincount(name_id, weights=self_t, minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(slf[i]))
                for i, name in enumerate(self.names)}

    def root_seconds(self):
        """Total duration of the top-level spans (one per traced op)."""
        _, start, end, parent, _ = self.arrays()
        roots = parent < 0
        return float(np.sum(end[roots] - start[roots]))


# --- per-layer metrics -------------------------------------------------------

#: dense-output queries on the auxiliary solution
DENSE_EVAL = tuple(f"ermakov.ErmakovSolution.{m}" for m in ("rho", "drho", "phi", "wronskian"))
#: oracle observables recorded per CSV row by the command line
OBSERVABLES = ("oracle.GridState.norm", "oracle.GridState.norm_sq",
               "oracle.GridState.mean", "oracle.GridState.mean_sq",
               "oracle.GridState.boundary_density", "oracle.energy_expectation")
_COEFF_METHODS = ("__call__", "deriv1", "deriv2")

#: (metric, unit) in report order; per-op values average over the traced ops
PER_LAYER = (
    ("scenario.load_s", "s/op"),
    ("coefficients.calls", "calls/op"),
    ("coefficients.self_s", "s/op"),
    ("system.effective_frequency_sq.calls", "calls/op"),
    ("system.potential.self_s", "s/op"),
    ("system.self_s", "s/op"),
    ("decoupling.solve_angle_s", "s/op"),
    ("decoupling.channel_quantities.calls", "calls/op"),
    ("decoupling.channel_quantities.self_s", "s/op"),
    ("ermakov.solve.calls", "calls/op"),
    ("ermakov.solve.self_s", "s/op"),
    ("ermakov.rhs_evals", "evals/op"),
    ("ermakov.attempts_per_solve", "ratio"),
    ("ermakov.dense_eval.calls", "calls/op"),
    ("ermakov.dense_eval.points", "points/op"),
    ("ermakov.dense_eval.self_s", "s/op"),
    ("quadrature.triangle.calls", "calls/op"),
    ("quadrature.self_s", "s/op"),
    ("propagator.build_kernel.calls", "calls/op"),
    ("propagator.build_kernel.self_s", "s/op"),
    ("propagator.kernels_per_solve", "ratio"),
    ("propagator.evaluate.points", "points/op"),
    ("propagator.evaluate.self_s", "s/op"),
    ("propagator.propagate_gaussian.self_s", "s/op"),
    ("propagator.residual.self_s", "s/op"),
    ("gaussian.self_s", "s/op"),
    ("oracle.step.calls", "calls/op"),
    ("oracle.step.self_s", "s/op"),
    ("oracle.step_ms", "ms"),
    ("oracle.observables.self_s", "s/op"),
    ("oracle.fft_floor_ms", "ms"),
    ("oracle.step_over_fft_floor", "ratio"),
    ("oracle.fft_flops_computed", "flop/op"),
    ("cli.self_s", "s/op"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_over_op", "ratio"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, n_ops, traced_s, untraced_s, fft_floor_ms, grid_cells):
    """Per-layer metrics from the recorded spans of ``n_ops`` traced ops.

    ``traced_s`` and ``untraced_s`` are the summed op latencies of the same
    ops with and without tracing.  FFT flops are computed, not measured:
    5 N log2 N per transform, two transforms per oracle step.
    """
    summ = rec.summary()

    def pick(pred, field):
        return sum(v[field] for k, v in summ.items() if pred(k))

    def named(*names):
        return lambda k: k in names

    def layer(prefix):
        return lambda k: k.startswith(prefix + ".")

    coeff = lambda k: layer("coefficients")(k) and k.rsplit(".", 1)[1] in _COEFF_METHODS
    calls, incl, slf = 0, 1, 2
    solves = pick(named(SOLVE_SPAN), calls)
    steps = pick(named("oracle.step"), calls)
    step_ms = 1e3 * _ratio(pick(named("oracle.step"), incl), steps)
    per_op = {
        "scenario.load_s": pick(named("scenario.load_scenario"), incl),
        "coefficients.calls": pick(coeff, calls),
        "coefficients.self_s": pick(layer("coefficients"), slf),
        "system.effective_frequency_sq.calls":
            pick(named("system.effective_frequency_sq"), calls),
        "system.potential.self_s": pick(named("system.potential"), slf),
        "system.self_s": pick(layer("system"), slf),
        "decoupling.solve_angle_s": pick(named("decoupling.solve_angle"), incl),
        "decoupling.channel_quantities.calls":
            pick(named("decoupling.channel_quantities"), calls),
        "decoupling.channel_quantities.self_s":
            pick(named("decoupling.channel_quantities"), slf),
        "ermakov.solve.calls": solves,
        "ermakov.solve.self_s": pick(named(SOLVE_SPAN), slf),
        "ermakov.rhs_evals": rec.counts["ermakov.rhs_evals"],
        "ermakov.dense_eval.calls": pick(named(*DENSE_EVAL), calls),
        "ermakov.dense_eval.points": sum(rec.counts[k + ".points"] for k in DENSE_EVAL),
        "ermakov.dense_eval.self_s": pick(named(*DENSE_EVAL), slf),
        "quadrature.triangle.calls":
            pick(named("quadrature.triangle_double_integral"), calls),
        "quadrature.self_s": pick(layer("quadrature"), slf),
        "propagator.build_kernel.calls": pick(named("propagator.build_kernel"), calls),
        "propagator.build_kernel.self_s": pick(named("propagator.build_kernel"), slf),
        "propagator.evaluate.points": rec.counts[_KERNEL_EVALUATE + ".points"],
        "propagator.evaluate.self_s": pick(named(_KERNEL_EVALUATE), slf),
        "propagator.propagate_gaussian.self_s":
            pick(named("propagator.propagate_gaussian"), slf),
        "propagator.residual.self_s":
            pick(named("propagator.schrodinger_residual",
                       "propagator.residual_sample_points"), slf),
        "gaussian.self_s": pick(layer("gaussian"), slf),
        "oracle.step.calls": steps,
        "oracle.step.self_s": pick(named("oracle.step"), slf),
        "oracle.observables.self_s": pick(named(*OBSERVABLES), slf),
        "oracle.fft_flops_computed": steps * 2 * 5 * grid_cells * math.log2(grid_cells),
        "cli.self_s": pick(layer("cli"), slf),
    }
    out = {k: v / n_ops for k, v in per_op.items()}
    out.update({
        "ermakov.attempts_per_solve": _ratio(rec.counts["ermakov.attempts"], solves),
        "propagator.kernels_per_solve":
            _ratio(pick(named("propagator.build_kernel"), calls), solves),
        "oracle.step_ms": step_ms,
        "oracle.fft_floor_ms": fft_floor_ms,
        "oracle.step_over_fft_floor": _ratio(step_ms, fft_floor_ms),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.self_over_op": rec.root_seconds() / traced_s,
    })
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER}
