"""Spans and counts around gapmodel's layers, installed from outside.

``install(tracer)`` rebinds the public names each gapmodel module looks up
at call time (for example ``gapmodel.spectral.solve_ivp`` and ``find_ck`` in
both ``gapmodel.pruefer`` and ``gapmodel.flow``) to wrappers. Timed wrappers
record a span (name, start, end, parent span, op id) in memory; the tiny hot
functions (the scalar kernels and ``potential``) are only counted. Nothing in
gapmodel changes; the wrappers are installed only in a traced run.
"""

import functools
import time
from collections import Counter

from gapmodel import bounds, cli, exact, flow, kernels, model, pruefer, series, spectral

# (modules that bind the name, name, span or counter name)
TIMED = [
    ((cli,), "main", "cli.main"),
    ((spectral,), "eigen_shoot", "spectral.eigen_shoot"),
    ((spectral,), "eigen_fd", "spectral.eigen_fd"),
    ((spectral,), "solve_ivp", "spectral.ode"),
    ((bounds,), "bound_report", "bounds"),
    ((bounds,), "explicit_n2_bounds", "bounds"),
    ((series,), "lambda_series", "series.lambda_series"),
    ((series,), "check_reference", "series.check_reference"),
    ((series,), "coefficient_sign", "series.coefficient_sign"),
    ((exact, series), "solve_resonant", "exact.solve_resonant"),
    ((exact, series), "trig_integrate", "exact.trig_integrate"),
    ((pruefer, flow), "find_ck", "pruefer.find_ck"),
    ((pruefer,), "solve_ivp", "pruefer.ode"),
    ((pruefer, flow), "psi_left", "pruefer.psi_left"),
    ((pruefer,), "psi_right", "pruefer.psi_right"),
    ((pruefer, flow), "supersolution", "pruefer.supersolution"),
    ((pruefer,), "robin_boundary_report", "pruefer.robin_boundary_report"),
    ((flow,), "build_grid", "flow.build_grid"),
    ((flow,), "flow_to_stationary", "flow.flow_to_stationary"),
    ((flow,), "solve_banded", "flow.banded"),
]
COUNTED = [
    ((kernels,), "sn", "kernels.calls"),
    ((kernels, model, pruefer), "cs", "kernels.calls"),
    ((kernels, model, spectral), "tn", "kernels.calls"),
    ((model, spectral), "potential", "model.potential.calls"),
]
COUNTED_METHODS = [
    (exact.PiLaurent, ("__add__", "__sub__", "__rsub__", "__mul__",
                       "__truediv__", "__neg__"), "exact.pilaurent_ops"),
    (exact.TrigPoly, ("__mul__",), "exact.trigpoly_muls"),
    (flow._Workspace, ("step",), "flow.steps"),
]


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.stack = []
        self.op_id = None

    def timed(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.op_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            nfev = getattr(result, "nfev", None)
            if nfev is not None:
                counts[name + ".rhs_evals"] += nfev
            if name == "flow.build_grid":
                counts["flow.grid_nodes"] += len(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer):
    """Rebind every traced name; returns a function that restores them."""
    saved = []
    for entries, make in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
        for modules, attr, name in entries:
            for module in modules:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(name, original))
    for cls, attrs, name in COUNTED_METHODS:
        for attr in attrs:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.counted(name, original))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def layer_totals(tracer):
    """Calls and inclusive seconds per span name, plus cli self time."""
    calls, seconds = Counter(), Counter()
    child_time = Counter()
    for name, start, end, parent, _ in tracer.spans:
        calls[name] += 1
        seconds[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    cli_self = sum(end - start - child_time[i]
                   for i, (name, start, end, _, _) in enumerate(tracer.spans)
                   if name == "cli.main")
    return calls, seconds, cli_self
