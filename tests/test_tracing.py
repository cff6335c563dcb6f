"""The benchmark's tracer still binds every name it wraps.

perfbench/tracing.py rebinds module attributes of gapmodel by name, so a
renamed or removed function would only fail at a benchmark run.  This loads
it by path, as test_golden.py loads regenerate.py, and traces one CLI run.
"""

import importlib.util
from pathlib import Path

from gapmodel import cli

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _bound_objects():
    """(owner, attribute, object) for every name the tracer rebinds."""
    out = []
    for entries in (tracing.TIMED, tracing.COUNTED):
        for modules, attr, _ in entries:
            out += [(module, attr, getattr(module, attr)) for module in modules]
    for cls, attrs, _ in tracing.COUNTED_METHODS:
        out += [(cls, attr, cls.__dict__[attr]) for attr in attrs]
    return out


def test_tracer_installs_counts_and_restores(capsys):
    before = _bound_objects()
    tracer = tracing.Tracer()
    try:
        restore = tracing.install(tracer)
        try:
            codes = [cli.main([command, "--n", "2", "--K", "0.5", "--D", "1", "--k", "10"])
                     for command in ("pruefer", "flow")]
        finally:
            restore()
        after = _bound_objects()
    finally:
        # an install that fails part way leaves its first wrappers bound
        for owner, attr, original in before:
            setattr(owner, attr, original)
    capsys.readouterr()
    assert codes == [0, 0]
    # the Robin path runs on compiled solvers the tracer does not wrap, so
    # what it sees of it is spans and the flow's own counters
    spans = {name for name, *_ in tracer.spans}
    assert {"pruefer.find_ck", "pruefer.robin_boundary_report"} <= spans
    assert tracer.counts["flow.steps"] > 0 and tracer.counts["flow.grid_nodes"] > 0
    for (owner, attr, original), (_, _, got) in zip(before, after):
        assert got is original, f"{owner.__name__}.{attr} was not restored"
