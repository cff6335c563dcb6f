"""Runs one workload's operations in a process of its own and times them.

    python3 perfbench/worker.py OPS_JSON RESULT_JSON TRACE

The launcher (run.py) starts this with gapmodel's source tree on PYTHONPATH
and BLAS pinned to one thread. The process does nothing but the operations,
so its peak resident memory is theirs plus the imports. Each operation is
one in-process ``gapmodel.cli.main(argv)`` call with standard output
captured; between operations a fixed host-speed reference is timed. With
TRACE = 1 the list runs twice, untraced and then traced, and the traced
pass adds per-layer totals and writes its spans next to RESULT_JSON.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from gapmodel import cli, exact, series
from hostref import host_reference

READINGS_PER_GAP = 3

MEMO_CACHES = [f for mod in (series, exact) for f in vars(mod).values()
               if hasattr(f, "cache_clear")]


def run_op(argv):
    """(exit code, stdout, error text, seconds) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code
    except Exception:  # a crash is a failed op, not a failed benchmark
        rc, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    return rc, out.getvalue(), error or err.getvalue().strip() or None, seconds


def host_reading():
    """Median of READINGS_PER_GAP host readings taken back to back."""
    return sorted(host_reference() for _ in range(READINGS_PER_GAP))[READINGS_PER_GAP // 2]


def memo_hits():
    return sum(cache.cache_info().hits for cache in MEMO_CACHES)


def run_pass(ops, tracer=None):
    """Results, host readings (one per gap) and memo-cache hits of one pass."""
    results, refs, hits = [], [], 0
    for op in ops:
        refs.append(host_reading())
        hits += memo_hits()
        for cache in MEMO_CACHES:
            cache.cache_clear()  # a CLI user starts from empty caches
        if tracer is not None:
            tracer.op_id = op["id"]
        rc, stdout, error, seconds = run_op(op["argv"])
        results.append({"rc": rc, "stdout": stdout, "error": error,
                        "seconds": seconds})
    refs.append(host_reading())
    return results, refs, hits + memo_hits()


def traced_pass(ops, trace_path):
    import tracing

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        results, refs, hits = run_pass(ops, tracer)
    finally:
        restore()
    calls, seconds, cli_self = tracing.layer_totals(tracer)
    with open(trace_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    return results, {"calls": dict(calls), "seconds": dict(seconds),
                     "counts": dict(tracer.counts), "cli_self_s": cli_self,
                     "memo_hits": hits, "host_ref_s": refs}


def main(ops_path, result_path, trace):
    with open(ops_path) as fh:
        job = json.load(fh)
    ops = job["ops"]
    t0 = time.perf_counter()
    run_op(job["warm_up"])
    warm_up_s = time.perf_counter() - t0
    results, refs, _ = run_pass(ops)
    doc = {"results": results, "host_ref_s": refs, "warm_up_s": warm_up_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        traced, layers = traced_pass(ops, result_path.replace(".result.json", ".trace.json"))
        doc.update(traced_results=traced, layers=layers)
    with open(result_path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
