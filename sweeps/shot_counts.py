"""Solve counts of a benchmark workload, run in process.

Builds each seed's operation list with perfbench's own workloads.build, at
the run length BENCHMARK.json sets, and runs every operation through
gapmodel.cli.main in this process with its output discarded.  The ODE
runs and Brent solves are read from _scipy's ledger, opened around each
operation: each record names the wrapper (dop853_end, dop853_dense or
brent) and the module that defined the function it was given, which
tells the callers apart (LEDGER).  spectral's dop853_end records are the
angle shots (the check shot of a stacked pass, and Brent's shots), its
dop853_dense records the eigenfunction runs (one stacked (theta, log r)
pass per gap, at the two ends of the narrow intervals of lambda1 and
lambda2 together, and one run at the gap's Brent roots); pruefer's
dop853_end records are find_ck's end-angle shots (one stacked (q, log r)
pass at the two ends of a narrow seeded or flat interval, and Brent's
shots after a rejected or failed pass or from a wide interval), its
dop853_dense records the Riccati branches and the Robin profile (the run
at find_ck's root that checks it and is kept with it, so the
eigenfunction, the boundary report and the flow's stationary reference
read it without a run); flow's dop853_dense records are the grid ODE.
Each gives a call and its right-hand-side points (nfev).  brent_solves
counts _scipy.brent's records under _scipy itself, the Brent's method of
the seeded root path: one per eigenvalue or Robin constant that leaves
the stacked pass or never gets one (flat_ck's own Brent is pruefer's,
and not among them).  For a dense run (eigenfunction_rhs, dense_rhs,
grid_rhs) that is the compiled stepper's calls plus the three stages per
step that dop853_dense adds for the dense output, counted only if the
extension is formed: a run without an event forms it on the first read
of its dense output, so every record is read once its operation has
ended.  The stepper's own stage values are reused, not counted twice.
The work that is no _scipy call is counted by wrapping the name its
module calls (WRAPPED): flow._Workspace.step (attempted time steps),
flow.solve_banded (band solves), flow.build_grid (grids and their
nodes), and the exact engine's exact combinations: the calls of
exact._lincomb (exact_lincombs) and of the same kernel under the name
series imports it by (series_lincombs), the series_exact workload's only
work.  The counts are summed
by the slot kind perfbench gives each operation and over all of them.
Every operation starts with an empty Robin-constant cache and empty memo
caches in series and exact, as a command-line run and perfbench's worker
do, so the counts do not depend on the host or on the order of operations
and repeat exactly from run to run; a claim about shots, RHS calls, flow
steps or exact combinations rests on this one command:

    PYTHONPATH=src python sweeps/shot_counts.py --workload eigen_sweep --seeds 2701-2710

prints one JSON object: the workload, the seeds, and the counts (FIELDS)
in "total" and per kind in "by_kind".
"""

import argparse
import contextlib
import importlib.util
import io
import json
import sys
from collections import Counter
from pathlib import Path

from gapmodel import _scipy, cli, exact, flow, pruefer, series

ROOT = Path(__file__).resolve().parents[1]
# perfbench's operation lists, loaded from its file as they stand
_spec = importlib.util.spec_from_file_location(
    "workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


# (wrapper, module of the function it was given) -> (call counter, RHS-point counter)
LEDGER = {("dop853_end", "gapmodel.spectral"): ("angle_shots", "angle_rhs"),
          ("dop853_dense", "gapmodel.spectral"): ("eigenfunction_runs", "eigenfunction_rhs"),
          ("dop853_end", "gapmodel.pruefer"): ("ck_shots", "ck_rhs"),
          ("dop853_dense", "gapmodel.pruefer"): ("dense_runs", "dense_rhs"),
          ("dop853_dense", "gapmodel.flow"): ("grid_runs", "grid_rhs"),
          ("brent", "gapmodel._scipy"): ("brent_solves", None)}
# (owner, wrapped name, call counter, size counter, size of one call's result)
WRAPPED = ((flow._Workspace, "step", "flow_steps", None, None),
           (flow, "solve_banded", "band_solves", None, None),
           (flow, "build_grid", "grids", "grid_nodes", len),
           (exact, "_lincomb", "exact_lincombs", None, None),
           (series, "_lincomb", "series_lincombs", None, None))
FIELDS = ("ops", "angle_shots", "angle_rhs", "eigenfunction_runs", "eigenfunction_rhs",
          "ck_shots", "ck_rhs", "dense_runs", "dense_rhs", "grid_runs", "grid_rhs",
          "brent_solves", "flow_steps", "band_solves", "grids", "grid_nodes",
          "exact_lincombs", "series_lincombs")
# the memo caches perfbench's worker empties before every operation
MEMO_CACHES = [f for mod in (series, exact) for f in vars(mod).values()
               if hasattr(f, "cache_clear")]


def parse_seeds(text):
    """Seeds from "A-B" (inclusive) or a single "A"."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_seconds():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def count(workload, seeds):
    """{"total": counts, "by_kind": {kind: counts}} over the seeds' op lists."""
    by_kind = {}
    current = Counter()  # the running op's kind's counts, rebound per op

    def counting(real, calls, size, measure):
        def call(*args, **kwargs):
            result = real(*args, **kwargs)
            current[calls] += 1
            if size:
                current[size] += measure(result)
            return result
        return call

    saved = [(owner, name, getattr(owner, name)) for owner, name, *_ in WRAPPED]
    for owner, name, calls, size, measure in WRAPPED:
        setattr(owner, name, counting(getattr(owner, name), calls, size, measure))
    try:
        for seed in seeds:
            for op in workloads.build(workload, seed, run_seconds()):
                current = by_kind.setdefault(op["kind"], Counter())
                current["ops"] += 1
                pruefer._robin_constant.cache_clear()
                for cache in MEMO_CACHES:
                    cache.cache_clear()
                with _scipy.ledger() as work, contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        cli.main(op["argv"])
                    except SystemExit:  # argparse rejected the command line
                        pass
                # read once the op is done, so that a dense run counts the
                # points of an extension formed after it returned
                for wrapper, module, result in work:
                    calls, rhs = LEDGER.get((wrapper, module), (None, None))
                    if calls:
                        current[calls] += 1
                    if rhs:
                        current[rhs] += result.nfev
    finally:
        for owner, name, real in saved:
            setattr(owner, name, real)
    total = sum(by_kind.values(), Counter())
    return {"total": _table(total),
            "by_kind": {kind: _table(c) for kind, c in by_kind.items()}}


def _table(counts):
    return {f: counts[f] for f in FIELDS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", required=True, help="A-B (inclusive) or A")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    result = {"workload": args.workload, "seeds": [seeds[0], seeds[-1]],
              **count(args.workload, seeds)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
