"""Angle and eigenfunction shot counts of a benchmark workload, run in process.

Builds each seed's operation list with perfbench's own workloads.build, at
the run length BENCHMARK.json sets, and runs every operation through
gapmodel.cli.main in this process with its output discarded.  The compiled
ODE calls of spectral are counted by wrapping spectral.dop853_end (angle
shots) and spectral.lsoda_samples (eigenfunction shots): calls and
right-hand-side evaluations (nfev), summed by the slot kind perfbench gives
each operation and over all of them.  The counts do not depend on the host
and repeat exactly from run to run, so a claim about shots or RHS calls
rests on this one command:

    PYTHONPATH=src python sweeps/shot_counts.py --workload eigen_sweep --seeds 2701-2710

prints one JSON object: the workload, the seeds, and the counts ("ops",
"angle_shots", "angle_rhs", "lsoda_shots", "lsoda_rhs") in "total" and
per kind in "by_kind".
"""

import argparse
import contextlib
import importlib.util
import io
import json
import sys
from collections import Counter
from pathlib import Path

from gapmodel import cli, spectral

ROOT = Path(__file__).resolve().parents[1]
# perfbench's operation lists, loaded from its file as they stand
_spec = importlib.util.spec_from_file_location(
    "workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

FIELDS = ("ops", "angle_shots", "angle_rhs", "lsoda_shots", "lsoda_rhs")
# (wrapped spectral name, call counter, nfev counter)
SOLVERS = (("dop853_end", "angle_shots", "angle_rhs"),
           ("lsoda_samples", "lsoda_shots", "lsoda_rhs"))


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

    def counting(real, calls, rhs):
        def solve(*args, **kwargs):
            sol = real(*args, **kwargs)
            current[calls] += 1
            current[rhs] += sol.nfev
            return sol
        return solve

    saved = [(name, getattr(spectral, name)) for name, _, _ in SOLVERS]
    for name, calls, rhs in SOLVERS:
        setattr(spectral, name, counting(getattr(spectral, name), calls, rhs))
    try:
        for seed in seeds:
            for op in workloads.build(workload, seed, run_seconds()):
                current = by_kind.setdefault(op["kind"], Counter())
                current["ops"] += 1
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        cli.main(op["argv"])
                    except SystemExit:  # argparse rejected the command line
                        pass
    finally:
        for name, real in saved:
            setattr(spectral, name, real)
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
