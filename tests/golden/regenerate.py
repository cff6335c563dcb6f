"""Golden outputs of the command line, and the script that rewrites them.

Each case runs ``gapmodel.cli.main`` in process and keeps the bytes it
writes: standard output, plus the plot file for ``flow --emit-plot``.
tests/test_golden.py compares fresh runs against the files next to this
script. Regenerate only when an output is meant to change, and name the
change where the change is recorded:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from gapmodel import cli, series

GOLDEN = Path(__file__).resolve().parent

PLOT = "{plot}"  # stands for the plot path, filled in per run

# (case name, argv, extension of the stdout file)
CASES = [
    ("eigen_shoot", ["eigen", "--n", "2,3,5", "--K", "-2,1", "--D", "1"], "csv"),
    ("eigen_shoot_json",
     ["eigen", "--n", "4", "--K", "-0.5", "--D", "1.5", "--format", "json"], "json"),
    ("eigen_fd", ["eigen", "--method", "fd", "--n", "4", "--K", "0.5", "--D", "1"], "csv"),
    ("eigen_fd_wide",
     ["eigen", "--method", "fd", "--n", "2,5,8", "--K=-20,9", "--D", "1"], "csv"),
    ("series", ["series", "--order", "5", "--check-reference", "--n", "2,5"], "json"),
    ("pruefer", ["pruefer", "--k", "10", "--n", "2", "--K", "0,0.5", "--D", "1"], "csv"),
    ("pruefer_negative_K", ["pruefer", "--K=-8", "--D", "1", "--k", "1", "--n", "5"], "csv"),
    ("flow", ["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10",
              "--tol", "1e-4", "--mesh-tol", "1e-3", "--emit-plot", PLOT, "--snapshots", "2"],
     "csv"),
    # the benchmark's largest flow: default mesh_tol, 62,928 nodes, 11 steps
    ("flow_k300", ["flow", "--n", "5", "--K", "3", "--D", "1", "--k", "300"], "csv"),
    # large K D^2 at small k: the M-matrix row-sum cut sets the step
    ("flow_row_sum_cut", ["flow", "--n", "2", "--K", "12", "--D", "0.5", "--k", "0.5"], "csv"),
    ("bounds", ["bounds", "--n", "2,4", "--K", "0.5", "--D", "1"], "csv"),
]


def run_case(argv):
    """Exit code and {"stdout" or "plot": bytes} of one in-process CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        plot = os.path.join(tmp, "plot.csv")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([plot if a == PLOT else a for a in argv])
        files = {"stdout": out.getvalue().encode()}
        if PLOT in argv:
            files["plot"] = Path(plot).read_bytes()
    return code, files


def golden_paths(name, ext):
    """Golden file per output: <name>.<ext> for stdout, <name>.plot.csv for the plot."""
    return {"stdout": GOLDEN / f"{name}.{ext}", "plot": GOLDEN / f"{name}.plot.csv"}


# the engine past the CLI's order cap: repr of every kappa^m coefficient
SERIES_ENGINE_ORDER = 12
SERIES_ENGINE_FILE = GOLDEN / f"series_order{SERIES_ENGINE_ORDER}.json"


def series_engine_doc():
    """JSON bytes of repr(kappa_coefficient(m)) for m <= SERIES_ENGINE_ORDER,
    for both branches and the gap of gap_series(SERIES_ENGINE_ORDER)."""
    M = SERIES_ENGINE_ORDER
    g = series.gap_series(M, cap=M)
    doc = {name: [repr(sr.kappa_coefficient(m)) for m in range(M + 1)]
           for name, sr in (("first", g.first), ("second", g.second), ("gap", g))}
    return (json.dumps(doc, indent=1) + "\n").encode()


def main():
    SERIES_ENGINE_FILE.write_bytes(series_engine_doc())
    print(f"wrote {SERIES_ENGINE_FILE.name}")
    for name, argv, ext in CASES:
        code, files = run_case(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        paths = golden_paths(name, ext)
        for key, data in files.items():
            paths[key].write_bytes(data)
            print(f"wrote {paths[key].name} ({len(data)} bytes)")


if __name__ == "__main__":
    main()
