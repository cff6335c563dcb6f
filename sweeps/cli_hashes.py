"""SHA-256 hashes of every output of a benchmark workload, run in process.

Builds each seed's operation list with perfbench's own workloads.build, at
the run length BENCHMARK.json sets, as shot_counts.py does, and runs every
operation through gapmodel.cli.main in this process, from empty Robin-constant
and memo caches.  An operation that perfbench runs with --emit-plot gets
--emit-plot too, with a path in a temporary directory.  For each operation
it prints one line: the seed, the operation's index, and the SHA-256 of its
argv (without the plot path), its exit code, and the SHA-256 of its stdout,
its stderr and its plot file's bytes ("-" for no plot).  A change that keeps
every output byte keeps every line:

    PYTHONPATH=src python sweeps/cli_hashes.py --workload robin_flow --seeds 1 \\
        > sweeps/cli_hashes_robin_flow.txt
    PYTHONPATH=src python sweeps/cli_hashes.py --check sweeps/cli_hashes_robin_flow.txt

--check reruns the workload and seeds named on the file's first line,
prints the first operation whose line differs, with its argv, and exits 1;
with every line equal it prints how many it compared and exits 0.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from shot_counts import MEMO_CACHES, parse_seeds, run_seconds, workloads

from gapmodel import cli, pruefer

HEADER = "# workload {workload} seeds {seeds}"
COLUMNS = "seed op argv exit stdout stderr plot"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def op_lines(workload, seeds):
    """(line, argv) of every operation of the seeds' lists, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        plot = Path(tmp) / "plot.csv"
        for seed in seeds:
            for op in workloads.build(workload, seed, run_seconds()):
                argv = op["argv"] + (["--emit-plot", str(plot)] if op.get("plot") else [])
                pruefer._robin_constant.cache_clear()
                for cache in MEMO_CACHES:
                    cache.cache_clear()
                plot.unlink(missing_ok=True)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse rejected the command line
                        code = exc.code
                plotted = sha256(plot.read_bytes()) if plot.exists() else "-"
                fields = (seed, op["id"], sha256(json.dumps(op["argv"]).encode()), code,
                          sha256(out.getvalue().encode()), sha256(err.getvalue().encode()),
                          plotted)
                yield " ".join(map(str, fields)), op["argv"]


def check(path):
    """0 if the file's workload and seeds give its lines again, else 1."""
    header, _, *expected = Path(path).read_text().splitlines()
    _, _, workload, _, seeds = header.split()
    ran = 0
    for ran, (line, argv) in enumerate(op_lines(workload, parse_seeds(seeds)), 1):
        want = expected[ran - 1] if ran <= len(expected) else "(no line)"
        if line != want:
            seed, op = line.split()[:2]
            print(f"{path}: seed {seed} op {op} ({' '.join(argv)}) differs:\n"
                  f"  expected {want}\n  got      {line}")
            return 1
    if ran != len(expected):
        print(f"{path}: {ran} operations ran, {len(expected)} expected")
        return 1
    print(f"{path}: {ran} operations, every output hash equal")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", help="A-B (inclusive) or A")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the hashes in FILE, whose workload and seeds run")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if not (args.workload and args.seeds):
        parser.error("--workload and --seeds are required without --check")
    print(HEADER.format(workload=args.workload, seeds=args.seeds))
    print(COLUMNS)
    for line, _ in op_lines(args.workload, parse_seeds(args.seeds)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
