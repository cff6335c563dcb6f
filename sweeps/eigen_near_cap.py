"""Outcome map of eigen_shoot near the cap K D^2 = pi^2.

Runs eigen_shoot over n in {2, 4, 5, 6, 7, 8, 10}, kappa = K D^2 in
{9.0, 9.4, 9.6, 9.8, 9.82, 9.84, 9.86, 9.8696}, D in {1, 0.5} and both
indices, 224 calls, and records one row per call: the outcome "value", or
the class of the typed error the call raised and the first words of its
message.  The rows hold no timings and no values, so the map is the same
on every host; eigen_near_cap.csv next to this script is the map of the
code it is committed with.

    PYTHONPATH=src python sweeps/eigen_near_cap.py           # rewrite the CSV
    PYTHONPATH=src python sweeps/eigen_near_cap.py --check   # diff against it

--check prints every row whose outcome differs from the committed one and
exits 1 if any outcome class changed.  Every call returns a value since
the eigenfunction comes from the half-interval (theta, log r) run at the
root, so any class change is a regression.
"""

import argparse
import csv
import itertools
import sys
from collections import Counter
from pathlib import Path

from gapmodel.errors import GapModelError
from gapmodel.spectral import eigen_shoot

CSV_PATH = Path(__file__).with_suffix(".csv")
NS = (2, 4, 5, 6, 7, 8, 10)
KAPPAS = (9.0, 9.4, 9.6, 9.8, 9.82, 9.84, 9.86, 9.8696)
DS = (1.0, 0.5)
INDICES = (1, 2)
FIELDS = ("n", "kappa", "D", "index", "outcome", "message")
FIRST_WORDS = 4


def cases():
    """(n, kappa, D, index) of every call, in the order of the CSV."""
    return itertools.product(NS, KAPPAS, DS, INDICES)


def run(n, kappa, D, index):
    """(EigenResult or None, CSV row) of one eigen_shoot call at K = kappa / D^2."""
    row = {"n": str(n), "kappa": repr(kappa), "D": repr(D), "index": str(index)}
    try:
        res = eigen_shoot((n, kappa / D**2, D), index)
    except GapModelError as e:
        words = " ".join(str(e).split()[:FIRST_WORDS])
        row.update(outcome=type(e).__name__, message=words)
        return None, row
    row.update(outcome="value", message="")
    return res, row


def key(row):
    """(n, kappa, D, index) of a row, as the strings the CSV holds."""
    return tuple(row[k] for k in FIELDS[:4])


def read_map(path=CSV_PATH):
    """Committed rows keyed by (n, kappa, D, index), as strings."""
    with open(path, newline="") as f:
        return {key(r): r for r in csv.DictReader(f)}


def _show(row):
    return "absent" if row is None else f"{row['outcome']} {row['message']}".strip()


def check(rows, committed):
    """Print each changed row; True when no outcome class changed."""
    ok = True
    fresh = {key(r): r for r in rows}
    for k in sorted(set(fresh) | set(committed), key=lambda k: tuple(map(float, k))):
        old, new = committed.get(k), fresh.get(k)
        if old == new:
            continue
        fails = old is None or new is None or old["outcome"] != new["outcome"]
        ok = ok and not fails
        print(f"{'FAIL' if fails else 'changed'} n={k[0]} kappa={k[1]} D={k[2]} "
              f"index={k[3]}: {_show(old)} -> {_show(new)}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="diff against the committed CSV instead of rewriting it")
    args = parser.parse_args(argv)
    rows = [run(*case)[1] for case in cases()]
    counts = Counter(r["outcome"] for r in rows)
    print(f"{len(rows)} calls: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    if args.check:
        return 0 if check(rows, read_map()) else 1
    with open(CSV_PATH, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {CSV_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
