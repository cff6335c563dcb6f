"""Tier-1 slice of the committed near-cap outcome map (sweeps/eigen_near_cap.py)."""

import importlib.util
import math
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parents[1] / "sweeps" / "eigen_near_cap.py"
_spec = importlib.util.spec_from_file_location("eigen_near_cap", SWEEP)
near_cap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(near_cap)

COMMITTED = near_cap.read_map()
SLICE = [(n, kappa, 1.0, index)
         for n in (4, 6, 8) for kappa in (9.0, 9.4) for index in (1, 2)]


def test_map_covers_the_grid():
    grid = [(str(n), repr(kappa), repr(D), str(index))
            for n, kappa, D, index in near_cap.cases()]
    assert len(grid) == 224
    assert sorted(grid) == sorted(COMMITTED)


@pytest.mark.parametrize("case", SLICE, ids=str)
def test_slice_matches_committed_class(case):
    res, row = near_cap.run(*case)
    assert row == COMMITTED[near_cap.key(row)]
    assert res is not None
    scale = max(abs(res.eigenvalue), (math.pi / case[2]) ** 2)
    assert res.error_estimate <= 1e-9 * scale


def test_check_fails_only_on_a_stable_class_change(capsys):
    rows = list(COMMITTED.values())
    assert near_cap.check(rows, COMMITTED)
    assert capsys.readouterr().out == ""
    for kappa in ("9.6", "9.8", "9.8696"):
        flipped = [dict(r, outcome="NonConvergenceError", message="x")
                   if near_cap.key(r) == ("4", kappa, "1.0", "1")
                   else r for r in rows]
        assert not near_cap.check(flipped, COMMITTED)
        out = capsys.readouterr().out
        assert out.startswith("FAIL")
        assert out.count("\n") == 1
    # a changed message within the same class is reported without failing
    reworded = [dict(r, message="x") if near_cap.key(r) == ("4", "9.8", "1.0", "1")
                else r for r in rows]
    assert near_cap.check(reworded, COMMITTED)
    assert capsys.readouterr().out.startswith("changed")
