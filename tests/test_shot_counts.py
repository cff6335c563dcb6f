"""Smoke test of the shot-count script (sweeps/shot_counts.py)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "sweeps" / "shot_counts.py"
_spec = importlib.util.spec_from_file_location("shot_counts", SCRIPT)
shot_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(shot_counts)


def test_counts_repeat_exactly():
    first = shot_counts.count("eigen_sweep", [1])
    assert shot_counts.count("eigen_sweep", [1]) == first
    total = first["total"]
    assert total["ops"] == sum(c["ops"] for c in first["by_kind"].values()) > 0
    assert total["angle_shots"] > 0 and total["lsoda_shots"] > 0
    # the finite-difference route makes no ODE shot
    assert first["by_kind"]["fd"]["angle_shots"] == 0


def test_seed_ranges():
    assert shot_counts.parse_seeds("2701-2703") == [2701, 2702, 2703]
    assert shot_counts.parse_seeds("5") == [5]
