"""Smoke test of the shot-count script (sweeps/shot_counts.py), and which
shots skip the collocation seed."""

import importlib.util
from pathlib import Path

from gapmodel import spectral
from gapmodel.model import ModelParams

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


def test_flat_triples_skip_the_collocation_seed(monkeypatch):
    # a constant V leaves the comparison bracket too narrow for any seed
    calls = []
    colloc_seed = spectral._colloc_seed

    def counting(params, index):
        calls.append((params, index))
        return colloc_seed(params, index)

    monkeypatch.setattr(spectral, "_colloc_seed", counting)
    for params in (ModelParams(1, 2.0, 1.0), ModelParams(3, -1.5, 2.0), ModelParams(5, 0.0, 1.0)):
        for index in (1, 2):
            spectral.eigen_shoot(params, index)
    assert calls == []
    spectral.eigen_shoot(ModelParams(5, 1.0, 1.0), 1)
    assert len(calls) == 1
