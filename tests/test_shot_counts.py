"""Smoke tests of the solve-count script (sweeps/shot_counts.py), seed 1's
pinned counts of every workload, the solver ledger it reads, and which
shots skip the collocation seed."""

import importlib.util
import sys
from pathlib import Path

import pytest

from gapmodel import _scipy, exact, flow, series, spectral
from gapmodel.model import ModelParams

_STEP, _SOLVE_BANDED = flow._Workspace.step, flow.solve_banded
_LINCOMB = exact._lincomb

SCRIPT = Path(__file__).resolve().parents[1] / "sweeps" / "shot_counts.py"
_spec = importlib.util.spec_from_file_location("shot_counts", SCRIPT)
shot_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(shot_counts)

# seed 1's nonzero totals, pinned: a change that moves any of them changes
# the ODE work, and names the new figures where it is recorded, as a change
# to a golden file does.  No eigen_sweep op reads an eigenfunction, so its
# runs form no dense extension; every robin_flow profile is read after its
# run returns, so its extension points count
EIGEN_SWEEP_SEED_1 = {"ops": 21, "angle_shots": 41, "angle_rhs": 12839,
                      "eigenfunction_runs": 20, "eigenfunction_rhs": 7251, "brent_solves": 1}
ROBIN_FLOW_SEED_1 = {"ops": 26, "ck_shots": 30, "ck_rhs": 13022, "dense_runs": 78,
                     "dense_rhs": 45657, "grid_runs": 18, "grid_rhs": 13153,
                     "flow_steps": 168, "band_solves": 168, "grids": 18,
                     "grid_nodes": 518303}
# every series_exact op starts from empty series and exact caches; the
# combinations are calls of the one exact kernel, _lincomb, made inside
# exact and from series.  The two pins above hold no combination, so the
# ODE workloads make none.  Each op pairs the order-5 inner products of
# --check-reference without forming their products (TrigPoly.pair);
# forming the products took 16,452 combinations over the 24 ops.  The
# CLI forms each branch's kappa coefficients once and takes the gap's as
# their differences; recomputing them per gap row took 15,876
SERIES_EXACT_SEED_1 = {"ops": 24, "exact_lincombs": 15780, "series_lincombs": 1776}


def _nonzero(counts):
    return {field: value for field, value in counts.items() if value}


def test_counts_repeat_exactly():
    first = shot_counts.count("eigen_sweep", [1])
    assert shot_counts.count("eigen_sweep", [1]) == first
    total = first["total"]
    assert _nonzero(total) == EIGEN_SWEEP_SEED_1
    assert total["ops"] == sum(c["ops"] for c in first["by_kind"].values()) > 0
    assert total["angle_shots"] > 0 and total["eigenfunction_runs"] > 0
    # the finite-difference route makes no ODE shot, and every near-cap
    # eigenvalue is accepted on the shared pass
    assert first["by_kind"]["fd"]["angle_shots"] == 0
    assert first["by_kind"]["near_cap"]["brent_solves"] == 0
    assert _scipy._open is None  # the count's ledgers are closed


def test_robin_counts_repeat_exactly():
    # every op starts from an empty Robin-constant cache, so a second pass
    # in the same process makes the same shots; the profile left solve_ivp
    first = shot_counts.count("robin_flow", [1])
    assert shot_counts.count("robin_flow", [1]) == first
    total = first["total"]
    assert _nonzero(total) == ROBIN_FLOW_SEED_1
    for field in ("ck_shots", "ck_rhs", "dense_runs", "dense_rhs", "grid_runs", "grid_rhs"):
        assert total[field] > 0, field
    assert total["ivp_solves"] == total["ivp_rhs"] == 0


def test_series_counts_repeat_exactly():
    # the caches are emptied before each op, so a second pass in the same
    # process makes the same combinations, and the wrappers are gone after
    first = shot_counts.count("series_exact", [1])
    assert shot_counts.count("series_exact", [1]) == first
    assert _nonzero(first["total"]) == SERIES_EXACT_SEED_1
    assert list(first["by_kind"]) == ["series"]
    assert exact._lincomb is _LINCOMB and series._lincomb is _LINCOMB


def test_flow_work_is_counted():
    # every attempted step makes one band solve, and each flow op builds one
    # graded grid; pruefer ops make no flow work
    by_kind = shot_counts.count("robin_flow", [1])["by_kind"]
    flows = by_kind["flow"]
    assert flows["flow_steps"] == flows["band_solves"] > flows["ops"]
    assert flows["grids"] == flows["grid_runs"] == flows["ops"]
    assert flows["grid_nodes"] > flows["grids"] * flow.MIN_CELLS
    for field in ("flow_steps", "band_solves", "grids", "grid_nodes"):
        assert by_kind["pruefer"][field] == 0, field
    # the wrappers are gone once the count ends
    assert flow._Workspace.step is _STEP and flow.solve_banded is _SOLVE_BANDED


def test_ledger_records_each_returned_call():
    def decay(t, y):
        return [-y[0]]

    # a block that raises closes its ledger and reopens the outer one, which
    # holds none of the block's records
    with _scipy.ledger() as outer:
        with pytest.raises(ZeroDivisionError), _scipy.ledger() as inner:
            _scipy.dop853_end(decay, 0.0, 1.0, [1.0], rtol=1e-10, atol=1e-10)
            _scipy.brent(lambda x: x - 1.0, 0.0, 3.0)
            1 / 0
        assert _scipy._open is outer and outer == []
    assert [record[:2] for record in inner] == [("dop853_end", __name__), ("brent", __name__)]
    # with no ledger open a call records nothing: the name and getrefcount's
    # argument alone hold its result
    sol = _scipy.dop853_end(decay, 0.0, 1.0, [1.0], rtol=1e-10, atol=1e-10)
    assert _scipy._open is None and sys.getrefcount(sol) == 2


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
