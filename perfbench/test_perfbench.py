"""The benchmark's own tests: its reference solver and that its checks bite.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each check is fed a real gapmodel output, which must pass, and the same
output with one deliberate error, which must fail.
"""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

import checks
import reference
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.mark.parametrize("n, K, D", [
    (1, 0.0, 1.0), (1, 7.5, 1.0), (1, -12.0, 0.5), (5, 0.0, 2.0),
    (3, 2.0, 2.0), (3, -8.0, 0.5), (3, 9.5, 1.0),
])
def test_collocation_matches_flat_closed_forms(n, K, D):
    l1, l2, err = reference.dirichlet_pair(n, K, D)
    w1, w2 = reference.flat_pair(n, K, D)
    scale = (math.pi / D) ** 2
    assert abs(l1 - w1) <= 1e-11 * scale
    assert abs(l2 - w2) <= 1e-11 * scale
    assert err <= 1e-11 * max(scale, abs(l2))


def test_collocation_error_estimate_is_small_near_the_cap():
    l1, l2, err = reference.dirichlet_pair(5, 9.5, 1.0)
    assert 0.0 < l1 < 0.01 < l2
    assert err <= 1e-10


@pytest.mark.parametrize("k, D", [(10.0, 2.0), (30.0, 1.0), (300.0, 0.5)])
def test_robin_integration_meets_the_flat_closed_form(k, D):
    # a curvature far below rounding takes the integrating branch
    ck = reference.robin_ck(k, 0.0, D)
    assert abs(reference.robin_ck(k, 1e-14, D) - ck) <= 1e-10 * max(1.0, abs(ck))
    z = [0.0, 0.1 * D, 0.3 * D, 0.5 * D]
    flat = reference.robin_psi(k, 0.0, D, ck, z)
    integrated = reference.robin_psi(k, 1e-14, D, ck, z)
    assert max(abs(a - b) for a, b in zip(flat, integrated)) <= 1e-9 * k
    assert abs(flat[-1] + k) <= 1e-9 * k


def run_cli(argv):
    from gapmodel import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "error": None}


def op_for(kind, n, K, D, **extra):
    op = {"kind": kind, "n": n, "K": K, "D": D, "id": 0, **extra}
    cmd = {"bounds": "bounds", "series": "series"}.get(kind, "eigen")
    if kind in ("flow", "pruefer"):
        cmd = kind
    op["argv"] = [cmd] + workloads._triple_args(n, K, D)
    if "ks" in extra:
        op["argv"] += ["--k", ",".join(map(repr, extra["ks"]))]
    return op


def edit_csv(text, column, change, row_filter=lambda row: True):
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        if row_filter(row):
            row[column] = change(row[column])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def assert_bites(op, out, mutate):
    ref = checks.reference_for(op)
    assert checks.check(op, out, ref) == []
    bad = checks.check(op, mutate(dict(out)), ref)
    assert bad and not checks.known_fault(op, bad)


def test_eigen_check_bites_on_lambda1():
    op = op_for("shoot", 2, 1.0, 1.0)
    out = run_cli(op["argv"])

    def mutate(o):
        o["stdout"] = edit_csv(o["stdout"], "lambda1", lambda v: repr(float(v) * (1 + 1e-8)))
        return o

    assert_bites(op, out, mutate)


def test_eigen_check_bites_on_side():
    op = op_for("shoot", 2, 1.0, 1.0)
    out = run_cli(op["argv"])

    def mutate(o):
        o["stdout"] = edit_csv(o["stdout"], "side", lambda v: "above")
        return o

    assert_bites(op, out, mutate)


def test_flat_side_is_the_known_fault():
    op = op_for("flat", 3, -8.0, 0.5)
    out = run_cli(op["argv"])
    bad = checks.check(op, out, checks.reference_for(op))
    # the CLI prints `below` for exactly flat triples today; once it
    # prints `flat` the check passes and nothing is a known fault
    assert bad == [] or checks.known_fault(op, bad)


def test_series_check_bites_on_kappa2():
    op = {"kind": "series", "M": 5, "kappas": [-2.0, 2.0], "n_values": [2, 5],
          "argv": ["series", "--order", "5", "--check-reference", "--n", "2,5"]}
    out = run_cli(op["argv"])

    def mutate(o):
        doc = json.loads(o["stdout"])
        kappa2 = doc["branches"]["gap"]["orders"][2]["decimal"]
        for n in (2, 5):
            kappa2[str(n)] = 3.0 * (n - 1) * (n - 3) / (16.0 * math.pi**2)
        o["stdout"] = json.dumps(doc)
        return o

    assert_bites(op, out, mutate)


def test_pruefer_check_bites_on_ck():
    op = op_for("pruefer", 5, 1.0, 1.0, ks=[20.0])
    out = run_cli(op["argv"])

    def mutate(o):
        o["stdout"] = edit_csv(o["stdout"], "c_k", lambda v: repr(float(v) + 1e-6))
        return o

    assert_bites(op, out, mutate)


@pytest.mark.parametrize("K", [0.0, 1.0])
def test_flow_check_bites_on_final_profile(tmp_path, K):
    plot = tmp_path / "plot.csv"
    op = op_for("flow", 3, K, 1.0, ks=[30.0], plot=True)
    out = run_cli(op["argv"] + ["--emit-plot", str(plot)])
    out["plot"] = plot.read_text()
    t_end = max(float(r["t"]) for r in csv.DictReader(io.StringIO(out["plot"])))

    def mutate(o):
        o["plot"] = edit_csv(o["plot"], "psi", lambda v: repr(float(v) + 1e-4),
                             lambda row: float(row["t"]) == t_end)
        return o

    assert_bites(op, out, mutate)


def test_operation_lists_repeat_per_seed_and_keep_the_failing_share():
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 7, 20)
        assert a == workloads.build(workload, 7, 20)
        b = workloads.build(workload, 8, 20)
        assert a != b and len(a) == len(b)
        flat = lambda ops: sorted(op["argv"] for op in ops if op["kind"] == "flat")
        assert flat(a) == flat(b)
