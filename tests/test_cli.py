"""End-to-end checks of the command-line interface.

Most cases drive cli.main() in process (fast, still exercises parsing,
dispatch, rendering, and exit codes); one test goes through a real
subprocess to cover the ``python -m gapmodel.cli`` path.
"""

import ast
import csv
import io
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gapmodel import bounds, cli, flow, pruefer, spectral
from gapmodel.errors import DomainError
from gapmodel.model import ModelParams


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no data rows in:\n{text}"
    return rows


class TestParsing:
    def test_float_lists_and_ranges(self):
        assert cli._parse_floats("1,2.5") == [1.0, 2.5]
        assert cli._parse_floats("0:1:3") == [0.0, 0.5, 1.0]
        assert cli._parse_floats("2:2:1") == [2.0]
        with pytest.raises(DomainError):
            cli._parse_floats("0:1:0")

    def test_negative_list_and_range_values(self, capsys):
        code, joined, _ = run_main(
            ["eigen", "--n", "2", "--K=-1,1", "--D", "1"], capsys
        )
        assert code == 0
        assert [r["K"] for r in parse_csv(joined)] == ["-1", "1"]
        code, spaced, err = run_main(
            ["eigen", "--n", "2", "--K", "-1,1", "--D", "1"], capsys
        )
        assert code == 0, err
        assert spaced == joined
        code, out, err = run_main(
            ["eigen", "--n", "3", "--K", "-4:4:3", "--D", "1"], capsys
        )
        assert code == 0, err
        assert [r["K"] for r in parse_csv(out)] == ["-4", "0", "4"]
        # a negative diameter list now reaches validation instead of argparse
        code, out, err = run_main(
            ["eigen", "--n", "2", "--K", "1", "--D", "-1,1"], capsys
        )
        assert code == 2 and out == ""
        assert "invalid parameter triples" in err

    def test_float_rendering_round_trips(self, capsys):
        code, out, _ = run_main(
            ["eigen", "--n", "2", "--K", "0.7", "--D", "1.3"], capsys
        )
        assert code == 0
        row = parse_csv(out)[0]
        for field in ("K", "D", "lambda1", "lambda2", "gap", "excess"):
            tok = row[field]
            # 17 significant digits reproduce the double exactly
            assert format(float(tok), ".17g") == tok


class TestEigen:
    def test_csv_shape_and_flat_gap(self, capsys):
        code, out, err = run_main(
            ["eigen", "--n", "4", "--K", "0", "--D", "2"], capsys
        )
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == (
            "n,K,D,lambda1,lambda2,gap,excess,side,method,error_estimate"
        )
        row = parse_csv(out)[0]
        assert float(row["gap"]) == pytest.approx(
            3 * math.pi**2 / 4, rel=1e-10
        )
        assert row["method"] == "shoot"

    def test_dichotomy_side_column(self, capsys):
        code, out, _ = run_main(
            ["eigen", "--n", "2,5", "--K", "1", "--D", "1"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        sides = {r["n"]: r["side"] for r in rows}
        assert sides == {"2": "below", "5": "above"}

    def test_flat_side_column(self, capsys):
        # (n-1)(n-3)K = 0 makes V constant and the gap exactly flat
        code, out, _ = run_main(
            ["eigen", "--n", "1,3,4", "--K", "0,0.5", "--D", "1"], capsys
        )
        assert code == 0
        sides = {(r["n"], r["K"]): r["side"] for r in parse_csv(out)}
        assert sides == {
            ("1", "0"): "flat", ("1", "0.5"): "flat",
            ("3", "0"): "flat", ("3", "0.5"): "flat",
            ("4", "0"): "flat", ("4", "0.5"): "above",
        }

    def test_determinism(self, capsys):
        argv = ["eigen", "--n", "2,3", "--K", "0,0.8", "--D", "1.1"]
        code1, out1, _ = run_main(argv, capsys)
        code2, out2, _ = run_main(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2, "identical invocations must match byte for byte"
        assert len(parse_csv(out1)) == 4

    def test_json_document(self, capsys):
        code, out, _ = run_main(
            ["eigen", "--n", "3", "--K", "0.5", "--D", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert doc["command"] == "eigen"
        (row,) = doc["rows"]
        # n = 3 shifts both levels equally, so the gap is exactly flat
        assert row["gap"] == pytest.approx(3 * math.pi**2, rel=1e-9)

    def test_fd_method(self, capsys):
        code, out, _ = run_main(
            ["eigen", "--n", "2", "--K", "1", "--D", "1", "--method", "fd"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["method"] == "fd"
        assert float(row["lambda1"]) == pytest.approx(
            9.3609783265589801, rel=1e-7
        )

    def test_fd_pair_out_of_order_is_solver_failure(self, monkeypatch, capsys):
        # the FD row's GapResult is made as gap()'s is, with its ordering guard
        fd = spectral._fd
        monkeypatch.setattr(spectral, "_fd", lambda params, indices: fd(params, indices)[::-1])
        code, out, err = run_main(
            ["eigen", "--n", "2", "--K", "1", "--D", "1", "--method", "fd"], capsys
        )
        assert code == 3 and out == ""
        assert err == "error: eigenvalue ordering violated\n"

    def test_one_model_params_per_triple(self, monkeypatch, capsys):
        # the validated ModelParams is the one each row reads
        made = []
        post_init = ModelParams.__post_init__

        def counted(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counted)
        code, _, err = run_main(["eigen", "--n", "2,5", "--K", "1", "--D", "1"], capsys)
        assert code == 0, err
        assert [(p.n, p.K, p.D) for p in made] == [(2, 1.0, 1.0), (5, 1.0, 1.0)]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        argv = ["eigen", "--n", "3", "--K", "0.2", "--D", "1"]
        code, out, _ = run_main(argv + ["--output", str(target)], capsys)
        assert code == 0 and out == ""
        _, direct, _ = run_main(argv, capsys)
        assert target.read_text() == direct


class TestSeries:
    def test_order0_normalization(self, capsys):
        code, out, _ = run_main(["series", "--order", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["branches"]["first"]["lambda0_at_D_pi"] == 1.0
        assert doc["branches"]["second"]["lambda0_at_D_pi"] == 4.0
        assert "lambda0_at_D_pi" not in doc["branches"]["gap"]
        lead = doc["branches"]["gap"]["orders"][0]["decimal"]["2"]
        assert lead == pytest.approx(3 * math.pi**2, rel=1e-14)

    def test_order5_gap_factors(self, capsys):
        code, out, _ = run_main(
            ["series", "--order", "5", "--branch", "gap"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        block = doc["gap_order5_factors"]
        assert block["A2_factor"] == pytest.approx(
            -0.2836359657074432, rel=1e-12
        )
        assert block["A_factor"] == pytest.approx(
            0.2528990877987356, rel=1e-12
        )
        assert block["reference_decimals"] == [-0.522, 0.2429]
        # the engine disagrees with the reference decimals here by design
        assert block["matches_reference"] is False

    @pytest.mark.parametrize("branch", ["gap", "first", "second", "all"])
    @pytest.mark.parametrize("ns", ["2,5", "2,3,4,5,6,7,8,10,50,101"])
    def test_entries_equal_the_engine_values(self, branch, ns, capsys):
        """Every entry equals its series object's coefficient, evalf(n) and
        lam_poly(m); the gap's, which the CLI takes as differences of the
        branches' values, equal GapSeries' own."""
        from gapmodel import series

        n_values = [int(n) for n in ns.split(",")]
        names = ["first", "second", "gap"] if branch == "all" else [branch]
        for M in range(9):
            code, out, _ = run_main(
                ["series", "--order", str(M), "--branch", branch, "--n", ns], capsys)
            assert code == 0
            doc = json.loads(out)["branches"]
            assert list(doc) == names
            g = series.gap_series(M)
            objs = {"first": g.first, "second": g.second, "gap": g}
            for name in names:
                sr, orders = objs[name], doc[name]["orders"]
                assert [e["m"] for e in orders] == list(range(M + 1))
                for m, entry in enumerate(orders):
                    coeff = sr.kappa_coefficient(m)
                    assert entry["kappa_coefficient"] == repr(coeff)
                    assert entry["decimal"] == {str(n): coeff.evalf(n) for n in n_values}
                    if m == 0:
                        assert "lambda_shifted" not in entry
                    else:
                        assert entry["lambda_shifted"] == repr(sr.lam_poly(m))

    def test_check_reference_block(self, capsys):
        code, out, _ = run_main(
            ["series", "--order", "2", "--branch", "first",
             "--check-reference"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        rc = doc["reference_check"]
        assert rc["order"] == 5
        assert len(rc["matches"]) == 31
        assert all(rc["matches"].values())
        assert list(rc["discrepancies"]) == ["lambda_second_5"]
        disc = rc["discrepancies"]["lambda_second_5"]
        assert disc["printed_matches_engine"] is False
        assert disc["difference_is_12_over_pi_times_y22_y23"] is True
        notes = " ".join(rc["decimal_notes"])
        assert "0.36024" in notes and "0.35024" in notes
        assert rc["gap_order5_sign_change"] == [12, 11]


class TestPruefer:
    def test_flat_closed_form_and_agreement(self, capsys):
        code, out, _ = run_main(
            ["pruefer", "--k", "10", "--n", "2", "--K", "0,0.1", "--D", "1"],
            capsys,
        )
        assert code == 0
        flat, curved = parse_csv(out)
        assert float(flat["c_k"]) == pytest.approx(
            float(flat["c_k_flat_closed_form"]), abs=1e-9
        )
        assert curved["c_k_flat_closed_form"] == ""
        for row in (flat, curved):
            assert float(row["branch_agreement"]) <= 1e-7
            assert float(row["phi_right_defect"]) <= 1e-8
            assert float(row["dphi_right_defect"]) <= 1e-8
            assert float(row["dphi_left_defect"]) <= 1e-8
            assert float(row["threshold_s"]) == pytest.approx(
                float(row["c_k"]) + math.pi**2, rel=1e-12
            )

    def test_threshold_column_is_the_library_value(self, capsys):
        # at K < 0 the Robin constant falls below -pi^2/D^2, where the
        # threshold is -(c_k + pi^2/D^2), not c_k + pi^2/D^2
        code, out, _ = run_main(
            ["pruefer", "--K=-8", "--D", "1", "--k", "1", "--n", "5"], capsys
        )
        assert code == 0
        (row,) = parse_csv(out)
        ck = float(row["c_k"])
        assert ck < -math.pi**2
        expected = pruefer.threshold_s(1.0, ModelParams(5, -8.0, 1.0))
        assert float(row["threshold_s"]) == expected > 0

    def test_one_robin_constant_per_slope_and_pair(self, capsys, cold_ck):
        # c_k does not depend on n, so three dimensions share one solve
        base = ["pruefer", "--K", "0.5", "--D", "1", "--k", "10,20"]
        code, out, _ = run_main(base + ["--n", "2,5,8"], capsys)
        assert code == 0
        assert pruefer._robin_constant.cache_info().misses == 2
        rows = parse_csv(out)
        for n in (2, 5, 8):
            pruefer._robin_constant.cache_clear()
            code, single, _ = run_main(base + ["--n", str(n)], capsys)
            assert code == 0
            assert parse_csv(single) == [r for r in rows if r["n"] == str(n)]

    @pytest.mark.parametrize("k,expected", [("inf", 2), ("1e13", 4)])
    def test_slope_out_of_reach_is_one_error_line(self, k, expected, capsys):
        # inf is not a slope; 1e13 is beyond the flat Robin bracket
        code, out, err = run_main(
            ["pruefer", "--n", "2", "--K", "0.5", "--D", "1", f"--k={k}"], capsys
        )
        assert code == expected and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestFlow:
    def test_run_and_plot(self, tmp_path, capsys):
        plot = tmp_path / "snapshots.csv"
        code, out, _ = run_main(
            ["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10",
             "--emit-plot", str(plot), "--snapshots", "4"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,distance,residual"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) > 2
        assert rows[-1][1] <= 1e-6
        times = [r[0] for r in rows]
        assert times == sorted(times)

        plines = plot.read_text().strip().split("\n")
        assert plines[0] == "t,z,psi"
        snap_ts = {ln.split(",")[0] for ln in plines[1:]}
        assert len(snap_ts) >= 2
        for ln in plines[1:]:
            t, z, psi = map(float, ln.split(","))
            assert 0.0 <= z <= 0.5 and psi <= 1e-12

    @pytest.mark.parametrize("K,D,k,code", [
        ("-8", "1", "2", 2), ("-8", "1", "3", 0), ("-2", "2", "1", 2), ("-2", "2", "2", 0),
    ])
    def test_flow_domain_exit_codes(self, K, D, k, code, capsys):
        # c_k + pi^2/D^2 < 0 is a domain error (exit 2), not a failed run
        got, _, err = run_main(["flow", "--n", "2", f"--K={K}", "--D", D, "--k", k], capsys)
        assert got == code
        assert ("c_k + pi^2/D^2" in err) == (code == 2)

    @pytest.mark.parametrize("plot", [False, True])
    def test_one_robin_constant_and_one_run(self, plot, tmp_path, monkeypatch, capsys,
                                            cold_ck):
        runs = [0]
        flow_to_stationary = flow.flow_to_stationary

        def counting(*args, **kwargs):
            runs[0] += 1
            return flow_to_stationary(*args, **kwargs)

        monkeypatch.setattr(flow, "flow_to_stationary", counting)
        argv = ["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10"]
        if plot:
            argv += ["--emit-plot", str(tmp_path / "plot.csv")]
        code, _, _ = run_main(argv, capsys)
        assert code == 0
        # one Brent solve for c_k, however many steps ask for it
        assert pruefer._robin_constant.cache_info().misses == 1
        assert runs[0] == 1

    def test_plot_writes_each_step_once(self, tmp_path, capsys):
        # more snapshots than steps: every recorded step is one block
        plot = tmp_path / "plot.csv"
        code, out, _ = run_main(
            ["flow", "--n", "4", "--K", "1", "--D", "2", "--k", "10",
             "--emit-plot", str(plot), "--snapshots", "50"],
            capsys,
        )
        assert code == 0
        steps = len(out.strip().split("\n")) - 2
        assert steps < 50
        rows_per_t = Counter(ln.split(",")[0]
                             for ln in plot.read_text().strip().split("\n")[1:])
        # a block written twice would double its t's row count
        assert len(rows_per_t) == steps + 1
        assert len(set(rows_per_t.values())) == 1

    def test_plot_matches_a_replayed_run(self, tmp_path, capsys):
        # the snapshots taken from the one run equal those picked here from
        # a second run's every step at the snapshot times the first run
        # determines
        n, K, D, k, count = 5, 1.0, 1.0, 40.0, 5
        plot = tmp_path / "plot.csv"
        code, _, _ = run_main(
            ["flow", "--n", str(n), "--K", str(K), "--D", str(D), "--k", str(k),
             "--emit-plot", str(plot), "--snapshots", str(count)],
            capsys,
        )
        assert code == 0
        params = ModelParams(n, K, D)
        s = 1.01 * pruefer.threshold_s(k, params)
        first = flow.flow_to_stationary(
            flow.initial_supersolution(k, s, params), k, params
        )
        snap_times = np.geomspace(first.times[1], first.times[-1], count)
        state = flow.initial_supersolution(k, s, params)
        steps = []
        flow.flow_to_stationary(state, k, params,
                                on_step=lambda t, v: steps.append((t, v.copy())))
        # the first step at or after each time, each step once
        picked = []
        for ts in snap_times:
            step = next(st for st in steps if st[0] >= ts)
            if not picked or picked[-1] is not step:
                picked.append(step)
        z = state.psi.z
        stride = max(1, len(z) // 2000)
        assert stride > 1
        lines = ["t,z,psi"]
        for t, vals in [(0.0, state.psi.values)] + picked:
            for zz, vv in zip(z[::stride], vals[::stride]):
                lines.append(f"{cli._fmt(t)},{cli._fmt(zz)},{cli._fmt(vv)}")
        got = plot.read_text()
        # a plain bool keeps pytest from diffing two ~10^4-line texts
        same = got == "\n".join(lines) + "\n"
        got_lines = got.split("\n")
        first = next((i for i, (a, b) in enumerate(zip(got_lines, lines)) if a != b),
                     min(len(got_lines), len(lines)))
        assert same, f"plot differs from line {first} on"

    def test_snapshot_lines_format_each_value_as_fmt(self):
        # the one-pass formatter against the per-value _fmt join, on signed
        # zero, the smallest subnormal, a round power of ten, a value that
        # %g writes in exponent form, and doubles of random bits (NaN and
        # infinities among them)
        gen = np.random.default_rng(3)
        values = np.concatenate([[-0.0, 0.0, 5e-324, 1e16, 1e-5, -1e-5, np.inf, -np.inf, np.nan],
                                 gen.integers(0, 2**64, 20000, dtype=np.uint64).view(float)])
        z = [cli._fmt(v) for v in np.linspace(0.0, 0.5, values.size).tolist()]
        t = cli._fmt(0.0123)
        expected = "\n".join(f"{t},{zz},{cli._fmt(v)}" for zz, v in zip(z, values.tolist()))
        assert cli._snapshot_lines(t, z, values) == expected

    def test_rejects_multiple_triples(self, capsys):
        code, out, err = run_main(
            ["flow", "--n", "2", "--K", "0.5,0.6", "--D", "1", "--k", "10"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "one parameter triple" in err


class TestBounds:
    def test_sandwich_rows(self, capsys):
        code, out, _ = run_main(
            ["bounds", "--n", "3", "--K", "1", "--D", "1"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["index"] for r in rows] == ["1", "2"]
        for row in rows:
            assert row["within"] == "True"
            assert row["lower_method"] == "comparison"
            assert row["upper_method"] == "rayleigh"
            # n = 3 collapses the sandwich to equality
            assert float(row["lower"]) == pytest.approx(
                float(row["upper"]), rel=1e-12
            )

    def test_n2_quartic_rows(self, capsys):
        code, out, _ = run_main(
            ["bounds", "--n", "2", "--K", "1", "--D", "1"], capsys
        )
        assert code == 0
        for row in parse_csv(out):
            assert row["lower"] == ""
            assert row["upper_method"] == "quartic minorant"
            assert row["within"] == "True"


class TestExitCodes:
    def test_pole_is_invalid_params(self, capsys):
        code, out, err = run_main(
            ["eigen", "--n", "2", "--K", "10", "--D", "1.1"], capsys
        )
        assert code == 2 and out == ""
        assert "invalid parameter triples" in err

    def test_bad_dimension(self, capsys):
        code, _, err = run_main(
            ["eigen", "--n", "0", "--K", "0.5", "--D", "1"], capsys
        )
        assert code == 2 and "n=0" in err

    def test_bounds_need_positive_curvature(self, capsys):
        code, _, err = run_main(
            ["bounds", "--n", "3", "--K", "-0.5", "--D", "1"], capsys
        )
        assert code == 2 and "K > 0" in err

    @pytest.mark.parametrize("argv", [
        ["eigen", "--n", "2", "--K=-5.2e5", "--D", "1"],
        ["eigen", "--n", "2", "--K=-1e8", "--D", "1"],
        ["eigen", "--method", "fd", "--n", "2", "--K=-5.2e5", "--D", "1"],
        ["eigen", "--method", "fd", "--n", "5", "--K=-1e8", "--D", "1"],
        ["pruefer", "--n", "2", "--K=-1e8", "--D", "1", "--k", "1"],
    ])
    def test_overflowing_curvature_is_invalid_params(self, argv, capsys):
        # cs_K(D/2)^2 overflows a double below K D^2 of about -5.058e5
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: invalid parameter triples:"]
        assert "-5.058e5" in err and "Traceback" not in err

    @pytest.mark.parametrize("K", ["0", "1"])
    @pytest.mark.parametrize("D", ["1e-200", "3e-154", "1e-100", "1e100", "1e200"])
    @pytest.mark.parametrize("command", [
        ["eigen"], ["eigen", "--method", "fd"], ["bounds"], ["pruefer", "--k", "1"],
        ["flow", "--k", "1"]], ids=" ".join)
    def test_extreme_diameter_ends_in_a_typed_outcome(self, command, D, K, capsys):
        # D^2 or (pi/D)^2 overflowed (OverflowError, ZeroDivisionError) and
        # the flat Robin bracket at D = 1e-100 exhausted Brent's iterations
        # (RuntimeError); each now returns or takes the typed-error path
        code, _, err = run_main(command + ["--n", "5", "--K", K, "--D", D], capsys)
        assert code in (0, 2, 3, 4)
        assert (code == 0) == (err == "") and "Traceback" not in err
        if D in ("1e-200", "1e200"):
            assert code == 2 and "(pi/D)^2 finite" in err

    @pytest.mark.parametrize("n", ["2", "5"])
    @pytest.mark.parametrize("method", ["shoot", "fd"])
    def test_large_negative_curvature_still_returns(self, n, method, capsys):
        code, out, _ = run_main(
            ["eigen", "--method", method, "--n", n, "--K=-4e5", "--D", "1"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["lambda1"]) < float(row["lambda2"])

    def test_flow_nonconvergence_is_solver_failure(self, capsys):
        code, out, err = run_main(
            ["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10",
             "--tol", "1e-14", "--t-max", "1e-3"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,bad", [
        (["eigen", "--n", "2", "--K", "abc", "--D", "1"], "abc"),
        (["eigen", "--n", "two", "--K", "1", "--D", "1"], "two"),
        (["eigen", "--n", "2", "--K", "0:1:x", "--D", "1"], "0:1:x"),
        (["eigen", "--n", "2", "--K", "0:1", "--D", "1"], "0:1"),
        (["series", "--order", "3", "--n", "x"], "x"),
        (["eigen", "--n", "2", "--K", ",", "--D", "1"], ","),
        (["series", "--order", "2", "--n", ","], ","),
        # a dimension below 1 is refused as eigen refuses it, not rendered
        (["series", "--order", "3", "--n", "0"], 0),
        (["series", "--order", "3", "--n=-3"], -3),
        (["series", "--order", "2", "--n", ""], ""),
    ])
    def test_malformed_list_is_invalid_params(self, argv, bad, capsys):
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("option,value", [
        ("--mesh-tol", "0"), ("--mesh-tol", "-1"), ("--snapshots", "-1"),
        ("--tol", "-1"), ("--tol", "nan"), ("--t-max", "-1"), ("--t-max", "nan"),
        ("--s", "nan"), ("--s", "inf"), ("--k", "inf"),
    ])
    def test_bad_flow_option_is_invalid_params(self, option, value, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        code, out, err = run_main(
            ["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10",
             "--emit-plot", str(plot), option, value],
            capsys,
        )
        assert code == 2 and out == "" and not plot.exists()
        assert err.startswith("error:") and err.count("\n") == 1
        assert option[2:].replace("-", "_") in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,path", [
        (["eigen", "--n", "2", "--K", "0.5", "--D", "1", "--output", "/nonexistent/x.csv"],
         "/nonexistent/x.csv"),
        (["series", "--order", "3", "--output", "{tmp}"], "{tmp}"),
        (["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10",
          "--emit-plot", "/nonexistent/p.csv"], "/nonexistent/p.csv"),
    ], ids=["missing-directory", "a-directory", "missing-plot-directory"])
    def test_unwritable_path_is_invalid_params(self, argv, path, tmp_path, capsys):
        # the path is checked before the command runs: no solver call, no table
        from gapmodel import _scipy

        argv = [a.format(tmp=tmp_path) for a in argv]
        with _scipy.ledger() as work:
            code, out, err = run_main(argv, capsys)
        assert code == 2 and out == "" and work == []
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(path.format(tmp=tmp_path)) in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,option", [
        (["eigen", "--n", "2", "--K", "10", "--D", "1"], "--output"),
        (["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "1e9"], "--output"),
        (["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "1e9"], "--emit-plot"),
        (["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10", "--tol", "-1"],
         "--emit-plot"),
    ], ids=["pole-table", "cell-budget-table", "cell-budget-plot", "bad-tol-plot"])
    def test_failed_run_leaves_an_existing_output(self, argv, option, tmp_path, capsys):
        path = tmp_path / "kept.csv"
        path.write_text("kept\n")
        code, out, _ = run_main(argv + [option, str(path)], capsys)
        assert code == 2 and out == "" and path.read_text() == "kept\n"

    def test_flow_slope_past_cell_budget_is_invalid_params(self, capsys):
        code, out, err = run_main(
            ["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "1e9"], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "k = 1e+09" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["eigen", "--n", "2", "--K", "0.5", "--D", "1", "--jobs", "2"],
        ["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10",
         "--format", "json"],
    ])
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_validation_before_dispatch(self, capsys):
        # one bad triple in a sweep aborts the whole run with no output
        code, out, err = run_main(
            ["eigen", "--n", "2,0", "--K", "0.5", "--D", "1"], capsys
        )
        assert code == 2 and out == ""
        assert "(n=0" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gapmodel.cli", "eigen", "--n", "3",
         "--K", "0.5", "--D", "1", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    (row,) = doc["rows"]
    # n = 3 has constant potential, so the gap is exactly 3 pi^2 / D^2
    assert row["gap"] == pytest.approx(3 * math.pi**2, rel=1e-12)


# Runs start-up steps in a fresh interpreter and reports, after each, its
# exit code, its output, the numpy, scipy, mpmath and gapmodel modules
# loaded so far, the json modules loaded so far, and the module whose import
# statement first loaded json.  The steps come as a Python literal in
# sys.argv[1]: "import" (import gapmodel), "parser" (import gapmodel.cli and
# build a parser), or a CLI argv in which "{plot}" stands for a file whose
# text is reported as "plot".  The steps and the report pass through repr
# and ast.literal_eval, not json, so every json module reported is one the
# steps loaded.
_STARTUP_SCRIPT = """
import ast, contextlib, io, os, sys, tempfile

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("numpy", "scipy", "mpmath", "gapmodel"))

def json_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("json", "_json"))

json_importer = []

class JsonWatch:
    def find_spec(self, name, path=None, target=None):
        if name == "json" and not json_importer:
            frame = sys._getframe(1)
            while frame.f_globals.get("__name__", "").startswith("importlib"):
                frame = frame.f_back
            json_importer.append(frame.f_globals.get("__name__"))
        return None

sys.meta_path.insert(0, JsonWatch())
plot = os.path.join(tempfile.mkdtemp(), "plot.csv")
report = [{"json": json_loaded()}]
for step in ast.literal_eval(sys.argv[1]):
    entry = {}
    if step == "import":
        import gapmodel
    elif step == "parser":
        import gapmodel.cli
        gapmodel.cli.build_parser()
    else:
        import gapmodel.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                entry["code"] = gapmodel.cli.main([plot if a == "{plot}" else a for a in step])
            except SystemExit as exc:
                entry["code"] = exc.code
        entry["stdout"] = out.getvalue()
        if "{plot}" in step:
            with open(plot) as fh:
                entry["plot"] = fh.read()
    entry["modules"] = loaded()
    entry["json"] = json_loaded()
    entry["json_importer"] = json_importer[0] if json_importer else None
    report.append(entry)
print(repr(report))
"""

GOLDEN = Path(__file__).resolve().parent / "golden"
# golden cases (tests/golden/regenerate.py) as the start-up script runs them
STARTUP_CASES = {
    "eigen_shoot": ["eigen", "--n", "2,3,5", "--K", "-2,1", "--D", "1"],
    "series": ["series", "--order", "5", "--check-reference", "--n", "2,5"],
    "pruefer": ["pruefer", "--k", "10", "--n", "2", "--K", "0,0.5", "--D", "1"],
    "flow": ["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10", "--tol", "1e-4",
             "--mesh-tol", "1e-3", "--emit-plot", "{plot}", "--snapshots", "2"],
}


def startup_report(*steps):
    """One report per step of a fresh interpreter, after the first entry,
    {"json": [...]}, which holds the json modules loaded before any step."""
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, repr(steps)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    before, *report = ast.literal_eval(proc.stdout)
    assert before == {"json": []}, "the interpreter loads json before any step"
    return report


@pytest.fixture(scope="module")
def light_start():
    """import gapmodel, the parser, --help, series and then eigen in one process."""
    return startup_report(
        "import", "parser", ["--help"], STARTUP_CASES["series"], STARTUP_CASES["eigen_shoot"]
    )


class TestStartUp:
    def test_scipy_loads_on_the_first_solver_call(self, light_start):
        *light, eigen = light_start
        for step in light:
            assert not any(m.startswith("scipy") for m in step["modules"])
        for step in light[2:]:  # --help and series
            assert step["code"] == 0 and step["stdout"]
        assert eigen["code"] == 0
        # the compiled kernels, each loaded from its file without its package
        assert {"scipy.integrate._dop", "scipy.optimize._zeros", "scipy.integrate._quadpack",
                "scipy.linalg._flapack"} <= set(eigen["modules"])
        assert eigen["stdout"] == (GOLDEN / "eigen_shoot.csv").read_text()

    def test_help_and_series_load_no_numpy(self, light_start):
        # the exact lists: no numpy, no scipy, no numeric gapmodel module
        imported, parser, help_, series, _ = light_start
        assert imported["modules"] == ["gapmodel", "gapmodel.errors"]
        assert parser["modules"] == help_["modules"] == [
            "gapmodel", "gapmodel.cli", "gapmodel.errors"]
        assert help_["stdout"].startswith("usage: gapmodel")
        assert series["code"] == 0
        assert series["stdout"] == (GOLDEN / "series.json").read_text()
        assert series["modules"] == ["gapmodel", "gapmodel.cli", "gapmodel.errors",
                                     "gapmodel.exact", "gapmodel.series"]

    def test_json_loads_only_to_write_json(self):
        parser, help_, csv_row, json_row = startup_report(
            "parser", ["--help"], STARTUP_CASES["eigen_shoot"],
            [*STARTUP_CASES["eigen_shoot"], "--format", "json"])
        assert parser["json"] == help_["json"] == []
        assert help_["code"] == csv_row["code"] == json_row["code"] == 0
        # the CSV row loads no json: gapmodel writes none, and scipy.integrate,
        # which would load it through numpy.testing, is not imported
        assert csv_row["json"] == [] and csv_row["json_importer"] is None
        assert "json" in json_row["json"]
        assert json.loads(json_row["stdout"])["command"] == "eigen"
        _, series = startup_report("parser", STARTUP_CASES["series"])
        assert series["code"] == 0 and "json" in series["json"]
        assert series["json_importer"] == "gapmodel.cli"

    def test_series_to_order_8_loads_no_mpmath_or_numpy(self):
        # coefficients become floats and signs in integer arithmetic
        _, run = startup_report("parser", ["series", "--order", "8", "--check-reference"])
        assert run["code"] == 0 and json.loads(run["stdout"])["order"] == 8
        assert run["modules"] == ["gapmodel", "gapmodel.cli", "gapmodel.errors",
                                  "gapmodel.exact", "gapmodel.series"]

    @pytest.mark.parametrize("case,idle", [
        ("eigen_shoot", ("flow", "pruefer", "series", "exact")),
        ("pruefer", ("spectral", "series", "exact")),
        ("flow", ("spectral", "series", "exact")),
    ])
    def test_command_loads_only_its_modules(self, case, idle):
        _, run = startup_report("parser", STARTUP_CASES[case])
        assert run["code"] == 0
        assert not {f"gapmodel.{m}" for m in idle} & set(run["modules"])
        assert run["stdout"] == (GOLDEN / f"{case}.csv").read_text()
        if "plot" in run:
            assert run["plot"] == (GOLDEN / f"{case}.plot.csv").read_text()

    @pytest.mark.parametrize("case", ["eigen_shoot", "pruefer", "flow"])
    def test_array_rows_load_only_the_compiled_kernels(self, case):
        # scipy's packages import scipy.special, scipy.sparse and
        # numpy.testing (with unittest and json); a row needs none of them
        _, run = startup_report("parser", STARTUP_CASES[case])
        assert run["code"] == 0
        heavy = {"scipy.integrate", "scipy.optimize", "scipy.linalg", "numpy.testing",
                 "unittest"}
        assert not heavy & set(run["modules"])
        assert "scipy.integrate._dop" in run["modules"]

    def test_solvers_are_module_attributes(self):
        """The names a tracer rebinds: gapmodel's wrappers of the compiled
        kernels, and scipy's solve_ivp, read from scipy.integrate when first
        looked up."""
        from scipy.integrate import solve_ivp

        from gapmodel import _scipy

        assert spectral.solve_ivp is solve_ivp and pruefer.solve_ivp is solve_ivp
        assert "solve_ivp" not in vars(spectral) and "solve_ivp" not in vars(pruefer)
        assert flow.solve_banded is _scipy.solve_banded
        assert bounds.quad is _scipy.quad
        with pytest.raises(AttributeError):
            spectral.no_such_name

    def test_compiled_solvers_are_module_attributes(self):
        """spectral's compiled-solver forwarders give scipy's own results."""
        from scipy.integrate import ode
        from scipy.linalg import eigh_tridiagonal

        def rhs(t, y):
            return [-2.0 * t * y[0]]

        solver = ode(rhs).set_integrator("dop853", rtol=1e-10, atol=1e-10)
        solver.set_initial_value([1.0], 0.0)
        end = solver.integrate(1.0)
        got = spectral.dop853_end(rhs, 0.0, 1.0, [1.0], rtol=1e-10, atol=1e-10)
        assert got.success and np.array_equal(got.y, end)

        d, e = np.array([2.0, 3.0, 4.0, 5.0]), np.array([-1.0, -1.0, -1.0])
        for first, last in ((1, 1), (2, 2), (1, 2)):
            lams, v = spectral.tridiagonal_eigenpairs(d, e, first, last, tol=1e-14)
            w, vs = eigh_tridiagonal(
                d, e, select="i", select_range=(first - 1, last - 1),
                lapack_driver="stebz", tol=1e-14)
            assert np.array_equal(lams, w) and np.array_equal(v, vs)
            assert np.array_equal(spectral.tridiagonal_eigenvalues(d, e, first, last, tol=1e-14),
                                  lams)


_BLOWUP_SCRIPT = """
import sys
from gapmodel import _scipy, cli, spectral

def blowup(fun, t0, t1, y0, rtol, atol):
    # y' = 1 + y^2 from y(-2) = 0 is tan(z + 2), infinite at z = pi/2 - 2 < 0
    return _scipy.dop853_end(lambda z, y: [1.0 + y[0] ** 2], t0, t1, y0, rtol, atol)

spectral.dop853_end = blowup
sys.exit(cli.main(["eigen", "--n", "2", "--K", "0.01", "--D", "4"]))
"""


class TestSolverFailures:
    def test_failed_angle_shot_exits_3_with_one_line(self):
        # scipy warns when DOP853 gives up; only the typed error may reach stderr
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-c", _BLOWUP_SCRIPT],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: angle integration failed: step size becomes too small"
        ]
