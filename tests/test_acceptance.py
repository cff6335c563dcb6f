"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Every test prints "[PASS]/[FAIL] criterion N: ..." through the capture
bypass so the verdict is visible in any pytest run, then asserts on the
same flag so a failure carries the measured numbers.
"""

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

from gapmodel import bounds, flow, pruefer, series, spectral
from gapmodel.exact import A_POLY, NPoly, PiLaurent
from gapmodel.model import ModelParams


def verdict(capsys, num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_exact_gap(capsys):
    t0 = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    for i in range(20):
        D = rng.uniform(0.3, 3.0)
        sign = 1.0 if i % 2 == 0 else -1.0
        K = sign * rng.uniform(0.05, 8.0) / D**2
        n = 1 if i < 10 else 3
        res = spectral.gap(ModelParams(n, K, D))
        worst = max(worst, abs(res.excess) / res.reference)
    for n in (2, 4, 5, 10):
        res = spectral.gap(ModelParams(n, 0.0, 1.7))
        worst = max(worst, abs(res.excess) / res.reference)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    verdict(
        capsys, 1, "gap equals 3*pi^2/D^2 for n in {1,3} and for K=0", ok,
        f"max rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_dichotomy(capsys):
    flat = 3.0 * math.pi**2
    min_ratio = math.inf
    sides_ok = True
    for kappa in (0.1, 1.0, 3.0):
        for n in (2, 4, 5, 8):
            p = ModelParams(n, kappa, 1.0)
            r1 = spectral.eigen_shoot(p, 1)
            r2 = spectral.eigen_shoot(p, 2)
            excess = (r2.eigenvalue - r1.eigenvalue) - flat
            solver_err = r1.error_estimate + r2.error_estimate
            sides_ok &= (excess < 0.0) if n == 2 else (excess > 0.0)
            min_ratio = min(min_ratio, abs(excess) / max(solver_err, 1e-300))
    ok = sides_ok and min_ratio > 10.0
    verdict(
        capsys, 2, "gap below flat for n=2, above for n in {4,5,8}", ok,
        f"min margin/solver-error ratio {min_ratio:.1e}",
    )


def test_criterion_3_series_exact_low_orders(capsys):
    series._orders.cache_clear()
    t0 = time.perf_counter()
    rep = series.check_reference(3)
    g = series.gap_series(3)
    lin = NPoly({1: Fraction(-1, 2), 0: Fraction(1, 2)})
    checks = {
        "reference forms": all(rep["matches"].values()),
        "first linear": g.first.kappa_coefficient(1) == lin,
        "second linear": g.second.kappa_coefficient(1) == lin,
        "gap order 0": g.kappa_coefficient(0)
        == NPoly({0: PiLaurent.pi_power(2, 3)}),
        "gap order 1 vanishes": g.kappa_coefficient(1) == NPoly({}),
        "gap order 2": g.kappa_coefficient(2)
        == A_POLY * NPoly({0: PiLaurent({-2: Fraction(3, 32)})}),
    }
    elapsed = time.perf_counter() - t0
    bad = [k for k, v in checks.items() if not v]
    ok = not bad and elapsed < 5.0
    verdict(
        capsys, 3, "orders 1-3 match the closed forms exactly", ok,
        f"failed: {bad or 'none'}, {elapsed:.2f} s",
    )


def _factor_pair(coeff, m, linear_weight):
    """Split a kappa^m coefficient into A^2/576 and A/weight factors.

    The coefficient is quadratic in A = (n-1)(n-3) with no constant term,
    so two evaluations pin both weights; the decomposition is verified
    exactly before converting to decimals.
    """
    v1 = coeff.eval_n(0)
    v2 = coeff.eval_n(5)
    det = Fraction(9 * 8 - 3 * 64)
    alpha = (v1 * 8 - v2 * 3) / det
    beta = (v2 * 9 - v1 * 64) / det
    assert A_POLY * A_POLY * alpha + A_POLY * beta == coeff
    shift = PiLaurent.pi_power(2 * m - 2)
    w = (
        PiLaurent.pi_power(1, 2)
        if linear_weight == "2pi"
        else PiLaurent.from_rational(24)
    )
    return ((alpha * shift * 576).evalf(), (beta * shift * w).evalf())


def test_criterion_4_series_order_four(capsys):
    rep = series.check_reference(4)
    forms_ok = all(
        rep["matches"][key]
        for key in ("lambda_first_4", "lambda_second_4", "lambda_gap_4")
    )
    g = series.gap_series(4)
    targets = {
        "first": (-0.64, 0.61),
        "second": (-0.603, 1.912),
        "gap": (0.037, 1.301),
    }
    measured = {
        "first": _factor_pair(g.first.kappa_coefficient(4), 4, "24"),
        "second": _factor_pair(g.second.kappa_coefficient(4), 4, "24"),
        "gap": _factor_pair(g.kappa_coefficient(4), 4, "24"),
    }
    worst = max(
        abs(measured[b][j] - targets[b][j]) for b in targets for j in (0, 1)
    )
    ok = forms_ok and worst < 5e-3
    verdict(
        capsys, 4, "order 4 exact, bracketed constants within 5e-3", ok,
        f"forms exact: {forms_ok}, max decimal dev {worst:.1e}",
    )


def test_criterion_5_series_order_five(capsys):
    rep = series.check_reference(5)
    inner_ok = all(
        v for k, v in rep["matches"].items() if k.startswith("inner_")
    )
    disc = rep["discrepancies"]["lambda_second_5"]
    conflict_ok = (
        disc["printed_matches_engine"] is False
        and disc["difference_is_12_over_pi_times_y22_y23"] is True
    )
    notes = " ".join(rep["decimal_notes"])
    documented = "0.36024" in notes and "0.35024" in notes
    sign_change = series.gap_order5_sign_change()
    factors = series.gap5_factors()
    reported = math.isfinite(factors["A2_factor"]) and math.isfinite(
        factors["A_factor"]
    )
    ok = (
        inner_ok
        and conflict_ok
        and documented
        and sign_change == (12, 11)
        and reported
    )
    verdict(
        capsys, 5,
        "order-5 inner products exact; decimal conflict documented", ok,
        f"gap coefficient positive through n=11, negative from n={sign_change[0]}; "
        f"engine A-linear factor {factors['A_factor']:.5f}",
    )


def test_criterion_6_truncation_scaling(capsys):
    kappas = (1e-2, 5e-3, 2.5e-3)
    slopes = {}
    for n in (2, 5):
        true = {
            kap: spectral.eigen_shoot_mp(ModelParams(n, kap, 1.0), 1, dps=40)
            for kap in kappas
        }
        for M in (1, 2, 3):
            errs = [
                abs(
                    true[kap]
                    - series.eval_series_mp(
                        ModelParams(n, kap, 1.0), M, "first", dps=50
                    )
                )
                for kap in kappas
            ]
            xs = [mp.log(kap) for kap in kappas]
            ys = [mp.log(e) for e in errs]
            xbar = sum(xs) / 3
            ybar = sum(ys) / 3
            slopes[(n, M)] = float(
                sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
                / sum((x - xbar) ** 2 for x in xs)
            )
    worst = max(abs(s - (M + 1)) for (_, M), s in slopes.items())
    ok = worst <= 0.3
    shown = ", ".join(
        f"n={n} M={M}: {s:.3f}" for (n, M), s in sorted(slopes.items())
    )
    verdict(
        capsys, 6, "truncation error scales like kappa^(M+1)", ok,
        f"max slope deviation {worst:.3f}; {shown}",
    )


def test_criterion_7_pruefer_consistency(capsys):
    worst_agree = 0.0
    worst_defect = 0.0
    all_positive = True
    for kappa in (0.1, 1.0):
        for n in (2, 5):
            for k in (10.0, 100.0, 1000.0):
                params = ModelParams(n, kappa, 1.0)
                report = pruefer.robin_boundary_report(k, params)
                ck = report["c_k"]
                left = pruefer.psi_left(ck, params)
                right = pruefer.psi_right(k, ck, params)
                zs = np.linspace(
                    0.05 * params.half, 0.95 * params.half, 257
                )
                agree = float(
                    np.max(np.abs(left.psi_at(zs) - right.psi_at(zs)))
                )
                worst_agree = max(worst_agree, agree)
                worst_defect = max(
                    worst_defect,
                    report["phi_right_defect"],
                    report["dphi_right_defect"],
                    report["dphi_left_defect"],
                )
                all_positive &= report["positive"]
    ok = worst_agree <= 1e-7 and worst_defect <= 1e-8 and all_positive
    verdict(
        capsys, 7, "left/right log-derivative branches and Robin data", ok,
        f"max branch gap {worst_agree:.1e}, max boundary defect "
        f"{worst_defect:.1e}",
    )


def test_criterion_8_flow_convergence(capsys):
    params = ModelParams(2, 0.5, 1.0)
    details = []
    ok = True
    for k in (10.0, 100.0):
        s = 1.01 * pruefer.threshold_s(k, params)
        state = flow.initial_supersolution(k, s, params)
        t0 = time.perf_counter()
        run = flow.flow_to_stationary(state, k, params, tol=1e-6)
        elapsed = time.perf_counter() - t0
        ok &= (
            run.converged
            and run.distances[-1] <= 1e-6
            and run.max_uptick <= 1e-9
            and elapsed < 300.0
        )
        details.append(
            f"k={k:g}: dist {run.distances[-1]:.1e}, uptick "
            f"{run.max_uptick:.1e}, {elapsed:.0f} s"
        )
    verdict(
        capsys, 8, "flow reaches the stationary profile monotonically", ok,
        "; ".join(details),
    )


def test_criterion_9_bounds_sandwich(capsys):
    rng = random.Random(909)
    violations = []
    for _ in range(10):
        D = rng.uniform(0.4, 2.5)
        K = rng.uniform(0.05, 8.0) / D**2
        for n in (3, 4, 5, 8):
            params = ModelParams(n, K, D)
            for i in (1, 2):
                lam = spectral.eigen_shoot(params, i).eigenvalue
                rep = bounds.bound_report(params, i)
                slack = 1e-9 * max(1.0, abs(lam))
                if not (rep.lower - slack <= lam <= rep.upper + slack):
                    violations.append((n, round(K, 3), round(D, 3), i))
        p2 = ModelParams(2, K, D)
        for i, rep in zip((1, 2), bounds.explicit_n2_bounds(p2)):
            lam = spectral.eigen_shoot(p2, i).eigenvalue
            if lam > rep.upper + 1e-9 * max(1.0, abs(lam)):
                violations.append((2, round(K, 3), round(D, 3), i))
    ok = not violations
    verdict(
        capsys, 9, "comparison/Rayleigh sandwich plus n=2 explicit uppers",
        ok, f"violations: {violations or 'none'} over 10 random (K, D)",
    )


def test_criterion_10_cap_lower_bound(capsys):
    margins = []
    for n in (2, 3, 5):
        for D in (0.5, 1.5, 3.0):
            lam = spectral.ball_first_eigen(n, D)
            margins.append((n, D, lam - math.pi**2 / D**2))
    ok = all(m >= 0.0 for *_, m in margins)
    shown = ", ".join(f"(n={n}, D={D}): {m:.3g}" for n, D, m in margins)
    verdict(
        capsys, 10, "spherical-cap first eigenvalue is at least pi^2/D^2",
        ok, f"margins {shown}",
    )


def test_criterion_11_oracle_equivalence(capsys):
    worst_fd = 0.0
    worst_gauge = 0.0
    for n in (2, 3, 5):
        for K in (-1.0, 0.3, 1.2):
            for D in (0.8, 1.0, 1.4):
                params = ModelParams(n, K, D)
                for i in (1, 2):
                    a = spectral.eigen_shoot(params, i).eigenvalue
                    b = spectral.eigen_fd(params, i).eigenvalue
                    worst_fd = max(worst_fd, abs(a - b) / abs(a))
                    d = spectral.eigen_shoot(
                        params, i, form="direct"
                    ).eigenvalue
                    worst_gauge = max(worst_gauge, abs(d - a) / abs(a))
    ok = worst_fd <= 1e-7 and worst_gauge <= 1e-8
    verdict(
        capsys, 11, "shooting vs finite differences vs gauge form", ok,
        f"max shoot/fd rel dev {worst_fd:.1e}, max gauge rel dev "
        f"{worst_gauge:.1e} on the 3x3x3 grid",
    )
