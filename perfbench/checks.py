"""Checks of each operation's output against references made apart from gapmodel.

``reference_for(op)`` computes what an operation is checked against (outside
the timed path and outside the process whose memory is measured), and
``check(op, out, ref)`` returns the list of failed checks, empty when the
output is right. ``out`` holds the exit code, the captured standard output
and, for ``--emit-plot`` runs, the plot file's text.
"""

import csv
import io
import json
import math

import reference

EIGEN_REL = 1e-9           # lambda within 1e-9 max(|lambda|, (pi/D)^2)
CK_REL = 1e-9              # c_k within 1e-9 max(1, |c_k|)
FLOW_TOL = 1e-6            # the CLI's default flow tolerance
PLOT_FACTOR = 2.0          # final profile within 2 x FLOW_TOL
RISE_REL = 1e-12           # distance may rise by rounding, 1e-12 max(1, k)
EXACT_ULPS = 8 * 2.0**-52  # identities between printed columns
SIGN_CHANGE_N = 12         # first n where the order-5 gap coefficient is < 0


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _close(a, b, tol):
    return abs(a - b) <= tol


def _is_flat(n, K):
    return n in (1, 3) or K == 0.0


def _eigen_tol(lam, D):
    return EIGEN_REL * max(abs(lam), (math.pi / D) ** 2)


def reference_for(op):
    kind = op["kind"]
    if kind in ("shoot", "fd", "bounds", "near_cap", "flat"):
        n, K, D = op["n"], op["K"], op["D"]
        if _is_flat(n, K):
            return {"lambda": reference.flat_pair(n, K, D)}
        l1, l2, err = reference.dirichlet_pair(n, K, D)
        if err > 0.1 * _eigen_tol(l1, D):
            raise ArithmeticError(f"reference error {err:.2e} too large for {op['argv']}")
        return {"lambda": (l1, l2)}
    if kind == "series":
        sums = {}
        for n in op["n_values"]:
            for kappa in op["kappas"]:
                sums[(n, kappa)] = reference.dirichlet_pair(n, kappa, 1.0)
        return {"pairs": sums}
    K, D = op["K"], op["D"]
    cks = [reference.robin_ck(k, K, D) for k in op["ks"]]
    return {"c_k": cks}


def check(op, out, ref):
    if out.get("error"):
        return [f"raised: {out['error']}"]
    if out["rc"] != 0:
        return [f"exit code {out['rc']}"]
    try:
        return CHECKERS[op["kind"]](op, out, ref)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_triple(op, row):
    bad = []
    if (int(row["n"]), float(row["K"]), float(row["D"])) != (op["n"], op["K"], op["D"]):
        bad.append(f"row is for ({row['n']}, {row['K']}, {row['D']})")
    return bad


def _check_lambda(name, got, want, D):
    if not _close(got, want, _eigen_tol(want, D)):
        return [f"{name} = {got!r}, reference {want!r}"]
    return []


def check_eigen(op, out, ref):
    rows = _rows(out["stdout"])
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    row = rows[0]
    n, K, D = op["n"], op["K"], op["D"]
    bad = _check_triple(op, row)
    l1, l2 = float(row["lambda1"]), float(row["lambda2"])
    gap, excess = float(row["gap"]), float(row["excess"])
    bad += _check_lambda("lambda1", l1, ref["lambda"][0], D)
    bad += _check_lambda("lambda2", l2, ref["lambda"][1], D)
    if not _close(gap, l2 - l1, EXACT_ULPS * abs(l2)):
        bad.append(f"gap {gap!r} != lambda2 - lambda1")
    if not _close(excess, gap - 3.0 * math.pi**2 / D**2, EXACT_ULPS * abs(l2)):
        bad.append(f"excess {excess!r} != gap - 3 pi^2/D^2")
    method = "fd" if op["kind"] == "fd" else "shoot"
    if row["method"] != method:
        bad.append(f"method {row['method']!r}, expected {method!r}")
    if _is_flat(n, K):
        want_side = "flat"
    else:
        sign = (n - 1) * (n - 3)
        if (excess > 0) != (sign > 0) or excess == 0.0:
            bad.append(f"excess {excess!r} has the wrong sign for n = {n}")
        want_side = "above" if sign > 0 else "below"
    if row["side"] != want_side:
        bad.append(f"side: {row['side']!r}, expected {want_side!r}")
    return bad


def check_bounds(op, out, ref):
    rows = _rows(out["stdout"])
    if [int(r["index"]) for r in rows] != [1, 2]:
        return ["expected rows for index 1 and 2"]
    D = op["D"]
    bad = []
    for row, lam_ref in zip(rows, ref["lambda"]):
        i = row["index"]
        bad += _check_triple(op, row)
        bad += _check_lambda(f"lambda{i}", float(row["lambda"]), lam_ref, D)
        slack = _eigen_tol(lam_ref, D)
        if row["lower"] != "" and float(row["lower"]) > lam_ref + slack:
            bad.append(f"lower bound {row['lower']} above lambda{i} = {lam_ref!r}")
        if float(row["upper"]) < lam_ref - slack:
            bad.append(f"upper bound {row['upper']} below lambda{i} = {lam_ref!r}")
        if row["within"] != "True":
            bad.append(f"within = {row['within']} for index {i}")
    return bad


def _order5_sign_change(u, v, n_max=100):
    """First n > 3 where (A^2/576) u + (A/(2 pi)) v < 0, A = (n-1)(n-3)."""
    for n in range(4, n_max + 1):
        A = (n - 1) * (n - 3)
        if A * A / 576.0 * u + A / (2.0 * math.pi) * v < 0:
            return n
    return None


def check_series(op, out, ref):
    doc = json.loads(out["stdout"])
    M = op["M"]
    bad = []
    if doc["order"] != M:
        bad.append(f"order {doc['order']}, expected {M}")
    gap = doc["branches"]["gap"]["orders"]
    for n in op["n_values"]:
        key = str(n)
        closed = [3.0 * math.pi**2, 0.0, reference.gap_kappa2(n)]
        for m, want in enumerate(closed):
            got = gap[m]["decimal"][key]
            if not _close(got, want, 1e-13 * max(1.0, abs(want))):
                bad.append(f"gap kappa^{m} coefficient at n = {n}: {got!r}, closed form {want!r}")
    for j, branch in ((1, "first"), (2, "second")):
        orders = doc["branches"][branch]["orders"]
        if len(orders) != M + 1:
            bad.append(f"{branch}: {len(orders)} orders, expected {M + 1}")
            continue
        for n in op["n_values"]:
            for kappa in op["kappas"]:
                lam_ref = ref["pairs"][(n, kappa)][j - 1]
                err_ref = ref["pairs"][(n, kappa)][2]
                total = sum(o["decimal"][str(n)] * kappa ** o["m"] for o in orders)
                # remainder of the order-M truncation, ~ lambda0 (kappa/pi^2)^(M+1)
                bound = j * j * math.pi**2 * (abs(kappa) / math.pi**2) ** (M + 1)
                if abs(total - lam_ref) > bound + 10.0 * err_ref:
                    bad.append(f"{branch} at n = {n}, kappa = {kappa}: sum {total!r}, "
                               f"reference {lam_ref!r}, remainder bound {bound:.3e}")
    factors = doc["gap_order5_factors"]
    first = _order5_sign_change(factors["A2_factor"], factors["A_factor"])
    if first != SIGN_CHANGE_N:
        bad.append(f"order-5 factors change sign first at n = {first}")
    reported = doc["reference_check"]["gap_order5_sign_change"][0]
    if reported != SIGN_CHANGE_N:
        bad.append(f"reported order-5 sign change at n = {reported}")
    return bad


def check_pruefer(op, out, ref):
    rows = _rows(out["stdout"])
    if len(rows) != len(op["ks"]):
        return [f"{len(rows)} rows, expected {len(op['ks'])}"]
    D = op["D"]
    bad = []
    for row, k, ck_ref in zip(rows, op["ks"], ref["c_k"]):
        bad += _check_triple(op, row)
        ck = float(row["c_k"])
        if float(row["k"]) != k:
            bad.append(f"row for k = {row['k']}, expected {k!r}")
        if not _close(ck, ck_ref, CK_REL * max(1.0, abs(ck_ref))):
            bad.append(f"c_k = {ck!r} at k = {k}, reference {ck_ref!r}")
        if not _close(float(row["threshold_s"]), ck + (math.pi / D) ** 2,
                      EXACT_ULPS * (math.pi / D) ** 2):
            bad.append(f"threshold_s {row['threshold_s']} != c_k + pi^2/D^2")
        if op["K"] == 0.0:
            flat = row["c_k_flat_closed_form"]
            if flat == "" or not _close(float(flat), ck_ref, CK_REL * max(1.0, abs(ck_ref))):
                bad.append(f"c_k_flat_closed_form = {flat!r}, reference {ck_ref!r}")
    return bad


def check_flow(op, out, ref):
    rows = _rows(out["stdout"])
    k = op["ks"][0]
    dist = [float(r["distance"]) for r in rows]
    bad = []
    if len(dist) < 2:
        return [f"{len(dist)} trajectory rows"]
    if dist[-1] > FLOW_TOL:
        bad.append(f"final distance {dist[-1]!r} above the tolerance {FLOW_TOL}")
    rise = max(b - a for a, b in zip(dist, dist[1:]))
    if rise > RISE_REL * max(1.0, k):
        bad.append(f"distance rose by {rise!r}")
    if op["plot"]:
        plot = _rows(out["plot"])
        t_end = max(float(r["t"]) for r in plot)
        final = [r for r in plot if float(r["t"]) == t_end]
        z = [float(r["z"]) for r in final]
        psi = [float(r["psi"]) for r in final]
        want = reference.robin_psi(k, op["K"], op["D"], ref["c_k"][0], z)
        worst = max(abs(a - b) for a, b in zip(psi, want))
        if not worst <= PLOT_FACTOR * FLOW_TOL:
            bad.append(f"final profile off by {worst!r} from the stationary reference")
    return bad


CHECKERS = {
    "shoot": check_eigen, "fd": check_eigen, "near_cap": check_eigen,
    "flat": check_eigen, "bounds": check_bounds, "series": check_series,
    "pruefer": check_pruefer, "flow": check_flow,
}


def known_fault(op, failures):
    """The flat triples' `side` label, which the CLI gets wrong today."""
    return op["kind"] == "flat" and bool(failures) and all(
        f.startswith("side:") for f in failures)
