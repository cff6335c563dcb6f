"""Command-line front end for sweeps, tables, and plot data.

Subcommands: eigen, series, pruefer, flow, bounds.  Tables render as CSV
(17 significant digits) or JSON with a top-level schema_version; identical
invocations produce byte-identical output.  Exit codes: 0 success, 2 invalid
parameters, 3 solver failure, 4 root bracketing failure.  An --output or
--emit-plot path that cannot be written is invalid too: it is checked
before the command runs, and each output is written once the run has
ended, by one function, so a failed run leaves an existing file as it was.

Building the parser imports only the standard library and gapmodel.errors.
Each subcommand imports the modules it runs when it runs, so ``series`` and
``--help`` never load numpy, and ``eigen`` never loads the flow.  The modules
are called through their attributes (``spectral.gap``), so a name
rebound on the module is what the command calls.
"""

import argparse
import bisect
import functools
import json
import math
import os
import re
import sys

from .errors import (
    BracketError,
    DomainError,
    GapModelError,
    HypothesisError,
    PoleError,
    as_integer,
)

SCHEMA_VERSION = 2


def _fmt(x):
    return format(float(x), ".17g")


def _parse_floats(text):
    """Comma list "a,b,c" or linspace range "lo:hi:count"."""
    try:
        if ":" not in text:
            return _nonempty([float(v) for v in text.split(",") if v != ""], text)
        lo, hi, num = text.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError:
        raise DomainError(
            f"expected a number list a,b,c or a range lo:hi:count, got {text!r}"
        ) from None
    if num < 1:
        raise DomainError(f"range count must be >= 1, got {num}")
    if num == 1:
        return [lo]
    step = (hi - lo) / (num - 1)
    return [lo + i * step for i in range(num)]


def _parse_ints(text):
    try:
        return _nonempty([int(v) for v in text.split(",") if v != ""], text)
    except ValueError:
        raise DomainError(f"expected an integer list a,b,c, got {text!r}") from None


def _nonempty(values, text):
    if not values:
        raise DomainError(f"expected at least one value, got {text!r}")
    return values


def _collect_triples(args):
    """Cartesian triples in input order, all validated before any dispatch."""
    from .model import validate

    ns = _parse_ints(args.n)
    Ks = _parse_floats(args.K)
    Ds = _parse_floats(args.D)
    triples = [(n, K, D) for n in ns for K in Ks for D in Ds]
    bad = []
    for n, K, D in triples:
        try:
            validate((n, K, D))
        except GapModelError as exc:
            bad.append(f"(n={n}, K={K}, D={D}): {exc}")
    if bad:
        raise DomainError(
            "invalid parameter triples:\n  " + "\n  ".join(bad)
        )
    return triples


def _check_writable(path):
    """Raise the OSError, naming path, that writing to it would, without
    creating the file or changing it: main calls this before the run."""
    if os.path.exists(path):
        open(path, "a").close()  # a directory or a read-only file raises
    elif not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
        raise FileNotFoundError(f"cannot create {path!r}: no writable directory holds it")


def _write(text, path):
    """Write text to the file at path, or to stdout if path is None or empty."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_table(rows, args, command):
    """CSV or JSON of the rows; each row builder emits its columns in order."""
    if args.format == "csv":
        lines = [",".join(rows[0])]
        for row in rows:
            lines.append(
                ",".join(
                    ""
                    if v is None
                    else (_fmt(v) if isinstance(v, float) else str(v))
                    for v in row.values()
                )
            )
        return "\n".join(lines) + "\n"
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "rows": rows}
    return json.dumps(doc, indent=2) + "\n"


# -- eigen ----------------------------------------------------------------


def _eigen_row(n, K, D, method):
    from . import spectral
    from .model import ModelParams

    params = ModelParams(n, K, D)
    if method == "fd":
        r1, r2 = spectral._fd(params, (1, 2))
    else:
        res = spectral.gap(params)
        r1, r2 = res.lambda1, res.lambda2
    gap = r2.eigenvalue - r1.eigenvalue
    ref = 3.0 * math.pi**2 / D**2
    excess = gap - ref
    # the excess of a constant V is noise
    if params.flat:
        side = "flat"
    else:
        side = "below" if excess < 0 else "above"
    return {
        "n": n,
        "K": float(K),
        "D": float(D),
        "lambda1": r1.eigenvalue,
        "lambda2": r2.eigenvalue,
        "gap": gap,
        "excess": excess,
        "side": side,
        "method": method,
        "error_estimate": max(r1.error_estimate, r2.error_estimate),
    }


def cmd_eigen(args):
    triples = _collect_triples(args)
    rows = [_eigen_row(n, K, D, args.method) for n, K, D in triples]
    _write(_render_table(rows, args, "eigen"), args.output)
    return 0


# -- series ---------------------------------------------------------------


def _series_branch_doc(sr, M, n_values):
    orders = []
    for m in range(M + 1):
        coeff = sr.kappa_coefficient(m)
        entry = {
            "m": m,
            "kappa_coefficient": repr(coeff),
            "decimal": {str(n): coeff.evalf(n) for n in n_values},
        }
        if m >= 1:
            entry["lambda_shifted"] = repr(sr.lam_poly(m))
        orders.append(entry)
    return orders


def cmd_series(args):
    M = args.order
    if M < 0:
        raise DomainError(f"order must be >= 0, got {M}")
    from . import series as series_mod

    n_values = _parse_ints(args.n) if args.n else [2, 5]
    # the dimensions every other command accepts, checked as ModelParams does
    for n in n_values:
        as_integer(n, 1, "n must be an integer >= 1")
    branches = (
        ["first", "second", "gap"] if args.branch == "all" else [args.branch]
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "series",
        "order": M,
        "branches": {},
    }
    g = series_mod.gap_series(M)
    objs = {"first": g.first, "second": g.second, "gap": g}
    for name in branches:
        sr = objs[name]
        bdoc = {"orders": _series_branch_doc(sr, M, n_values)}
        if name in ("first", "second"):
            mode = 1 if name == "first" else 2
            bdoc["lambda0_at_D_pi"] = float(mode * mode)
        doc["branches"][name] = bdoc
    if M >= 5 and "gap" in branches:
        f = series_mod.gap5_factors()
        ref = series_mod.PUBLISHED_DECIMALS[("gap", 5)]
        doc["gap_order5_factors"] = {
            "A2_factor": f["A2_factor"],
            "A_factor": f["A_factor"],
            "reference_decimals": list(ref),
            "matches_reference": bool(
                abs(f["A2_factor"] - ref[0]) < 5e-3
                and abs(f["A_factor"] - ref[1]) < 5e-3
            ),
            "note": "engine values; the reference decimals inherit the "
            "second-branch fifth-order cross-term weight slip",
        }
    if args.check_reference:
        report = series_mod.check_reference(5)
        doc["reference_check"] = {
            "order": report["order"],
            "matches": dict(report["matches"]),
            "discrepancies": report["discrepancies"],
            "decimal_notes": report["decimal_notes"],
            "gap_order5_sign_change": list(series_mod.gap_order5_sign_change()),
        }
    _write(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


# -- pruefer ----------------------------------------------------------------


def _pruefer_row(k, n, K, D):
    import numpy as np

    from . import pruefer as pruefer_mod
    from .model import ModelParams

    params = ModelParams(n, K, D)
    try:
        report = pruefer_mod.robin_boundary_report(k, params)
    except BracketError as exc:
        raise BracketError(
            f"Robin constant solve failed for k={k} at n={n}, K={K}, D={D}: {exc}"
        ) from exc
    ck, left = report["c_k"], report["left"]
    right = pruefer_mod.psi_right(k, ck, params)
    half = params.half
    zs = np.linspace(0.05 * half, 0.95 * half, 257)
    agreement = float(np.max(np.abs(left.psi_at(zs) - right.psi_at(zs))))
    return {
        "k": float(k),
        "n": n,
        "K": float(K),
        "D": float(D),
        "c_k": ck,
        "threshold_s": pruefer_mod.threshold_s(k, params),
        "phi_right_defect": report["phi_right_defect"],
        "dphi_right_defect": report["dphi_right_defect"],
        "dphi_left_defect": report["dphi_left_defect"],
        "branch_agreement": agreement,
        "c_k_flat_closed_form": pruefer_mod.flat_ck(k, D) if K == 0.0 else None,
    }


def cmd_pruefer(args):
    triples = _collect_triples(args)
    ks = _parse_floats(args.k)
    rows = [_pruefer_row(k, n, K, D) for k in ks for n, K, D in triples]
    _write(_render_table(rows, args, "pruefer"), args.output)
    return 0


# -- flow -----------------------------------------------------------------


def _pick_snapshots(history, snap_times):
    """For each snapshot time, the first recorded (t, values) with t >= it.

    A step picked by several snapshot times is kept once, so a run with
    fewer steps than snapshots writes each of its blocks once.
    """
    times = [t for t, _ in history]
    picks = sorted({bisect.bisect_left(times, ts) for ts in snap_times})
    return [history[i] for i in picks]


def cmd_flow(args):
    import numpy as np

    from . import flow as flow_mod
    from . import pruefer as pruefer_mod
    from .model import ModelParams

    triples = _collect_triples(args)
    if len(triples) != 1:
        raise DomainError("flow runs one parameter triple at a time")
    if args.snapshots < 0:
        raise DomainError(f"snapshots must be >= 0, got {args.snapshots}")
    n, K, D = triples[0]
    params = ModelParams(n, K, D)
    k = args.k
    s = 1.01 * pruefer_mod.threshold_s(k, params) if args.s is None else args.s
    mesh_tol = flow_mod.DEFAULT_MESH_TOL if args.mesh_tol is None else args.mesh_tol
    state = flow_mod.initial_supersolution(k, s, params, mesh_tol=mesh_tol)
    # snapshot times depend on the run's length, so the plot's strided
    # values are kept for every step and picked once the run ends
    stride = max(1, len(state.psi.z) // 2000)
    history = []

    def record(t, values):
        history.append((t, values[::stride].copy()))

    run = flow_mod.flow_to_stationary(
        state, k, params, tol=args.tol, t_max=args.t_max,
        on_step=record if args.emit_plot else None,
    )
    lines = ["t,distance,residual"]
    for t, d, r in run.rows():
        lines.append(f"{_fmt(t)},{_fmt(d)},{_fmt(r)}")
    _write("\n".join(lines) + "\n", args.output)
    if args.emit_plot:
        snaps = [(0.0, state.psi.values[::stride])]
        if history:
            # geomspace ends exactly at the last step's time
            t1 = max(run.times[1], 1e-12)
            snap_times = np.geomspace(t1, run.times[-1], args.snapshots)
            snaps += _pick_snapshots(history, snap_times)
        z = [_fmt(v) for v in state.psi.z[::stride].tolist()]
        plot = ["t,z,psi", *(_snapshot_lines(_fmt(t), z, vals) for t, vals in snaps)]
        _write("\n".join(plot) + "\n", args.emit_plot)
    return 0


def _snapshot_lines(t, z, values):
    """The plot lines "t,z,psi" of one snapshot, without a final newline.

    t and z are formatted already; the values are formatted by one %
    operation on a template of the lines, as _fmt formats them: '%.17g' % x
    and format(x, ".17g") are the same CPython routine.
    """
    return "\n".join(f"{t},{zz},%.17g" for zz in z) % tuple(values.tolist())


# -- bounds ---------------------------------------------------------------


def _bounds_row(params, index, lam):
    from . import bounds as bounds_mod

    n, K, D = params.n, params.K, params.D
    if n >= 3:
        rep = bounds_mod.bound_report(params, index)
    else:
        rep = bounds_mod.explicit_n2_bounds(params)[index - 1]
    lower = None if rep.lower == -math.inf else rep.lower
    # the sandwich degenerates to equality at n = 3, so leave solver-error room
    slack = 1e-9 * max(1.0, abs(lam))
    within = (lower is None or lower - slack <= lam) and lam <= rep.upper + slack
    return {
        "n": n,
        "K": float(K),
        "D": float(D),
        "index": index,
        "lower": lower,
        "lambda": lam,
        "upper": rep.upper,
        "within": within,
        "lower_method": rep.lower_method,
        "upper_method": rep.upper_method,
    }


def cmd_bounds(args):
    triples = _collect_triples(args)
    for n, K, D in triples:
        if K <= 0:
            raise HypothesisError(
                f"bounds require K > 0, got K = {K} (n={n}, D={D})"
            )
    from . import spectral
    from .model import ModelParams

    rows = []
    for n, K, D in triples:
        # both shooting eigenvalues from one pair call
        params = ModelParams(n, K, D)
        res = spectral.gap(params)
        rows += [_bounds_row(params, r.index, r.eigenvalue) for r in (res.lambda1, res.lambda2)]
    _write(_render_table(rows, args, "bounds"), args.output)
    return 0


# -- parser ---------------------------------------------------------------


def _add_common(sub, table=True):
    sub.add_argument("--n", required=True, help="dimension list, e.g. 2,5")
    sub.add_argument("--K", required=True,
                     help="curvature list a,b,c or range lo:hi:count")
    sub.add_argument("--D", required=True, help="diameter list")
    if table:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None, help="path (default stdout)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="gapmodel",
        description="One-dimensional eigenvalue gap model computations.",
    )
    subs = p.add_subparsers(dest="command", required=True)

    e = subs.add_parser("eigen", help="Dirichlet eigenvalues and the gap")
    _add_common(e)
    e.add_argument("--method", choices=("shoot", "fd"), default="shoot")
    e.set_defaults(func=cmd_eigen)

    s = subs.add_parser("series", help="curvature expansion coefficients")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--branch", choices=("first", "second", "gap", "all"),
                   default="all")
    s.add_argument("--n", default=None,
                   help="dimensions for decimal rendering (default 2,5)")
    s.add_argument("--check-reference", action="store_true",
                   help="compare low orders against the hard-coded reference forms")
    s.add_argument("--output", default=None)
    s.set_defaults(func=cmd_series, format="json")

    r = subs.add_parser("pruefer", help="Robin constant and branch consistency")
    _add_common(r)
    r.add_argument("--k", required=True, help="boundary slope list")
    r.set_defaults(func=cmd_pruefer)

    f = subs.add_parser("flow", help="relaxation flow trajectory (CSV)")
    _add_common(f, table=False)
    f.add_argument("--k", type=float, required=True)
    f.add_argument("--s", type=float, default=None,
                   help="supersolution shift (default 1.01x threshold)")
    f.add_argument("--tol", type=float, default=1e-6)
    f.add_argument("--t-max", type=float, default=None)
    f.add_argument("--mesh-tol", type=float, default=None)
    f.add_argument("--emit-plot", default=None,
                   help="write (t, z, psi) snapshots at log-spaced times")
    f.add_argument("--snapshots", type=int, default=9)
    f.set_defaults(func=cmd_flow)

    b = subs.add_parser("bounds", help="two-sided eigenvalue bounds")
    _add_common(b)
    b.set_defaults(func=cmd_bounds)

    return p


# main parses with one parser per process; build_parser stays fresh per call
_parser = functools.cache(build_parser)


def _attach_negative_values(argv):
    """Join ['--K', '-1,1'] into ['--K=-1,1'].

    argparse takes a token that starts with '-' for an option unless it is
    a single number, so a list or range with a negative head would not
    parse.  No option of this CLI starts with '-' and a digit or '.'.
    """
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-[\d.]", tok)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_attach_negative_values(argv))
    try:
        for path in (args.output, getattr(args, "emit_plot", None)):
            if path:
                _check_writable(path)
        return args.func(args)
    except (DomainError, PoleError, HypothesisError, OSError) as exc:
        # an OSError is an --output or --emit-plot path that cannot be
        # written, and its message names the path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GapModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
