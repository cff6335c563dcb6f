"""Benchmark of gapmodel's CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload eigen_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gapmodel is imported from ./src.
The run measures set-up (fresh interpreters importing gapmodel.cli and
building its parser), then starts worker.py, which executes the workload's
fixed, seeded list of operations one at a time. Every output is checked
against references computed here, apart from gapmodel and outside the
worker. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
# Fast-state readings of hostref.host_reference and
# hostref.python_loop_seconds on the reference host. Time metrics are
# reported scaled to these speeds: seconds x nominal / reading.
NOMINAL_REF_S = 0.006
NOMINAL_LOOP_S = 0.0035
RUN_BUDGET_S = 170.0


def child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def read_steal():
    """Steal jiffies summed over CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def probe(env, *flags):
    return subprocess.run([sys.executable, *flags, str(BENCH / "setup_probe.py")],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=60)


def measure_setup(env):
    """Set-up seconds of SETUP_REPEATS fresh interpreters, and the mean of
    the host readings taken just before and after each import."""
    probe(env)  # fills the bytecode cache
    samples, refs = [], []
    for _ in range(SETUP_REPEATS):
        seconds, before, after = map(float, probe(env).stdout.split())
        samples.append(seconds)
        refs.append(0.5 * (before + after))
    return np.array(samples), np.array(refs)


def import_times(env):
    """Self time of numpy, scipy and gapmodel modules under -X importtime."""
    totals = {"numpy": 0, "scipy": 0, "gapmodel": 0}
    for line in probe(env, "-X", "importtime").stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = [part.strip() for part in line[12:].split("|")]
        top = name.split(".")[0]
        if top in totals and self_us.isdigit():
            totals[top] += int(self_us)
    return {f"setup.{k}_s": v * 1e-6 for k, v in totals.items()}


def run_worker(job, tag, trace, env, deadline):
    job_path, result_path = OUT / f"{tag}.ops.json", OUT / f"{tag}.result.json"
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path),
         "1" if trace else "0"],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        doc = json.load(fh)
    job_path.unlink()
    result_path.unlink()
    return doc


def scaled_seconds(results, readings):
    """Op seconds x nominal / the mean of the host readings just before and
    just after each op."""
    r = np.array(readings)
    return np.array([res["seconds"] for res in results]) * NOMINAL_REF_S / (0.5 * (r[:-1] + r[1:]))


def check_all(ops, results):
    failures = {}
    for op, res in zip(ops, results):
        out = dict(res)
        if op.get("plot"):
            path = Path(op["plot_path"])
            out["plot"] = path.read_text() if path.exists() else ""
        bad = checks.check(op, out, op["ref"])
        if bad:
            failures[op["id"]] = bad
    return failures


def per_layer(doc, n_ops, plot_bytes):
    layers = doc["layers"]
    calls, secs, counts = layers["calls"], layers["seconds"], layers["counts"]
    c = lambda name: calls.get(name, 0)
    s = lambda name: secs.get(name, 0.0)
    output_bytes = plot_bytes + sum(len(r["stdout"].encode())
                                    for r in doc["traced_results"])
    values = {
        "kernels.calls": counts.get("kernels.calls", 0),
        "model.potential.calls": counts.get("model.potential.calls", 0),
        "spectral.eigen_shoot.calls": c("spectral.eigen_shoot"),
        "spectral.eigen_shoot.s": s("spectral.eigen_shoot"),
        "spectral.eigen_fd.calls": c("spectral.eigen_fd"),
        "spectral.eigen_fd.s": s("spectral.eigen_fd"),
        "spectral.ode_solves": c("spectral.ode"),
        "spectral.rhs_evals": counts.get("spectral.ode.rhs_evals", 0),
        "spectral.ode_s": s("spectral.ode"),
        "bounds.calls": c("bounds"),
        "bounds.s": s("bounds"),
        "series.lambda_series.calls": c("series.lambda_series"),
        "series.lambda_series.s": s("series.lambda_series"),
        "series.memo_hits": layers["memo_hits"],
        "series.check_reference.s": s("series.check_reference"),
        "series.coefficient_sign.calls": c("series.coefficient_sign"),
        "series.coefficient_sign.s": s("series.coefficient_sign"),
        "exact.solve_resonant.calls": c("exact.solve_resonant"),
        "exact.solve_resonant.s": s("exact.solve_resonant"),
        "exact.trig_integrate.calls": c("exact.trig_integrate"),
        "exact.trig_integrate.s": s("exact.trig_integrate"),
        "exact.pilaurent_ops": counts.get("exact.pilaurent_ops", 0),
        "exact.trigpoly_muls": counts.get("exact.trigpoly_muls", 0),
        "pruefer.find_ck.calls": c("pruefer.find_ck"),
        "pruefer.find_ck.s": s("pruefer.find_ck"),
        "pruefer.ode_solves": c("pruefer.ode"),
        "pruefer.rhs_evals": counts.get("pruefer.ode.rhs_evals", 0),
        "pruefer.ode_s": s("pruefer.ode"),
        "pruefer.psi_left.calls": c("pruefer.psi_left"),
        "pruefer.psi_right.calls": c("pruefer.psi_right"),
        "pruefer.supersolution.s": s("pruefer.supersolution"),
        "pruefer.robin_boundary_report.s": s("pruefer.robin_boundary_report"),
        "flow.build_grid.calls": c("flow.build_grid"),
        "flow.build_grid.s": s("flow.build_grid"),
        "flow.flow_to_stationary.calls": c("flow.flow_to_stationary"),
        "flow.flow_to_stationary.s": s("flow.flow_to_stationary"),
        "flow.steps": counts.get("flow.steps", 0),
        "flow.banded_solves": c("flow.banded"),
        "flow.banded_s": s("flow.banded"),
        "flow.grid_nodes": counts.get("flow.grid_nodes", 0),
        "cli.main.s": s("cli.main"),
        "cli.self_s": layers["cli_self_s"],
        "cli.output_bytes": output_bytes,
    }
    metrics = {name: v / n_ops for name, v in values.items()}
    solves = c("spectral.ode")
    metrics["spectral.eigenvalues_per_solve"] = (
        c("spectral.eigen_shoot") / solves if solves else 0.0)
    metrics["trace.overhead"] = (
        scaled_seconds(doc["traced_results"], layers["host_ref_s"]).sum()
        / scaled_seconds(doc["results"], doc["host_ref_s"]).sum())
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "gapmodel" / "cli.py").is_file():
        sys.exit(f"no gapmodel source tree at {SRC}; run from a checkout of the repository")
    OUT.mkdir(exist_ok=True)
    env = child_env()
    steal0 = read_steal()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"

    ops = workloads.build(args.workload, args.seed, args.seconds)
    for op in ops:
        if op.get("plot"):
            op["plot_path"] = str(OUT / f"{tag}-plot{op['id']}.csv")
            op["argv"] = op["argv"] + ["--emit-plot", op["plot_path"]]
    job = {"ops": [{"id": op["id"], "argv": op["argv"]} for op in ops],
           "warm_up": workloads.WARM_UP[args.workload]}

    setup, setup_refs = measure_setup(env)
    doc = run_worker(job, tag, args.trace, env, deadline)
    for op in ops:
        op["ref"] = checks.reference_for(op)
    failures = check_all(ops, doc["results"])
    plot_bytes = 0
    for op in ops:
        if op.get("plot"):
            path = Path(op["plot_path"])
            plot_bytes += path.stat().st_size if path.exists() else 0
            path.unlink(missing_ok=True)
    steal1 = read_steal()

    known = {i for i, bad in failures.items() if checks.known_fault(ops[i], bad)}
    unexpected = {i: bad for i, bad in failures.items() if i not in known}
    op_s = np.array([r["seconds"] for r in doc["results"]])
    completed = len(ops) - len(unexpected)
    op_scaled = scaled_seconds(doc["results"], doc["host_ref_s"])
    setup_scaled = setup * NOMINAL_LOOP_S / setup_refs
    host_ref = statistics.median(doc["host_ref_s"])
    raw = {
        "ops_per_s": completed / float(op_s.sum()),
        "op_p50_s": float(np.median(op_s)),
        "setup_s": float(np.median(setup)),
    }
    scaled = {
        "ops_per_s": completed / float(op_scaled.sum()),
        "op_p50_s": float(np.median(op_scaled)),
        "setup_s": float(np.median(setup_scaled)),
    }
    e2e = dict(scaled, peak_rss_mb=doc["peak_rss_mb"])

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops, "
          f"{len(failures)} failed ({len(known)} of them the flat-triple `side` fault)")
    for name in raw:
        print(f"  {name}: raw {raw[name]:.6g}, scaled {scaled[name]:.6g}")
    print(f"  host readings: worker median {host_ref * 1e3:.4f} ms over "
          f"{len(doc['host_ref_s'])} (nominal {NOMINAL_REF_S * 1e3:.1f} ms); set-up loop "
          f"median {statistics.median(setup_refs) * 1e3:.4f} ms (nominal "
          f"{NOMINAL_LOOP_S * 1e3:.1f} ms)")
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    print(f"  steal over the run: {steal} jiffies; op time {op_s.sum():.3f} s; "
          f"warm-up {doc['warm_up_s']:.3f} s; set-up samples "
          + " ".join(f"{x:.4f}" for x in setup))
    print("  op seconds: " + " ".join(f"{x:.4f}" for x in op_s))
    print("  host readings, ms: " + " ".join(f"{x * 1e3:.3f}" for x in doc["host_ref_s"]))
    for i, bad in sorted(failures.items()):
        print(f"  FAILED op {i} {ops[i]['argv']}: " + "; ".join(bad))

    if args.trace:
        metrics = per_layer(doc, len(ops), plot_bytes)
        metrics.update(import_times(env))
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        metrics = e2e
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


if __name__ == "__main__":
    main()
