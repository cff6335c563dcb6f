"""Seeded operation lists for the three workloads.

Each workload is a template of slots, one round of operations. A slot fixes
what sets an operation's cost (subcommand, n, D and a centre for kappa =
K D^2 or for the Robin slope k); the seed moves kappa and k within a narrow
band around the centre and shuffles the order of the round. Every seed thus
gives different inputs with the same cost profile and the same share of the
operations that fail today, so runs with different seeds can be compared.
A run is a whole number of rounds, sized from --seconds by the nominal cost
of one round; it is never cut by a clock.
"""

import random

# (n, D, kappa centre, kappa half-width) per subcommand slot. Typical
# shooting slots avoid n in {1, 3}, which are exactly flat.
EIGEN_SHOOT = [
    (2, 1.0, -9.5, 0.4), (4, 0.5, -2.5, 0.4), (5, 1.0, 1.0, 0.4),
    (6, 2.0, 5.0, 0.4), (7, 1.0, -6.0, 0.4), (8, 0.5, 3.0, 0.4),
    (4, 2.0, 7.0, 0.4), (5, 0.5, -11.5, 0.4), (2, 2.0, 2.5, 0.4),
    (6, 0.5, -7.5, 0.4), (7, 2.0, -1.0, 0.4), (8, 1.0, 6.0, 0.4),
]
EIGEN_FD = [(6, 1.0, -4.0, 0.4), (2, 2.0, 6.0, 0.4)]
EIGEN_BOUNDS = [(5, 1.0, 3.0, 0.4), (2, 0.5, 5.0, 0.4)]
# 8 <= kappa <= 9.5; cost rises steeply towards the cap, so the band is
# narrow. n >= 7 would have to stay at kappa <= 8.75, where shooting still
# meets the 1e-9 check (see README, "Known faults").
EIGEN_NEAR_CAP = [(4, 1.0, 9.4, 0.03), (6, 2.0, 8.5, 0.03)]
# Exactly flat triples (n in {1, 3} or K = 0). Their inputs do not depend on
# the seed: each fails the `side` check in every run until the CLI prints
# `flat` for them.
EIGEN_FLAT = [(1, 5.0, 1.0), (3, -8.0, 0.5), (6, 0.0, 2.0)]

SERIES_ORDERS = [5, 6, 7, 8]
# kappa values at which the branch decimals are summed and checked
SERIES_KAPPA_BANDS = [(-3.0, -1.5), (1.5, 3.0)]

# (subcommand, n, D, kappa centre, k centres, --emit-plot). A round has
# cheap pruefer ops, a middle band of flows at moderate k, and costly ones
# (k = 300 or --emit-plot), so the median op sits inside the middle band.
ROBIN = [
    ("pruefer", 5, 1.0, 1.0, (20.0, 60.0), False),
    ("pruefer", 3, 2.0, 0.0, (15.0,), False),
    ("pruefer", 7, 0.5, 5.0, (50.0, 150.0), False),
    ("pruefer", 4, 1.0, 0.0, (100.0,), False),
    ("flow", 3, 1.0, 0.0, (30.0,), False),
    ("flow", 4, 2.0, 4.0, (10.0,), False),
    ("flow", 5, 1.0, 2.0, (40.0,), False),
    ("flow", 6, 0.5, 1.0, (20.0,), False),
    ("flow", 2, 1.0, 6.0, (30.0,), False),
    ("flow", 2, 0.5, 0.0, (300.0,), False),
    ("flow", 5, 1.0, 3.0, (300.0,), False),
    ("flow", 5, 1.0, 2.0, (100.0,), True),
    ("flow", 6, 1.0, 0.0, (100.0,), True),
]
ROBIN_KAPPA_WIDTH = 0.2
ROBIN_K_SPREAD = 0.05

# Nominal op seconds of one round on the reference host (see README).
ROUND_SECONDS = {"eigen_sweep": 19.5, "series_exact": 3.4, "robin_flow": 9.4}
WORKLOADS = tuple(ROUND_SECONDS)


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _num(x):
    """Shortest text that parses back to the same float."""
    return repr(float(x))


def _triple_args(n, K, D):
    # `--K=<v>` keeps a negative value from being read as an option
    return ["--n", str(n), f"--K={_num(K)}", "--D", _num(D)]


def _jitter(rng, centre, half_width):
    return round(centre + rng.uniform(-half_width, half_width), 4)


def _eigen_round(rng):
    ops = []
    for kind, slots in (("shoot", EIGEN_SHOOT), ("fd", EIGEN_FD),
                        ("bounds", EIGEN_BOUNDS), ("near_cap", EIGEN_NEAR_CAP)):
        for n, D, centre, width in slots:
            kappa = _jitter(rng, centre, width)
            ops.append({"kind": kind, "n": n, "K": kappa / D**2, "D": D})
    for n, K, D in EIGEN_FLAT:
        ops.append({"kind": "flat", "n": n, "K": K, "D": D})
    for op in ops:
        cmd = "bounds" if op["kind"] == "bounds" else "eigen"
        op["argv"] = [cmd] + _triple_args(op["n"], op["K"], op["D"])
        if op["kind"] == "fd":
            op["argv"] += ["--method", "fd"]
    return ops


def _series_round(rng):
    ops = []
    for M in SERIES_ORDERS:
        kappas = [round(rng.uniform(lo, hi), 4) for lo, hi in SERIES_KAPPA_BANDS]
        ops.append({
            "kind": "series", "M": M, "kappas": kappas, "n_values": [2, 5],
            "argv": ["series", "--order", str(M), "--check-reference",
                     "--n", "2,5"],
        })
    return ops


def _robin_round(rng):
    ops = []
    for cmd, n, D, centre, k_centres, plot in ROBIN:
        kappa = _jitter(rng, centre, ROBIN_KAPPA_WIDTH) if centre else 0.0
        ks = [round(k * (1.0 + rng.uniform(-ROBIN_K_SPREAD, ROBIN_K_SPREAD)), 3)
              for k in k_centres]
        op = {"kind": cmd, "n": n, "K": kappa / D**2, "D": D, "ks": ks,
              "plot": plot}
        op["argv"] = [cmd] + _triple_args(n, op["K"], D) + [
            "--k", ",".join(_num(k) for k in ks)]
        ops.append(op)
    return ops


ROUND_BUILDERS = {
    "eigen_sweep": _eigen_round,
    "series_exact": _series_round,
    "robin_flow": _robin_round,
}

# One untimed operation per run lets lazy imports finish before timing.
WARM_UP = {
    "eigen_sweep": ["eigen", "--n", "2", "--K", "1.0", "--D", "1.0"],
    "series_exact": ["series", "--order", "5", "--check-reference"],
    "robin_flow": ["pruefer", "--n", "3", "--K", "1.0", "--D", "1.0",
                   "--k", "20"],
}


def build(workload, seed, seconds):
    """The fixed operation list of one run: whole rounds, each shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(rounds_for(workload, seconds)):
        batch = ROUND_BUILDERS[workload](rng)
        rng.shuffle(batch)
        ops.extend(batch)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
