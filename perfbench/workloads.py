"""Seeded inputs for the four benchmark workloads.

Every workload is a closed loop with one client: the next operation is
issued only when the previous one has finished and been checked.  A run
is a whole number of *cycles*.  Each cycle has a fixed composition (so
the median and tail of a run always fall in the same cost class) and
fresh parameters drawn from the seed inside each class, so no result can
be served from a cache.  Only ``cli_cold`` repeats its inputs: the
canonical point, whose outputs are checked byte for byte.

An operation is a dict with ``kind`` (selects the output check),
``argv`` (what the program sees) and ``expect`` (what the check needs
to know about the input).  Output paths inside ``argv`` are relative to
the operation's own scratch directory.
"""

from __future__ import annotations

import math
import random

CANONICAL_ARGS = ["--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2"]

# The cli_cold operations: every subcommand at the canonical point, each in
# a fresh interpreter.  The names key the recorded outputs in expected.json.
CLI_COLD_OPS = {
    "steady_json": ["steady", *CANONICAL_ARGS],
    "steady_csv": ["steady", *CANONICAL_ARGS, "--format", "csv"],
    "superpose": ["superpose", *CANONICAL_ARGS],
    "dynamics_json": ["dynamics", *CANONICAL_ARGS, "--format", "json"],
    "oracle": ["oracle", *CANONICAL_ARGS],
    "figures": ["figures"],
}

WARMUP = {"cli_cold": "steady_json", "figures_sweep": "figures",
          "oracle_ladder": "oracle", "dynamics_bad_cavity": "dynamics_json"}

FIGURES_POINTS = 20001

# Oracle ladder classes by the bare coherent amplitude alpha = 2 eps / kappa,
# which fixes where the doubling ladder (8, 16, 32, ...) stops.  The bands
# leave a margin on both sides of each measured switch-over (about 0.55,
# 1.45 and 3.0), so every draw lands on its intended rung.
LADDER_BANDS = {
    "rung16": (0.05, 0.45),
    "rung32": (0.65, 1.25),
    "rung64": (1.70, 2.60),
    # Needs n_cut 128, which the 256 dimension cap refuses (exit 4).  A
    # smarter ladder may converge here instead; both outcomes are checked.
    "beyond_cap": (3.30, 4.50),
}
DECOUPLED_BANDS = {"rung16": (0.10, 0.45), "rung32": (0.70, 1.20)}

# Per cycle: cheap ops (rung 16 and decoupled) at the bottom, rung-32 ops
# holding the median, and heavy ops (rung 64 and refusals, about 1 s each)
# holding the tail sample of a 20-s run (4 cycles).
ORACLE_CYCLE = (
    [("ladder", "rung16")] * 6
    + [("decoupled", "rung16"), ("decoupled", "rung32")]
    + [("ladder", "rung32")] * 10
    + [("ladder", "rung64")] * 3
    + [("ladder", "beyond_cap")]
)
ORACLE_CAP_N_CUT = 127  # dimension 256, the default cap

DYNAMICS_STRATA = 8
DYNAMICS_RATIO = (2.0, 64.0)

# About the seconds of run time per cycle on the reference machine (2
# cores, Python 3.11, numpy 2.4, scipy 1.17, checks included); an oracle
# run also makes its one solve at the cap, so it runs longer than asked.
# A run makes round(seconds / this) cycles, so a given --seconds means the
# same inputs on every commit, and the median and tail land in the same
# cost class.
NOMINAL_CYCLE_S = {
    "cli_cold": 2.5,
    "figures_sweep": 0.85,
    "oracle_ladder": 5.0,
    "dynamics_bad_cavity": 4.0,
}

WORKLOADS = tuple(NOMINAL_CYCLE_S)


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rates_args(gamma_c: float, kappa: float, epsilon: float) -> list[str]:
    return ["--gamma-c", _num(gamma_c), "--kappa", _num(kappa), "--epsilon", _num(epsilon)]


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def warmup_op(workload: str) -> dict:
    """The untimed operation that ends set-up: a subcommand of the workload
    at the canonical point, so its outputs can be checked against the record."""
    name = WARMUP[workload]
    argv = CLI_COLD_OPS[name] + (["--out-dir", "."] if name == "figures" else [])
    return {"kind": "canonical", "argv": argv + ["--out", "stdout.txt"],
            "expect": {"name": name}}


def _cli_cold_cycle(rng: random.Random) -> list[dict]:
    names = list(CLI_COLD_OPS)
    rng.shuffle(names)
    return [{"kind": "canonical", "argv": list(CLI_COLD_OPS[n]), "expect": {"name": n}}
            for n in names]


def _figures_op(rng: random.Random) -> dict:
    gamma_c = _log_uniform(rng, 0.05, 2.0)
    kappa = gamma_c * _log_uniform(rng, 2.0, 100.0)
    eps_max = rng.uniform(2.0, 6.0) * math.sqrt(kappa * gamma_c / 8.0)
    argv = ["figures", "--gamma-c", _num(gamma_c), "--kappa", _num(kappa),
            "--eps-max", _num(eps_max), "--n-points", str(FIGURES_POINTS),
            "--out-dir", ".", "--out", "stdout.txt"]
    return {"kind": "figures", "argv": argv,
            "expect": {"gamma_c": gamma_c, "kappa": kappa, "eps_min": 0.0,
                       "eps_max": eps_max, "n_points": FIGURES_POINTS}}


def _dynamics_op(gamma_c: float, kappa: float, epsilon: float, initial: str) -> dict:
    argv = ["dynamics", *_rates_args(gamma_c, kappa, epsilon),
            "--initial", initial, "--out", "trajectory.csv"]
    return {"kind": "dynamics", "argv": argv,
            "expect": {"gamma_c": gamma_c, "kappa": kappa, "epsilon": epsilon,
                       "initial": initial}}


def _dynamics_ops(rng: random.Random, cycles: int) -> list[dict]:
    # Each of the log-spaced ratio strata is cut into one slot per cycle, and
    # each cycle draws from a slot not used before; the drive factors are
    # spread the same way over the whole run.  A run then covers [2, 64] and
    # the drive range evenly, so its median and tail do not hinge on where a
    # handful of draws happened to fall.
    lo, hi = (math.log(r) for r in DYNAMICS_RATIO)
    width = (hi - lo) / DYNAMICS_STRATA
    slots = [rng.sample(range(cycles), cycles) for _ in range(DYNAMICS_STRATA)]
    drive_slots = rng.sample(range(cycles * DYNAMICS_STRATA), cycles * DYNAMICS_STRATA)
    ops = []
    for cycle in range(cycles):
        batch = []
        for k in range(DYNAMICS_STRATA):
            ratio = math.exp(lo + width * (k + (slots[k][cycle] + rng.random()) / cycles))
            gamma_c = rng.uniform(0.1, 1.0)
            kappa = gamma_c * ratio
            u = (drive_slots[cycle * DYNAMICS_STRATA + k] + rng.random()) / len(drive_slots)
            epsilon = 0.5 * 4.0**u * math.sqrt(kappa * gamma_c / 8.0)  # 0.5-2x optimum
            initial = "excited" if (k + cycle) % 2 else "ground"
            batch.append(_dynamics_op(gamma_c, kappa, epsilon, initial))
        rng.shuffle(batch)
        ops += batch
    return ops


def _oracle_coupled(rng: random.Random, band: tuple[float, float]) -> tuple:
    # gamma_c in [0.2, 0.8], kappa/gamma_c log-uniform in [2, 16]; alpha
    # picks the rung, and draws whose epsilon leaves [0.05, 1.2] are redrawn.
    while True:
        gamma_c = rng.uniform(0.2, 0.8)
        kappa = gamma_c * _log_uniform(rng, 2.0, 16.0)
        epsilon = rng.uniform(*band) * kappa / 2.0
        if 0.05 <= epsilon <= 1.2:
            return gamma_c, kappa, epsilon


def _oracle_op(rng: random.Random, kind: str, klass: str) -> dict:
    if kind == "decoupled":
        kappa = rng.uniform(0.4, 4.0)
        epsilon = rng.uniform(*DECOUPLED_BANDS[klass]) * kappa / 2.0
        argv = ["oracle", "--g", "0", "--kappa", _num(kappa), "--epsilon",
                _num(epsilon), "--out", "report.json"]
        return {"kind": "decoupled", "argv": argv,
                "expect": {"kappa": kappa, "epsilon": epsilon}}
    if kind == "fixed":
        gamma_c, kappa, epsilon = _oracle_coupled(rng, (0.05, 2.6))
        extra = ["--n-cut", str(ORACLE_CAP_N_CUT)]
    else:
        gamma_c, kappa, epsilon = _oracle_coupled(rng, LADDER_BANDS[klass])
        extra = []
    argv = ["oracle", *_rates_args(gamma_c, kappa, epsilon), *extra,
            "--out", "report.json"]
    return {"kind": "oracle", "argv": argv,
            "expect": {"gamma_c": gamma_c, "kappa": kappa, "epsilon": epsilon,
                       "n_cut": ORACLE_CAP_N_CUT if kind == "fixed" else None,
                       "may_refuse": klass == "beyond_cap"}}


def _oracle_ops(rng: random.Random, cycles: int) -> list[dict]:
    cap_solve = _oracle_op(rng, "fixed", "cap")  # one per run: a small, fixed share
    ops = []
    for _ in range(cycles):
        batch = [_oracle_op(rng, kind, klass) for kind, klass in ORACLE_CYCLE]
        rng.shuffle(batch)
        ops += batch
    ops.insert(rng.randrange(len(ops)), cap_solve)
    return ops


def operations(workload: str, seed: int, cycles: int) -> list[dict]:
    """All operations of a run, in the order they are issued."""
    if workload not in NOMINAL_CYCLE_S:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dynamics_bad_cavity":
        return _dynamics_ops(rng, cycles)
    if workload == "oracle_ladder":
        return _oracle_ops(rng, cycles)
    ops: list[dict] = []
    for _ in range(cycles):
        ops += _cli_cold_cycle(rng) if workload == "cli_cold" else [_figures_op(rng)]
    return ops
