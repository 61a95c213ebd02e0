"""The four benchmark workloads and the CSV contract their outputs must meet.

Each workload is a fixed list of CLI invocations generated from the seed.
Every repetition of a run replays the same list, so all repetitions must
write byte-identical CSV files.  Plain Python: the orchestrator imports this
module without importing numpy or the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PI = math.pi

NAMES = ("fig5_ensemble", "average_l128", "lifetime_scaling", "conditional_l16")


@dataclass(frozen=True)
class Invocation:
    experiment: str
    config: dict
    columns: tuple
    rows: int                 # CSV data rows the config implies


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    setup_states: tuple       # (l, theta) of the coherent states built during set-up
    fixed_steps: int          # frame steps implied by the configs alone
    probe_iterations: int     # sizes worker.Probe to about 30 ms on the reference host


def fig5_ensemble(seed: int, tiny: bool) -> Workload:
    """fig5 physics at its defaults; the ensemble size sets the run length."""
    l, n, k, count = (2, 6, 2, 2) if tiny else (16, 200, 2, 5)
    cfg = {"l": l, "z": 1.0, "theta": 0.5 * PI, "n_measure": n, "k": k, "gamma": PI,
           "seeds": {"base": seed * count, "count": count}}
    arms = ("uncorrected", f"unitary_every{k}", "after_each_plus")
    columns = ("n_measurements",) + tuple(f"p_succ_{a}" for a in arms) \
        + tuple(f"p_succ_{a}_stderr" for a in arms)
    # uncorrected + kick every k; the kicks after each + outcome depend on the draws
    fixed = count * (n + n + n // k + n)
    return Workload("fig5_ensemble", (Invocation("fig5", cfg, columns, n + 1),),
                    ((l, 0.5 * PI),), fixed, 600)


def average_l128(seed: int, tiny: bool) -> Workload:
    """fig2 and fig4 at l = 128: dense O(d^2) stepping, no RNG."""
    l, n = (4, 4) if tiny else (128, 50)
    theta = random.Random(seed).uniform(0.25 * PI, 0.75 * PI)
    fig2 = {"l": l, "z": 1.0, "theta": theta, "n_steps": n, "gamma": 0.5 * PI}
    fig4 = {"l": l, "z": 1.0, "theta": theta, "n_measure": n, "k": 2, "gamma": PI}
    invocations = (
        Invocation("fig2", fig2, ("step", "Lx_over_l", "Ly_over_l", "Lz_over_l"), n + 1),
        Invocation("fig4", fig4, ("step", "Lx_over_l_uncorrected", "Lz_over_l_uncorrected",
                                  "Lx_over_l_corrected", "Lz_over_l_corrected"), n + 1),
    )
    return Workload("average_l128", invocations, ((l, theta),), n + 2 * n + n // 2, 5)


def lifetime_scaling(seed: int, tiny: bool) -> Workload:
    """The scaling experiment at its defaults except for the 0.85 threshold,
    which would make a repetition 4 s long: a slow-down inside so long a
    repetition escapes the probe.  theta stays fixed because the lifetimes
    depend on it; the seed changes nothing here."""
    l_list, thresholds = ([3, 4], [0.85]) if tiny else ([8, 16, 32, 64], [0.9])
    cfg = {"l_list": l_list, "z_list": [0.0, 1.0], "thresholds": thresholds,
           "theta": 0.5 * PI, "step_cap": 10**6}
    rows = len(l_list) * 2 * len(thresholds)
    inv = Invocation("scaling", cfg, ("l", "z", "threshold", "lifetime"), rows)
    # the steps are the lifetimes, read back from the CSV
    return Workload("lifetime_scaling", (inv,), tuple((l, 0.5 * PI) for l in l_list), 0, 63)


def conditional_l16(seed: int, tiny: bool) -> Workload:
    """Stochastic run with the inclination-tuned conditional correction."""
    l, n, count = (2, 4, 2) if tiny else (16, 50, 2)
    cfg = {"l": l, "z": 1.0, "theta": 0.5 * PI, "state": {"family": "coherent"},
           "mode": "stochastic", "strategy": {"kind": "conditional"}, "n_measure": n,
           "seeds": {"base": seed * count, "count": count}}
    columns = ("step", "theta_mean", "theta_stderr", "p_succ_mean", "p_succ_stderr")
    # the applied kicks are counted by the replay in verify.py
    return Workload("conditional_l16", (Invocation("custom", cfg, columns, n + 1),),
                    ((l, 0.5 * PI),), n * count, 600)


BUILDERS = {
    "fig5_ensemble": fig5_ensemble,
    "average_l128": average_l128,
    "lifetime_scaling": lifetime_scaling,
    "conditional_l16": conditional_l16,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tiny)


# ---------------------------------------------------------------------------
# the CSV contract
# ---------------------------------------------------------------------------

HEADER_PREFIXES = ("# qrf-sim version: ", "# experiment: ", "# config-hash: sha256:",
                   "# rng: ", "# seeds: ")


def parse_csv(text: str) -> list:
    """Data rows as lists of floats (header and comments skipped)."""
    lines = text.splitlines()
    return [[float(f) for f in line.split(",")] for line in lines[6:]]


def csv_problems(text: str, inv: Invocation) -> list:
    """Ways a CSV breaks its contract: five '#' header lines, the documented
    columns, the implied row count and 17-significant-digit finite numbers."""
    lines = text.splitlines()
    problems = []
    if len(lines) < 6:
        return [f"only {len(lines)} lines"]
    for line, prefix in zip(lines[:5], HEADER_PREFIXES):
        if not line.startswith(prefix):
            problems.append(f"header line {line!r} lacks {prefix!r}")
    if lines[1] != f"# experiment: {inv.experiment}":
        problems.append(f"experiment line {lines[1]!r}")
    if lines[5] != ",".join(inv.columns):
        problems.append(f"columns {lines[5]!r}")
    data = lines[6:]
    if len(data) != inv.rows:
        problems.append(f"{len(data)} data rows, expected {inv.rows}")
    for i, line in enumerate(data):
        fields = line.split(",")
        if len(fields) != len(inv.columns):
            problems.append(f"row {i} has {len(fields)} fields")
            break
        bad = [f for f in fields if not _is_17g(f)]
        if bad:
            problems.append(f"row {i} has non-17g fields {bad[:3]}")
            break
    return problems


def _is_17g(field: str) -> bool:
    try:
        value = float(field)
    except ValueError:
        return False
    return math.isfinite(value) and format(value, ".17g") == field
