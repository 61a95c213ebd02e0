"""Output checks that replay part of a workload on an independent route.

The replays use the tensor-product channel oracles (``*_tensor``), traces
against the dense spin operators and a fresh Philox stream per seed; none of
them goes through the structured kernels, ``metrics`` or ``trajectory``.
The conditional workload is the exception: its applied kicks are replayed
through the package's public record API.  Each check is a (name, ok,
detail) triple; ``verify`` also returns the frame steps the run's outputs
represent.
"""

from __future__ import annotations

import numpy as np

from qrf_sim.channels import (
    average_channel_tensor,
    selective_channel_tensor,
    unitary_channel_tensor,
)
from qrf_sim.spin import build_spin_operators, coherent_state

from workloads import Workload, parse_csv

TOL = 1e-10
OUTCOME_EPS = 1e-12       # branches this unlikely are forced, as in the program


def _mean_L(rho, ops) -> np.ndarray:
    return np.array([np.trace(rho @ L).real for L in (ops.Lx, ops.Ly, ops.Lz)])


def _p_succ(rho, ops, n_hat) -> float:
    return 0.5 * (1.0 + n_hat @ _mean_L(rho, ops) / (ops.l_value + 0.5))


def _replay_fig5_arm(cfg, arm, seed, ops, rho0):
    """One trajectory: p_succ per primary measurement and the kicks applied."""
    z, n, k, gamma = cfg["z"], cfg["n_measure"], cfg["k"], cfg["gamma"]
    rng = np.random.default_rng(np.random.Philox(key=seed))
    v0 = _mean_L(rho0, ops)
    n_hat = v0 / np.linalg.norm(v0)
    rho, kicks, probs = rho0, 0, [_p_succ(rho0, ops, n_hat)]
    for i in range(n):
        plus = selective_channel_tensor(rho, z, ops, +1)
        u = rng.random()
        if plus.probability > 1.0 - OUTCOME_EPS or (
                plus.probability >= OUTCOME_EPS and u < plus.probability):
            outcome, rho = +1, plus.post_state
        else:
            outcome, rho = -1, selective_channel_tensor(rho, z, ops, -1).post_state
        if (arm == "every_k" and (i + 1) % k == 0) or (arm == "after_plus" and outcome > 0):
            rho = unitary_channel_tensor(rho, -z, ops, gamma)
            kicks += 1
        probs.append(_p_succ(rho, ops, n_hat))
    return np.array(probs), kicks


def _verify_fig5(wl: Workload, csvs: list):
    cfg = wl.invocations[0].config
    l, n = cfg["l"], cfg["n_measure"]
    rows = np.array(parse_csv(csvs[0]))
    lines = csvs[0].splitlines()
    row0 = lines[6].split(",")[1:4]
    expected0 = 0.5 * (1.0 + l / (l + 0.5))
    checks = [("fig5_row0_equal_across_arms", len(set(row0)) == 1, str(row0)),
              ("fig5_row0_closed_form", abs(rows[0, 1] - expected0) <= 1e-12,
               f"{rows[0, 1]!r} vs {expected0!r}")]
    ops = build_spin_operators(l)
    rho0 = coherent_state(l, cfg["theta"])
    seeds = range(cfg["seeds"]["base"], cfg["seeds"]["base"] + cfg["seeds"]["count"])
    steps = wl.fixed_steps
    for col, arm in enumerate(("none", "every_k", "after_plus"), start=1):
        runs = [_replay_fig5_arm(cfg, arm, s, ops, rho0) for s in seeds]
        probs = np.array([p for p, _ in runs])
        mean = probs.mean(axis=0)
        stderr = probs.std(axis=0, ddof=1) / np.sqrt(len(runs)) if len(runs) > 1 \
            else np.zeros_like(mean)
        err = max(np.abs(rows[:, col] - mean).max(), np.abs(rows[:, col + 3] - stderr).max())
        checks.append((f"fig5_{arm}_matches_tensor_replay", bool(err <= TOL), f"max err {err:.3e}"))
        kicks = sum(k for _, k in runs)
        if arm == "after_plus":
            steps += kicks
        elif arm == "every_k":
            expected = len(runs) * (n // cfg["k"])
            checks.append(("fig5_every_k_kick_count", kicks == expected, f"{kicks} vs {expected}"))
    return checks, steps


def _verify_average(wl: Workload, csvs: list):
    fig2, fig4 = (inv.config for inv in wl.invocations)
    l = fig2["l"]
    ops = build_spin_operators(l)
    rho0 = coherent_state(l, fig2["theta"])
    rows2, rows4 = parse_csv(csvs[0]), parse_csv(csvs[1])

    start = np.array([np.sin(fig2["theta"]), 0.0, np.cos(fig2["theta"])])
    err2 = np.abs(np.array(rows2[0][1:]) - start).max()
    rho = rho0
    for i in (1, 2):
        rho = unitary_channel_tensor(rho, fig2["z"], ops, fig2["gamma"])
        err2 = max(err2, np.abs(np.array(rows2[i][1:]) - _mean_L(rho, ops) / l).max())

    # fig4 with k = 2: two measurements, then the kick on the corrected arm
    z = fig4["z"]
    rho1 = average_channel_tensor(rho0, z, ops)
    rho2 = average_channel_tensor(rho1, z, ops)
    v1 = _mean_L(rho1, ops) / l
    v2 = _mean_L(rho2, ops) / l
    v2c = _mean_L(unitary_channel_tensor(rho2, -z, ops, fig4["gamma"]), ops) / l
    expected = [[1, v1[0], v1[2], v1[0], v1[2]], [2, v2[0], v2[2], v2c[0], v2c[2]]]
    err4 = np.abs(np.array(rows4[1:3]) - np.array(expected)).max()
    checks = [("fig2_first_steps_match_tensor", bool(err2 <= TOL), f"max err {err2:.3e}"),
              ("fig4_first_steps_match_tensor", bool(err4 <= TOL), f"max err {err4:.3e}")]
    return checks, wl.fixed_steps


def _tensor_lifetime(l, z, threshold, theta, cap):
    ops = build_spin_operators(l)
    rho = coherent_state(l, theta)
    v0 = _mean_L(rho, ops)
    n_hat = v0 / np.linalg.norm(v0)
    for n in range(1, cap + 1):
        rho = average_channel_tensor(rho, z, ops)
        if _p_succ(rho, ops, n_hat) < threshold:
            return n
    return cap


def _verify_scaling(wl: Workload, csvs: list):
    cfg = wl.invocations[0].config
    rows = parse_csv(csvs[0])
    checks = []
    for l, z, thr, life in rows:
        if l <= 16:    # the tensor route is cheap only for small frames
            replay = _tensor_lifetime(int(l), z, thr, cfg["theta"], cfg["step_cap"])
            checks.append((f"lifetime_l{l:g}_z{z:g}_thr{thr:g}_matches_tensor",
                           replay == life, f"{life:g} vs {replay}"))
    series = {}
    for l, z, thr, life in rows:
        series.setdefault((z, thr), []).append((l, life))
    grows = all(a[1] < b[1] for pts in series.values() for a, b in zip(pts, pts[1:]))
    checks.append(("lifetime_grows_with_l", grows, str(series)))
    return checks, wl.fixed_steps + int(sum(r[3] for r in rows))


def _verify_conditional(wl: Workload, csvs: list):
    """The applied kicks are known only to the trajectory, so this check
    replays the seeds through the public ``run_stochastic`` record API."""
    from qrf_sim import ConditionalTuned, run_stochastic

    cfg = wl.invocations[0].config
    l, n = cfg["l"], cfg["n_measure"]
    rows = np.array(parse_csv(csvs[0]))
    ops = build_spin_operators(l)
    rho0 = coherent_state(l, cfg["theta"])
    seeds = range(cfg["seeds"]["base"], cfg["seeds"]["base"] + cfg["seeds"]["count"])
    records = [run_stochastic(rho0, n, cfg["z"], ConditionalTuned(), s, ops) for s in seeds]
    applied = sum(1 for rec in records for event in rec.correction_events if event.gamma)
    err = np.abs(rows[:, 3] - np.mean([rec.p_succ_series for rec in records], axis=0)).max()
    expected0 = 0.5 * (1.0 + l / (l + 0.5))
    in_range = bool(np.all((rows[:, 3] > 0.5) & (rows[:, 3] <= 1.0)))
    return [("conditional_matches_record_replay", bool(err <= TOL), f"max err {err:.3e}"),
            ("conditional_row0_closed_form", abs(rows[0, 3] - expected0) <= 1e-12,
             f"{rows[0, 3]!r} vs {expected0!r}"),
            ("conditional_p_succ_in_range", in_range, "")], wl.fixed_steps + applied


VERIFIERS = {
    "fig5_ensemble": _verify_fig5,
    "average_l128": _verify_average,
    "lifetime_scaling": _verify_scaling,
    "conditional_l16": _verify_conditional,
}


def verify(wl: Workload, csvs: list):
    """Run the workload's output checks on the CSV texts of one repetition."""
    return VERIFIERS[wl.name](wl, csvs)
