"""Configuration-driven experiment runner.

Usage:

    qrf-sim <experiment> --config <path> [--out <path>] [--threads n]

Experiments: fig1 fig2 fig3 fig4 fig5 scaling custom.  A run's parameters
come from its config alone, a single JSON document; unknown keys are rejected
(they are usually typos in physics parameters), and each known key has one
check in KEYS, which states its type and range: reals reach the physics as
floats and counts lie in [1, 2**63).  All angles are radians.  Every output
CSV embeds the config hash, RNG identifier and seed list as '#' header
comments and is byte-reproducible for a fixed config; a JSON summary sidecar,
which echoes the config as given, is written next to it.  Exit codes: 0
success, 2 config error (a bad invocation too, and an output path that would
overwrite the config or the other output or cannot be written), 3
numerical-invariant violation (including an output value that is not finite).
--threads is accepted and must be a positive integer, but changes nothing:
every run is single-threaded and its bytes never depended on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import reprlib
import sys

import numpy as np

from . import __version__
from .channels import OutcomeImpossible, selective_channel
from .metrics import UnpolarizedFrame, frame_direction, summarize_frame
from .predictions import selective_angles_partially_coherent
from .spin import (
    DensityMatrixError,
    QuadraticBlochSpec,
    build_spin_operators,
    coherent_state,
    mixed_dicke_state,
    quadratic_bloch_state,
    rotated_dicke_state,
    thermal_partial_coherent,
)
from .trajectory import (
    CHUNK,
    RNG_ALGORITHM,
    AlternatingAntipolarized,
    ConditionalTuned,
    NoAverageEvolution,
    NumericalInvariantError,
    ThresholdOutOfRange,
    UnitaryAfterEachPlus,
    UnitaryEveryK,
    run_arm_statistics,
    run_average,
    run_ensemble_statistics,
    schedule_measurements,
    schedule_unitaries,
    usable_lifetimes,
)

PI = float(np.pi)
L_MAX = 1024  # the largest frame the runs are sized for: each builds one d x d start, no operators
# the most reads a run may hold until it writes (_held_reads), checked before any work: a read
# with its share of the CSV rows of Python floats, the schedule and the step log took at most
# 525 bytes (custom average at l = 3), so a run within the bound holds about 0.5 GB at most
READS_MAX = 2**20


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

DEFAULTS = {
    "fig1": {
        "l": 100, "k1": 10, "k2": 40, "p": 0.2, "z": 0.1,
        "theta_start": 0.05 * PI, "theta_stop": 0.95 * PI, "theta_points": 19,
    },
    "fig2": {"l": 16, "z": 1.0, "theta": 0.5 * PI, "n_steps": 500, "gamma": 0.5 * PI},
    "fig3": {"l": 16, "z": 1.0, "theta": 0.5 * PI, "n_steps": 500, "gammas": [0.5 * PI, PI]},
    "fig4": {"l": 16, "z": 1.0, "theta": 0.5 * PI, "n_measure": 200, "k": 2, "gamma": PI},
    "fig5": {"l": 16, "z": 1.0, "theta": 0.5 * PI, "n_measure": 200, "k": 2, "gamma": PI,
             "seeds": {"base": 0, "count": 500}},
    "scaling": {"l_list": [8, 16, 32, 64], "z_list": [0.0, 1.0],
                "thresholds": [0.85, 0.9], "theta": 0.5 * PI, "step_cap": 10**6},
    "custom": {"l": 16, "z": 1.0, "theta": 0.5 * PI,
               "state": {"family": "coherent"}, "mode": "average",
               "n_steps": 100, "gamma": PI, "record_every": 1,
               "strategy": {"kind": "none"}, "n_measure": 100,
               "seeds": {"base": 0, "count": 100}},
}


def load_config(experiment: str, path: str) -> tuple[dict, dict]:
    """The config as given, which the outputs and the config hash echo, and the config
    the physics takes: each key as KEYS checks it, once the checks across keys hold."""
    _require(experiment in DEFAULTS,
             f"unknown experiment {experiment!r}; choose from {sorted(DEFAULTS)}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    declared = raw.pop("experiment", experiment)
    _require(declared == experiment,
             f"config declares experiment {_echo(declared)} but {experiment!r} was requested")
    allowed = set(DEFAULTS[experiment])
    unknown = set(raw) - allowed
    _require(not unknown, f"unknown config keys for {experiment}: {_echo(sorted(unknown))} "
             f"(allowed: {sorted(allowed)})")
    config = {**DEFAULTS[experiment], **raw}
    _check_leaves(config)
    physics = {key: KEYS[key](key, value) for key, value in config.items()}
    if experiment == "fig1":
        _require(0.0 < physics["theta_start"] < physics["theta_stop"] < PI,
                 "theta grid must satisfy 0 < start < stop < pi")
    reads = _held_reads(experiment, physics)
    _require(reads <= READS_MAX, f"the config asks a run to hold {reads} reads, more than "
             f"{READS_MAX}: one per step, arm and seed of a chunk, and one per seed")
    return config, physics


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


_echo = reprlib.repr  # a config value quoted in an error message, abridged to stay short


def _check_leaves(cfg: dict):
    # no config key takes a bool (json true passes isinstance(x, int)), and
    # json accepts NaN, Infinity and integers beyond the float range, which no
    # parameter can use; a stack, not recursion, walks nesting as deep as json
    # decodes, leaves in file order
    stack = list(reversed(cfg.items()))
    while stack:
        where, value = stack.pop()
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            stack += reversed([(f"{where}[{key}]", item) for key, item in items])
            continue
        _require(not isinstance(value, bool),
                 f"{_echo(where)} must not be a boolean, got {value!r}")
        _require(not isinstance(value, float) or math.isfinite(value),
                 f"{_echo(where)} must be finite, got {value!r}")
        _require(not isinstance(value, int) or abs(value) <= sys.float_info.max,
                 f"{_echo(where)} must fit in a float, got {_echo(value)}")


def _real(key: str, value, low=-math.inf, high=math.inf, span="") -> float:
    """A real in [low, high] (span names it) as a float: 10**30 in JSON becomes one."""
    _require(isinstance(value, (int, float)), f"{key} must be a number, got {_echo(value)}")
    _require(low <= value <= high, f"{key} must lie in {span}, got {_echo(value)}")
    return float(value)


def _real_in(low: float, high: float, span: str):
    return lambda key, value: _real(key, value, low, high, span)


def _spin(key: str, l):
    _require(isinstance(l, (int, float)) and abs(2 * l - round(2 * l)) < 1e-12
             and round(2 * l) >= 1,
             f"{key} must be a positive integer or half-integer, got {_echo(l)}")
    spin = round(2 * l) / 2 if isinstance(l, float) else l  # the spin the operators are built for
    _require(spin <= L_MAX, f"{key} must be at most {L_MAX}, got {_echo(l)}")
    return spin


def _count(key: str, value) -> int:
    """A count; below 2**63, so every index and step count fits in an int64."""
    _require(isinstance(value, int) and 1 <= value < 2**63,
             f"{key} must be an integer in [1, 2**63), got {_echo(value)}")
    return value


def _list_of(item, same=lambda v: v, what="an entry"):
    """The check of a nonempty list of entries that pass item and differ by same."""
    def check(key: str, value) -> list:
        _require(isinstance(value, list) and value,
                 f"{key} must be a nonempty list, got {_echo(value)}")
        items = [item(f"{key}[{i}]", v) for i, v in enumerate(value)]
        _require(len({same(v) for v in items}) == len(items),
                 f"{key} must not repeat {what}, got {_echo(value)}")
        return items
    return check


def _object(key: str, value) -> dict:
    _require(isinstance(value, dict), f"{key} must be an object, got {_echo(value)}")
    return value


def _seeds(key: str, spec):
    """A seed list or {base, count}: Philox keys lie in [0, 2**128)."""
    if isinstance(spec, dict) and set(spec) <= {"base", "count"}:
        base, count = spec.get("base", 0), spec.get("count")
        _require(isinstance(base, int) and isinstance(count, int) and base >= 0 and count >= 1,
                 f"{key} needs integers base >= 0 and count >= 1, got {_echo(spec)}")
        _require(base + count - 1 < 2**128, f"{key} must be below 2**128, got {_echo(spec)}")
    else:
        _require(isinstance(spec, list) and spec
                 and all(isinstance(s, int) and s >= 0 for s in spec),
                 f"{key} must be a nonempty list of non-negative integers or {{base, count}}")
        _require(max(spec) < 2**128, f"{key} must be below 2**128, got {_echo(max(spec))}")
    return spec


def _mode(key: str, value) -> str:
    _require(value in ("average", "stochastic"),
             f"{key} must be 'average' or 'stochastic', got {_echo(value)}")
    return value


def _gamma_column(gamma: float) -> str:
    return f"p_succ_unitary_gamma_{gamma:.6g}"


# Every key of DEFAULTS and the one check that states its type, range and coercion:
# check(key, value) returns the value the physics takes or raises ConfigError.  Each runs
# after _check_leaves, so no value is a bool, a non-finite float or an integer beyond the
# float range.  k1 and k2, magnetic numbers, are plain reals that the state's constructor
# checks against l; a repeated list entry would repeat rows, fits or columns.
KEYS = {
    "l": _spin, "k1": _real, "k2": _real, "p": _real_in(0.0, 1.0, "[0, 1]"),
    "z": _real_in(-1.0, 1.0, "[-1, 1]"), "theta": _real_in(0.0, PI, "[0, pi]"),
    "theta_start": _real, "theta_stop": _real, "gamma": _real,
    **dict.fromkeys(("theta_points", "n_steps", "n_measure", "k", "record_every", "step_cap"),
                    _count),
    "gammas": _list_of(_real, _gamma_column, "a column name"),
    "l_list": _list_of(_spin, lambda l: round(2 * l), "a spin"),
    "z_list": _list_of(_real_in(-1.0, 1.0, "[-1, 1]")),
    "thresholds": _list_of(_real_in(math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0),
                                    "(0.5, 1)")),
    "seeds": _seeds, "state": _object, "strategy": _object, "mode": _mode,
}


def _held_reads(experiment: str, cfg: dict) -> int:
    """The reads a run of a checked cfg holds until write_outputs: one per
    primary step (fig1: per grid angle), arm and seed of a chunk, and one per
    seed of the list the CSV header names.  scaling holds none per step: its
    step_cap only bounds a search."""
    if experiment == "fig1":
        return cfg["theta_points"]
    if experiment == "scaling":
        return 0
    stochastic = experiment == "fig5" or cfg.get("mode") == "stochastic"
    spec = cfg.get("seeds", [])
    seeds = spec["count"] if isinstance(spec, dict) else len(spec)
    n = cfg["n_measure"] if stochastic or experiment == "fig4" else cfg["n_steps"]
    arms = {"fig3": 1 + len(cfg.get("gammas", ())), "fig4": 2, "fig5": 3}.get(experiment, 1)
    return (n + 1) * arms * (min(seeds, CHUNK) if stochastic else 1) + seeds


def resolve_seeds(spec) -> list[int]:
    """The seed list of a list or {base, count} that KEYS has checked."""
    if isinstance(spec, dict):
        base = spec.get("base", 0)
        return list(range(base, base + spec["count"]))
    return spec


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _construct(what: str, build, *args):
    """Call a constructor fed from the config: a parameter it rejects or lacks
    is a config error, a built state failing the density-matrix checks stays
    a numerical one."""
    try:
        return build(*args)
    except (ConfigError, DensityMatrixError):
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} is missing parameter {exc}") from exc
    except (TypeError, ValueError) as exc:
        msg = str(exc)  # it may quote a value whole, such as a 4000-digit k: keep both ends
        if len(msg) > 200:
            msg = f"{msg[:100]}...{msg[-100:]}"
        raise ConfigError(f"{what}: {msg}") from exc


def run_fig1(cfg: dict):
    """Exact selective rotation angles of a mixed-Dicke frame versus the
    closed-form prediction, over an inclination grid."""
    l = cfg["l"]
    ops = build_spin_operators(l)
    thetas = np.linspace(cfg["theta_start"], cfg["theta_stop"], cfg["theta_points"])

    def one(theta: float):
        rho = _construct("initial state", mixed_dicke_state,
                         l, cfg["k1"], cfg["k2"], cfg["p"], theta)
        frame = _construct("initial state", summarize_frame, rho, ops)

        def angle(outcome):  # NaN, so exit 3, for an impossible branch or one left unpolarized
            try:
                post = selective_channel(rho, cfg["z"], ops, outcome).post_state
                return frame_direction(post, ops)[2] - frame.theta
            except (OutcomeImpossible, UnpolarizedFrame):
                return math.nan

        exact = [angle(+1), angle(-1)]
        formula = selective_angles_partially_coherent(l, frame.r, cfg["z"], theta)
        return (theta, exact[0], exact[1], formula[0], formula[1],
                abs(exact[0] - formula[0]), abs(exact[1] - formula[1])), frame.r

    results = [one(theta) for theta in thetas]
    rows = [r for r, _ in results]
    r_value = results[0][1]
    over = sum(1 for row in rows for e, f in ((row[1], row[3]), (row[2], row[4]))
               if abs(f) >= abs(e))
    gaps = [abs(f - e) / abs(e) for row in rows for e, f in ((row[1], row[3]), (row[2], row[4]))
            if e != 0.0]
    columns = ["theta", "omega_plus_exact", "omega_minus_exact",
               "omega_plus_analytic", "omega_minus_analytic", "abs_err_plus", "abs_err_minus"]
    sidecar = {"r": r_value, "overestimate_fraction": over / (2 * len(rows)),
               "max_relative_gap": max(gaps) if gaps else None}
    return columns, rows, sidecar


def run_fig2(cfg: dict):
    """Polarization components of the frame under repeated invariant unitary
    interactions (the axis tilts out of the X-Z plane for generic gamma)."""
    l = cfg["l"]
    ops = build_spin_operators(l)
    rho0 = coherent_state(l, cfg["theta"])
    schedule = schedule_unitaries(cfg["n_steps"], cfg["z"], cfg["gamma"])
    run = run_average(rho0, schedule, ops)
    rows = [(int(step), *v) for step, v in zip(run.step_indices, run.mean_L / l)]
    return ["step", "Lx_over_l", "Ly_over_l", "Lz_over_l"], rows, {}


def run_fig3(cfg: dict):
    """Success probability under sequential measurements versus unitary
    interactions at the configured kick angles."""
    ops, rho0 = build_spin_operators(cfg["l"]), coherent_state(cfg["l"], cfg["theta"])
    n = cfg["n_steps"]

    def series(schedule):
        return run_average(rho0, schedule, ops).p_succ_series

    arms = [("p_succ_measurement", schedule_measurements(n, cfg["z"]))]
    for g in cfg["gammas"]:
        arms.append((_gamma_column(g), schedule_unitaries(n, cfg["z"], g)))
    curves = [series(schedule) for _, schedule in arms]
    rows = [tuple([step] + [float(curve[step]) for curve in curves]) for step in range(n + 1)]
    return ["step"] + [name for name, _ in arms], rows, {}


def run_fig4(cfg: dict):
    """Frame polarization trace with and without the antipolarized unitary
    kick after every k measurements (average evolution)."""
    l = cfg["l"]
    ops = build_spin_operators(l)
    rho0 = coherent_state(l, cfg["theta"])
    n = cfg["n_measure"]
    schedule = schedule_measurements(n, cfg["z"])
    unc, cor = (run_average(rho0, schedule, ops, strategy=strategy).mean_L / l
                for strategy in (None, UnitaryEveryK(cfg["k"], cfg["gamma"])))
    rows = [(i, unc[i][0], unc[i][2], cor[i][0], cor[i][2]) for i in range(n + 1)]
    start = cor[0]
    point_dev = np.hypot(cor[:, 0] - start[0], cor[:, 2] - start[2]).max()
    ang = np.arctan2(cor[:, 0], cor[:, 2])
    angle_dev = np.abs(ang - ang[0]).max()
    columns = ["step", "Lx_over_l_uncorrected", "Lz_over_l_uncorrected",
               "Lx_over_l_corrected", "Lz_over_l_corrected"]
    return columns, rows, {"corrected_max_point_deviation": float(point_dev),
                           "corrected_max_direction_deviation": float(angle_dev)}


def run_fig5(cfg: dict):
    """Seed-averaged success probability for the uncorrected run and the two
    unitary correction policies; corrective steps are not counted on the
    measurement axis."""
    ops, rho0 = build_spin_operators(cfg["l"]), coherent_state(cfg["l"], cfg["theta"])
    seeds = resolve_seeds(cfg["seeds"])
    n = cfg["n_measure"]
    strategies = [("uncorrected", None),
                  (f"unitary_every{cfg['k']}", UnitaryEveryK(cfg["k"], cfg["gamma"])),
                  ("after_each_plus", UnitaryAfterEachPlus(cfg["gamma"]))]
    stats = run_arm_statistics(rho0, n, cfg["z"], [strat for _, strat in strategies], seeds, ops)
    columns = ["n_measurements"] + [f"p_succ_{name}" for name, _ in strategies] \
        + [f"p_succ_{name}_stderr" for name, _ in strategies]
    rows = [tuple([step] + [float(st.p_succ[step]) for st in stats]
                  + [float(st.p_succ_stderr[step]) for st in stats]) for step in range(n + 1)]
    sidecar = {"n_seeds": len(seeds),
               "final_p_succ": {name: float(st.p_succ[-1])
                                for (name, _), st in zip(strategies, stats)}}
    return columns, rows, sidecar


def run_scaling(cfg: dict):
    """Usable lifetime (measurements until p_succ crosses a threshold) as a
    function of l, with a log-log exponent fit per (z, threshold); one pass
    per (l, z) finds every threshold's lifetime."""

    def one(l, z, rho0, ops):
        try:
            lives = usable_lifetimes(rho0, z, ops, cfg["thresholds"], None,
                                     step_cap=cfg["step_cap"])
        except ThresholdOutOfRange as exc:
            raise ConfigError(f"scaling at l = {l}, z = {z}: {exc}") from exc
        return [cfg["step_cap"] if life is None else life for life in lives]

    # each l's start is built once; a threshold's range depends on l alone, so this loop
    # order meets the same first ThresholdOutOfRange as one over z first
    lives = {}
    for l in cfg["l_list"]:
        rho0, ops = coherent_state(l, cfg["theta"]), build_spin_operators(l)
        lives.update({(l, z): one(l, z, rho0, ops) for z in cfg["z_list"]})
        del rho0  # freed before the next l's start is built
    rows = [(l, z, thr, lives[l, z][i]) for z in cfg["z_list"]
            for i, thr in enumerate(cfg["thresholds"]) for l in cfg["l_list"]]
    fits = []
    for z in cfg["z_list"]:
        for thr in cfg["thresholds"]:
            pts = [(l, life) for (l, zz, tt, life) in rows if zz == z and tt == thr]
            fit = {"z": z, "threshold": thr,
                   "lifetimes": {str(l): life for l, life in pts}}
            if len(pts) >= 2:
                ls = np.log([p[0] for p in pts])
                ns = np.log([p[1] for p in pts])
                fit["exponent"] = float(np.polyfit(ls, ns, 1)[0])
            fits.append(fit)
    return ["l", "z", "threshold", "lifetime"], rows, {"fits": fits}


def _build_custom_state(cfg: dict, ops):
    state = dict(cfg["state"])
    family = state.pop("family", "coherent")
    l, theta = cfg["l"], cfg["theta"]
    if family == "coherent":
        rho = coherent_state(l, theta)
    elif family == "rotated_dicke":
        rho = rotated_dicke_state(l, state.pop("k"), theta)
    elif family == "mixed_dicke":
        rho = mixed_dicke_state(l, state.pop("k1"), state.pop("k2"),
                                _real("p", state.pop("p")), theta)
    elif family == "thermal":
        rho = thermal_partial_coherent(l, _real("r", state.pop("r")), theta)
    elif family == "quadratic_bloch":
        spec = QuadraticBlochSpec(np.asarray(state.pop("R"), dtype=float),
                                  np.asarray(state.pop("T"), dtype=float))
        rho = quadratic_bloch_state(l, spec)
    else:
        raise ConfigError(f"unknown state family {_echo(family)}")
    _require(not state, f"unknown keys for state family {family!r}: {_echo(sorted(state))}")
    return rho


def _parse_strategy(spec: dict, gamma: float, theta0: float):
    """The strategy object of a spec; gamma is the kick angle a spec without
    one gets, theta0 the conditional target a spec without theta_known (or
    with null) gets."""
    spec = dict(spec)
    kind = spec.pop("kind", "none")
    if kind == "none":
        strategy = None
    elif kind == "alternating":
        strategy = AlternatingAntipolarized()
    elif kind == "unitary_every_k":
        strategy = _construct("strategy", UnitaryEveryK, spec.pop("k", 2),
                              _real("gamma", spec.pop("gamma", gamma)))
    elif kind == "unitary_after_each_plus":
        strategy = _construct("strategy", UnitaryAfterEachPlus,
                              _real("gamma", spec.pop("gamma", gamma)))
    elif kind == "conditional":  # theta_known null is absent
        theta_known = spec.pop("theta_known", None)
        strategy = _construct("strategy", ConditionalTuned,
                              theta0 if theta_known is None else _real("theta_known", theta_known))
    else:
        raise ConfigError(f"unknown strategy kind {_echo(kind)}")
    _require(not spec, f"unknown keys for strategy kind {kind!r}: {_echo(sorted(spec))}")
    return strategy


def run_custom(cfg: dict):
    """Generic run: any state family, average or stochastic evolution."""
    ops = build_spin_operators(cfg["l"])
    rho0 = _construct("initial state", _build_custom_state, cfg, ops)
    _, _, theta0 = _construct("initial state", frame_direction, rho0, ops)
    strat = _parse_strategy(cfg["strategy"], cfg["gamma"], theta0)
    if cfg["mode"] == "average":
        schedule = schedule_measurements(cfg["n_steps"], cfg["z"])
        try:
            run = run_average(rho0, schedule, ops, record_every=cfg["record_every"],
                              strategy=strat)
        except NoAverageEvolution as exc:
            raise ConfigError(f"mode 'average': {exc}") from exc
        r = np.linalg.norm(run.mean_L, axis=1) / ops.l_value
        rows = [(int(step), *(v / cfg["l"]), *read)
                for step, v, *read in zip(run.step_indices, run.mean_L, r, run.theta_series,
                                          run.p_succ_series)]
        return ["step", "Lx_over_l", "Ly_over_l", "Lz_over_l", "r", "theta", "p_succ"], rows, {}
    seeds = resolve_seeds(cfg["seeds"])
    st = run_ensemble_statistics(rho0, cfg["n_measure"], cfg["z"], strat, seeds, ops)
    rows = [(step, float(st.theta[step]), float(st.theta_stderr[step]),
             float(st.p_succ[step]), float(st.p_succ_stderr[step]))
            for step in range(len(st.p_succ))]
    sidecar = {"n_seeds": len(seeds), "plus_fraction_mean": float(st.plus_fraction.mean())}
    return ["step", "theta_mean", "theta_stderr", "p_succ_mean", "p_succ_stderr"], rows, sidecar


RUNNERS = {
    "fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4,
    "fig5": run_fig5, "scaling": run_scaling, "custom": run_custom,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):  # a bool is an int
        return str(int(value))
    return format(float(value), ".17g")


def config_hash(cfg: dict) -> str:
    payload = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def sidecar_path(config_path: str, out_path: str) -> str:
    """The JSON sidecar next to the CSV out_path, once checked that no run overwrites
    its config or one output with the other, or finishes with nowhere to write."""
    side_path = os.path.splitext(out_path)[0] + ".json"
    _require(len({os.path.realpath(p) for p in (config_path, out_path, side_path)}) == 3,
             f"the config {config_path!r}, the CSV {out_path!r} and the sidecar "
             f"{side_path!r} must be three different files")
    for name, path in (("CSV", out_path), ("sidecar", side_path)):
        _require(not os.path.isdir(path), f"the {name} path {path!r} is a directory")
    _require(os.path.isdir(os.path.dirname(out_path) or "."),
             f"the directory of the CSV path {out_path!r} does not exist")
    return side_path


def write_outputs(out_path: str, side_path: str, experiment: str, cfg: dict, columns, rows,
                  sidecar):
    for i, row in enumerate(rows):
        for name, value in zip(columns, row):
            if not math.isfinite(value):
                reason = " (the frame became unpolarized, so theta is undefined)" \
                    if name.startswith("theta") else ""
                raise NumericalInvariantError(f"output {name} is {value} in data row {i}{reason}")
    seeds = resolve_seeds(cfg["seeds"]) if "seeds" in cfg else None
    comments = [
        f"# qrf-sim version: {__version__}",
        f"# experiment: {experiment}",
        f"# config-hash: sha256:{config_hash(cfg)}",
        f"# rng: {RNG_ALGORITHM}",
        f"# seeds: {','.join(map(str, seeds)) if seeds else 'none'}",
    ]
    payload = {
        "experiment": experiment,
        "version": __version__,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "rng": RNG_ALGORITHM,
        "summary": sidecar,
    }
    path = out_path  # the file being written, named if the write fails
    try:
        with open(out_path, "w", newline="") as fh:
            for line in comments:
                fh.write(line + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        path = side_path
        with open(side_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrf-sim",
        description="Reference-frame dynamics experiments (CSV + JSON sidecar outputs)",
    )
    parser.add_argument("experiment", choices=sorted(DEFAULTS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output CSV path (default <experiment>.csv)")
    # --threads stays because perfbench/worker.py passes --threads 1
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and validated; runs are "
                             "single-threaded")
    parser.error = _usage_error  # one config-error line and exit 2, not a usage block
    return parser


def _usage_error(message: str):
    raise ConfigError(" ".join(message.split()))  # one line, whatever the arguments hold


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _require(args.threads >= 1, f"--threads must be a positive integer, got {args.threads}")
        out = args.out or f"{args.experiment}.csv"
        side = sidecar_path(args.config, out)
        cfg, physics = load_config(args.experiment, args.config)
        columns, rows, sidecar = RUNNERS[args.experiment](physics)
        write_outputs(out, side, args.experiment, cfg, columns, rows, sidecar)
    except ConfigError as exc:  # a failed write included
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except (NumericalInvariantError, DensityMatrixError) as exc:
        print(f"numerical-invariant: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out} and {side}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
