"""Configuration-driven experiment runner.

Usage:

    qrf-sim <experiment> --config <path> [--out <path>] [--seeds a,b,c]
            [--gamma x] [--threads n]

Experiments: fig1 fig2 fig3 fig4 fig5 scaling custom.  Configs are single
JSON documents; unknown keys are rejected (they are usually typos in physics
parameters).  All angles are radians.  Every output CSV embeds the config
hash, RNG identifier and seed list as '#' header comments and is
byte-reproducible for a fixed config; a JSON summary sidecar is written next
to it.  Exit codes: 0 success, 2 config error, 3 numerical-invariant
violation during the run (including an output value that is not finite).
--threads is accepted and must be a positive integer, but changes nothing:
every run is single-threaded and its bytes never depended on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .channels import selective_channel
from .metrics import ThresholdOutOfRange, summarize_frame, usable_lifetime
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
    RNG_ALGORITHM,
    AlternatingAntipolarized,
    ConditionalTuned,
    LifetimeCapExceeded,
    NoAverageEvolution,
    NumericalInvariantError,
    UnitaryAfterEachPlus,
    UnitaryEveryK,
    run_average,
    run_ensemble_statistics,
    schedule_measurements,
    schedule_unitaries,
)

PI = float(np.pi)


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


def load_config(experiment: str, path: str, overrides: dict) -> dict:
    if experiment not in DEFAULTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {sorted(DEFAULTS)}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    declared = raw.pop("experiment", experiment)
    if declared != experiment:
        raise ConfigError(f"config declares experiment {declared!r} but {experiment!r} "
                          "was requested")
    allowed = set(DEFAULTS[experiment])
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)} "
                          f"(allowed: {sorted(allowed)})")
    config = {**DEFAULTS[experiment], **raw, **{k: v for k, v in overrides.items() if k in allowed}}
    _validate(experiment, config)
    return config


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _valid_l(l):
    _require(isinstance(l, (int, float)) and l >= 0.5 and abs(2 * l - round(2 * l)) < 1e-12,
             f"l must be a positive integer or half-integer, got {l!r}")


def _valid_z(z):
    _require(isinstance(z, (int, float)) and -1.0 <= z <= 1.0,
             f"z must lie in [-1, 1], got {z!r}")


def _check_leaves(value, where: str):
    # no config key takes a bool (json true passes isinstance(x, int)), and
    # json accepts NaN and Infinity, which no parameter can use
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _check_leaves(item, f"{where}[{key}]" if where else key)
        return
    _require(not isinstance(value, bool), f"{where} must not be a boolean, got {value!r}")
    _require(not isinstance(value, float) or math.isfinite(value),
             f"{where} must be finite, got {value!r}")


def _validate(experiment: str, cfg: dict):
    _check_leaves(cfg, "")
    # a key whose default is a number, or a list of numbers, takes the same
    for key, default in DEFAULTS[experiment].items():
        value = cfg[key]
        if isinstance(default, (int, float)):
            _require(isinstance(value, (int, float)), f"{key} must be a number, got {value!r}")
        elif isinstance(default, list):
            _require(isinstance(value, list) and value
                     and all(isinstance(v, (int, float)) for v in value),
                     f"{key} must be a nonempty list of numbers, got {value!r}")
    if "seeds" in cfg:
        resolve_seeds(cfg["seeds"])
    if "l" in cfg:
        _valid_l(cfg["l"])
    if "z" in cfg:
        _valid_z(cfg["z"])
    if "theta" in cfg:
        _require(0.0 <= cfg["theta"] <= PI, f"theta must lie in [0, pi], got {cfg['theta']!r}")
    for key in ("n_steps", "n_measure", "theta_points", "k", "record_every", "step_cap"):
        if key in cfg:
            _require(isinstance(cfg[key], int) and cfg[key] >= 1,
                     f"{key} must be a positive integer, got {cfg[key]!r}")
    if experiment == "fig1":
        _require(0.0 <= cfg["p"] <= 1.0, f"p must lie in [0, 1], got {cfg['p']!r}")
        _require(0.0 < cfg["theta_start"] < cfg["theta_stop"] < PI,
                 "theta grid must satisfy 0 < start < stop < pi")
    if experiment == "scaling":
        for l in cfg["l_list"]:
            _valid_l(l)
        for z in cfg["z_list"]:
            _valid_z(z)
        for t in cfg["thresholds"]:
            _require(0.5 < t < 1.0, f"threshold must lie in (0.5, 1), got {t!r}")


def resolve_seeds(spec) -> list[int]:
    """A nonempty seed list from a list or {base, count}; Philox keys are
    non-negative.  Bools are rejected before this by _check_leaves."""
    if isinstance(spec, dict) and set(spec) <= {"base", "count"}:
        base, count = spec.get("base", 0), spec.get("count")
        _require(isinstance(base, int) and isinstance(count, int) and base >= 0 and count >= 1,
                 f"seeds needs integers base >= 0 and count >= 1, got {spec!r}")
        return list(range(base, base + count))
    _require(isinstance(spec, list) and spec and all(isinstance(s, int) and s >= 0 for s in spec),
             "seeds must be a nonempty list of non-negative integers or {base, count}")
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
        raise ConfigError(f"{what}: {exc}") from exc


def run_fig1(cfg: dict):
    """Exact selective rotation angles of a mixed-Dicke frame versus the
    closed-form prediction, over an inclination grid."""
    l = cfg["l"]
    ops = build_spin_operators(l)
    thetas = np.linspace(cfg["theta_start"], cfg["theta_stop"], cfg["theta_points"])

    def one(theta: float):
        rho = _construct("initial state", mixed_dicke_state,
                         l, cfg["k1"], cfg["k2"], cfg["p"], theta)
        frame = summarize_frame(rho, ops)
        exact = []
        for outcome in (+1, -1):
            post = selective_channel(rho, cfg["z"], ops, outcome).post_state
            exact.append(summarize_frame(post, ops).theta - frame.theta)
        formula = selective_angles_partially_coherent(l, frame.r, cfg["z"], theta)
        return (theta, exact[0], exact[1], formula[0], formula[1],
                abs(exact[0] - formula[0]), abs(exact[1] - formula[1])), frame.r

    results = [one(theta) for theta in thetas]
    rows = [r for r, _ in results]
    r_value = results[0][1]
    over = sum(1 for row in rows for e, f in ((row[1], row[3]), (row[2], row[4]))
               if abs(f) >= abs(e))
    gaps = [abs(f - e) / abs(e) for row in rows for e, f in ((row[1], row[3]), (row[2], row[4]))]
    columns = ["theta", "omega_plus_exact", "omega_minus_exact",
               "omega_plus_analytic", "omega_minus_analytic", "abs_err_plus", "abs_err_minus"]
    sidecar = {"r": r_value, "overestimate_fraction": over / (2 * len(rows)),
               "max_relative_gap": max(gaps)}
    return columns, rows, sidecar


def run_fig2(cfg: dict):
    """Polarization components of the frame under repeated invariant unitary
    interactions (the axis tilts out of the X-Z plane for generic gamma)."""
    l = cfg["l"]
    ops = build_spin_operators(l)
    rho0 = coherent_state(l, cfg["theta"])
    schedule = schedule_unitaries(cfg["n_steps"], cfg["z"], cfg["gamma"])
    run = run_average(rho0, schedule, ops)
    rows = [(int(step), s.mean_L[0] / l, s.mean_L[1] / l, s.mean_L[2] / l)
            for step, s in zip(run.step_indices, run.summaries)]
    return ["step", "Lx_over_l", "Ly_over_l", "Lz_over_l"], rows, {}


def run_fig3(cfg: dict):
    """Success probability under sequential measurements versus unitary
    interactions at the configured kick angles."""
    l = cfg["l"]
    ops = build_spin_operators(l)
    rho0 = coherent_state(l, cfg["theta"])
    n = cfg["n_steps"]

    def series(schedule):
        return run_average(rho0, schedule, ops).p_succ_series

    arms = [("p_succ_measurement", schedule_measurements(n, cfg["z"]))]
    for g in cfg["gammas"]:
        arms.append((f"p_succ_unitary_gamma_{g:.6g}", schedule_unitaries(n, cfg["z"], g)))
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
    unc, cor = (np.array([s.mean_L / l for s in run_average(rho0, schedule, ops,
                                                            strategy=strategy).summaries])
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
    l = cfg["l"]
    ops = build_spin_operators(l)
    rho0 = coherent_state(l, cfg["theta"])
    seeds = resolve_seeds(cfg["seeds"])
    n = cfg["n_measure"]
    strategies = [("uncorrected", None),
                  (f"unitary_every{cfg['k']}", UnitaryEveryK(cfg["k"], cfg["gamma"])),
                  ("after_each_plus", UnitaryAfterEachPlus(cfg["gamma"]))]
    stats = [run_ensemble_statistics(rho0, n, cfg["z"], strat, seeds, ops)
             for _, strat in strategies]
    columns = ["n_measurements"] + [f"p_succ_{name}" for name, _ in strategies] \
        + [f"p_succ_{name}_stderr" for name, _ in strategies]
    rows = []
    for step in range(n + 1):
        rows.append(tuple([step] + [float(st.p_succ[step]) for st in stats]
                          + [float(st.p_succ_stderr[step]) for st in stats]))
    sidecar = {"n_seeds": len(seeds),
               "final_p_succ": {name: float(st.p_succ[-1])
                                for (name, _), st in zip(strategies, stats)}}
    return columns, rows, sidecar


def run_scaling(cfg: dict):
    """Usable lifetime (measurements until p_succ crosses a threshold) as a
    function of l, with a log-log exponent fit per (z, threshold)."""
    combos = [(l, z, thr) for z in cfg["z_list"] for thr in cfg["thresholds"]
              for l in cfg["l_list"]]

    def one(combo):
        l, z, thr = combo
        ops = build_spin_operators(l)
        rho0 = coherent_state(l, cfg["theta"])
        try:
            life = usable_lifetime(rho0, z, ops, thr, None, step_cap=cfg["step_cap"])
        except LifetimeCapExceeded:
            life = cfg["step_cap"]
        except ThresholdOutOfRange as exc:
            raise ConfigError(f"scaling at l = {l}, z = {z}: {exc}") from exc
        return (l, z, thr, life)

    rows = [one(combo) for combo in combos]
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
    _require(isinstance(cfg["state"], dict), f"state must be an object, got {cfg['state']!r}")
    state = dict(cfg["state"])
    family = state.pop("family", "coherent")
    l, theta = cfg["l"], cfg["theta"]
    if family == "coherent":
        rho = coherent_state(l, theta)
    elif family == "rotated_dicke":
        rho = rotated_dicke_state(l, state.pop("k"), theta)
    elif family == "mixed_dicke":
        rho = mixed_dicke_state(l, state.pop("k1"), state.pop("k2"), state.pop("p"), theta)
    elif family == "thermal":
        rho = thermal_partial_coherent(l, state.pop("r"), theta)
    elif family == "quadratic_bloch":
        spec = QuadraticBlochSpec(np.asarray(state.pop("R"), dtype=float),
                                  np.asarray(state.pop("T"), dtype=float))
        rho = quadratic_bloch_state(l, spec)
    else:
        raise ConfigError(f"unknown state family {family!r}")
    _require(not state, f"unknown keys for state family {family!r}: {sorted(state)}")
    return rho


def _parse_strategy(spec: dict, gamma: float, theta0: float):
    """The strategy object of a spec; gamma is the kick angle a spec without
    one gets, theta0 the conditional target a spec without theta_known gets."""
    _require(isinstance(spec, dict), f"strategy must be an object, got {spec!r}")
    spec = dict(spec)
    kind = spec.pop("kind", "none")
    if kind == "none":
        strategy = None
    elif kind == "alternating":
        strategy = AlternatingAntipolarized()
    elif kind == "unitary_every_k":
        strategy = _construct("strategy", UnitaryEveryK, spec.pop("k", 2), spec.pop("gamma", gamma))
    elif kind == "unitary_after_each_plus":
        strategy = _construct("strategy", UnitaryAfterEachPlus, spec.pop("gamma", gamma))
    elif kind == "conditional":
        strategy = _construct("strategy", ConditionalTuned, spec.pop("theta_known", theta0))
    else:
        raise ConfigError(f"unknown strategy kind {kind!r}")
    _require(not spec, f"unknown keys for strategy kind {kind!r}: {sorted(spec)}")
    return strategy


def run_custom(cfg: dict):
    """Generic run: any state family, average or stochastic evolution."""
    ops = build_spin_operators(cfg["l"])
    rho0 = _construct("initial state", _build_custom_state, cfg, ops)
    theta0 = _construct("initial state", summarize_frame, rho0, ops).theta
    strat = _parse_strategy(cfg["strategy"], cfg["gamma"], theta0)
    l = cfg["l"]
    if cfg["mode"] == "average":
        schedule = schedule_measurements(cfg["n_steps"], cfg["z"])
        try:
            run = run_average(rho0, schedule, ops, record_every=cfg["record_every"],
                              strategy=strat)
        except NoAverageEvolution as exc:
            raise ConfigError(f"mode 'average': {exc}") from exc
        rows = [(int(step), s.mean_L[0] / l, s.mean_L[1] / l, s.mean_L[2] / l,
                 s.r, s.theta, float(p))
                for step, s, p in zip(run.step_indices, run.summaries, run.p_succ_series)]
        return ["step", "Lx_over_l", "Ly_over_l", "Lz_over_l", "r", "theta", "p_succ"], rows, {}
    if cfg["mode"] == "stochastic":
        seeds = resolve_seeds(cfg["seeds"])
        st = run_ensemble_statistics(rho0, cfg["n_measure"], cfg["z"], strat, seeds, ops)
        rows = [(step, float(st.theta[step]), float(st.theta_stderr[step]),
                 float(st.p_succ[step]), float(st.p_succ_stderr[step]))
                for step in range(len(st.p_succ))]
        sidecar = {"n_seeds": len(seeds),
                   "plus_fraction_mean": float(st.plus_fraction.mean())}
        return ["step", "theta_mean", "theta_stderr", "p_succ_mean", "p_succ_stderr"], rows, sidecar
    raise ConfigError(f"mode must be 'average' or 'stochastic', got {cfg['mode']!r}")


RUNNERS = {
    "fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4,
    "fig5": run_fig5, "scaling": run_scaling, "custom": run_custom,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def config_hash(cfg: dict) -> str:
    payload = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def write_outputs(out_path: str, experiment: str, cfg: dict, columns, rows, sidecar):
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
    with open(out_path, "w", newline="") as fh:
        for line in comments:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    side_path = os.path.splitext(out_path)[0] + ".json"
    payload = {
        "experiment": experiment,
        "version": __version__,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "rng": RNG_ALGORITHM,
        "summary": sidecar,
    }
    with open(side_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return side_path


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
    parser.add_argument("--seeds", default=None, help="comma-separated seed list override")
    parser.add_argument("--gamma", type=float, default=None, help="kick-angle override (radians)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and validated; runs are "
                             "single-threaded")
    return parser


def _flag_overrides(args) -> dict:
    """Config overrides from the command-line flags; a flag that sets no key
    of the experiment is an error rather than silently ignored."""
    keys = DEFAULTS[args.experiment]
    overrides: dict = {}
    if args.seeds is not None:
        _require("seeds" in keys, f"--seeds does not apply to {args.experiment}: it has no seeds")
        try:
            overrides["seeds"] = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            raise ConfigError("--seeds must be comma-separated integers") from None
    if args.gamma is not None:
        _require("gamma" in keys or "gammas" in keys,
                 f"--gamma does not apply to {args.experiment}: it has no kick angle")
        overrides["gamma"] = args.gamma
        overrides["gammas"] = [args.gamma]
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _require(args.threads >= 1, f"--threads must be a positive integer, got {args.threads}")
        cfg = load_config(args.experiment, args.config, _flag_overrides(args))
        columns, rows, sidecar = RUNNERS[args.experiment](cfg)
        out = args.out or f"{args.experiment}.csv"
        side = write_outputs(out, args.experiment, cfg, columns, rows, sidecar)
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except (NumericalInvariantError, DensityMatrixError) as exc:
        print(f"numerical-invariant: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out} and {side}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
