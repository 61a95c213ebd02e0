import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrf_sim import channels, cli, kernels, metrics, spin, trajectory
from qrf_sim.channels import (
    average_channel,
    selective_channel_tensor,
    unitary_channel,
    unitary_channel_tensor,
)
from qrf_sim.cli import main
from qrf_sim.kernels import to_bands
from qrf_sim.metrics import p_succ
from qrf_sim.spin import build_spin_operators, coherent_state

from helpers import checked_average_steps, inject_after


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    comments, header, rows = [], None, []
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def run(tmp_path, experiment, payload, extra=()):
    cfg = write_config(tmp_path, payload)
    out = str(tmp_path / f"{experiment}.csv")
    rc = main([experiment, "--config", cfg, "--out", out, *extra])
    return rc, out


def test_fig2_columns_and_header_comments(tmp_path):
    rc, out = run(tmp_path, "fig2", {"n_steps": 10})
    assert rc == 0
    comments, header, rows = read_csv(out)
    assert header == ["step", "Lx_over_l", "Ly_over_l", "Lz_over_l"]
    assert len(rows) == 11
    joined = "\n".join(comments)
    assert "config-hash: sha256:" in joined
    assert "rng: numpy-philox4x64" in joined
    assert "seeds: none" in joined
    sidecar = json.load(open(out[:-4] + ".json"))
    assert sidecar["experiment"] == "fig2"
    assert sidecar["config"]["n_steps"] == 10


def test_fig2_zero_kick_is_constant_and_default_tilts(tmp_path):
    rc, out = run(tmp_path, "fig2", {"n_steps": 8}, extra=("--gamma", "0"))
    _, _, rows = read_csv(out)
    cols = np.array(rows, dtype=float)
    assert np.abs(cols[:, 1] - cols[0, 1]).max() < 1e-14
    assert np.abs(cols[:, 2]).max() < 1e-12
    rc, out = run(tmp_path, "fig2", {"n_steps": 8})
    _, _, rows = read_csv(out)
    cols = np.array(rows, dtype=float)
    assert np.abs(cols[1:, 2]).max() > 1e-3  # <Ly> departs from zero


def test_fig2_per_step_rotation_shrinks_with_l(tmp_path):
    def first_step_angle(l):
        rc, out = run(tmp_path, "fig2", {"l": l, "n_steps": 1})
        assert rc == 0
        _, _, rows = read_csv(out)
        v0 = np.array(rows[0][1:], dtype=float)
        v1 = np.array(rows[1][1:], dtype=float)
        cosang = v0 @ v1 / np.linalg.norm(v0) / np.linalg.norm(v1)
        return np.arccos(np.clip(cosang, -1, 1))

    ratio = first_step_angle(16) / first_step_angle(160)
    assert 8.0 < ratio < 12.0


def test_fig3_measurement_column_decreasing(tmp_path):
    rc, out = run(tmp_path, "fig3", {"n_steps": 60, "gammas": [0.0, np.pi]})
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header[0] == "step"
    assert header[1] == "p_succ_measurement"
    cols = np.array(rows, dtype=float)
    meas = cols[:, 1]
    assert meas[0] == pytest.approx(0.5 * (1 + 16 / 16.5), abs=1e-12)
    assert np.all(np.diff(meas) < 0)
    gamma0 = cols[:, header.index("p_succ_unitary_gamma_0")]
    assert np.abs(gamma0 - gamma0[0]).max() < 1e-12


def test_fig4_corrected_stays_on_direction(tmp_path):
    rc, out = run(tmp_path, "fig4", {"n_measure": 120})
    assert rc == 0
    sidecar = json.load(open(out[:-4] + ".json"))
    assert sidecar["summary"]["corrected_max_direction_deviation"] <= 0.05
    _, header, rows = read_csv(out)
    cols = np.array(rows, dtype=float)
    # uncorrected trace heads from (1, 0) toward (0, 1)
    assert cols[0, 1] == pytest.approx(1.0, abs=1e-9)
    lx_unc = cols[:, header.index("Lx_over_l_uncorrected")]
    lz_unc = cols[:, header.index("Lz_over_l_uncorrected")]
    assert lx_unc[-1] < 0.35
    assert lz_unc[-1] > 0.55


def test_fig4_point_deviation_shrinks_quadratically(tmp_path):
    # the residual motion of the corrected trace is diffusion-dominated,
    # so doubling l shrinks it roughly fourfold
    devs = {}
    for l in (16, 32):
        rc, out = run(tmp_path, "fig4", {"l": l, "n_measure": 200})
        assert rc == 0
        devs[l] = json.load(open(out[:-4] + ".json"))["summary"][
            "corrected_max_point_deviation"]
    assert 3.0 <= devs[16] / devs[32] <= 5.0


def test_fig5_row_zero_equal_and_correction_dominates(tmp_path):
    rc, out = run(tmp_path, "fig5",
                  {"n_measure": 80, "seeds": {"base": 0, "count": 120}},
                  extra=("--threads", "2"))
    assert rc == 0
    _, header, rows = read_csv(out)
    cols = np.array(rows, dtype=float)
    p_unc = cols[:, header.index("p_succ_uncorrected")]
    p_every = cols[:, header.index("p_succ_unitary_every2")]
    p_plus = cols[:, header.index("p_succ_after_each_plus")]
    assert p_unc[0] == p_every[0] == p_plus[0]
    assert p_every[-1] > p_unc[-1]
    assert p_plus[-1] > p_unc[-1]
    stderr = cols[:, header.index("p_succ_uncorrected_stderr")]
    assert np.all(stderr[1:] > 0)


def test_scaling_single_l_omits_exponent(tmp_path):
    rc, out = run(tmp_path, "scaling",
                  {"l_list": [8], "z_list": [1.0], "thresholds": [0.9]})
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header == ["l", "z", "threshold", "lifetime"]
    assert len(rows) == 1
    sidecar = json.load(open(out[:-4] + ".json"))
    assert "exponent" not in sidecar["summary"]["fits"][0]
    assert sidecar["summary"]["fits"][0]["lifetimes"]["8"] == int(rows[0][3])


def test_scaling_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # only a threshold out of range is the config's fault (exit 2)
    def failing(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "usable_lifetimes", failing)
    with pytest.raises(ValueError, match="internal fault"):
        run(tmp_path, "scaling", {"l_list": [8], "z_list": [1.0], "thresholds": [0.9]})


def test_scaling_steps_each_l_and_z_once(tmp_path, monkeypatch):
    # one pass per (l, z) steps the longer lifetime, rounded up to a whole block
    steps, evolve = [], trajectory._evolve

    def counting(*args, **kwargs):
        steps.append(0)
        for v, state, log in evolve(*args, **kwargs):
            steps[-1] += len(v)
            yield v, state, log

    monkeypatch.setattr(trajectory, "_evolve", counting)
    rc, out = run(tmp_path, "scaling",
                  {"l_list": [8, 16], "z_list": [0.0, 1.0], "thresholds": [0.9, 0.85]})
    assert rc == 0
    longest = {}
    for l, z, _, life in read_csv(out)[2]:
        longest[l, z] = max(longest.get((l, z), 0), int(life))
    block = trajectory.STEP_BLOCK  # one band array at l <= 16 fills a whole block
    order = sorted(longest, key=lambda lz: float(lz[0]))  # l by l, z in config order
    assert steps == [-(-longest[lz] // block) * block for lz in order]


def test_scaling_threshold_out_of_range_names_its_l_and_z(tmp_path, capsys):
    # 0.98 lies below p_succ(rho0) = 0.9961 at l = 64 and above 0.9706 at l = 8
    rc, _ = run(tmp_path, "scaling",
                {"l_list": [64, 8], "z_list": [0.5], "thresholds": [0.9, 0.98]})
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: scaling at l = 8, z = 0.5: ")
    assert err[0].endswith("got 0.98")


def test_runs_build_no_dense_spin_operator(tmp_path):
    spin._build_spin_operators.cache_clear()
    for experiment, payload in [
            ("fig2", {"l": 5, "n_steps": 20}), ("fig4", {"l": 5, "n_measure": 20}),
            ("fig5", {"l": 5, "n_measure": 20, "seeds": {"base": 0, "count": 3}}),
            ("scaling", {"l_list": [5, 6], "z_list": [1.0], "thresholds": [0.9]})]:
        assert run(tmp_path, experiment, payload)[0] == 0
    for l in (5, 6):
        assert not {"Lx", "Ly", "Lz", "Lplus", "Lminus"} & set(vars(build_spin_operators(l)))


def test_byte_reproducibility_and_thread_invariance(tmp_path):
    cfg = {"n_measure": 25, "seeds": {"base": 3, "count": 12}}
    rc1, out1 = run(tmp_path, "fig5", cfg)
    data1 = open(out1).read()
    rc2, out2 = run(tmp_path, "fig5", cfg)
    assert open(out2).read() == data1
    rc3, out3 = run(tmp_path, "fig5", cfg, extra=("--threads", "3"))
    assert open(out3).read() == data1


def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each config in a fresh process, with OpenBLAS left to pick its thread
    # count and with one thread: the CSV and sidecar bytes must not change
    cases = [("fig5", {"n_measure": 20, "seeds": {"base": 0, "count": 300}}),
             ("fig3", {"n_steps": 100}),
             ("custom", {"n_steps": 100, "strategy": {"kind": "unitary_every_k", "k": 2}}),
             ("scaling", {"l_list": [8, 64], "z_list": [0.0, 1.0], "thresholds": [0.9]}),
             ("custom", {"mode": "stochastic", "n_measure": 50, "seeds": {"base": 0, "count": 20},
                         "strategy": {"kind": "conditional"}})]
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    outputs = {}
    for threads in (None, "1"):
        run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
        for i, (experiment, payload) in enumerate(cases):
            cfg = write_config(tmp_path, payload, f"{experiment}-{i}.json")
            out = tmp_path / f"{experiment}-{i}-{threads}.csv"
            subprocess.run([sys.executable, "-m", "qrf_sim.cli", experiment, "--config", cfg,
                            "--out", str(out)], env=run_env, check=True, capture_output=True,
                           timeout=120)
            outputs[i, threads] = (out.read_bytes(), out.with_suffix(".json").read_bytes())
    for i, (experiment, payload) in enumerate(cases):
        assert outputs[i, None] == outputs[i, "1"], (experiment, payload)


BLOCK_CASES = {
    kind: ("custom", {"mode": "stochastic", "l": 4, "n_measure": 40, "strategy": {"kind": kind},
                      "seeds": {"base": 0, "count": 6}})
    for kind in ("conditional", "unitary_after_each_plus")}
BLOCK_CASES["fig5"] = ("fig5", {"n_measure": 20, "seeds": {"base": 0, "count": 300}})


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_bytes_do_not_depend_on_the_block_length(tmp_path, monkeypatch, case):
    # blocks of one step and the default blocks write the same CSV and sidecar
    experiment, payload = BLOCK_CASES[case]
    outputs = []
    for setting in ({}, {"STEP_BLOCK": 1}, {"BLOCK_BYTES": 1}):
        with monkeypatch.context() as patch:
            for name, value in setting.items():
                patch.setattr(trajectory, name, value)
            rc, out = run(tmp_path, experiment, payload)
        assert rc == 0
        outputs.append((Path(out).read_bytes(), Path(out).with_suffix(".json").read_bytes()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


DTYPE_CASES = [
    ("fig1", {"l": 6, "k1": 1, "k2": 4, "theta_points": 3}),
    ("fig2", {"l": 6, "n_steps": 30}),
    ("fig3", {"l": 6, "n_steps": 30}),
    ("fig4", {"l": 6, "n_measure": 30}),
    ("fig5", {"l": 6, "n_measure": 30, "seeds": {"base": 0, "count": 6}}),
    ("scaling", {"l_list": [3, 4], "thresholds": [0.9]}),
] + [("custom", {"l": 4, "n_steps": 30, "strategy": {"kind": kind}})
     for kind in ("none", "alternating", "unitary_every_k")] + [
    ("custom", {"mode": "stochastic", "l": 4, "n_measure": 30, "seeds": {"base": 0, "count": 6},
                "strategy": {"kind": kind}})
    for kind in ("none", "alternating", "unitary_every_k", "unitary_after_each_plus",
                 "conditional")]


def test_bytes_do_not_depend_on_the_dtype(tmp_path, monkeypatch):
    # real band arrays and factors, and every band array and factor held
    # complex, write the same CSV and sidecar
    def complex_bands(rho):
        return kernels.to_bands(rho).astype(np.complex128)

    def complex_factors(*args):
        return tuple(f.astype(np.complex128) for f in kernels.band_factors(*args))

    outputs = []
    for forced in (False, True):
        with monkeypatch.context() as patch:
            if forced:
                for module in (trajectory, metrics):
                    patch.setattr(module, "to_bands", complex_bands)
                patch.setattr(channels, "band_factors", complex_factors)
            channels.step_factors.cache_clear()
            trajectory._kick_read_weights.cache_clear()
            runs = []
            for i, (experiment, payload) in enumerate(DTYPE_CASES):
                rc, out = run(tmp_path, experiment, payload, ())
                assert rc == 0, (experiment, payload)
                runs.append((Path(out).read_bytes(), Path(out).with_suffix(".json").read_bytes()))
            outputs.append(runs)
    channels.step_factors.cache_clear()
    trajectory._kick_read_weights.cache_clear()
    for case, real, held in zip(DTYPE_CASES, *outputs):
        assert real == held, case


def test_conditional_theta_known_null_is_the_initial_inclination(tmp_path):
    # null is the strategy's default target: the run's initial inclination
    base = {"mode": "stochastic", "l": 4, "n_measure": 10, "seeds": {"base": 0, "count": 3}}
    data = []
    for strategy in ({"kind": "conditional"}, {"kind": "conditional", "theta_known": None}):
        rc, out = run(tmp_path, "custom", {**base, "strategy": strategy})
        assert rc == 0
        data.append(read_csv(out)[1:])
    assert data[0] == data[1]


def test_seeds_flag_overrides_config(tmp_path):
    rc, out = run(tmp_path, "fig5", {"n_measure": 4, "seeds": [1, 2, 3, 4, 5]},
                  extra=("--seeds", "7,9"))
    assert rc == 0
    comments, _, _ = read_csv(out)
    assert any(line == "# seeds: 7,9" for line in comments)


def test_unknown_config_key_is_exit_2(tmp_path):
    rc, _ = run(tmp_path, "fig2", {"lmax": 3})
    assert rc == 2
    rc, _ = run(tmp_path, "fig2", {"l": 0.3})
    assert rc == 2


BAD_CONFIGS = [
    ("fig2", {"l": True, "n_steps": True}),
    ("fig2", {"gamma": float("nan")}),
    ("fig1", {"k1": 0.3}),
    ("fig5", {"seeds": [-1]}),
    ("custom", {"mode": "stochastic", "strategy": {"kind": "unitary_every_k", "typo": 1}}),
    ("custom", {"state": {"family": "thermal", "r": 0.5, "typo": 1}}),
    ("custom", {"state": {"family": "thermal", "r": "x"}}),
    ("custom", {"mode": "stochastic", "strategy": {"kind": "unitary_every_k", "k": 0}}),
    ("custom", {"mode": "stochastic", "strategy": {"kind": "unitary_every_k", "k": "2"}}),
    ("custom", {"mode": "stochastic", "strategy": "none"}),
    ("custom", {"mode": "stochastic", "strategy": {"kind": "conditional", "theta_known": 5.0}}),
    ("fig2", {"gamma": "abc"}),
    ("fig1", {"p": "x"}),
    ("fig3", {"gammas": ["x"]}),
    ("scaling", {"l_list": []}),
    ("scaling", {"thresholds": []}),
    ("custom", {"strategy": {"kind": "bogus"}}),
    ("custom", {"strategy": {"kind": "unitary_after_each_plus"}}),
    ("custom", {"strategy": {"kind": "conditional"}}),
    ("custom", {"state": {"family": "thermal", "r": 0}}),
    ("custom", {"mode": "stochastic", "theta": 0.0, "strategy": {"kind": "conditional"}}),
    ("scaling", {"l_list": [8, 16], "thresholds": [0.99]}),  # above p_succ(rho0) at l = 8
    ("fig2", {"l": 1e6}),                 # no d x d state of these sizes fits in memory
    ("fig2", {"l": 20000}),
    ("fig2", {"l": 2e9}),
    ("scaling", {"l_list": [8, 2048]}),
    ("fig1", {"l": 3, "k1": -1, "k2": 1, "p": 0.5, "theta_points": 1}),  # unpolarized start
    ("custom", {"mode": "stochastic", "theta": 0.0,
                "strategy": {"kind": "conditional", "theta_known": None}}),
    ("custom", {"mode": "stochastic", "theta": np.pi,
                "strategy": {"kind": "conditional", "theta_known": None}}),
    ("custom", {"mode": "stochastic", "state": {"family": "thermal", "r": -0.5},
                "strategy": {"kind": "conditional", "theta_known": None}}),  # theta0 = -pi/2
    ("scaling", {"l_list": [4, 4], "z_list": [1.0], "thresholds": [0.9]}),
    ("scaling", {"l_list": [8, 16], "z_list": [1.0, 1]}),
    ("scaling", {"l_list": [8, 16], "thresholds": [0.85, 0.85]}),
    ("fig3", {"gammas": [1.0, 1.0000001]}),  # both columns p_succ_unitary_gamma_1
    ("fig2", {"gamma": 10**400}),            # beyond the float range
    ("fig3", {"gammas": [1.0, -10**400]}),
    ("fig4", {"gamma": 10**400}),
    ("fig5", {"gamma": 10**400}),
    ("custom", {"strategy": {"kind": "unitary_every_k", "gamma": 10**400}}),
    ("fig5", {"n_measure": 3, "seeds": [10**50]}),  # Philox keys lie below 2**128
    ("custom", {"mode": "stochastic", "n_measure": 3,
                "seeds": {"base": 2**128 - 1, "count": 2}}),
    ("custom", {"record_every": 2**63}),  # counts lie below 2**63, within a C long
    ("scaling", {"l_list": [8, 9], "z_list": [1.0], "thresholds": [0.9], "step_cap": 2**63}),
]
BAD_INVOCATIONS = [
    ("fig1", {}, ("--gamma", "1.0")),
    ("scaling", {}, ("--gamma", "1.0")),
    ("fig2", {}, ("--seeds", "1,2")),
    ("fig2", {}, ("--threads", "-4")),
    ("fig2", {}, ("--threads", "0")),
]


@pytest.mark.parametrize("experiment, payload, extra", [
    (exp, payload, ()) for exp, payload in BAD_CONFIGS] + BAD_INVOCATIONS,
    ids=["bool-as-int", "nan-gamma", "bad-state-parameter", "negative-seed",
         "strategy-unknown-key", "state-unknown-key", "string-state-parameter",
         "strategy-k-zero", "strategy-k-string", "strategy-not-object",
         "conditional-theta-out-of-range", "string-gamma", "string-p", "string-in-gammas",
         "empty-l-list", "empty-thresholds", "average-unknown-strategy",
         "average-outcome-dependent-strategy", "average-conditional-strategy",
         "unpolarized-thermal-state", "conditional-default-target-out-of-range",
         "threshold-above-initial-p-succ", "l-1e6", "l-20000", "l-2e9", "l-list-above-1024",
         "fig1-unpolarized-start", "conditional-null-target-theta-0",
         "conditional-null-target-theta-pi", "conditional-null-target-negative-thermal",
         "repeated-l", "repeated-z", "repeated-threshold", "fig3-clashing-columns",
         "fig2-gamma-1e400", "fig3-gamma-1e400", "fig4-gamma-1e400", "fig5-gamma-1e400",
         "strategy-gamma-1e400", "seed-1e50", "seed-base-count-past-2**128",
         "record-every-2**63", "step-cap-2**63",
         "gamma-flag-without-gamma", "gamma-flag-on-scaling", "seeds-flag-without-seeds",
         "negative-threads", "zero-threads"])
def test_bad_config_value_is_exit_2_with_one_line(tmp_path, capsys, experiment, payload, extra):
    rc, _ = run(tmp_path, experiment, payload, extra)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: ")


@pytest.mark.parametrize("state, line", [
    ({"family": "thermal", "r": 10**30},
     "initial state: target polarization must satisfy |r| < 1, got 1e+30"),
    ({"family": "mixed_dicke", "k1": 2, "k2": 1, "p": 10**30},
     "initial state: mixing probability must lie in [0, 1], got 1e+30"),
], ids=["thermal-r", "mixed-dicke-p"])
def test_state_numbers_reach_their_constructor_as_floats(tmp_path, capsys, state, line):
    # a JSON integer beyond int64 becomes a float before the constructor checks its range
    rc, _ = run(tmp_path, "custom", {"l": 3, "n_steps": 3, "state": state})
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"config-error: {line}"]


# The fuzzer: FUZZ_COUNT configs, each a base config with one or two of its
# experiment's keys set to values drawn from FUZZ_POOL, by random.Random(FUZZ_SEED).
# The bases keep every run small (l <= 4, a few steps and seeds).  The scaling base
# measures with an unpolarized source (z 0), whose lifetimes end within a few
# steps at any theta: at theta 0 and z 1 p_succ never falls, so a drawn step_cap
# of 2**31 would step that many times.
FUZZ_SEED, FUZZ_COUNT = 2025, 3000
FUZZ_POOL = [
    0, -1, 0.5, 2**31, 2**63, 10**30, 1e300, float("nan"), "x", "", "average", "stochastic", None,
    True, False, [], {}, [0.9], {"base": 0, "count": 2},
    {"kind": "none"}, {"kind": "alternating"}, {"kind": "unitary_every_k", "k": 3, "gamma": 1.3},
    {"kind": "unitary_after_each_plus"}, {"kind": "conditional"},
    {"kind": "conditional", "theta_known": 1.0},
    {"family": "coherent"}, {"family": "thermal", "r": 0.5}, {"family": "rotated_dicke", "k": 1},
    {"family": "mixed_dicke", "k1": 2, "k2": 1, "p": 0.5},
    {"family": "quadratic_bloch", "R": [0, 0, 0.5], "T": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
]
FUZZ_BASES = [
    ("fig1", {"l": 3, "k1": 1, "k2": 2, "theta_points": 3}),
    ("fig2", {"l": 3, "n_steps": 5}),
    ("fig3", {"l": 3, "n_steps": 5, "gammas": [1.0, 2.0]}),
    ("fig4", {"l": 3, "n_measure": 5}),
    ("fig5", {"l": 3, "n_measure": 5, "seeds": {"base": 0, "count": 3}}),
    ("scaling", {"l_list": [3, 4], "z_list": [0.0], "thresholds": [0.9], "step_cap": 50}),
    ("custom", {"l": 3, "n_steps": 5}),
    ("custom", {"l": 4, "mode": "stochastic", "n_measure": 5, "seeds": [0, 1],
                "strategy": {"kind": "conditional"}}),
]


def test_fuzzed_configs_exit_0_2_or_3_with_one_line(tmp_path, capsys):
    rng = random.Random(FUZZ_SEED)
    cfg, out = tmp_path / "config.json", str(tmp_path / "out.csv")
    failures = []
    for _ in range(FUZZ_COUNT):
        experiment, payload = rng.choice(FUZZ_BASES)
        keys = rng.sample(sorted(cli.DEFAULTS[experiment]), rng.choice((1, 2)))
        payload = {**payload, **{key: rng.choice(FUZZ_POOL) for key in keys}}
        cfg.write_text(json.dumps(payload))
        try:
            rc = main([experiment, "--config", str(cfg), "--out", out])
        except Exception as exc:  # exit 1 with a traceback
            rc = repr(exc)
        err = capsys.readouterr().err.splitlines()
        if rc not in (0, 2, 3) or (rc != 0 and len(err) != 1):
            failures.append((experiment, payload, rc, err))
    assert not failures, failures[:5]


COUNTS_BEYOND_THE_BOUND = [
    ("fig2", {"l": 3, "n_steps": 100000000000}),
    ("fig5", {"l": 3, "n_measure": 2147483648}),
    ("fig1", {"l": 4, "k1": 2, "k2": 1, "theta_points": 2147483648}),
    ("fig5", {"l": 3, "n_measure": 2, "seeds": {"base": 0, "count": 2**40}}),
]


def _one_gib_of_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("experiment, payload", COUNTS_BEYOND_THE_BOUND,
                         ids=["fig2-1e11-steps", "fig5-2**31-measurements",
                              "fig1-2**31-angles", "fig5-2**40-seeds"])
def test_counts_beyond_the_reads_bound_exit_2_before_any_work(tmp_path, experiment, payload):
    # in a child held to 1 GiB and 10 s: without the bound these configs take
    # tens of GB or run until killed
    cfg = write_config(tmp_path, payload)
    out = tmp_path / f"{experiment}.csv"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "qrf_sim.cli", experiment, "--config", cfg,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=10, preexec_fn=_one_gib_of_address_space)
    assert done.returncode == 2, done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: ") and "reads" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("experiment, payload", [
    ("fig2", {"n_steps": 5, "gamma": 10**30}),
    ("fig3", {"n_steps": 5, "gammas": [10**30, 2]}),
    ("fig4", {"n_measure": 5, "gamma": 10**30}),
    ("fig5", {"n_measure": 5, "gamma": 10**30, "seeds": [1, 2]}),
    ("custom", {"mode": "stochastic", "n_measure": 5, "seeds": [1, 2],
                "strategy": {"kind": "unitary_after_each_plus", "gamma": 10**30}}),
    ("custom", {"mode": "stochastic", "n_measure": 5, "seeds": [1, 2],
                "strategy": {"kind": "conditional", "theta_known": 1}}),
], ids=["fig2", "fig3", "fig4", "fig5", "custom-strategy-gamma", "custom-theta-known"])
def test_integer_real_parameters_run_as_floats(tmp_path, experiment, payload):
    # a JSON integer, even one beyond int64, reaches the physics as its float:
    # the data rows are those of the float config, and the sidecar echoes the integer
    def as_float(value):
        if isinstance(value, dict):
            return {k: as_float(v) if k in ("gamma", "gammas", "theta_known") else v
                    for k, v in value.items()}
        return [float(v) for v in value] if isinstance(value, list) else float(value)

    floats = {k: as_float(v) if k in ("gamma", "gammas", "strategy") else v
              for k, v in payload.items()}
    data = []
    for name, cfg in (("int", payload), ("float", floats)):
        (tmp_path / name).mkdir()
        rc, out = run(tmp_path / name, experiment, cfg)
        assert rc == 0
        data.append(read_csv(out)[1:])
        echo = json.loads(Path(out).with_suffix(".json").read_text())["config"]
        assert {k: echo[k] for k in cfg} == cfg
    assert data[0] == data[1]


@pytest.mark.parametrize("payload, code", [
    ({"z": 0.0}, 0),                                          # exact angles of 0 and +-3e-17
    ({"l": 4, "k1": 4, "k2": 4, "theta_points": 3}, 0),       # one exact angle is 0
    ({"l": 1, "k1": 1, "k2": 1, "z": 0.0, "theta_start": 0.5 * np.pi, "theta_stop": 3.0,
      "theta_points": 1}, 0),                                 # both exact angles are 0
    ({"l": 0.5, "k1": 0.5, "k2": -0.5}, 3),                   # a branch left unpolarized
    ({"l": 4, "k1": 4, "k2": 4, "z": 1.0, "theta_start": 1e-7, "theta_stop": 0.5,
      "theta_points": 2}, 3),                                 # a branch of probability 2e-15
], ids=["z-zero", "one-angle-zero", "no-nonzero-angle", "unpolarized-branch",
        "impossible-branch"])
def test_fig1_zero_or_undefined_angle_keeps_the_exit_codes(tmp_path, capsys, payload, code):
    rc, out = run(tmp_path, "fig1", payload)
    assert rc == code
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        gap = json.loads(Path(out).with_suffix(".json").read_text())["summary"]["max_relative_gap"]
        assert err == [] and (gap is None) == (payload.get("theta_points") == 1)
    else:
        assert len(err) == 1 and err[0].startswith("numerical-invariant: ") and "nan" in err[0]


def test_missing_config_is_exit_2(tmp_path):
    rc = main(["fig2", "--config", str(tmp_path / "absent.json")])
    assert rc == 2


@pytest.mark.parametrize("content", [
    b"\xff\xfe",                                              # not UTF-8
    b'{"state": ' + b"[" * 5000 + b"]" * 5000 + b"}",         # nested too deep to decode
    b'{"l": 16',                                              # not JSON
], ids=["not-utf8", "nested-5000-deep", "truncated"])
def test_undecodable_config_is_exit_2_with_one_line(tmp_path, capsys, content):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    rc = main(["custom", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: ") and "not valid JSON" in err[0]


@pytest.mark.parametrize("config_name, out", [
    ("fig2.json", None),            # the default fig2.csv puts its sidecar on the config
    ("config.json", "config.csv"),  # an explicit CSV whose sidecar is the config
    ("config.json", "res.json"),    # the CSV and its sidecar are one file
    ("config.json", "absent/x.csv"),
    ("config.json", "outdir"),      # a directory
    ("config.json", "taken.csv"),   # its sidecar taken.json is a directory
], ids=["default-out-over-config", "sidecar-over-config", "csv-is-sidecar",
        "missing-directory", "out-is-directory", "sidecar-is-directory"])
def test_output_path_clash_is_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                     config_name, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    (tmp_path / "taken.json").mkdir()
    cfg = tmp_path / config_name
    cfg.write_text(json.dumps({"n_steps": 3}))
    before = cfg.read_bytes()

    def no_work(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(cli.RUNNERS, "fig2", no_work)
    rc = main(["fig2", "--config", config_name] + (["--out", out] if out else []))
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: ")
    assert cfg.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config_name, "outdir",
                                                                 "taken.json"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_output_write_failure_is_exit_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "x.csv"
    out.symlink_to("/dev/full")  # every write to it fails with ENOSPC
    cfg = write_config(tmp_path, {"n_steps": 3})
    rc = main(["fig2", "--config", cfg, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config-error: cannot write {str(out)!r}: ")


@pytest.mark.parametrize("content", [
    '{"state": ' + "[" * 988 + "]" * 988 + "}",
    '{"state": ' + "[" * 980 + "true" + "]" * 980 + "}",
    json.dumps({"l_list": [8] * 9999 + ["x"]}),
    json.dumps({f"x{i}": 1 for i in range(1000)}),
    json.dumps({"state": {"family": "rotated_dicke", "k": int("7" * 4000)}}),
    json.dumps({"strategy": {"kind": "unitary_every_k", "k": -int("7" * 4000)}}),
    json.dumps({"strategy": {"kind": "unitary_every_k", "k": list(range(10**4))}}),
], ids=["state-988-deep", "bool-980-deep", "l_list-10k", "1000-unknown-keys", "k-4000-digits",
        "k-4000-digits-negative", "k-10k-list"])
def test_config_error_echoes_values_abridged(tmp_path, content):
    # a fresh process, so the nesting meets the decoder's depth limit, not this stack's
    cfg = tmp_path / "config.json"
    cfg.write_text(content)
    experiment = "scaling" if "l_list" in content else "custom"
    done = subprocess.run([sys.executable, "-m", "qrf_sim.cli", experiment, "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          timeout=120)
    err = done.stderr.splitlines()
    assert done.returncode == 2
    assert len(err) == 1 and err[0].startswith("config-error: ") and len(err[0]) < 300
    assert "not valid JSON" not in err[0]  # the value is echoed, not the decoder's error


def test_mismatched_experiment_name_is_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "fig3"})
    rc = main(["fig2", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_unknown_experiment_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, {})
    with pytest.raises(SystemExit) as exc:
        main(["fig9", "--config", cfg])
    assert exc.value.code == 2


def test_positivity_failure_is_exit_3(tmp_path):
    rc, _ = run(tmp_path, "custom", {
        "l": 1, "theta": 0.9,
        "state": {"family": "quadratic_bloch", "R": [0, 0, 3],
                  "T": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
    })
    assert rc == 3


def test_custom_average_and_stochastic_modes(tmp_path):
    rc, out = run(tmp_path, "custom", {
        "l": 8, "theta": 1.2, "z": 0.5, "mode": "average", "n_steps": 12,
        "state": {"family": "thermal", "r": 0.7}, "record_every": 3,
    })
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header == ["step", "Lx_over_l", "Ly_over_l", "Lz_over_l", "r", "theta", "p_succ"]
    assert [r[0] for r in rows] == ["0", "3", "6", "9", "12"]
    rc, out = run(tmp_path, "custom", {
        "l": 8, "theta": 1.2, "mode": "stochastic", "n_measure": 6,
        "seeds": [0, 1], "strategy": {"kind": "unitary_every_k", "k": 2},
    })
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header[0] == "step" and len(rows) == 7


def test_custom_average_applies_strategy_like_a_step_replay(tmp_path):
    l, theta, z, n = 8, 1.2, 0.5, 9
    rc, out = run(tmp_path, "custom", {
        "l": l, "theta": theta, "z": z, "n_steps": n,
        "strategy": {"kind": "unitary_every_k", "k": 2, "gamma": 2.5},
    })
    assert rc == 0
    _, header, rows = read_csv(out)
    cols = np.array(rows, dtype=float)
    assert list(cols[:, 0]) == list(range(n + 1))  # kicks are not counted as steps
    ops = build_spin_operators(l)
    cur = coherent_state(l, theta)
    n_hat = np.array([np.sin(theta), 0.0, np.cos(theta)])
    want = [p_succ(cur, ops, n_hat)]
    for i in range(n):
        cur = average_channel(cur, z, ops)
        if i % 2 == 1:
            cur = unitary_channel(cur, -z, ops, 2.5)
        want.append(p_succ(cur, ops, n_hat))
    got = cols[:, header.index("p_succ")]
    assert np.abs(got - want).max() <= 1e-12
    rc, plain = run(tmp_path, "custom", {"l": l, "theta": theta, "z": z, "n_steps": n})
    uncorrected = np.array(read_csv(plain)[2], dtype=float)[:, header.index("p_succ")]
    assert np.abs(got - uncorrected).max() > 1e-3


@pytest.mark.parametrize("gamma", [np.pi, -np.pi])
def test_custom_average_gamma_pi_kicks_leave_ly_exactly_zero(tmp_path, gamma):
    # an X-Z start kicked at |gamma| = pi stays in the plane: sin(gamma) is taken
    # as 0 there, so no float sin(pi) residue reaches the Ly column
    rc, out = run(tmp_path, "custom", {
        "n_steps": 30, "strategy": {"kind": "unitary_every_k", "k": 2, "gamma": gamma}})
    assert rc == 0
    _, header, rows = read_csv(out)
    assert [float(row[header.index("Ly_over_l")]) for row in rows] == [0.0] * 31


def test_custom_gamma_is_the_default_kick_angle(tmp_path):
    cfg = {"mode": "stochastic", "n_measure": 6, "seeds": [0, 1],
           "strategy": {"kind": "unitary_every_k", "k": 2}}
    rc, flagged = run(tmp_path, "custom", cfg, extra=("--gamma", "1.0"))
    assert rc == 0
    flagged_rows = read_csv(flagged)[2]
    explicit = {**cfg, "strategy": {**cfg["strategy"], "gamma": 1.0}}
    rc, out = run(tmp_path, "custom", explicit)
    assert rc == 0 and read_csv(out)[2] == flagged_rows
    rc, out = run(tmp_path, "custom", cfg)
    assert rc == 0 and read_csv(out)[2] != flagged_rows


def test_float_formatting_17_digits(tmp_path):
    rc, out = run(tmp_path, "fig2", {"n_steps": 2})
    _, _, rows = read_csv(out)
    val = rows[1][1]
    assert float(val) == float(format(float(val), ".17g"))
    assert "." in val and len(val.split(".")[1].rstrip("0")) >= 10


def test_fig5_frame_left_unpolarized_matches_tensor_replay(tmp_path):
    # at l = 1/2 a - outcome leaves the frame maximally mixed: its direction
    # is undefined, but fig5 prints only p_succ, which stays defined
    cfg = {"l": 0.5, "n_measure": 5, "seeds": {"base": 0, "count": 6}}
    rc, out = run(tmp_path, "fig5", cfg)
    assert rc == 0
    _, header, rows = read_csv(out)
    cols = np.array(rows, dtype=float)
    ops = build_spin_operators(0.5)
    rho0 = coherent_state(0.5, np.pi / 2)
    n_hat = np.array([1.0, 0.0, 0.0])
    for arm, column in (("none", 1), ("every_k", 2), ("after_plus", 3)):
        series = []
        for seed in range(6):
            rng = np.random.default_rng(np.random.Philox(key=seed))
            rho, probs = rho0, [p_succ(rho0, ops, n_hat)]
            for i in range(5):
                plus = selective_channel_tensor(rho, 1.0, ops, +1)
                outcome = +1 if rng.random() < plus.probability else -1
                rho = plus.post_state if outcome > 0 else \
                    selective_channel_tensor(rho, 1.0, ops, -1).post_state
                if (arm == "every_k" and i % 2 == 1) or (arm == "after_plus" and outcome > 0):
                    rho = unitary_channel_tensor(rho, -1.0, ops, np.pi)
                probs.append(p_succ(rho, ops, n_hat))
            series.append(probs)
        assert np.abs(cols[:, column] - np.mean(series, axis=0)).max() <= 1e-12
        assert np.abs(cols[:, column + 3]
                      - np.std(series, axis=0, ddof=1) / np.sqrt(6)).max() <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_average_step_is_exit_3_with_one_line(tmp_path, capsys, monkeypatch, value):
    # a non-finite entry from step 21, inside the second block of 16; steps
    # taken on inf warn, and no such warning may come before the replay's error
    ops = build_spin_operators(8)
    rho = coherent_state(8, 0.5 * np.pi)
    target = checked_average_steps(to_bands(rho), 20, 1.0, ops)[-1]
    delta = np.zeros_like(target)
    delta[0, 4] = value
    inject_after(monkeypatch, target, delta)
    rc, _ = run(tmp_path, "custom", {"l": 8, "n_steps": 40})
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical-invariant: ")
    assert "finite domain" in err[0]


def test_custom_undefined_theta_is_exit_3_with_one_line(tmp_path, capsys):
    rc, _ = run(tmp_path, "custom", {"l": 0.5, "mode": "stochastic", "n_measure": 3,
                                     "seeds": {"base": 0, "count": 8}})
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical-invariant: ")
    assert "theta" in err[0]
