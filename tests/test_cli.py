import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrf_sim import cli
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

    monkeypatch.setattr(cli, "usable_lifetime", failing)
    with pytest.raises(ValueError, match="internal fault"):
        run(tmp_path, "scaling", {"l_list": [8], "z_list": [1.0], "thresholds": [0.9]})


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
             ("scaling", {"l_list": [8, 64], "z_list": [0.0, 1.0], "thresholds": [0.9]})]
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    outputs = {}
    for threads in (None, "1"):
        run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
        for experiment, payload in cases:
            cfg = write_config(tmp_path, payload, f"{experiment}.json")
            out = tmp_path / f"{experiment}-{threads}.csv"
            subprocess.run([sys.executable, "-m", "qrf_sim.cli", experiment, "--config", cfg,
                            "--out", str(out)], env=run_env, check=True, capture_output=True,
                           timeout=120)
            outputs[experiment, threads] = (out.read_bytes(), out.with_suffix(".json").read_bytes())
    for experiment, _ in cases:
        assert outputs[experiment, None] == outputs[experiment, "1"], experiment


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
         "gamma-flag-without-gamma", "gamma-flag-on-scaling", "seeds-flag-without-seeds",
         "negative-threads", "zero-threads"])
def test_bad_config_value_is_exit_2_with_one_line(tmp_path, capsys, experiment, payload, extra):
    rc, _ = run(tmp_path, experiment, payload, extra)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: ")


def test_missing_config_is_exit_2(tmp_path):
    rc = main(["fig2", "--config", str(tmp_path / "absent.json")])
    assert rc == 2


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
