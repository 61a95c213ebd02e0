"""Tests of the benchmark itself: tracer hygiene, counter determinism and a
tiny-size run of every workload through the real worker processes."""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run as bench
import workloads
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _layer_modules():
    from qrf_sim import channels, cli, kernels, metrics, spin, trajectory

    return {"spin": spin, "kernels": kernels, "channels": channels, "metrics": metrics,
            "trajectory": trajectory, "cli": cli}


def _bindings(modules):
    snap = {(name, attr): value for name, mod in modules.items()
            for attr, value in vars(mod).items() if isinstance(value, types.FunctionType)}
    snap.update({("RUNNERS", key): fn for key, fn in modules["cli"].RUNNERS.items()})
    return snap


def test_tracer_restores_every_wrapped_function():
    modules = _layer_modules()
    before = _bindings(modules)
    tracer = Tracer()
    patched = tracer.install(modules)
    during = _bindings(modules)
    assert patched > 0
    assert sum(during[key] is not before[key] for key in before) == patched
    assert modules["trajectory"].average_channel.__wrapped__ is before[("trajectory",
                                                                         "average_channel")]
    tracer.restore()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_nonnegative_and_within_traced_wall(tmp_path):
    modules = _layer_modules()
    inv = workloads.build("conditional_l16", 0, tiny=True).invocations[0]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(inv.config))
    tracer = Tracer()
    tracer.install(modules)
    try:
        main = tracer.wrap(modules["cli"].main, "cli.main")
        t0 = time.perf_counter()
        rc = main([inv.experiment, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    assert rc == 0
    rows = tracer.rows()
    assert all(r[5] >= -1e-9 for r in rows)
    assert sum(r[5] for r in rows) <= wall + 1e-9
    metrics = layer_metrics(rows, tracer.counters)
    assert metrics["trajectory.conditional_trials"] > 0
    assert metrics["kernels.calls"] > metrics["trajectory.steps"] > 0


def test_counters_repeat_exactly_for_one_seed():
    runs = [bench.run_benchmark("conditional_l16", 7, 0, trace=True, tiny=True)[0]
            for _ in range(2)]
    for key in ("kernels.calls", "trajectory.steps", "channels.hygiene_corrections",
                "trajectory.conditional_trials"):
        assert runs[0]["metrics"][key]["value"] == runs[1]["metrics"][key]["value"]
    assert all(r["correct"] for r in runs)
    assert set(runs[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_passes_every_check(name):
    result, info = bench.run_benchmark(name, 3, 0, trace=False, tiny=True)
    assert info["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["env"]["src_loc"] > 0


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "average_l128",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
