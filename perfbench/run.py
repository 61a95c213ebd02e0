#!/usr/bin/env python3
"""Benchmark command: one workload, repeated for a fixed time, checked.

    python3 perfbench/run.py --workload fig5_ensemble --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each repetition is a fresh single-threaded
process (``worker.py``) that imports the package from ``src/``, builds the
workload's spin operators and initial states, and calls ``qrf_sim.cli.main``
on configs generated from ``--seed``.  Repetitions start until ``--seconds``
have passed (at least two).  Every CLI exit code, every CSV's contract and
the byte identity of all repetitions are checked; a last process replays
part of the output on the tensor oracles (``verify.py``).

``--trace 0`` reports the end-to-end metrics, medians over repetitions of
times rescaled by a host-speed probe (see ``_repetition``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones.  The last line of standard output is
the JSON result; the lines before it hold the environment block and, when
tracing, the per-l breakdown.  Scratch files live in ``.perfbench_tmp/``
and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 2
# About the duration of worker.Probe on the reference host (2-vCPU Xeon VM,
# numpy 2.4 with OpenBLAS, one thread) when it is not contended.  It only
# sets the unit: reported times read roughly as seconds on that host.
PROBE_NOMINAL_S = 0.030
WORKER_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s", "steps_per_s": "steps/s", "setup_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "success_rate": "fraction",
}
PER_LAYER_UNITS = {
    "spin.calls": "count", "spin.self_s": "s",
    "kernels.calls": "count", "kernels.self_s": "s", "kernels.us_per_call": "us",
    "kernels.bytes_computed": "B",
    "channels.calls": "count", "channels.self_s": "s", "channels.hygiene_calls": "count",
    "channels.hygiene_corrections": "count", "channels.hygiene_s": "s",
    "metrics.calls": "count", "metrics.self_s": "s", "metrics.summarize_us": "us",
    "metrics.p_succ_us": "us",
    "trajectory.self_s": "s", "trajectory.steps": "count",
    "trajectory.ensemble_statistics_s": "s", "trajectory.conditional_trials": "count",
    "trajectory.conditional_useful_ratio": "fraction",
    "cli.self_s": "s", "cli.load_config_s": "s", "cli.write_outputs_s": "s",
    "cli.csv_bytes": "B", "trace_overhead_frac": "fraction",
}


class Ledger:
    """Operations attempted and failed: CLI invocations and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("QRF_SIM_THREADS", None)   # it would override --threads 1
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_worker(spec: dict):
    """(result or None, spawn time, stderr tail)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, t_spawn, f"timed out after {WORKER_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    return result, t_spawn, proc.stderr[-2000:]


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "qrf_sim").rglob("*.py"))


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result, info) or raises RuntimeError when
    no repetition produced timings."""
    wl = workloads.build(name, seed, tiny)
    ledger = Ledger()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        configs = []
        for i, inv in enumerate(wl.invocations):
            path = tmp / f"config{i}.json"
            path.write_text(json.dumps(inv.config))
            configs.append(str(path))
        base = {"workload": name, "seed": seed, "tiny": tiny, "src": str(SRC),
                "configs": configs}
        reps, reference = [], None
        start = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
            traced = trace and len(reps) % 2 == 1
            outs = [str(tmp / f"rep{len(reps)}_{i}.csv") for i in range(len(wl.invocations))]
            result, t_spawn, err = _run_worker({**base, "mode": "time", "trace": traced,
                                                "outs": outs})
            codes = result["exit_codes"] if result else [None] * len(outs)
            texts = []
            for inv, code, out in zip(wl.invocations, codes, outs):
                ledger.check(f"cli_exit_{inv.experiment}", code == 0, f"exit {code}; {err}")
                text = Path(out).read_text() if Path(out).is_file() else ""
                texts.append(text)
                problems = workloads.csv_problems(text, inv)
                ledger.check(f"csv_contract_{inv.experiment}", not problems, "; ".join(problems))
            if reference is None:
                reference, reference_outs = texts, outs
            else:
                ledger.check("csv_identical_across_repetitions", texts == reference,
                             f"repetition {len(reps)} differs")
            reps.append(_repetition(result, t_spawn, traced, texts))

        verdict, _, err = _run_worker({**base, "mode": "verify", "outs": reference_outs})
        if verdict is None:
            ledger.check("verify_replay", False, err)
            steps = wl.fixed_steps
        else:
            for check_name, ok, detail in verdict["checks"]:
                ledger.check(check_name, ok, detail)
            steps = verdict["steps"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass    # another run still uses it

    timed = [r for r in reps if r["result"] is not None]
    plain = [r for r in timed if not r["traced"]]
    if not plain:
        raise RuntimeError("no repetition produced timings")
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        traced_reps = [r for r in timed if r["traced"]]
        if not traced_reps:
            raise RuntimeError("no traced repetition produced timings")
        values = _traced_metrics(traced_reps, wall)
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": wall,
            "steps_per_s": steps / wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["result"]["maxrss_kb"] / 1024 for r in plain),
            "success_rate": 1.0 - len(ledger.failures) / ledger.attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    info = {
        "env": {**timed[0]["result"]["env"], "workload": name, "seed": seed,
                "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
                "git_commit": _git_commit(), "src_loc": _src_loc(),
                "probe_nominal_s": PROBE_NOMINAL_S},
        "steps": steps,
        "repetitions": [{key: r[key] for key in ("traced", "probe_s", "raw_setup_s",
                                                 "raw_wall_s", "raw_cpu_s")} for r in timed],
        "failures": ledger.failures,
    }
    if trace:
        rows = [row for r in traced_reps for row in r["result"]["trace"]["rows"]]
        info["per_l"] = tracer.per_l_table(rows)
    return result, info


def _repetition(result, t_spawn: float, traced: bool, texts: list) -> dict:
    """One repetition's record.  Times are rescaled to the nominal host speed:
    measured seconds x PROBE_NOMINAL_S / (probe seconds in the same process)."""
    rep = {"traced": traced, "result": result, "csv_bytes": sum(len(t.encode()) for t in texts)}
    if result is None:
        return rep
    probe = result["probe_s"]
    raw = {"raw_setup_s": result["setup_done"] - t_spawn,
           "raw_wall_s": sum(result["wall_s"]), "raw_cpu_s": sum(result["cpu_s"])}
    scale = PROBE_NOMINAL_S / probe
    return {**rep, **raw, "probe_s": probe, "scale": scale,
            "setup_s": raw["raw_setup_s"] * scale, "wall_s": raw["raw_wall_s"] * scale,
            "cpu_s": raw["raw_cpu_s"] * scale}


def _traced_metrics(traced_reps: list, untraced_wall: float) -> dict:
    per_rep = []
    for r in traced_reps:
        m = tracer.layer_metrics(r["result"]["trace"]["rows"], r["result"]["trace"]["counters"])
        for key, unit in PER_LAYER_UNITS.items():
            if unit in ("s", "us"):
                m[key] *= r["scale"]
        m["cli.csv_bytes"] = r["csv_bytes"]
        per_rep.append(m)
    values = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
    values["trace_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "qrf_sim" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'qrf_sim'}", file=sys.stderr)
        return 2
    try:
        result, info = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for failure in info["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": info["env"], "steps": info["steps"],
                      "repetitions": info["repetitions"]}))
    if "per_l" in info:
        print(json.dumps({"per_l": info["per_l"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
