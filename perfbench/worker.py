"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py '<spec json>'

``time`` mode imports the package, builds the workload's spin operators and
initial states (the set-up), then times each CLI invocation through
``qrf_sim.cli.main`` with ``--threads 1``.  With ``"trace": true`` the
tracer wraps the layer call sites before set-up.  ``verify`` mode runs the
replay checks of ``verify.py`` on CSV files a repetition wrote.  The result
is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

def _call_cli(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


class Probe:
    """Fixed numpy work on d x d arrays, independent of the package, timed
    around each repetition.  The host's speed drifts by up to 1.7x over tens
    of seconds as other tenants load it, and small arrays (per-call overhead)
    slow down differently from large ones (memory traffic).  The probe
    copies the shape of a frame step: one banded element-wise update and
    nine expectation values against fixed operators, with d the workload's
    largest frame dimension.  The ratio of a repetition's time to the
    probe's time then stays steady.  Each workload sets the iteration count
    that makes the probe take about 30 ms on the reference host, uncontended."""

    def __init__(self, d: int, iterations: int):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.random((d, d)) + 1j * rng.random((d, d))
        self.ops = [rng.random((d, d)) + 1j * rng.random((d, d)) for _ in range(9)]
        self.m = np.arange(float(d))
        self.einsum = np.einsum
        self.iterations = iterations

    def __call__(self) -> float:
        a, ops, m, einsum = self.a, self.ops, self.m, self.einsum
        t0 = time.perf_counter()
        for _ in range(self.iterations):
            x = (0.5 + 1e-3 * m[:, None] * m[None, :]) * a
            x[:-1, :-1] += 0.1 * a[1:, 1:]
            for op in ops:
                einsum("ij,ji->", x, op)
        return time.perf_counter() - t0


def environment(kernels) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = None
    backend = getattr(kernels, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cli_threads": 1,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend() if callable(backend) else None,
    }


def time_mode(spec: dict) -> dict:
    import qrf_sim
    from qrf_sim import channels, cli, kernels, metrics, spin, trajectory

    if Path(spec["src"]) not in Path(qrf_sim.__file__).resolve().parents:
        raise ImportError(f"qrf_sim imported from {qrf_sim.__file__}, not {spec['src']}")
    wl = workloads.build(spec["workload"], spec["seed"], spec["tiny"])
    build_ops, coherent, main = spin.build_spin_operators, spin.coherent_state, cli.main
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install({"spin": spin, "kernels": kernels, "channels": channels,
                        "metrics": metrics, "trajectory": trajectory, "cli": cli})
        build_ops = tracer.wrap(build_ops, "spin.build_spin_operators")
        coherent = tracer.wrap(coherent, "spin.coherent_state")
        main = tracer.wrap(main, "cli.main")
    walls, cpus, codes = [], [], []
    try:
        for l, theta in wl.setup_states:
            build_ops(l)
            coherent(l, theta)
        setup_done = time.monotonic()
        probe = Probe(2 * int(max(l for l, _ in wl.setup_states)) + 1, wl.probe_iterations)
        probe_before = probe()
        for inv, cfg, out in zip(wl.invocations, spec["configs"], spec["outs"]):
            argv = [inv.experiment, "--config", cfg, "--out", out, "--threads", "1"]
            c0, t0 = time.process_time(), time.perf_counter()
            codes.append(_call_cli(main, argv))
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
        probe_after = probe()
    finally:
        if tracer is not None:
            tracer.restore()
    return {
        "setup_done": setup_done,
        "probe_s": 0.5 * (probe_before + probe_after),
        "wall_s": walls,
        "cpu_s": cpus,
        "exit_codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(kernels),
        "trace": None if tracer is None else {"rows": tracer.rows(), "counters": tracer.counters},
    }


def verify_mode(spec: dict) -> dict:
    import verify

    wl = workloads.build(spec["workload"], spec["seed"], spec["tiny"])
    csvs = [Path(p).read_text() for p in spec["outs"]]
    checks, steps = verify.verify(wl, csvs)
    return {"checks": [[name, bool(ok), detail] for name, ok, detail in checks], "steps": steps}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = (time_mode if spec["mode"] == "time" else verify_mode)(spec)
    print(json.dumps(result))
