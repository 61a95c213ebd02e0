"""The golden-output manifest: the sha256 of the CSV and of the sidecar each
config of CASES writes through cli.main, at one BLAS thread.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden.py          # print the hashes
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden.py --write  # rewrite golden.json

test_golden.py runs this script in one child and compares what it prints with
golden.json.  A change that alters output bytes on purpose reruns it with
--write and names each changed config and its largest value difference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from qrf_sim import cli

MANIFEST = Path(__file__).with_name("golden.json")
PI = float(np.pi)

STOCHASTIC = {"mode": "stochastic"}
# name -> (experiment, config): every default config, the strategy and start families,
# huge and repeated angles, a fig5 run past a chunk boundary, lifetimes at large l and at a
# fixed point, and the configs of the four perfbench workloads at seed 5101
CASES = {
    **{name: (name, {}) for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "scaling")},
    **{f"custom-average-{name}": ("custom", {"strategy": strategy}) for name, strategy in (
        ("none", {"kind": "none"}), ("alternating", {"kind": "alternating"}),
        ("every-3-gamma-1.3", {"kind": "unitary_every_k", "k": 3, "gamma": 1.3}),
        ("every-2-gamma-pi", {"kind": "unitary_every_k", "k": 2, "gamma": PI}))},
    "custom-average-thermal": ("custom", {"state": {"family": "thermal", "r": 0.6},
                                          "record_every": 3}),
    "custom-average-rotated-dicke": ("custom", {"state": {"family": "rotated_dicke", "k": 5}}),
    "custom-average-mixed-dicke": ("custom", {"state": {"family": "mixed_dicke", "k1": 10,
                                                        "k2": 4, "p": 0.3}, "theta": 1}),
    "custom-stochastic-rotated-dicke": ("custom", {**STOCHASTIC,
                                                   "state": {"family": "rotated_dicke", "k": 5}}),
    **{f"custom-stochastic-{kind}": ("custom", {**STOCHASTIC, "strategy": {"kind": kind}})
       for kind in ("none", "alternating", "unitary_every_k", "unitary_after_each_plus",
                    "conditional")},
    "custom-stochastic-conditional-l8-z0": ("custom", {**STOCHASTIC, "l": 8, "z": 0.0,
                                                       "theta": 1.1,
                                                       "strategy": {"kind": "conditional"}}),
    "fig2-gamma-1e31": ("fig2", {"gamma": 10**31}),
    "fig3-gammas-1-2": ("fig3", {"gammas": [1, 2]}),
    "fig5-600-seeds": ("fig5", {"seeds": {"base": 0, "count": 600}}),
    "scaling-l128-l256": ("scaling", {"l_list": [128, 256], "z_list": [0.0],
                                      "thresholds": [0.9, 0.85]}),
    "scaling-fixed-point": ("scaling", {"l_list": [3, 4], "z_list": [1.0, 0.0],
                                        "thresholds": [0.9], "theta": 0, "step_cap": 20000}),
    "perfbench-fig5_ensemble": ("fig5", {"l": 16, "z": 1.0, "theta": 0.5 * PI, "n_measure": 200,
                                         "k": 2, "gamma": PI,
                                         "seeds": {"base": 25505, "count": 5}}),
    "perfbench-average_l128-fig2": ("fig2", {"l": 128, "z": 1.0, "theta": 1.622789298101809,
                                             "n_steps": 50, "gamma": 0.5 * PI}),
    "perfbench-average_l128-fig4": ("fig4", {"l": 128, "z": 1.0, "theta": 1.622789298101809,
                                             "n_measure": 50, "k": 2, "gamma": PI}),
    "perfbench-lifetime_scaling": ("scaling", {"l_list": [8, 16, 32, 64], "z_list": [0.0, 1.0],
                                               "thresholds": [0.9], "theta": 0.5 * PI,
                                               "step_cap": 10**6}),
    "perfbench-conditional_l16": ("custom", {**STOCHASTIC, "l": 16, "z": 1.0, "theta": 0.5 * PI,
                                             "state": {"family": "coherent"},
                                             "strategy": {"kind": "conditional"},
                                             "n_measure": 50,
                                             "seeds": {"base": 10202, "count": 2}}),
}


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def outputs() -> dict:
    """Per case, its experiment and config, the exit code of cli.main and the
    sha256 of the CSV and the sidecar it wrote (None for a file not written)."""
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, (experiment, config)) in enumerate(CASES.items()):
            path, out = Path(tmp, f"{i}.config.json"), Path(tmp, f"{i}.csv")
            path.write_text(json.dumps(config))
            with contextlib.redirect_stdout(io.StringIO()):  # main prints the paths it wrote
                code = cli.main([experiment, "--config", str(path), "--out", str(out)])
            cases[name] = {"experiment": experiment, "config": config, "exit": code,
                           "csv": _sha256(out), "sidecar": _sha256(out.with_suffix(".json"))}
    return {"numpy": np.__version__, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cases": cases}


if __name__ == "__main__":
    text = json.dumps(outputs(), indent=1) + "\n"
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(text)
    else:
        sys.stdout.write(text)
