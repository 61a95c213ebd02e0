import json
import os
import subprocess
import sys
from pathlib import Path

from qrf_sim import cli

SCRIPT = Path(__file__).with_name("golden.py")


def test_outputs_match_the_golden_manifest():
    # every config of golden.CASES through cli.main in one child at one BLAS
    # thread: each writes the CSV and sidecar bytes golden.json holds
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    want = json.loads(SCRIPT.with_name("golden.json").read_text())
    changed = [name for name in {**want["cases"], **got["cases"]}
               if got["cases"].get(name) != want["cases"].get(name)]
    assert not changed, (f"outputs changed for {changed}; the manifest was written with numpy "
                         f"{want['numpy']}, this run has {got['numpy']}")
