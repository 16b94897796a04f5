import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # perfbench's tracer wraps lab functions and methods by name; installing
    # it fails once a cleanup deletes or renames one of them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    done = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install(layers.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
