import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced(script):
    # run `script` with perfbench's tracer importable and the lab on the path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_tracer_installs():
    # perfbench's tracer wraps lab functions and methods by name; installing
    # it fails once a cleanup deletes or renames one of them
    done = _traced("import layers; layers.install(layers.Tracer())")
    assert done.returncode == 0, done.stderr


TINY_TORUS_CENSUS = """
[experiment]
name = chord-census
seed = 1

[census]
horizon = 3.0
resolution = 64
"""

TINY_SOL_CENSUS = """
[experiment]
name = chord-census
seed = 1

[manifold]
kind = sol

[sol]
k = 1.0

[census]
horizon = 2.0
resolution = 64
coarse_threshold = 0.35
pairs = 1
"""


def _census_stage_rows(tmp_path, name, text):
    config = tmp_path / f"{name}.ini"
    config.write_text(text)
    done = _traced(f"""
import json, layers
tracer = layers.Tracer()
layers.install(tracer)
from spherization_lab import experiments
from spherization_lab.config import load_config
experiments.run(load_config({str(config)!r}), out_dir={str(tmp_path / name)!r})
print(json.dumps({{k: v.rows for k, v in tracer.stages.items()}}))
""")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_sees_census_stages(tmp_path):
    # the tracer files integrate_batch rows under a census stage by the name
    # of the function that calls it; a refactor that moves those calls
    # elsewhere would hide mesh or polish time from the benchmark.  The sol
    # census integrates both stages; the torus census evaluates its mesh and
    # polish in closed form and integrates only the re-verification, which
    # the tracer files under the polish
    rows = _census_stage_rows(tmp_path, "sol", TINY_SOL_CENSUS)
    assert rows.get("census.mesh", 0) > 0 and rows.get("census.polish", 0) > 0
    rows = _census_stage_rows(tmp_path, "torus", TINY_TORUS_CENSUS)
    assert "census.mesh" not in rows and rows.get("census.polish", 0) > 0


TINY_SOL_VOLUME = """
[experiment]
name = volume-growth
seed = 24

[manifold]
kind = sol

[sol]
k = 1.0

[volume]
n_max = 3
resolution = 162
refine_threshold = 4.0
vertex_budget = 50000
"""


def test_benchmark_sees_volume_stages(tmp_path):
    # the level advance of volume_growth and the midpoint integration of
    # its evolve_new are told apart by caller name, like the census stages
    config = tmp_path / "volume.ini"
    config.write_text(TINY_SOL_VOLUME)
    done = _traced(f"""
import json, layers
tracer = layers.Tracer()
layers.install(tracer)
from spherization_lab import experiments
from spherization_lab.config import load_config
experiments.run(load_config({str(config)!r}), out_dir={str(tmp_path / "out")!r})
print(json.dumps({{k: v.rows for k, v in tracer.stages.items()}}))
""")
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout.splitlines()[-1])
    assert rows.get("volume.advance", 0) > 0 and rows.get("volume.refine", 0) > 0


def test_benchmark_sees_every_geometry_lift():
    # the tracer wraps deck_apply, frame_displacement and nearest_lift on
    # the ModelManifold base class; a model that overrode one of them would
    # run its lifts past the tracer without an error
    done = _traced("""
import layers, numpy as np
tracer = layers.Tracer()
layers.install(tracer)
from spherization_lab.geometry import ModelManifold
for man in (ModelManifold.torus(), ModelManifold.sol()):
    q = man.random_point(np.random.default_rng(0))
    man.deck_apply((1,) * man.dim, q)
    man.frame_displacement(q + 0.1, q)
    man.nearest_lift(q + 0.1, q)
print(tracer.totals["geometry.lift"].calls)
""")
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.splitlines()[-1]) == 6
