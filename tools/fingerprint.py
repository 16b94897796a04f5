"""Hash every output that a change must keep bit for bit.

    python3 tools/fingerprint.py --seeds 1,2,3 > before.txt
    python3 tools/fingerprint.py --seeds 1,2,3 --slow > after.txt
    diff before.txt after.txt

Run from the root of a checkout.  Each input of the benchmark's workloads
(``perfbench/workloads.py``) on each seed, then each shipped config in
``configs/``, is one ``experiments.run`` in a temporary directory.  The
script prints one line ``<sha256>  <run>/<file>`` per CSV the run writes and
one for its manifest, hashed with ``wall_clock_sec`` removed, so two trees
that give the same bits print the same lines.  A run that fails with one of
the lab's errors (the census of ``sol-census.ini`` fails its monotonicity
check by design) is still hashed: its manifest records the error.

Two volume-growth runs follow, whatever the flags: a sol fiber refined over
three or four passes per level to about 49 000 vertices, and a torus circle
refined at threshold 0.1 over 30 levels, so the diff also covers multi-pass
refinement and the polygon (d = 1) that the workloads hardly touch.  Then
three torus chord censuses with a profile that is not round, whose Reeb
field is F/2 for the profile's gauge F (``scaled_field(gauge_field(...),
0.5)``, which no other run builds): an ellipse and a Fourier profile, and
the ellipse's census averaged over base-point pairs.

The configs of acceptance criteria 02 and 08b take most of the time and run
only with ``--slow``.  ``--smoke`` runs each workload at its smoke size, one
input per seed, as ``perfbench/run.py --smoke`` does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

SLOW_CONFIGS = ("sol-census.ini", "sol-subcritical.ini")   # criteria 08b, 02

VOLUME_RUNS = {
    "sol-passes": """
[experiment]
name = volume-growth
seed = 7

[manifold]
kind = sol

[sol]
k = 1.0

[volume]
n_max = 4
resolution = 162
refine_threshold = 0.6
vertex_budget = 200000
fit_window = 3
""",
    "torus-circle": """
[experiment]
name = volume-growth
seed = 31

[volume]
n_max = 30
resolution = 64
refine_threshold = 0.1
vertex_budget = 100000
fit_window = 8
""",
}


CENSUS_RUNS = {
    "torus-ellipse": """
[experiment]
name = chord-census
seed = 117

[profile]
kind = ellipse
axes = 1 2

[census]
horizon = 8.0
resolution = 256
""",
    "torus-fourier": """
[experiment]
name = chord-census
seed = 118

[profile]
kind = fourier
fourier_cos = 0 0 0 0.04

[census]
horizon = 8.0
resolution = 256
""",
    "torus-ellipse-mpp": """
[experiment]
name = mpp
seed = 119

[profile]
kind = ellipse
axes = 1 2

[census]
horizon = 6.0
resolution = 128
grid = 2
""",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(label: str, path: Path, scratch: Path):
    """Lines ``<sha256>  <label>/<file>`` of one run of the config at
    ``path``: its CSVs, then its manifest without the wall clock."""
    from spherization_lab.config import load_config
    from spherization_lab.errors import SpherizationError
    from spherization_lab.experiments import run

    out = scratch / label
    try:
        run(load_config(str(path)), out_dir=out)
    except SpherizationError:
        pass            # the manifest records the error
    lines = [f"{_sha256(csv.read_bytes())}  {label}/{csv.name}"
             for csv in sorted(out.glob("*.csv"))]
    manifest = json.loads((out / "manifest.json").read_text())
    manifest.pop("wall_clock_sec", None)
    blob = json.dumps(manifest, sort_keys=True).encode()
    return lines + [f"{_sha256(blob)}  {label}/manifest.json"]


def runs(seeds, *, slow: bool, smoke: bool, scratch: Path):
    """(label, config path) of every run, the configs written to
    ``scratch``: the workload inputs seed by seed, the shipped configs,
    then the volume and the census runs."""
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        for seed in seeds:
            for i, text in enumerate(workload.configs(seed, smoke=smoke)):
                label = f"{name}/seed{seed}/input{i}"
                path = scratch / f"{label.replace('/', '-')}.ini"
                path.write_text(text)
                yield label, path
    for path in sorted((ROOT / "configs").glob("*.ini")):
        if slow or path.name not in SLOW_CONFIGS:
            yield f"configs/{path.stem}", path
    for name, text in VOLUME_RUNS.items():
        path = scratch / f"volume-{name}.ini"
        path.write_text(text)
        yield f"volume/{name}", path
    for name, text in CENSUS_RUNS.items():
        path = scratch / f"census-{name}.ini"
        path.write_text(text)
        yield f"census/{name}", path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2,3",
                    help="comma-separated workload seeds (default 1,2,3)")
    ap.add_argument("--slow", action="store_true",
                    help="also run the configs of criteria 02 and 08b")
    ap.add_argument("--smoke", action="store_true",
                    help="workloads at their smoke sizes")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for label, path in runs(seeds, slow=args.slow, smoke=args.smoke,
                                scratch=scratch):
            for line in fingerprint(label, path, scratch):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
