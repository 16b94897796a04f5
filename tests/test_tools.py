import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _fingerprint(*args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_fingerprint_script_prints_the_same_hashes_twice():
    # every workload at its smoke size and every quick shipped config: one
    # sha256 per CSV and per manifest, the same on a second run, so two
    # trees compare with one diff
    lines = _fingerprint("--seeds", "1", "--smoke")
    assert lines == _fingerprint("--seeds", "1", "--smoke")
    labels = [line.split("  ", 1)[1] for line in lines]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert len(set(labels)) == len(labels)
    runs = {label.rsplit("/", 1)[0] for label in labels}
    assert runs == {label.rsplit("/", 1)[0] for label in labels
                    if label.endswith("/manifest.json")}
    for name in ("sol-ensemble", "sol-census", "torus-census", "sol-volume"):
        assert f"{name}/seed1/input0" in runs
    # the volume runs and the torus censuses whose profile is not round,
    # each with a CSV
    extra = {"volume/sol-passes", "volume/torus-circle",
             "census/torus-ellipse", "census/torus-fourier",
             "census/torus-ellipse-mpp"}
    assert {r for r in runs if r.startswith(("volume/", "census/"))} == extra
    assert extra <= {label.rsplit("/", 1)[0] for label in labels
                     if label.endswith(".csv")}
    shipped = {f"configs/{p.stem}" for p in (ROOT / "configs").glob("*.ini")}
    assert {r for r in runs if r.startswith("configs/")} == shipped - {
        "configs/sol-census", "configs/sol-subcritical"}
    assert any(label.endswith(".csv") for label in labels)
