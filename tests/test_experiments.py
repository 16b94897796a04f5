import json
from pathlib import Path

import numpy as np
import pytest

from spherization_lab import dynamics as dyn
from spherization_lab import sol as sol_mod
from spherization_lab.config import load_config
from spherization_lab.errors import InvariantFailureError
from spherization_lab.experiments import _sol_chi_task, run, write_csv
from spherization_lab.geometry import CotangentPoint

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _run(tmp_path, text, allow_failed_checks=False):
    p = tmp_path / "c.ini"
    p.write_text(text)
    cfg = load_config(str(p))
    out = tmp_path / "out"
    try:
        manifest = run(cfg, out_dir=out)
    except InvariantFailureError:
        if not allow_failed_checks:
            raise
        manifest = json.loads((out / "manifest.json").read_text())
    return manifest, out


def test_all_shipped_configs_validate():
    paths = sorted(REPO_CONFIGS.glob("*.ini"))
    assert len(paths) >= 8
    for p in paths:
        cfg = load_config(str(p))
        assert cfg.name


def test_sol_sweep_with_subcritical_levels(tmp_path):
    manifest, out = _run(tmp_path, """
[experiment]
name = sol-sweep
seed = 21

[sol]
mode = fixed-point
count = 4
horizon = 300.0
k_values = 0.3 0.75 1.0
""")
    body = (out / "sol-sweep.csv").read_text().splitlines()
    assert body[0] == "k,chi_plus,closed_form,ratio"
    rows = [line.split(",") for line in body[1:]]
    assert [r[0] for r in rows] == ["0.3", "0.75", "1.0"]
    # closed forms: 0 below the critical level, sqrt(2k-1) above
    assert float(rows[0][2]) == 0.0
    assert np.isclose(float(rows[1][2]), np.sqrt(0.5))
    assert float(rows[0][1]) <= 0.02          # subcritical ensemble fallback
    assert abs(float(rows[1][1]) - np.sqrt(0.5)) <= 1e-3
    assert manifest["pass"]


def test_mpp_on_sol_reports_ratio(tmp_path):
    manifest, out = _run(tmp_path, """
[experiment]
name = mpp
seed = 23

[manifold]
kind = sol

[sol]
k = 1.0

[census]
horizon = 4.0
resolution = 256
coarse_threshold = 0.35
grid = 1
""")
    r = manifest["results"]
    assert "rate_over_closed_form" in r
    assert r["closed_form"] == 1.0
    # the comparison is reported, never asserted
    assert manifest["checks"]["positive-rate-reported"]["hard"] is False
    body = (out / "mpp.csv").read_text()
    assert body.startswith("t,avg_nu\n")


def test_volume_growth_sol_manifest_fields(tmp_path):
    # short horizons may misclassify the verdict; the run still writes the
    # manifest before the hard check raises
    manifest, out = _run(tmp_path, """
[experiment]
name = volume-growth
seed = 24

[manifold]
kind = sol

[sol]
k = 1.0

[volume]
n_max = 6
resolution = 162
refine_threshold = 18.0
vertex_budget = 50000
fit_window = 5
""", allow_failed_checks=True)
    r = manifest["results"]
    assert r["levels_completed"] == 6
    assert not r["exhausted"]
    assert len(r["volumes"]) == 7
    body = (out / "volume-growth.csv").read_text().splitlines()
    assert body[0] == "n,volume" and len(body) == 8


def test_manifest_reproducibility_fields(tmp_path):
    manifest, out = _run(tmp_path, """
[experiment]
name = group-growth
seed = 77

[growth]
n_max = 6
control_n_max = 10
fit_window = 4
control_fit_window = 4
""", allow_failed_checks=True)
    echo = manifest["config"]
    assert echo["experiment"]["seed"] == 77
    assert echo["growth"]["n_max"] == 6
    assert isinstance(manifest["config_hash"], str)
    assert manifest["wall_clock_sec"] >= 0.0
    again = json.loads((out / "manifest.json").read_text())
    assert again["config_hash"] == manifest["config_hash"]


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), (2, float(np.float64(1) / 3))])
    assert path.read_bytes() == b"a,b\n1,0.5\n2,0.3333333333333333\n"


def test_sol_census_honors_explicit_pair(tmp_path):
    manifest, out = _run(tmp_path, """
[experiment]
name = chord-census
seed = 31

[manifold]
kind = sol

[sol]
k = 1.0

[census]
horizon = 2.0
resolution = 128
coarse_threshold = 0.35
pairs = 1
q0 = 0.1 0.2 0.3
q1 = 0.15 0.25 0.35
""", allow_failed_checks=True)
    pair = manifest["results"]["pairs"][0]
    assert np.allclose(pair["q0"], [0.1, 0.2, 0.3])
    # target jittered by the recorded seeded offset
    assert np.allclose(np.array(pair["q1"]) - np.array(pair["jitter"]),
                       [0.15, 0.25, 0.35])


@pytest.mark.parametrize("k", [0.3, 1.0])
def test_momentum_path_matches_full_flow(sol, rng, k):
    # the ensembles integrate the reduced Euler equations; the exponent must
    # agree with the full cotangent flow from the same initial state
    cfg = dyn.IntegratorConfig()
    field = sol_mod.sol_field(sol)
    Q, P = sol_mod.sample_level_states(sol, k, 2, rng)
    for q0, p0 in zip(Q, P):
        chi, drift, integral_drift = _sol_chi_task(
            (sol_mod.momentum_map(q0, p0), 100.0, 0.1, cfg))
        traj = dyn.integrate(field, CotangentPoint(q0, p0), 100.0, cfg)
        ref = sol_mod.lyapunov_estimate(traj, 0.1).chi
        assert abs(chi - ref) <= 1e-6 * abs(ref)
        assert drift <= 1e-8 and integral_drift <= 1e-8


def test_sol_entropy_midpoint_keeps_quadratic_invariants(tmp_path):
    # implicit midpoint preserves quadratic invariants, and on the momenta
    # both H and M_x M_y are quadratic; the same run on the full flow drifts
    # by 2.65e-5 in energy and aborts
    manifest, _ = _run(tmp_path, """
[experiment]
name = sol-entropy
seed = 5

[sol]
k = 1.0
mode = ensemble
count = 2
horizon = 20.0

[integrator]
scheme = midpoint
max_step = 0.01
""")
    r = manifest["results"]
    assert r["count"] == 2
    assert r["energy_drift_max"] <= 1e-11
    assert r["first_integral_drift_max"] <= 1e-11


def test_census_counts_only_reverified_chords(tmp_path):
    # at this seed the second pair polishes a root to newton_tol that its
    # fresh re-integration puts just above it (1.00036e-8); it must not count
    manifest, _ = _run(tmp_path, """
[experiment]
name = chord-census
seed = 7072627512578973716

[manifold]
kind = sol

[sol]
k = 1.0

[census]
horizon = 3.0
resolution = 192
coarse_threshold = 0.35
pairs = 2
""")
    pairs = manifest["results"]["pairs"]
    assert all(p["max_residual"] <= 1e-8 for p in pairs)
    assert all(p["records"] == p["nu"][-1] for p in pairs)
    assert sum(p["diagnostics"]["reverify_misses"] for p in pairs) >= 1
