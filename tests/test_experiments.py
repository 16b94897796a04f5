import json
from pathlib import Path

import numpy as np
import pytest

from spherization_lab import dynamics as dyn
from spherization_lab import experiments
from spherization_lab import sol as sol_mod
from spherization_lab.config import SCHEMA, load_config
from spherization_lab.errors import InvariantFailureError
from spherization_lab.experiments import _sol_chi_share, run, write_csv
from spherization_lab.geometry import CotangentPoint, ModelManifold

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
    # per level compact integer lists, and the solves' summed counters
    diag = r["diagnostics"]
    for name in ("vertices", "splits", "passes", "irreducible"):
        assert len(diag[name]) == 7
        assert all(isinstance(v, int) and v >= 0 for v in diag[name])
    assert diag["vertices"][-1] == r["vertex_count"]
    assert sorted(diag["integrator"]) == ["nfev", "rejected", "steps"]
    assert diag["integrator"]["nfev"] > diag["integrator"]["steps"] > 0
    body = (out / "volume-growth.csv").read_text().splitlines()
    assert body[0] == "n,volume" and len(body) == 8


def test_flat_volume_control_passes_at_short_horizon(tmp_path):
    # a fiber circle's length grows linearly, so the semilog slope over a
    # window ending at n = 10 is about 0.13; the flat control rules on the
    # verdict, which reads polynomial at every horizon, not on the rate
    manifest, _ = _run(tmp_path, """
[experiment]
name = volume-growth
seed = 31

[volume]
n_max = 10
resolution = 64
refine_threshold = 0.2
fit_window = 6
""")
    check = manifest["checks"]["flat-volume-subexponential"]
    assert check["passed"] and check["verdict"] == "polynomial"
    assert check["rate"] > 0.05
    assert not manifest["results"]["exhausted"]


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


def test_unexpected_error_writes_internal_error_manifest(tmp_path,
                                                         monkeypatch):
    # an exception outside the lab's own error types still leaves a
    # manifest behind, filed as internal-error, and reaches the caller
    def broken(cfg, out, rng):
        raise RuntimeError("runner bug")

    monkeypatch.setitem(experiments._RUNNERS, "group-growth", broken)
    p = tmp_path / "c.ini"
    p.write_text("[experiment]\nname = group-growth\n")
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="runner bug"):
        run(load_config(str(p)), out_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == {"category": "internal-error",
                                 "message": "runner bug"}
    assert manifest["pass"] is False


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
        (chi, drift, integral_drift, _), = _sol_chi_share(
            ([sol_mod.momentum_map(q0, p0)], 100.0, 0.1, cfg))
        traj = dyn.integrate(field, CotangentPoint(q0, p0), 100.0, cfg)
        # the full flow's own z increment over [10, 100]: z' = p_z = M_z
        i_b = int(np.searchsorted(traj.times, 10.0))
        ref = abs(traj.q[-1, 2] - traj.q[i_b, 2]) / (100.0 - traj.times[i_b])
        assert abs(chi - ref) <= 1e-6 * abs(ref)
        assert drift <= 1e-8 and integral_drift <= 1e-8


@pytest.mark.parametrize("k", [0.3, 1.0])
def test_sol_chi_converged_to_tight_tolerance(sol, rng, k):
    # the exponent carries no quadrature error: at the default tolerance it
    # is within 1e-6 of the full flow's z increment at rel_tol 1e-13 (a
    # Simpson average of M_z on a 0.05 grid is off by 1.0e-6 here at k = 1)
    field = sol_mod.sol_field(sol)
    tight = dyn.IntegratorConfig(rel_tol=1e-13)
    Q, P = sol_mod.sample_level_states(sol, k, 2, rng)
    for q0, p0 in zip(Q, P):
        chi = _sol_chi_share(([sol_mod.momentum_map(q0, p0)], 100.0, 0.1,
                              dyn.IntegratorConfig()))[0][0]
        _, (q,), _ = dyn.integrate_batch(field, q0, p0, 100.0, tight,
                                         t_eval=np.array([0.0, 10.0, 100.0]))
        ref = abs(q[2, 2] - q[1, 2]) / 90.0
        assert abs(chi - ref) <= 1e-6 * ref


@pytest.mark.parametrize("k", [0.75, 1.0, 1.5])
def test_sol_chi_at_fixed_point_is_closed_form(sol, rng, k):
    q0 = sol.random_point(rng)
    M0 = sol_mod.momentum_map(q0, sol_mod.fixed_point_covector(k, q0))
    chi = _sol_chi_share(([M0], 100.0, 0.1, dyn.IntegratorConfig()))[0][0]
    assert abs(chi - np.sqrt(2 * k - 1)) <= 1e-12


def test_sol_chi_ignores_max_step_under_rk(sol, rng):
    # the adaptive scheme samples a unit grid whatever max_step says, so no
    # dense sample grid feeds the exponent or the drift checks
    Q, P = sol_mod.sample_level_states(sol, 0.3, 1, rng)
    M0 = sol_mod.momentum_map(Q, P)[0]
    outs = [_sol_chi_share(([M0], 100.0, 0.1,
                            dyn.IntegratorConfig(max_step=step)))[0]
            for step in (0.05, 0.5)]
    assert outs[0] == outs[1]
    assert outs[0][3]["samples"] == 101


@pytest.mark.parametrize("scheme", ["rk", "midpoint"])
def test_ensemble_members_keep_their_bits_under_any_chunking(
        sol, rng, monkeypatch, scheme):
    # each member's chi, drifts and counters are those of its own solve,
    # whether it runs alone, in one lockstep call or in the shares of 1, 2
    # or 3 workers; under rk the fixed point (M_x = M_y = 0) takes fewer
    # steps than the generic members, so groups retire at different times
    cfg = dyn.IntegratorConfig(scheme=scheme, max_step=0.05)
    Q, P = sol_mod.sample_level_states(sol, 1.0, 4, rng)
    M0s = np.concatenate([[[0.0, 0.0, 1.0]], sol_mod.momentum_map(Q, P)])
    horizon = 30.0
    alone = [_sol_chi_share(([M0], horizon, 0.1, cfg))[0] for M0 in M0s]
    if scheme == "rk":
        assert alone[0][3]["steps"] < min(o[3]["steps"] for o in alone[1:])
    assert _sol_chi_share((M0s, horizon, 0.1, cfg)) == alone
    shares = []

    def serial(fn, tasks, workers):
        shares.append([len(t[0]) for t in tasks])
        return [fn(t) for t in tasks]

    monkeypatch.setattr(experiments, "_pmap", serial)
    for workers in (1, 2, 3):
        assert experiments._sol_chis((M0s, horizon, 0.1, cfg),
                                     workers) == alone
    assert shares == [[5], [2, 3], [1, 2, 2]]


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


def test_sol_entropy_midpoint_samples_are_step_endpoints(tmp_path):
    # at this horizon the sample spacing is not the step of a uniform grid
    # over the whole run; each sample must still be a step endpoint rather
    # than an interpolation between steps, which reads as energy drift
    manifest, _ = _run(tmp_path, """
[experiment]
name = sol-entropy
seed = 5

[sol]
k = 1.0
mode = ensemble
count = 2
horizon = 20.01

[integrator]
scheme = midpoint
max_step = 0.01
""")
    assert manifest["results"]["energy_drift_max"] <= 1e-12


def test_sol_census_pinned_counts(tmp_path):
    # the exact nu series of a small sol census at a fixed seed; the field
    # kernels are bit-stable, so any change here is a change of behaviour
    manifest, _ = _run(tmp_path, """
[experiment]
name = chord-census
seed = 2

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
    assert [p["nu"] for p in manifest["results"]["pairs"]] == [
        [13, 84, 166], [13, 91, 161]]
    # every representative ends in exactly one Newton outcome, and the
    # failures are the outcomes other than a root inside the window
    causes = ("converged", "blowup", "damping_floor", "singular",
              "outside_window", "sweep_cap")
    assert [p["diagnostics"]["newton_outcomes"]
            for p in manifest["results"]["pairs"]] == [
        dict(zip(causes, (192, 2, 3, 0, 7, 0))),
        dict(zip(causes, (181, 1, 3, 0, 14, 0)))]
    for pair in manifest["results"]["pairs"]:
        diag = pair["diagnostics"]
        outcomes = diag["newton_outcomes"]
        failed = sum(n for cause, n in outcomes.items() if cause != "converged")
        assert failed + outcomes["converged"] == diag["representatives"]
        assert failed == diag["newton_failures"] > 0


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


def test_ellipse_census_counts_reeb_chords(tmp_path):
    # on F = p_x^2 + p_y^2 / 4 the flow of F/2 runs at velocity
    # (p_x, p_y / 4), so it reaches q0 + w at time |(w_x, 2 w_y)|
    manifest, _ = _run(tmp_path, """
[experiment]
name = chord-census
seed = 117

[profile]
kind = ellipse
axes = 1 2

[census]
horizon = 10.0
resolution = 1024
""")
    pair = manifest["results"]["pairs"][0]
    w = ModelManifold.torus().lattice_translates(
        np.subtract(pair["q1"], pair["q0"]), 10.0)
    arrival = np.hypot(w[:, 0], 2.0 * w[:, 1])
    oracle = [int(np.sum(arrival <= t)) for t in range(1, 11)]
    assert pair["nu"] == oracle


def test_every_profile_kind_has_its_own_class(tmp_path):
    # a kind added to the schema but not wired into profile_from fails here
    kinds = SCHEMA["profile"]["kind"]["choices"]
    torus = ModelManifold.torus()
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    q = np.array([0.3, 0.7])
    classes = set()
    for kind in kinds:
        path = tmp_path / f"{kind}.ini"
        path.write_text("[experiment]\nname = chord-census\n\n"
                        f"[profile]\nkind = {kind}\nfourier_cos = 0 0 0 0.1\n")
        cfg = load_config(str(path))
        profile = experiments.profile_from(cfg, torus.dim)
        assert profile.kind == kind
        classes.add(type(profile))
        surface = experiments.sandwich_from(cfg, torus).surface_covector(q, dirs)
        assert np.max(np.abs(profile.gauge(torus, q, surface) - 1.0)) <= 1e-12
    assert len(classes) == len(kinds)
