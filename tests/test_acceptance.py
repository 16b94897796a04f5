"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The collected lines are echoed uncaptured in an "acceptance criteria"
terminal section at the end of the run (add ``-s`` to watch them live).
The heavy criteria (2, 7, 8, 11) take a few minutes each at the
configured sizes.
"""

import json
import math

import numpy as np
import pytest

from spherization_lab import dynamics as dyn
from spherization_lab import sol as sol_mod
from spherization_lab.config import load_config
from spherization_lab.entropy import torus_chord_count
from spherization_lab.errors import InvariantFailureError
from spherization_lab.experiments import run
from spherization_lab.geometry import CotangentPoint, ModelManifold

from conftest import ACCEPTANCE_LINES
from sandwich_helpers import (slope_positive_above_knot,
                              time_change_residual)


def _line(num, ok, msg):
    text = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {msg}"
    print("\n" + text)
    ACCEPTANCE_LINES.append(text)  # echoed uncaptured in the terminal summary
    return ok


def _run_config(tmp_path, text, expect_failure=False):
    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text(text)
    cfg = load_config(str(cfg_path))
    out = tmp_path / "out"
    try:
        manifest = run(cfg, out_dir=out)
        raised = None
    except InvariantFailureError as exc:
        if not expect_failure:
            raise
        manifest = json.loads((out / "manifest.json").read_text())
        raised = exc
    return manifest, out, raised


def test_criterion_01_sol_closed_form_at_fixed_point(tmp_path):
    manifest, _, _ = _run_config(tmp_path, """
[experiment]
name = sol-sweep
seed = 101

[sol]
mode = fixed-point
horizon = 100.0
k_values = 0.75 1.0 1.5
""")
    gaps = {}
    for k in (0.75, 1.0, 1.5):
        entry = manifest["results"]["levels"][str(k)]
        gaps[k] = abs(entry["chi"] - math.sqrt(2 * k - 1))
    ok = all(g <= 1e-3 for g in gaps.values())
    assert _line(1, ok, f"fixed-point exponent gaps {gaps} (tol 1e-3)")


def test_criterion_02_sol_subcritical_vanishing(tmp_path):
    manifest, _, _ = _run_config(tmp_path, """
[experiment]
name = sol-entropy
seed = 102
workers = 4

[sol]
k = 0.3
mode = ensemble
count = 50
horizon = 2000.0
""")
    chi_max = manifest["results"]["chi_max"]
    ok = chi_max <= 0.02
    assert _line(2, ok, f"k=0.3 max exponent over 50 seeds, T=2000: "
                        f"{chi_max:.3e} (tol 0.02)")


def test_criterion_03_conservation_suite():
    sol = ModelManifold.sol()
    field = sol_mod.sol_field(sol)
    cfg = dyn.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    rng = np.random.default_rng(103)
    worst_drift = 0.0
    worst_integral = 0.0
    for k in (0.75, 1.0, 1.5):
        Q, P = sol_mod.sample_level_states(sol, k, 3, rng)
        for i in range(3):
            traj = dyn.integrate(field, CotangentPoint(Q[i], P[i]), 100.0, cfg)
            worst_drift = max(worst_drift, traj.energy_drift)
            integral = sol_mod.first_integral(traj.q, traj.p)
            worst_integral = max(worst_integral,
                                 float(np.max(np.abs(integral - integral[0]))))
    ok = worst_drift <= 1e-8 and worst_integral <= 1e-8
    assert _line(3, ok, f"T=100 at rel_tol 1e-10: energy drift "
                        f"{worst_drift:.2e}, first-integral drift "
                        f"{worst_integral:.2e} (tol 1e-8)")


def test_criterion_04_action_identities(tmp_path):
    manifest, _, _ = _run_config(tmp_path, """
[experiment]
name = action-check
seed = 104
""")
    r = manifest["results"]
    counts = r["classified"]
    ok = (manifest["pass"]
          and r["max_scaling_error"] <= 1e-6
          and r["max_formula_gap"] <= 1e-6
          and counts["inside"] > 0 and counts["outside"] > 0)
    assert _line(4, ok,
                 f"scaling err {r['max_scaling_error']:.2e}, formula gap "
                 f"{r['max_formula_gap']:.2e} (tol 1e-6); classified "
                 f"{counts['inside']}+{counts['outside']} chords, "
                 f"{counts['boundary-ambiguous']} ambiguous, 0 violations")


def test_criterion_05_time_change_identity(round_sandwich, ellipse_sandwich,
                                           rng):
    worst = 0.0
    count = 0
    for sw in (round_sandwich, ellipse_sandwich):
        eps = sw.cutoff.eps
        for i in range(500):
            theta = rng.uniform(0, 2 * np.pi)
            q = rng.uniform(size=2)
            x = CotangentPoint(q, sw.surface_covector(
                q, np.array([np.cos(theta), np.sin(theta)])))
            if i % 5 == 0:
                s = 1.0
            elif i % 5 == 1:
                s = rng.uniform(0.0, eps)  # vanishing branch
            else:
                s = rng.uniform(0.01, 1.0)
            worst = max(worst, time_change_residual(sw, x, float(s)))
            count += 1
    ok = worst <= 1e-9 and count == 1000
    assert _line(5, ok, f"fiber-scaling conjugacy residual over {count} "
                        f"samples (s=1 and s<=eps included): {worst:.2e} "
                        f"(tol 1e-9)")


def test_criterion_06_sandwich_and_cutoff(round_sandwich, ellipse_sandwich,
                                          rng):
    violations = 0
    for sw in (round_sandwich, ellipse_sandwich):
        n = 100_000
        q = rng.uniform(0, 1, size=(n, 2))
        p = rng.normal(size=(n, 2))
        p *= (rng.uniform(0, 8.0, size=(n, 1))
              / np.linalg.norm(p, axis=1, keepdims=True))
        lo, core, up = sw.sandwich_eval(q, p)
        violations += int(np.sum(lo > core + 1e-12))
        violations += int(np.sum(core > up + 1e-12))
    slopes_ok = True
    eps_ok = True
    for sw in (round_sandwich, ellipse_sandwich):
        s_min, s_max = sw.cutoff.slope_bounds()
        slopes_ok &= (0.0 <= s_min and s_max <= 2.0
                      and slope_positive_above_knot(sw.cutoff))
        eps_ok &= sw.cutoff.eps ** 2 < 1.0 / (2.0 * sw.upper_scale)
    ok = violations == 0 and slopes_ok and eps_ok
    assert _line(6, ok, f"{violations} order violations on 2x10^5 samples; "
                        f"slope within [0,2]: {slopes_ok}; "
                        f"eps^2 < 1/(2 sigma): {eps_ok}")


def test_criterion_07_torus_chord_oracle(tmp_path):
    manifest, out, _ = _run_config(tmp_path, """
[experiment]
name = chord-census
seed = 107

[census]
horizon = 30.0
resolution = 1024
""")
    checks = manifest["checks"]
    entry = manifest["results"]["pairs"][0]
    slope = entry["loglog_slope"]
    ok = (checks["torus-oracle-exact"]["passed"]
          and checks["torus-quadratic-slope"]["passed"])
    assert _line(7, ok, f"counts exact vs lattice oracle for T<=10; "
                        f"log-log slope over [5,30] = {slope:.3f} "
                        f"(2.0 +- 0.3)")


def test_criterion_08a_sol_volume_witness(tmp_path):
    manifest, _, _ = _run_config(tmp_path, """
[experiment]
name = volume-growth
seed = 108

[manifold]
kind = sol

[sol]
k = 1.0

[volume]
n_max = 12
resolution = 162
refine_threshold = 18.0
vertex_budget = 200000
fit_window = 6
""")
    r = manifest["results"]
    ok = (r["verdict"] == "exponential" and r["rate"] >= 0.2
          and not r["exhausted"] and r["levels_completed"] == 12
          and r["vertex_count"] <= 200000)
    assert _line(8, ok, f"(a) evolved fiber sphere: rate {r['rate']:.3f} "
                        f">= 0.2, verdict {r['verdict']}, "
                        f"{r['vertex_count']} vertices of 2e5 budget")


def test_criterion_08b_sol_census_rate_monotone(tmp_path):
    manifest, _, raised = _run_config(tmp_path, """
[experiment]
name = chord-census
seed = 108

[manifold]
kind = sol

[sol]
k = 1.0

[census]
horizon = 12.0
resolution = 4096
coarse_threshold = 0.35
pairs = 3
""", expect_failure=True)
    details = []
    all_ok = True
    for i, pair in enumerate(manifest["results"]["pairs"]):
        g = pair.get("normalized_log_counts", [])
        positive = bool(g) and all(v is not None and v > 0 for v in g)
        monotone = positive and all(g[j + 1] >= g[j] - 1e-12
                                    for j in range(len(g) - 1))
        all_ok &= positive and monotone
        details.append(f"pair{i}: nu={pair['nu'][5:12]} "
                       f"(1/t)log nu={[round(v, 3) for v in g]}")
    # Positivity holds; monotonicity is a known-infeasible criterion at desk
    # scale (see the decisions ledger): counting is complete only while the
    # arrival basins stay above mesh resolution, and the genuine early counts
    # already force nu(12) >= nu(6)^2 ~ 10^6 for a non-decreasing profile.
    assert _line(8, all_ok,
                 "(b) sol census rate positive+non-decreasing on [6,12]: "
                 + "; ".join(details))


def test_criterion_09_noncrossing(tmp_path):
    manifest, _, _ = _run_config(tmp_path, """
[experiment]
name = noncrossing-check
seed = 109

[noncrossing]
n_values = 1 2 3
s_points = 32
exclusion = 1e-4
""")
    sep = manifest["results"]["min_separation"]
    ok = manifest["pass"] and sep > 1e-4
    assert _line(9, ok, f"action window avoids every blend-spectrum value; "
                        f"min separation {sep:.3e} (band 1e-4)")


def test_criterion_10_group_growth(tmp_path):
    manifest, _, _ = _run_config(tmp_path, """
[experiment]
name = group-growth
seed = 110

[growth]
n_max = 12
control_n_max = 28
fit_window = 6
control_fit_window = 8
""")
    r = manifest["results"]
    oracle = [1, 7, 33, 103, 273, 663, 1521, 3355, 7277, 15547, 32817,
              68607, 142241]
    exact = r["counts"] == oracle
    ok = (exact and r["verdict"] == "exponential" and r["rate"] >= 0.3
          and r["control_verdict"] == "polynomial" and r["control_rate"] <= 0.1)
    assert _line(10, ok, f"balls exact vs recorded oracle to n=12: {exact}; "
                         f"lattice rate {r['rate']:.3f} ({r['verdict']}), "
                         f"control rate {r['control_rate']:.3f} "
                         f"({r['control_verdict']})")


_DETERMINISM_CONFIGS = {
    "sol-entropy": """
[sol]
k = 1.0
mode = ensemble
count = 4
horizon = 50.0
""",
    "sol-sweep": """
[sol]
mode = fixed-point
horizon = 50.0
k_values = 0.75 1.0
""",
    "chord-census": """
[census]
horizon = 4.0
resolution = 128
""",
    "volume-growth": """
[volume]
n_max = 30
resolution = 32
refine_threshold = 0.3
""",
    "action-check": """
[action]
n_values = 1
scales = 2.0
chord_count = 3
grid = 24
p_max = 1.8
""",
    "noncrossing-check": """
[noncrossing]
n_values = 1
s_points = 5
""",
    "group-growth": """
[growth]
n_max = 8
control_n_max = 12
fit_window = 4
control_fit_window = 4
""",
    "mpp": """
[census]
horizon = 4.0
resolution = 128
grid = 1
""",
}


def test_criterion_11_determinism_across_workers(tmp_path):
    mismatches = []
    for name, body in _DETERMINISM_CONFIGS.items():
        outputs = {}
        manifests = {}
        for workers in (1, 8):
            sub = tmp_path / f"{name}-w{workers}"
            sub.mkdir()
            text = (f"[experiment]\nname = {name}\nseed = 111\n"
                    f"workers = {workers}\n") + body
            cfg_path = sub / "config.ini"
            cfg_path.write_text(text)
            cfg = load_config(str(cfg_path))
            out = sub / "out"
            try:
                run(cfg, out_dir=out)
            except InvariantFailureError:
                pass  # determinism must hold for failing runs too
            bodies = {}
            for f in sorted(out.glob("*.csv")):
                bodies[f.name] = f.read_bytes()
            outputs[workers] = bodies
            m = json.loads((out / "manifest.json").read_text())
            m.pop("wall_clock_sec", None)
            m.pop("workers", None)
            m["config"]["experiment"].pop("workers", None)
            m.pop("config_hash", None)  # echoes the workers knob
            manifests[workers] = m
        if outputs[1] != outputs[8]:
            mismatches.append(f"{name}: csv bodies differ")
        if manifests[1] != manifests[8]:
            mismatches.append(f"{name}: manifests differ beyond wall clock")
    ok = not mismatches
    assert _line(11, ok, "byte-identical CSV bodies for workers 1 vs 8 "
                         "across all 8 experiments"
                 + ("" if ok else "; " + "; ".join(mismatches)))
