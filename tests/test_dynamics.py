import dataclasses
import gc
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from spherization_lab import dynamics as dyn
from spherization_lab import sol as sol_mod
from spherization_lab.errors import (IntegrationDivergedError,
                                     InvariantFailureError, StiffnessError)
from spherization_lab.geometry import CotangentPoint, ModelManifold
from spherization_lab.starshape import SandwichedHamiltonians

from conftest import in_place, returning
from sandwich_helpers import (blend_field, cutoff_gauge_field,
                              potential_field, time_change_residual)


def test_convention_lock_straight_geodesics(torus, rng):
    geo = dyn.geodesic_field(torus)
    for _ in range(5):
        q0 = rng.uniform(size=2)
        p0 = rng.normal(size=2)
        traj = dyn.integrate(geo, CotangentPoint(q0, p0), 1.0)
        assert np.allclose(traj.q[-1], q0 + p0, atol=1e-12)
        assert traj.energy_drift < 1e-12
        assert np.all(np.diff(traj.times) > 0)


def test_sol_velocity_components(sol, rng):
    f = sol_mod.sol_field(sol)
    q = rng.normal(size=(100, 3))
    p = rng.normal(size=(100, 3))
    m = sol_mod.momentum_map(q, p)
    v = f.dp(q, p)
    assert np.allclose(v[:, 0], (m[:, 0] + 1.0) * np.exp(q[:, 2]), rtol=1e-12)
    assert np.allclose(v[:, 1], m[:, 1] * np.exp(-q[:, 2]), rtol=1e-12)
    assert np.allclose(v[:, 2], m[:, 2], rtol=1e-12)


def test_core_field_vanishes_near_zero_section(round_sandwich):
    f = dyn.core_field(round_sandwich)
    q = np.zeros(2)
    p = np.full(2, 1e-3)  # gauge(p) far below the cutoff knot
    qdot, pdot = f.rhs(q, p)
    assert np.allclose(qdot, 0.0) and np.allclose(pdot, 0.0)


def _central_difference(value, q, p, h=1e-6):
    """(dH/dq, dH/dp) of ``value`` by central differences."""
    grads = []
    for wrt in range(2):
        g = np.empty_like((q, p)[wrt])
        for i in range(g.shape[-1]):
            shift = np.zeros(g.shape[-1])
            shift[i] = h
            hi, lo = [q, p], [q, p]
            hi[wrt] = hi[wrt] + shift
            lo[wrt] = lo[wrt] - shift
            g[..., i] = (value(*hi) - value(*lo)) / (2.0 * h)
        grads.append(g)
    return grads


def test_gradient_analytic_vs_finite_difference(torus, sol, round_sandwich,
                                                ellipse_sandwich,
                                                fourier_sandwich, rng):
    fields = [dyn.geodesic_field(torus), dyn.geodesic_field(sol),
              dyn.core_field(round_sandwich),
              dyn.core_field(ellipse_sandwich),
              dyn.core_field(fourier_sandwich),
              blend_field(round_sandwich, 0.0),
              blend_field(round_sandwich, 0.37),
              dyn.gauge_field(round_sandwich),
              dyn.gauge_field(ellipse_sandwich),
              dyn.gauge_field(fourier_sandwich),
              # F/2: the Reeb fields that the torus census flows
              dyn.scaled_field(dyn.gauge_field(ellipse_sandwich), 0.5),
              dyn.scaled_field(dyn.gauge_field(fourier_sandwich), 0.5),
              cutoff_gauge_field(ellipse_sandwich),
              blend_field(fourier_sandwich, 1.0),
              dyn.scaled_field(sol_mod.sol_field(sol), 2.5),
              sol_mod.sol_field(sol)]
    for f in fields:
        d = f.manifold.dim
        q = rng.normal(size=(1000, d)) * 0.7
        p = rng.normal(size=(1000, d)) * 1.5
        fd_q, fd_p = _central_difference(f.value, q, p)
        scale = np.maximum(1.0, np.abs(f.value(q, p)))[:, None]
        assert np.max(np.abs(f.dq(q, p) - fd_q) / scale) <= 1e-5, f.name
        assert np.max(np.abs(f.dp(q, p) - fd_p) / scale) <= 1e-5, f.name


@pytest.mark.parametrize("rows", [1, 192, 2048])
def test_flat_rhs_matches_gradient_pair_bitwise(torus, sol, round_sandwich,
                                                sol_round_sandwich, rows):
    # the integrator packs one grads call into (dH/dp, -dH/dq); it must give
    # the same bits as the separate gradients, sign of zero included
    fields = [dyn.geodesic_field(torus), dyn.geodesic_field(sol),
              sol_mod.sol_field(sol),
              dyn.scaled_field(sol_mod.sol_field(sol), 3.0)]
    for sandwich in (round_sandwich, sol_round_sandwich):
        fields += [dyn.gauge_field(sandwich),
                   cutoff_gauge_field(sandwich),
                   dyn.core_field(sandwich), blend_field(sandwich, 0.0),
                   blend_field(sandwich, 1.0),
                   blend_field(sandwich, 0.37)]
    rng = np.random.default_rng(rows)
    for f in fields:
        d = f.manifold.dim
        y = rng.normal(size=2 * rows * d)
        y[::5] = 0.0
        q = y[: rows * d].reshape(rows, d)
        p = y[rows * d:].reshape(rows, d)
        got = returning(dyn._flat_rhs(f, d))(0.0, y)
        want = np.concatenate([f.dp(q, p).ravel(), -f.dq(q, p).ravel()])
        assert np.array_equal(got, want), f.name
        assert np.array_equal(np.signbit(got), np.signbit(want)), f.name


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_kernels_write_their_output_in_place(torus, sol, round_sandwich,
                                             rows):
    # every kernel writes all of a strided, NaN-filled output with the bits
    # of a fresh evaluation, touches nothing else, and leaves y as it was
    rng = np.random.default_rng(rows)
    kernels = {"sol": (dyn._flat_rhs(sol_mod.sol_field(sol), 3), 3),
               "euler": (sol_mod.euler_field, 2)}
    for f in (dyn.geodesic_field(torus), dyn.gauge_field(round_sandwich),
              dyn.core_field(round_sandwich)):
        kernels[f.name] = (dyn._flat_rhs(f, 2), 2)
    for name, (kernel, d) in kernels.items():
        y = rng.normal(size=2 * rows * d)
        y[::3] = 0.0
        before = y.tobytes()
        fresh = np.empty_like(y)
        kernel(0.0, y, fresh)
        buf = np.full(2 * y.size, np.nan)
        kernel(0.0, y, buf[::2])
        assert buf[::2].tobytes() == fresh.tobytes(), name
        assert np.isnan(buf[1::2]).all(), name
        assert y.tobytes() == before, name
        # the sol kernel's -0.0 slots (dp_x, dp_y) are its own writes
        if name == "sol":
            assert np.signbit(fresh[3 * rows:].reshape(rows, 3)[:, :2]).all()


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_euler_field_on_lockstep_states_matches_one_state_calls(k):
    # k states in the lockstep layout, all (M_x, M_y) then all (M_z, z):
    # each state's slots hold the bits of its own one-state call, the fixed
    # point and signed zeros included
    rng = np.random.default_rng(k)
    states = rng.normal(size=(k, 4))
    states[0] = [0.0, -0.0, 1.0, 0.5]
    half = 2 * k
    y = np.concatenate([states[:, :2].ravel(), states[:, 2:].ravel()])
    got = returning(sol_mod.euler_field)(None, y)
    for i, state in enumerate(states):
        one = returning(sol_mod.euler_field)(0.0, state)
        assert got[2 * i:2 * i + 2].tobytes() == one[:2].tobytes()
        assert got[half + 2 * i:half + 2 * i + 2].tobytes() == one[2:].tobytes()


def test_sandwich_fields_evaluate_energy_once(round_sandwich,
                                              sol_round_sandwich, monkeypatch):
    # the blends (lower at t = 0, upper at t = 1) and core evaluate G and its
    # gradients once per grads call
    calls = {"energy": 0, "energy_grads": 0}
    for name in calls:
        method = getattr(SandwichedHamiltonians, name)

        def counted(self, q, p, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, q, p)

        monkeypatch.setattr(SandwichedHamiltonians, name, counted)
    for sandwich in (round_sandwich, sol_round_sandwich):
        d = sandwich.manifold.dim
        q, p = np.full((3, d), 0.2), np.full((3, d), 0.7)
        for field in (blend_field(sandwich, 0.0), dyn.core_field(sandwich),
                      blend_field(sandwich, 0.37),
                      blend_field(sandwich, 1.0)):
            for name in calls:
                calls[name] = 0
            field.grads(q, p)
            assert calls == {"energy": 1, "energy_grads": 1}, field.name


def _core_grads_from_gauge_and_energy(sandwich, q, p):
    # the core field's gradients with F and G each evaluated on its own
    cut, slope = sandwich.cutoff.eval(sandwich.gauge(q, p))
    dq_f, dp_f = sandwich.gauge_grads(q, p)
    g = sandwich.energy(q, p)
    g_dq, g_dp = sandwich.energy_grads(q, p)
    rho = np.sqrt(np.maximum(2.0 * g, 1e-300))
    tau = sandwich.far_step(rho)
    dtau = sandwich.far_step_slope(rho) / rho
    sigma = sandwich.upper_scale
    inner = (1.0 - tau)[..., None]
    outer = (tau * sigma + dtau * (sigma * g - cut))[..., None]
    return (inner * (slope[..., None] * dq_f) + outer * g_dq,
            inner * (slope[..., None] * dp_f) + outer * g_dp)


def test_round_core_field_evaluates_the_metric_once(round_sandwich,
                                                    sol_round_sandwich,
                                                    monkeypatch):
    # on a round profile F and G are both the conorm: one grads call of the
    # core runs conorm_sq and conorm_grads once each, with the bits of F and
    # G evaluated apart
    rng = np.random.default_rng(16)
    for sandwich in (round_sandwich, sol_round_sandwich):
        man = sandwich.manifold
        q = np.stack([man.random_point(rng) for _ in range(64)])
        # the cutoff's three branches: F below eps^2, within, above eps
        p = rng.normal(size=q.shape) * np.geomspace(1e-3, 3.0, 64)[:, None]
        want = _core_grads_from_gauge_and_energy(sandwich, q, p)
        field = dyn.core_field(sandwich)
        calls = {"conorm_sq": 0, "conorm_grads": 0}
        for name in calls:
            method = getattr(type(man), name)

            def counted(self, q, p, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, q, p)

            monkeypatch.setattr(type(man), name, counted)
        got = field.grads(q, p)
        monkeypatch.undo()
        assert calls == {"conorm_sq": 1, "conorm_grads": 1}, man.kind
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert field.value(q, p).tobytes() == sandwich.sandwich_eval(
            q, p)[1].tobytes()


def test_sol_fixed_point_momenta_constant(sol):
    f = sol_mod.sol_field(sol)
    q0 = np.array([0.1, 0.2, 0.3])
    p0 = sol_mod.fixed_point_covector(1.0, q0)
    traj = dyn.integrate(f, CotangentPoint(q0, p0), 100.0)
    m = sol_mod.momentum_map(traj.q, traj.p)
    assert np.max(np.abs(m - np.array([0.0, 0.0, 1.0]))) <= 1e-8


def test_integrator_self_convergence(sol, rng):
    f = sol_mod.sol_field(sol)
    q0 = sol.random_point(rng)
    p0 = sol_mod.level_covector(1.0, q0, np.array([0.6, -0.64, 0.48]) / 1.0)
    x0 = CotangentPoint(q0, p0)
    tight = dyn.integrate(f, x0, 100.0,
                          dyn.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13))
    loose = dyn.integrate(f, x0, 100.0,
                          dyn.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
    assert loose.energy_drift <= 1e-8
    # momenta agree to quadrature accuracy at the final time
    assert np.max(np.abs(tight.p[-1] - loose.p[-1])) < 1e-6


def test_drift_abort_raises(sol, rng):
    f = sol_mod.sol_field(sol)
    q0 = sol.random_point(rng)
    p0 = sol_mod.level_covector(1.0, q0, np.array([0.0, 0.8, -0.6]))
    with pytest.raises(IntegrationDivergedError):
        dyn.integrate(f, CotangentPoint(q0, p0), 50.0,
                      dyn.IntegratorConfig(rel_tol=1e-5, abs_tol=1e-7,
                                           drift_abort=1e-14))


def test_implicit_midpoint_matches_rk(torus, rng):
    geo = dyn.geodesic_field(torus)
    x0 = CotangentPoint(rng.uniform(size=2), rng.normal(size=2))
    mid = dyn.integrate(geo, x0, 1.0,
                        dyn.IntegratorConfig(scheme="midpoint", max_step=0.01))
    assert np.allclose(mid.q[-1], x0.q + x0.p, atol=1e-9)


def test_implicit_midpoint_counts_every_rhs_call(torus, rng):
    # nfev covers the explicit predictor of each step as well as the
    # fixed-point iterations
    rhs = dyn._flat_rhs(dyn.geodesic_field(torus), 2)
    calls = 0

    def counted(t, y, out):
        nonlocal calls
        calls += 1
        rhs(t, y, out)

    y0 = np.concatenate([rng.uniform(size=2), rng.normal(size=2)])
    cfg = dyn.IntegratorConfig(scheme="midpoint", max_step=0.01)
    _, _, stats = dyn.solve(counted, y0, 0.0, 1.0, cfg)
    assert stats["nfev"] == calls > 0
    assert stats["steps"] == 100 and stats["rejected"] == 0


def test_action_constant_orbit_is_zero(torus):
    f = dyn.scaled_field(dyn.geodesic_field(torus), 0.0)
    traj = dyn.integrate(f, CotangentPoint(np.zeros(2), np.zeros(2)), 1.0)
    assert dyn.action_of_trajectory(traj, f) == 0.0


def test_action_geodesic_equals_energy(torus, rng):
    geo = dyn.geodesic_field(torus)
    p0 = rng.normal(size=2)
    traj = dyn.integrate(geo, CotangentPoint(np.zeros(2), p0), 1.0)
    energy = 0.5 * float(p0 @ p0)
    action = dyn.action_of_trajectory(traj, geo)
    assert abs(action - energy) < 1e-10
    # the action on the halved sample grid agrees
    half = dataclasses.replace(traj, times=traj.times[::2], q=traj.q[::2],
                               p=traj.p[::2], energy=traj.energy[::2])
    assert abs(action - dyn.action_of_trajectory(half, geo)) < 1e-10


def test_action_vanishing_inside_cutoff(round_sandwich):
    f = cutoff_gauge_field(round_sandwich)
    eps = round_sandwich.cutoff.eps
    p0 = np.array([eps * 0.5, 0.0])  # gauge below eps^2
    traj = dyn.integrate(f, CotangentPoint(np.zeros(2), p0), 1.0)
    assert abs(dyn.action_of_trajectory(traj, f)) < 1e-14


def test_action_homogeneous_formula():
    assert dyn.action_homogeneous(1.0, 2.0, 2.0) == 2.0          # h = id
    assert dyn.action_homogeneous(3.0, 3.0 * 2.0, 2.0) == 6.0    # h = 3 id
    assert dyn.action_homogeneous(1.0, 0.9, 0.9) == pytest.approx(0.9)


def test_formula_matches_quadrature_on_cutoff_chord(round_sandwich):
    # a trajectory of f(gauge) is a chord between its own endpoint fibers
    f = cutoff_gauge_field(round_sandwich)
    p0 = np.array([np.sqrt(0.9), 0.0])
    traj = dyn.integrate(f, CotangentPoint(np.zeros(2), p0), 1.0,
                         dyn.IntegratorConfig(max_step=0.01))
    val, slope = round_sandwich.cutoff.eval(np.asarray(0.9))
    expected = dyn.action_homogeneous(float(slope), float(val), 0.9)
    assert expected == pytest.approx(0.9)
    action = dyn.action_of_trajectory(traj, f)
    assert abs(action - expected) < 1e-6


def test_scaling_law(torus, ellipse_sandwich, rng):
    geo = dyn.geodesic_field(torus)
    cfgf = dyn.IntegratorConfig(max_step=0.01)
    w = np.array([1.5, 0.5])
    chord = dyn.integrate(geo, CotangentPoint(np.zeros(2), w), 1.0, cfgf)
    rel, res = dyn.verify_scaling_law(geo, chord, 1.0)
    assert rel == 0.0
    for c in (2.0, 3.0):
        rel, res = dyn.verify_scaling_law(geo, chord, c)
        assert rel <= 1e-6 and res <= 1e-9
    gauge = dyn.gauge_field(ellipse_sandwich)
    axes = np.asarray(ellipse_sandwich.profile.axes)
    p0 = w * axes ** 2 / 2.0
    chord = dyn.integrate(gauge, CotangentPoint(np.zeros(2), p0), 1.0, cfgf)
    rel, res = dyn.verify_scaling_law(gauge, chord, 3.0)
    assert rel <= 1e-6 and res <= 1e-9


def test_classify_chord_inside_outside(round_sandwich):
    core = dyn.core_field(round_sandwich)
    cfgf = dyn.IntegratorConfig(max_step=0.01)
    n = 3
    inside = dyn.integrate(dyn.scaled_field(core, n),
                           CotangentPoint(np.zeros(2),
                                          np.array([np.sqrt(0.8), 0.0])),
                           1.0, cfgf)
    label, action = dyn.classify_chord_action(inside, round_sandwich, n)
    assert label == "inside" and action < n
    outside = dyn.integrate(dyn.scaled_field(core, n),
                            CotangentPoint(np.zeros(2),
                                           np.array([np.sqrt(1.2), 0.0])),
                            1.0, cfgf)
    label, action = dyn.classify_chord_action(outside, round_sandwich, n)
    assert label == "outside" and action > n
    grazing = dyn.integrate(dyn.scaled_field(core, n),
                            CotangentPoint(np.zeros(2), np.array([1.0, 0.0])),
                            1.0, cfgf)
    label, _ = dyn.classify_chord_action(grazing, round_sandwich, n)
    assert label == "boundary-ambiguous"


def test_inside_action_formula_stays_below_one(round_sandwich, rng):
    # per-unit-n chord action 2 f'(F) F - f(F) < 1 whenever F < 1
    f_vals = rng.uniform(0.0, 0.999, size=2000)
    val, slope = round_sandwich.cutoff.eval(f_vals)
    formula = 2.0 * slope * f_vals - val
    assert np.all(formula < 1.0)
    # and it never exceeds the 4F envelope used in the blend region
    assert np.all(formula <= 4.0 * f_vals + 1e-15)


def test_time_change_identity(round_sandwich, ellipse_sandwich,
                              sol_round_sandwich, rng):
    for sw in (round_sandwich, ellipse_sandwich):
        for _ in range(50):
            theta = rng.uniform(0, 2 * np.pi)
            u = np.array([np.cos(theta), np.sin(theta)])
            q = rng.uniform(size=2)
            x = CotangentPoint(q, sw.surface_covector(q, u))
            assert time_change_residual(sw, x, 1.0) <= 1e-12
            assert time_change_residual(sw, x, sw.cutoff.eps) <= 1e-12
            assert time_change_residual(sw, x, 0.7) <= 1e-9
    sw = sol_round_sandwich
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        q = sw.manifold.random_point(rng)
        x = CotangentPoint(q, sw.surface_covector(q, u))
        s = rng.uniform(0.05, 1.0)
        assert time_change_residual(sw, x, s) <= 1e-9


def test_solve_stacked_retires_only_the_singular_row(rng):
    jac = rng.standard_normal((7, 3, 3))
    jac[4] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]   # rank 2
    rhs = rng.standard_normal((7, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac, rhs[..., None])
    step, singular = dyn.solve_stacked(jac, rhs)
    assert singular.tolist() == [r == 4 for r in range(7)]
    for r in (0, 1, 2, 3, 5, 6):
        assert np.array_equal(step[r], np.linalg.solve(jac[r], rhs[r]))
    # a regular stack takes the single stacked solve, to the same bits
    regular = np.delete(np.arange(7), 4)
    step_all, singular = dyn.solve_stacked(jac[regular], rhs[regular])
    assert not singular.any()
    assert np.array_equal(step_all, step[regular])


def _claimed_slope_system(slopes, tol):
    # residual r(x) = x with its Jacobian claimed to be `slope`, from x = 1:
    # a damped step moves x to x (1 - alpha / slope), so slope 1 solves in
    # one step, 100 creeps toward the root, negative slopes push away from
    # it and 0 is singular
    x = np.ones(len(slopes))

    def linearize(idx):
        def jacobian(rows):
            # asked only for rows no outcome has retired yet
            assert np.all(np.abs(x[idx[rows]]) > tol)
            return slopes[idx[rows]][:, None, None]
        return x[idx][:, None], jacobian

    def move(i, step, alpha):
        x[i] += alpha * step[:, 0]

    return linearize, move


def test_lockstep_newton_reaches_every_outcome():
    slopes = np.array([1.0, -0.1, -1.0, 0.0, 100.0])
    outcome = dyn.lockstep_newton(len(slopes),
                                  *_claimed_slope_system(slopes, 1e-12),
                                  tol=1e-12, max_sweeps=30, blowup=6.0)
    assert [dyn.NEWTON_OUTCOMES[o] for o in outcome] == [
        "converged", "blowup", "damping_floor", "singular", "sweep_cap"]
    # without the guard the residual that grows tenfold is let run until
    # its damping gives out; no row is ever marked as a blow-up
    outcome = dyn.lockstep_newton(len(slopes),
                                  *_claimed_slope_system(slopes, 1e-12),
                                  tol=1e-12, max_sweeps=30)
    assert [dyn.NEWTON_OUTCOMES[o] for o in outcome] == [
        "converged", "damping_floor", "damping_floor", "singular",
        "sweep_cap"]


def test_exclusion_level_picks_gap_midpoint(torus):
    spectrum = [1.25]
    a = dyn.exclusion_level(1, spectrum)
    assert a == pytest.approx(1.625)


# -- flat-torus chords in closed form ---------------------------------------------

def test_flat_time_one_map_is_closed_form(round_sandwich, ellipse_sandwich):
    # every torus field of the action check depends on p alone, so the
    # time-1 map that shoot_fixed_time_chords solves is q0 + dH/dp(p0)
    rng = np.random.default_rng(16)
    cfg = dyn.IntegratorConfig(max_step=0.01)
    for sw in (round_sandwich, ellipse_sandwich):
        for n in (1, 2, 3):
            field = dyn.scaled_field(dyn.core_field(sw), n)
            Q0 = rng.uniform(size=(200, 2))
            P0 = rng.uniform(-2.6, 2.6, size=(200, 2))
            _, Q, P = dyn.integrate_batch(field, Q0, P0, 1.0, cfg,
                                          t_eval=np.array([0.0, 1.0]))
            closed = Q0 + field.grads(Q0, P0)[1]
            assert np.max(np.abs(Q[:, -1] - closed)) <= 1e-12
            assert np.array_equal(P[:, -1], P0)


def test_shot_chords_sorted_and_on_their_lifts(torus, round_sandwich):
    field = dyn.scaled_field(dyn.core_field(round_sandwich), 2)
    q0, q1 = np.zeros(2), np.array([0.5, 0.5])
    found = dyn.shoot_fixed_time_chords(
        field, q0, q1, p_max=2.6, grid=24,
        cfg=dyn.IntegratorConfig(max_step=0.01))
    keys = [(deck, tuple(traj.p[0])) for traj, deck in found]
    assert keys and keys == sorted(keys)
    for traj, deck in found:
        assert np.linalg.norm(traj.q[-1] - torus.deck_apply(deck, q1)) <= 1e-9


def test_shot_chords_do_not_depend_on_the_seed_order(monkeypatch, torus,
                                                    round_sandwich):
    # the arrival distance picks the seeds, and mirror-image seeds of
    # q1 - q0 = (0.5, 0.5) tie in it up to the last bit; whatever order it
    # puts the seeds in, here reversed, the chords keep every bit
    field = dyn.scaled_field(dyn.core_field(round_sandwich), 1)
    q0, q1 = np.zeros(2), np.array([0.5, 0.5])
    cfg = dyn.IntegratorConfig(max_step=0.01)

    def shoot():
        return [(deck, traj.p.tobytes(), traj.q.tobytes()) for traj, deck in
                dyn.shoot_fixed_time_chords(field, q0, q1, p_max=2.6,
                                            grid=40, cfg=cfg)]

    reference = shoot()
    nearest_lift = type(torus)._nearest_lift

    def reversed_lift(self, q_probe, q_base):
        deck, dist = nearest_lift(self, q_probe, q_base)
        coarse = dyn._SHOOT_COARSE
        return deck, np.where(dist < coarse, coarse - dist, dist)

    monkeypatch.setattr(type(torus), "_nearest_lift", reversed_lift)
    assert len(reference) > 100 and shoot() == reference


def test_shot_chords_refuse_a_field_that_depends_on_q(round_sandwich):
    # a potential bends the flow off the closed form; the dense
    # re-verification must catch it instead of returning wrong chords
    field = potential_field(round_sandwich)
    with pytest.raises(InvariantFailureError, match="misses its lift"):
        dyn.shoot_fixed_time_chords(field, np.zeros(2), np.array([0.5, 0.5]),
                                    p_max=2.6, grid=16,
                                    cfg=dyn.IntegratorConfig(max_step=0.01))


def _radial_actions_by_brentq(sandwich, n, t, q0, q1):
    """The per-root scan-and-brentq enumeration, as a reference."""
    from scipy.optimize import brentq
    h, h_prime = sandwich.blend_profile(t)
    rho = np.linspace(1e-9, dyn._RHO_MAX, dyn._RHO_SAMPLES)
    speed = n * h_prime(0.5 * rho ** 2) * rho
    w_cap = float(np.max(speed)) * 1.0000001
    norms = {round(float(np.linalg.norm(w)), 12)
             for w in sandwich.manifold.lattice_translates(q1 - q0, w_cap)}
    actions = []
    for wn in sorted(norms - {0.0}):
        diff = speed - wn
        for i in np.nonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]:
            r = brentq(lambda r: float(n * h_prime(0.5 * r * r) * r - wn),
                       rho[i], rho[i + 1], xtol=1e-14)
            g = 0.5 * r * r
            a = n * (2.0 * float(h_prime(g)) * g - float(h(g)))
            if a <= n + 2.0:
                actions.append(a)
    return sorted(actions)


def test_radial_chord_actions_against_direct_shooting(round_sandwich):
    # at t=0 the blend is the lower Hamiltonian; chords of n=1 to the nearest
    # targets should match a brute shoot along one ray
    q0 = np.zeros(2)
    q1 = np.array([0.5, 0.5])
    acts = dyn.radial_chord_actions(round_sandwich, 1, 0.0, q0, q1)
    assert len(acts) > 0
    assert all(acts[i] <= acts[i + 1] for i in range(len(acts) - 1))
    # every enumerated action is a genuine chord action: check one by
    # integrating the blend field from the implied covector
    h, hp = round_sandwich.blend_profile(0.0)
    blend = blend_field(round_sandwich, 0.0)
    w = np.array([0.5, 0.5])
    # solve for the speed profile root on the first target
    from scipy.optimize import brentq
    wn = float(np.linalg.norm(w))
    root = brentq(lambda r: float(hp(0.5 * r * r)) * r - wn, 1e-6, 4.0)
    p0 = root * w / wn
    traj = dyn.integrate(blend, CotangentPoint(q0, p0), 1.0,
                         dyn.IntegratorConfig(max_step=0.01))
    assert np.allclose(traj.q[-1], q1, atol=1e-9)
    a_quad = dyn.action_of_trajectory(traj, blend)
    assert any(abs(a - a_quad) < 1e-8 for a in acts)
    # the vectorized bisection finds every root that per-root brentq finds
    for n in (1, 2, 3):
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            ours = dyn.radial_chord_actions(round_sandwich, n, t, q0, q1)
            ref = _radial_actions_by_brentq(round_sandwich, n, t, q0, q1)
            assert len(ours) == len(ref) > 0
            assert np.max(np.abs(np.subtract(ours, ref))) <= 1e-13


# -- the in-house DOP853 and Simpson rule against scipy's ------------------------

def _assert_solve_matches_scipy(rhs, y0, t1, cfg, t_eval=None):
    from scipy.integrate import solve_ivp
    grid = dyn._sample_grid(0.0, t1, cfg.max_step) if t_eval is None else t_eval
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the rel_tol clamp, on both sides
        times, ys, stats = dyn.solve(rhs, y0, 0.0, t1, cfg, t_eval)
        ref = solve_ivp(returning(rhs), (0.0, t1), y0, method="DOP853",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol, t_eval=grid)
    assert ref.success
    assert times.tobytes() == ref.t.tobytes()
    assert ys.shape == ref.y.shape and ys.tobytes() == ref.y.tobytes()
    assert stats["nfev"] == ref.nfev
    assert stats["samples"] == len(times)


@pytest.mark.parametrize("grid", ["dense", "two-point"])
@pytest.mark.parametrize("rows", [1, 192, 2048])
@pytest.mark.parametrize("kind", ["sol", "torus"])
def test_solve_matches_scipy_dop853_bitwise(kind, rows, grid):
    rng = np.random.default_rng(rows)
    man = ModelManifold.sol() if kind == "sol" else ModelManifold.torus()
    field = (sol_mod.sol_field(man) if kind == "sol"
             else dyn.geodesic_field(man))
    Q = np.stack([man.random_point(rng) for _ in range(rows)])
    P = rng.normal(size=(rows, man.dim))
    y0 = np.concatenate([Q.ravel(), P.ravel()])
    t1 = 2.0 if grid == "dense" else 1.0
    t_eval = None if grid == "dense" else np.array([0.0, t1])
    _assert_solve_matches_scipy(dyn._flat_rhs(field, man.dim), y0, t1,
                                dyn.IntegratorConfig(), t_eval)


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-14])
def test_solve_matches_scipy_dop853_on_euler_field(rel_tol):
    # 1e-14 is below 100 eps, where both clamp the tolerance with a warning
    cfg = dyn.IntegratorConfig(rel_tol=rel_tol)
    rhs = sol_mod.euler_field
    m0 = np.array([0.6, -0.64, 0.48, 0.0])
    _assert_solve_matches_scipy(rhs, m0, 200.0, cfg)
    if rel_tol < 100 * np.finfo(float).eps:
        with pytest.warns(UserWarning, match="below 100 eps"):
            dyn.solve(rhs, m0, 0.0, 1.0, cfg)


def test_solve_matches_scipy_dop853_at_rest_and_in_decay():
    # a zero error estimate and a decay below abs_tol both grow the step by
    # the controller's largest factor; a jump in the field, reached by a
    # long step, cuts it by the smallest
    cfg = dyn.IntegratorConfig()
    y0 = np.array([1.0, -2.0, 0.5])
    _assert_solve_matches_scipy(in_place(lambda t, y: np.zeros_like(y)), y0,
                                1.0, cfg)
    _assert_solve_matches_scipy(in_place(lambda t, y: -y), y0, 60.0, cfg)
    _assert_solve_matches_scipy(
        in_place(lambda t, y: np.full_like(y, 1e6 if t > 0.5 else 0.0)), y0,
        1.0, cfg)


def test_solve_counts_steps_and_rejections(monkeypatch):
    # scipy's own step loop, sampled as solve_ivp samples, with every
    # attempted step counted
    from scipy.integrate import DOP853
    from scipy.integrate._ivp import rk

    attempts = 0
    rk_step = rk.rk_step

    def counted(*args):
        nonlocal attempts
        attempts += 1
        return rk_step(*args)

    monkeypatch.setattr(rk, "rk_step", counted)
    rhs = sol_mod.euler_field
    m0 = np.array([0.6, -0.64, 0.48, 0.0])
    cfg = dyn.IntegratorConfig()
    grid = dyn._sample_grid(0.0, 50.0, cfg.max_step)
    solver = DOP853(returning(rhs), 0.0, m0, 50.0, rtol=cfg.rel_tol,
                    atol=cfg.abs_tol)
    steps = sampled = 0
    while solver.status == "running":
        solver.step()
        steps += 1
        reached = int(np.searchsorted(grid, solver.t, side="right"))
        if reached > sampled:
            solver.dense_output()
            sampled = reached
    assert solver.status == "finished"
    _, _, stats = dyn.solve(rhs, m0, 0.0, 50.0, cfg, grid)
    assert stats["steps"] == steps
    assert stats["rejected"] == attempts - steps > 0
    assert stats["nfev"] == solver.nfev


def test_solve_rejects_nonfinite_state_and_rhs():
    cfg = dyn.IntegratorConfig()
    with pytest.raises(ValueError):
        dyn.solve(in_place(lambda t, y: -y), np.array([1.0, np.nan]), 0.0,
                  1.0, cfg)

    @in_place
    def blows_up(t, y):
        return np.full_like(y, np.nan) if t > 0.5 else -y

    with np.errstate(invalid="ignore"):
        with pytest.raises(StiffnessError):
            dyn.solve(blows_up, np.ones(2), 0.0, 1.0, cfg)
        # non-finite from the first call on: scipy would loop forever here
        with pytest.raises(StiffnessError):
            dyn.solve(in_place(lambda t, y: np.full_like(y, np.inf)),
                      np.ones(2), 0.0, 1.0, cfg)


def test_solve_rejects_a_grid_off_its_span():
    cfg = dyn.IntegratorConfig()
    for t_eval in ([0.0, 0.5], [0.1, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0]):
        with pytest.raises(ValueError):
            dyn.solve(in_place(lambda t, y: -y), np.ones(2), 0.0, 1.0, cfg,
                      np.array(t_eval))


@pytest.mark.parametrize("scheme", ["rk", "midpoint"])
@pytest.mark.parametrize("rows", [1, 192, 2048])
@pytest.mark.parametrize("kind", ["sol", "torus"])
def test_read_at_own_sample_matches_full_read_bitwise(kind, rows, scheme):
    # each row read at its own sample only, against the full-grid read:
    # samples that many rows share, a row at t = 0, and the [0, 1e-9] grid
    # entropy._endpoints builds when every arrival time is 0
    rng = np.random.default_rng(rows)
    man = ModelManifold.sol() if kind == "sol" else ModelManifold.torus()
    field = (sol_mod.sol_field(man) if kind == "sol"
             else dyn.geodesic_field(man))
    Q0 = np.stack([man.random_point(rng) for _ in range(rows)])
    P0 = rng.normal(size=(rows, man.dim))
    cfg = dyn.IntegratorConfig(scheme=scheme)
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 1.5, size=6))])
    at = rng.integers(0, len(grid), size=rows)
    at[0], at[-1] = 0, len(grid) - 1
    cases = [(grid, at), (np.array([0.0, 1e-9]), np.zeros(rows, dtype=int))]
    for t_eval, pos in cases:
        full_stats, read_stats = {}, {}
        _, Q, P = dyn.integrate_batch(field, Q0, P0, t_eval[-1], cfg,
                                      t_eval=t_eval, stats=full_stats)
        q, p = dyn.integrate_batch(field, Q0, P0, t_eval[-1], cfg,
                                   t_eval=t_eval, at=pos, stats=read_stats)
        r = np.arange(rows)
        assert q.shape == p.shape == (rows, man.dim)
        assert q.tobytes() == Q[r, pos].tobytes()
        assert p.tobytes() == P[r, pos].tobytes()
        assert read_stats == full_stats and full_stats["nfev"] > 0


@pytest.mark.parametrize("scheme", ["rk", "midpoint"])
@pytest.mark.parametrize("kind", ["sol", "torus"])
def test_grouped_batch_matches_one_call_per_group(kind, scheme):
    # groups of 1, 2, 191, 192 and 193 rows, two of each of 1, 2 and 192
    # rows apart in the stack, each with its own horizon and grid, read at
    # its rows' samples or in full, and two sharing one stats dict: every
    # group gets the bytes and counters of its own one-group call
    rng = np.random.default_rng(23)
    man = ModelManifold.sol() if kind == "sol" else ModelManifold.torus()
    field = (sol_mod.sol_field(man) if kind == "sol"
             else dyn.geodesic_field(man))
    cfg = dyn.IntegratorConfig(scheme=scheme)
    sizes = [192, 1, 191, 2, 192, 193, 1, 2]
    n = sum(sizes)
    Q0 = np.stack([man.random_point(rng) for _ in range(n)])
    P0 = rng.normal(size=(n, man.dim))
    T, grids, at = [], [], []
    for i, m in enumerate(sizes):
        T.append(float(rng.uniform(0.2, 1.5)))
        grid = np.unique(np.concatenate(
            [[0.0], rng.uniform(0.0, T[-1], size=5), [T[-1]]]))
        grids.append(None if i == 2 else grid)
        at.append(None if i % 3 == 0 or i == 2
                  else rng.integers(0, len(grid), size=m))
    stats = [{} for _ in sizes]
    stats[7] = stats[6]
    grouped = dyn.integrate_batch(field, Q0, P0, T, cfg, t_eval=grids, at=at,
                                  stats=stats, sizes=sizes)
    assert len(grouped) == len(sizes)
    lo, shared = 0, {}
    for i, m in enumerate(sizes):
        alone = {} if i < 6 else shared
        want = dyn.integrate_batch(field, Q0[lo:lo + m], P0[lo:lo + m], T[i],
                                   cfg, t_eval=grids[i], at=at[i], stats=alone)
        assert len(grouped[i]) == len(want)
        for got, ref in zip(grouped[i], want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        if i < 6:
            assert stats[i] == alone and alone["nfev"] > 0
        lo += m
    assert stats[6] == shared


def test_grouped_batch_raises_for_a_group_that_goes_non_finite(sol):
    # exp(z) overflows in the sol field at z = 800: its group cannot take a
    # step, and the whole call fails as that group's own call does
    field = sol_mod.sol_field(sol)
    rng = np.random.default_rng(8)
    Q0 = np.stack([sol.random_point(rng) for _ in range(5)])
    P0 = rng.normal(size=(5, 3))
    Q0[3, 2] = 800.0
    cfg = dyn.IntegratorConfig()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(StiffnessError):
            dyn.integrate_batch(field, Q0[3:], P0[3:], 1.0, cfg)
        with pytest.raises(StiffnessError):
            dyn.integrate_batch(field, Q0, P0, [1.0, 1.0], cfg, sizes=[3, 2])


def test_solves_leave_no_reference_cycles(sol):
    # a cycle through the stepper's buffers (a stack bound into a closure,
    # say) outlives its call until the collector runs, and adds to the
    # peak memory of the calls that follow
    field = sol_mod.sol_field(sol)
    rng = np.random.default_rng(5)
    Q0 = np.stack([sol.random_point(rng) for _ in range(10)])
    P0 = rng.normal(size=(10, 3))
    cfg = dyn.IntegratorConfig()
    solves = [
        lambda: dyn.integrate_batch(field, Q0, P0, 1.0, cfg),
        lambda: dyn.integrate_batch(field, Q0, P0, [0.5, 1.0], cfg,
                                    sizes=[4, 6]),
        lambda: dyn.solve(sol_mod.euler_field,
                          np.array([0.6, -0.64, 0.48, 0.0]), 0.0, 20.0, cfg),
    ]
    gc.collect()
    gc.disable()
    try:
        unreachable = []
        for run in solves:
            run()
            unreachable.append(gc.collect())
    finally:
        gc.enable()
    assert unreachable == [0, 0, 0]


def test_solve_rejects_reads_off_the_grid():
    cfg = dyn.IntegratorConfig()
    t_eval = np.array([0.0, 0.5, 1.0])
    for reads in ([0, 3], [-1, 0], [0], [0.0, 1.0]):
        with pytest.raises(ValueError):
            dyn.solve(in_place(lambda t, y: -y), np.ones(2), 0.0, 1.0, cfg,
                      t_eval, reads=np.array(reads))


def test_dop853_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    tableau = dyn._DOP853
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(tableau, name) == getattr(ref, name)
    for name in ("A", "B", "C", "E3", "E5", "D"):
        assert getattr(tableau, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 64, 101])
def test_simpson_matches_scipy_bitwise(n):
    from scipy.integrate import simpson

    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.01, 0.2, size=n)) - 0.3
    y = np.sin(3.0 * x) + rng.normal(size=n)
    # -0.0 samples check the sign of a zero integral as well
    for y in (y, np.full(n, -0.0)):
        ours, ref = dyn.simpson(y, x=x), simpson(y, x=x)
        assert np.float64(ours).tobytes() == np.float64(ref).tobytes()


def test_lab_imports_no_scipy_submodule():
    # scipy.integrate, .optimize, .special and .sparse cost most of a cold
    # start; the lab reads only the DOP853 tableau file, also when it finds
    # the chords of the action and noncrossing checks
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import spherization_lab.experiments, spherization_lab.cli
        from spherization_lab import dynamics as dyn
        from spherization_lab.geometry import ModelManifold
        from spherization_lab.starshape import RadialProfile, calibrate
        sw = calibrate(RadialProfile.round(), ModelManifold.torus())
        q0, q1 = np.zeros(2), np.array([0.5, 0.5])
        assert dyn.radial_chord_actions(sw, 1, 0.5, q0, q1)
        assert dyn.shoot_fixed_time_chords(dyn.core_field(sw), q0, q1,
                                           grid=12, cfg=dyn.IntegratorConfig())
        print(' '.join(m for m in sys.modules if m.startswith('scipy')))
        # workers = 1 loads no process pool
        assert 'concurrent.futures.process' not in sys.modules
        assert 'multiprocessing' not in sys.modules
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == []
