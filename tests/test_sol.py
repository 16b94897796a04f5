import numpy as np
import pytest

from spherization_lab import dynamics as dyn
from spherization_lab import sol as sol_mod
from spherization_lab.geometry import CotangentPoint


def test_momentum_map_values(rng):
    q = np.zeros(3)
    p = rng.normal(size=3)
    assert np.allclose(sol_mod.momentum_map(q, p), p)
    q = np.array([0.0, 0.0, np.log(2.0)])
    m = sol_mod.momentum_map(q, np.array([1.0, 0.0, 0.0]))
    assert np.isclose(m[0], 2.0)


def test_momentum_roundtrip(rng):
    q = rng.normal(size=(50, 3))
    p = rng.normal(size=(50, 3))
    m = sol_mod.momentum_map(q, p)
    back = sol_mod.inverse_momentum_map(m, q)
    assert np.max(np.abs(back - p)) <= 1e-14


def test_hamiltonian_values(sol, rng):
    assert sol_mod.hamiltonian_from_momenta(np.zeros(3)) == 0.5
    assert sol_mod.hamiltonian_from_momenta(np.array([0.0, 0.0, 1.0])) == 1.0
    for _ in range(10):
        q = sol.random_point(rng) + rng.normal(size=3)
        assert np.isclose(sol_mod.sol_hamiltonian(q, np.zeros(3)), 0.5)
    # coordinate form vs momentum form
    q = rng.normal(size=(100, 3))
    p = rng.normal(size=(100, 3))
    direct = sol_mod.sol_hamiltonian(q, p)
    via_m = sol_mod.hamiltonian_from_momenta(sol_mod.momentum_map(q, p))
    assert np.max(np.abs(direct - via_m)) <= 1e-12 * np.max(1 + np.abs(direct))


def _euler_reference(m):
    """The reduced momentum dynamics, vectorized over leading axes."""
    mx, my, mz = np.asarray(m, dtype=float).T
    return np.array([mx * mz, -my * mz, my * my - mx * (mx + 1.0)]).T


def test_euler_field_values():
    assert np.allclose(sol_mod.euler_field(0.0, np.array([0.0, 0.0, 1.0, 0.0])),
                       [0.0, 0.0, 0.0, 1.0])
    assert np.allclose(sol_mod.euler_field(0.0, np.array([-1.0, 0.0, 0.0, 5.0])),
                       0.0)
    got = sol_mod.euler_field(0.0, np.array([0.1, 0.2, 0.3, -2.0]))
    assert np.allclose(got, [0.03, -0.06, -0.07, 0.3])


def test_full_field_consistent_with_euler(sol, rng):
    f = sol_mod.sol_field(sol)
    q = rng.normal(size=(200, 3))
    p = rng.normal(size=(200, 3))
    qdot, pdot = f.rhs(q, p)
    ez = np.exp(q[:, 2])
    m = sol_mod.momentum_map(q, p)
    mdot = np.stack([ez * pdot[:, 0] + qdot[:, 2] * ez * p[:, 0],
                     pdot[:, 1] / ez - qdot[:, 2] * p[:, 1] / ez,
                     pdot[:, 2]], axis=-1)
    ref = _euler_reference(m)
    assert np.max(np.abs(mdot - ref)) <= 1e-10 * np.max(1.0 + np.abs(mdot))
    # the ensembles' scalar kernel gives the same bits, and its z' = M_z is
    # the full flow's z' = p_z
    for mi, zi, ri, qdot_z in zip(m, q[:, 2], ref, qdot[:, 2]):
        got = sol_mod.euler_field(0.0, np.append(mi, zi))
        assert got.tobytes() == np.append(ri, qdot_z).tobytes()


def _reference_grads(q, p):
    """The (q, p) form of the sol gradients, operation for operation as
    before the field had a flat kernel."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    ez = np.exp(q[..., 2])
    mx = ez * p[..., 0]
    my = p[..., 1] / ez
    mx1 = mx + 1.0
    gq = np.zeros_like(q)
    gq[..., 2] = mx1 * mx - my ** 2
    gp = np.empty_like(p)
    gp[..., 0] = mx1 * ez
    gp[..., 1] = my / ez
    gp[..., 2] = p[..., 2]
    return gq, gp


def _reference_adapter(t, y):
    """The generic flat adapter over ``_reference_grads``."""
    n = y.size // 6
    gq, gp = _reference_grads(y[: 3 * n].reshape(n, 3), y[3 * n:].reshape(n, 3))
    out = np.empty_like(y)
    out[: 3 * n] = gp.ravel()
    np.negative(gq.ravel(), out=out[3 * n:])
    return out


@pytest.mark.parametrize("rows", [1, 3, 192, 2048])
def test_flat_kernel_matches_reference_bitwise(sol, rows):
    # the integrator's kernel and the field's (q, p) gradients keep the bits
    # of the reference formula, the signs of zero included (dp_x = dp_y =
    # -0.0, and -0.0 for dp_z where M_x (M_x + 1) = M_y^2)
    f = sol_mod.sol_field(sol)
    rng = np.random.default_rng(rows)
    q = rng.normal(size=(rows, 3))
    p = rng.normal(size=(rows, 3)) * 1.5
    p[1::2, :2] = 0.0
    p[2::3] = 0.0
    y = np.concatenate([q.ravel(), p.ravel()])
    got = dyn._flat_rhs(f, 3)(0.0, y)
    assert got.tobytes() == _reference_adapter(0.0, y).tobytes()
    assert np.signbit(got[3 * rows:].reshape(rows, 3)[2::3]).all()
    gq, gp = f.grads(q, p)
    ref_q, ref_p = _reference_grads(q, p)
    assert gq.tobytes() == ref_q.tobytes() and gp.tobytes() == ref_p.tobytes()


def test_flat_kernel_integrates_like_reference(sol, rng):
    # a census-like batch read at its own arrival times: the same endpoints
    # and the same step sequence through the kernel and the generic adapter
    f = sol_mod.sol_field(sol)
    ref = dyn.HamiltonianField(name="sol-reference", manifold=sol,
                               value=f.value, grads=_reference_grads)
    assert ref.flat_rhs is None and f.flat_rhs is sol_mod.flat_rhs
    q0 = sol.random_point(rng)
    us = rng.normal(size=(192, 3))
    us /= np.linalg.norm(us, axis=-1, keepdims=True)
    P0 = sol_mod.level_covector(1.0, q0, us)
    ts = rng.uniform(0.3, 6.0, size=192)
    grid = np.unique(np.concatenate([[0.0], ts]))
    at = np.searchsorted(grid, ts)
    results = []
    for field in (f, ref):
        stats = {}
        q, p = dyn.integrate_batch(field, np.broadcast_to(q0, P0.shape).copy(),
                                   P0, float(grid[-1]), dyn.IntegratorConfig(),
                                   t_eval=grid, at=at, stats=stats)
        results.append((q.tobytes(), p.tobytes(), stats))
    assert results[0] == results[1]


def test_lyapunov_at_fixed_point(sol):
    f = sol_mod.sol_field(sol)
    q0 = np.array([0.1, 0.2, 0.3])
    traj = dyn.integrate(f, CotangentPoint(q0, sol_mod.fixed_point_covector(1.0, q0)),
                         50.0)
    est = sol_mod.lyapunov_estimate(traj)
    assert abs(est.chi - 1.0) <= 1e-10
    assert np.all(np.isfinite(est.partial_averages[1:]))


def test_lyapunov_synthetic_constant(sol):
    times = np.linspace(0.0, 10.0, 501)
    q = np.zeros((501, 3))
    p = np.tile([0.0, 0.0, -0.4], (501, 1))
    traj = dyn.Trajectory(times=times, q=q, p=p, energy=np.zeros(501),
                          energy_drift=0.0, stats={}, manifold=sol)
    assert np.isclose(sol_mod.lyapunov_estimate(traj).chi, 0.4)


def test_subcritical_average_decays(sol, rng):
    f = sol_mod.sol_field(sol)
    Q, P = sol_mod.sample_level_states(sol, 0.3, 3, rng)
    for i in range(3):
        traj = dyn.integrate(f, CotangentPoint(Q[i], P[i]), 400.0)
        est = sol_mod.lyapunov_estimate(traj)
        assert est.chi <= 0.02
        m = sol_mod.momentum_map(traj.q, traj.p)
        assert np.max(m[:, 0]) < 0.0  # sign barrier below the critical level


def test_first_integral_and_level_preserved(sol, rng):
    f = sol_mod.sol_field(sol)
    Q, P = sol_mod.sample_level_states(sol, 1.0, 2, rng)
    for i in range(2):
        traj = dyn.integrate(f, CotangentPoint(Q[i], P[i]), 100.0)
        integral = sol_mod.first_integral(traj.q, traj.p)
        assert np.max(np.abs(integral - integral[0])) <= 1e-8
        m = sol_mod.momentum_map(traj.q, traj.p)
        level = (m[:, 0] + 1) ** 2 + m[:, 1] ** 2 + m[:, 2] ** 2
        assert np.max(np.abs(level - 2.0)) <= 1e-8
        assert traj.energy_drift <= 1e-8


def test_entropy_closed_form():
    assert sol_mod.entropy_closed_form(1.0) == 1.0
    assert sol_mod.entropy_closed_form(0.5) == 0.0
    assert sol_mod.entropy_closed_form(5.0) == 3.0
    with pytest.raises(ValueError):
        sol_mod.entropy_closed_form(0.0)


def test_level_sampling_lies_on_level(sol, rng):
    for k in (0.3, 1.0, 1.7):
        Q, P = sol_mod.sample_level_states(sol, k, 20, rng)
        h = sol_mod.sol_hamiltonian(Q, P)
        assert np.max(np.abs(h - k)) <= 1e-12
        m = sol_mod.momentum_map(Q, P)
        sphere = (m[:, 0] + 1) ** 2 + m[:, 1] ** 2 + m[:, 2] ** 2
        assert np.max(np.abs(sphere - 2 * k)) <= 1e-8


def test_starshaped_switch():
    # the momentum sphere has center distance 1 from the origin and radius
    # sqrt(2k): it encloses the origin, where H = 1/2, exactly above k = 1/2,
    # and the level has positive entropy exactly then
    for k, expect in ((0.3, False), (0.5, False), (0.5 + 1e-9, True),
                      (1.0, True)):
        assert (sol_mod.hamiltonian_from_momenta(np.zeros(3)) < k) == expect
        assert (sol_mod.entropy_closed_form(k) > 0) == expect
    with pytest.raises(ValueError):
        sol_mod.fixed_point_covector(0.4, np.zeros(3))


def test_lyapunov_partial_averages_match_trapezoid(sol, rng):
    # the inlined cumulative trapezoid equals scipy's bit for bit
    from scipy.integrate import cumulative_trapezoid

    f = sol_mod.sol_field(sol)
    q0 = sol.random_point(rng)
    p0 = sol_mod.level_covector(1.0, q0, np.array([0.6, -0.64, 0.48]))
    traj = dyn.integrate(f, CotangentPoint(q0, p0), 20.0)
    est = sol_mod.lyapunov_estimate(traj)
    t = est.partial_times
    cum = cumulative_trapezoid(traj.p[-len(t):, 2], t, initial=0.0)
    spans = t - t[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = np.abs(cum) / np.where(spans > 0, spans, np.inf)
    assert est.partial_averages.tobytes() == ref.tobytes()
