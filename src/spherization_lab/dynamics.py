"""Hamiltonian vector fields, trajectory integration, and action checks.

Sign convention: with the symplectic form sum dp_i ^ dq_i and
omega(X_H, .) = -dH, the equations of motion are

    dq/dt = dH/dp,      dp/dt = -dH/dq,

so the flow of half the squared conorm is the geodesic flow (tested, not
assumed).  Gradients are analytic for every shipped Hamiltonian; central
finite differences are the fallback for ad-hoc fields and the cross-check
in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.optimize import brentq

from .errors import IntegrationDivergedError, InvariantFailureError, StiffnessError
from .geometry import CotangentPoint, ModelManifold
from .starshape import SandwichedHamiltonians


@dataclass(frozen=True)
class HamiltonianField:
    """A Hamiltonian with its fiber/base gradients.

    ``value``, ``grad_q`` and ``grad_p`` accept arrays of shape (..., d).
    Missing gradients fall back to central finite differences on ``value``.
    """

    name: str
    manifold: ModelManifold
    value: callable
    grad_q: callable = None
    grad_p: callable = None
    fd_step: float = 1e-6

    def dq(self, q, p):
        if self.grad_q is not None:
            return self.grad_q(q, p)
        return self._fd(q, p, wrt="q")

    def dp(self, q, p):
        if self.grad_p is not None:
            return self.grad_p(q, p)
        return self._fd(q, p, wrt="p")

    def _fd(self, q, p, wrt):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        base = q if wrt == "q" else p
        out = np.zeros_like(base)
        h = self.fd_step
        for i in range(base.shape[-1]):
            shift = np.zeros(base.shape[-1])
            shift[i] = h
            if wrt == "q":
                hi = self.value(q + shift, p)
                lo = self.value(q - shift, p)
            else:
                hi = self.value(q, p + shift)
                lo = self.value(q, p - shift)
            out[..., i] = (hi - lo) / (2.0 * h)
        return out

    def velocity(self, q, p):
        """Base velocity dq/dt."""
        return self.dp(q, p)

    def rhs(self, q, p):
        """(dq/dt, dp/dt) under the fixed sign convention."""
        return self.dp(q, p), -self.dq(q, p)


def scaled_field(field: HamiltonianField, c: float) -> HamiltonianField:
    c = float(c)
    return HamiltonianField(
        name=f"{c}*{field.name}", manifold=field.manifold,
        value=lambda q, p: c * field.value(q, p),
        grad_q=(None if field.grad_q is None else
                lambda q, p: c * field.grad_q(q, p)),
        grad_p=(None if field.grad_p is None else
                lambda q, p: c * field.grad_p(q, p)),
        fd_step=field.fd_step)


def zero_field(manifold: ModelManifold) -> HamiltonianField:
    zeros = lambda q, p: np.zeros_like(np.asarray(q, dtype=float))
    return HamiltonianField(name="zero", manifold=manifold,
                            value=lambda q, p: np.zeros(np.asarray(q).shape[:-1]),
                            grad_q=zeros, grad_p=zeros)


def geodesic_field(manifold: ModelManifold, scale: float = 1.0) -> HamiltonianField:
    """H = scale * |p|^2 / 2 in the base metric."""

    def value(q, p):
        return 0.5 * scale * manifold.conorm_sq(q, p)

    def grad_q(q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(q)
        if manifold.kind == "sol":
            e2z = np.exp(2.0 * q[..., 2])
            out[..., 2] = scale * (e2z * p[..., 0] ** 2 - p[..., 1] ** 2 / e2z)
        return out

    def grad_p(q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if manifold.kind == "torus":
            return scale * p
        e2z = np.exp(2.0 * q[..., 2])
        out = np.empty_like(p)
        out[..., 0] = scale * e2z * p[..., 0]
        out[..., 1] = scale * p[..., 1] / e2z
        out[..., 2] = scale * p[..., 2]
        return out

    return HamiltonianField(name="geodesic", manifold=manifold, value=value,
                            grad_q=grad_q, grad_p=grad_p)


def gauge_field(sandwich: SandwichedHamiltonians) -> HamiltonianField:
    """The degree-2 homogeneous gauge F as a Hamiltonian."""
    return HamiltonianField(
        name="gauge", manifold=sandwich.manifold,
        value=lambda q, p: sandwich.gauge(q, p),
        grad_q=lambda q, p: sandwich.gauge_grads(q, p)[0],
        grad_p=lambda q, p: sandwich.gauge_grads(q, p)[1])


def cutoff_gauge_field(sandwich: SandwichedHamiltonians) -> HamiltonianField:
    """f(F): the smoothed gauge without the far-field switch."""

    def value(q, p):
        return sandwich.cutoff.eval(sandwich.gauge(q, p))[0]

    def grads(q, p):
        f_val = sandwich.gauge(q, p)
        _, slope = sandwich.cutoff.eval(f_val)
        dq, dp = sandwich.gauge_grads(q, p)
        return slope[..., None] * dq, slope[..., None] * dp

    return HamiltonianField(
        name="cutoff-gauge", manifold=sandwich.manifold, value=value,
        grad_q=lambda q, p: grads(q, p)[0],
        grad_p=lambda q, p: grads(q, p)[1])


def _far_mix_grads(sandwich, q, p, inner_val, inner_dq, inner_dp):
    """Gradients of (1-step)*inner + step*upper for the far-field switch."""
    g = sandwich.energy(q, p)
    g_dq, g_dp = sandwich.energy_grads(q, p)
    rho = np.sqrt(np.maximum(2.0 * g, 1e-300))
    tau = sandwich.far_step(rho)
    dtau = sandwich.far_step_slope(rho) / rho  # d tau / d g
    sigma = sandwich.upper_scale
    upper = sigma * g
    mix = dtau * (upper - inner_val)
    dq = (1.0 - tau)[..., None] * inner_dq + (tau * sigma + mix)[..., None] * g_dq
    dp = (1.0 - tau)[..., None] * inner_dp + (tau * sigma + mix)[..., None] * g_dp
    return dq, dp


def core_field(sandwich: SandwichedHamiltonians) -> HamiltonianField:
    """The smoothed starshape Hamiltonian (middle of the sandwich)."""

    def value(q, p):
        return sandwich.sandwich_eval(q, p)[1]

    def grads(q, p):
        f_val = sandwich.gauge(q, p)
        cut, slope = sandwich.cutoff.eval(f_val)
        dq_f, dp_f = sandwich.gauge_grads(q, p)
        return _far_mix_grads(sandwich, q, p, cut,
                              slope[..., None] * dq_f, slope[..., None] * dp_f)

    return HamiltonianField(
        name="core", manifold=sandwich.manifold, value=value,
        grad_q=lambda q, p: grads(q, p)[0],
        grad_p=lambda q, p: grads(q, p)[1])


def lower_field(sandwich: SandwichedHamiltonians) -> HamiltonianField:
    def value(q, p):
        return sandwich.sandwich_eval(q, p)[0]

    def grads(q, p):
        g = sandwich.energy(q, p)
        cut, slope = sandwich.cutoff.eval(g)
        g_dq, g_dp = sandwich.energy_grads(q, p)
        return _far_mix_grads(sandwich, q, p, cut,
                              slope[..., None] * g_dq, slope[..., None] * g_dp)

    return HamiltonianField(
        name="lower", manifold=sandwich.manifold, value=value,
        grad_q=lambda q, p: grads(q, p)[0],
        grad_p=lambda q, p: grads(q, p)[1])


def upper_field(sandwich: SandwichedHamiltonians) -> HamiltonianField:
    def value(q, p):
        return sandwich.upper_scale * sandwich.energy(q, p)

    def grads(q, p):
        g_dq, g_dp = sandwich.energy_grads(q, p)
        return sandwich.upper_scale * g_dq, sandwich.upper_scale * g_dp

    return HamiltonianField(
        name="upper", manifold=sandwich.manifold, value=value,
        grad_q=lambda q, p: grads(q, p)[0],
        grad_p=lambda q, p: grads(q, p)[1])


def blend_field(sandwich: SandwichedHamiltonians, t: float) -> HamiltonianField:
    """Convex blend (1-beta(t)) lower + beta(t) upper of the sandwich."""
    beta = float(sandwich.homotopy_step(t))
    lo = lower_field(sandwich)
    up = upper_field(sandwich)
    return HamiltonianField(
        name=f"blend[{t}]", manifold=sandwich.manifold,
        value=lambda q, p: (1 - beta) * lo.value(q, p) + beta * up.value(q, p),
        grad_q=lambda q, p: (1 - beta) * lo.grad_q(q, p) + beta * up.grad_q(q, p),
        grad_p=lambda q, p: (1 - beta) * lo.grad_p(q, p) + beta * up.grad_p(q, p))


# -- integration ------------------------------------------------------------

@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str = "rk"           # "rk" (adaptive DOP853) | "midpoint"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.05       # output sample spacing (quadrature density)
    drift_abort: float = 1e-6

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_step <= 0:
            raise ValueError("integrator tolerances must be positive")


@dataclass
class Trajectory:
    """Time-stamped phase-space samples in universal-cover coordinates."""

    times: np.ndarray
    q: np.ndarray            # (samples, d)
    p: np.ndarray
    energy: np.ndarray
    energy_drift: float
    stats: dict
    manifold: ModelManifold

    def state(self, i: int) -> CotangentPoint:
        return CotangentPoint(self.q[i], self.p[i])


def _sample_grid(t0: float, t1: float, max_step: float) -> np.ndarray:
    n = max(2, int(math.ceil((t1 - t0) / max_step)) + 1)
    if n % 2 == 0:
        n += 1  # odd count keeps composite Simpson exact-order
    return np.linspace(t0, t1, n)


def _flat_rhs(field: HamiltonianField, d: int):
    def rhs(t, y):
        n = y.size // (2 * d)
        q = y[: n * d].reshape(n, d)
        p = y[n * d:].reshape(n, d)
        dp, dq_dot = field.dp(q, p), -field.dq(q, p)
        return np.concatenate([dp.ravel(), dq_dot.ravel()])
    return rhs


def integrate(field: HamiltonianField, x0: CotangentPoint, T: float,
              cfg: IntegratorConfig = IntegratorConfig(),
              t0: float = 0.0) -> Trajectory:
    """Integrate one initial condition over [t0, t0 + T]."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    times, Q, P, stats = _integrate_raw(field, x0.q[None, :], x0.p[None, :],
                                        t0, t0 + T, cfg)
    q, p = Q[0], P[0]
    energy = field.value(q, p)
    drift = energy_drift(energy, cfg.drift_abort)
    stats = dict(stats)
    return Trajectory(times=times, q=q, p=p, energy=energy,
                      energy_drift=drift, stats=stats, manifold=field.manifold)


def energy_drift(energy, abort: float = math.inf) -> float:
    """Largest |H(t) - H(0)| relative to max(1, |H(0)|); raises
    IntegrationDivergedError when it exceeds ``abort``."""
    h0 = float(energy[0])
    drift = float(np.max(np.abs(energy - h0)) / max(1.0, abs(h0)))
    if drift > abort:
        raise IntegrationDivergedError(
            f"energy drift {drift:.3e} exceeds abort bound {abort:.3e}")
    return drift


def integrate_batch(field: HamiltonianField, Q0, P0, T: float,
                    cfg: IntegratorConfig = IntegratorConfig(),
                    t0: float = 0.0, t_eval=None):
    """Integrate many initial conditions as one stacked system.

    Returns (times, Q, P) with Q, P of shape (n, samples, d).  Error control
    is per component; the batch shares adaptive steps, which is fine for the
    mesh and census workloads this backs.
    """
    Q0 = np.atleast_2d(np.asarray(Q0, dtype=float))
    P0 = np.atleast_2d(np.asarray(P0, dtype=float))
    times, Q, P, _ = _integrate_raw(field, Q0, P0, t0, t0 + T, cfg,
                                    t_eval=t_eval)
    return times, Q, P


def _integrate_raw(field, Q0, P0, t0, t1, cfg, t_eval=None):
    n, d = Q0.shape
    y0 = np.concatenate([Q0.ravel(), P0.ravel()])
    times, ys, stats = solve(_flat_rhs(field, d), y0, t0, t1, cfg, t_eval)
    S = len(times)
    Q = ys[: n * d].reshape(n, d, S).transpose(0, 2, 1)
    P = ys[n * d:].reshape(n, d, S).transpose(0, 2, 1)
    return times, Q, P, stats


def solve(rhs, y0, t0, t1, cfg: IntegratorConfig, t_eval=None):
    """Integrate y' = rhs(t, y) over [t0, t1] with the configured scheme.

    Returns (times, ys, stats) with ys of shape (len(y0), samples), sampled
    on ``t_eval`` (default: the quadrature grid of ``cfg.max_step``).
    """
    if t_eval is None:
        t_eval = _sample_grid(t0, t1, cfg.max_step)
    if cfg.scheme == "midpoint":
        return _implicit_midpoint(rhs, y0, t_eval, cfg)
    res = solve_ivp(rhs, (t0, t1), y0, method="DOP853",
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, t_eval=t_eval)
    if not res.success:
        raise StiffnessError(f"integrator failed: {res.message}")
    return res.t, res.y, {"nfev": int(res.nfev), "samples": len(res.t)}


def _implicit_midpoint(rhs, y0, t_eval, cfg):
    h = cfg.max_step
    t0, t1 = float(t_eval[0]), float(t_eval[-1])
    steps = max(1, int(round((t1 - t0) / h)))
    h = (t1 - t0) / steps
    ts = [t0]
    ys = [y0]
    y = y0.copy()
    nfev = 0
    t = t0
    for _ in range(steps):
        mid = y + 0.5 * h * rhs(t, y)
        for _ in range(60):
            nfev += 1
            f_mid = rhs(t + 0.5 * h, mid)
            new_mid = y + 0.5 * h * f_mid
            if np.max(np.abs(new_mid - mid)) < 1e-14 * (1 + np.max(np.abs(mid))):
                mid = new_mid
                break
            mid = new_mid
        else:
            raise StiffnessError("implicit midpoint iteration stalled")
        y = 2.0 * mid - y
        t += h
        ts.append(t)
        ys.append(y.copy())
    ts = np.array(ts)
    ys = np.stack(ys, axis=1)
    # resample onto the requested grid
    out = np.empty((ys.shape[0], len(t_eval)))
    for i in range(ys.shape[0]):
        out[i] = np.interp(t_eval, ts, ys[i])
    return np.asarray(t_eval), out, {"nfev": nfev, "samples": len(t_eval)}


# -- action functional -------------------------------------------------------

def action_of_trajectory(traj: Trajectory, field: HamiltonianField) -> float:
    """Quadrature of the classical action integral(p . dq/dt - H) dt.

    Composite Simpson on the stored samples; chords should be parametrized
    on [0, 1] (rescale n-fold Hamiltonians rather than the time interval).
    """
    if len(traj.times) < 5:
        raise ValueError("too few samples for the action quadrature")
    qdot = field.velocity(traj.q, traj.p)
    integrand = np.sum(traj.p * qdot, axis=-1) - field.value(traj.q, traj.p)
    return float(simpson(integrand, x=traj.times))


def action_convergence_gap(traj: Trajectory, field: HamiltonianField) -> float:
    """Difference between the action on the full and the halved sample grid."""
    full = action_of_trajectory(traj, field)
    half = Trajectory(times=traj.times[::2], q=traj.q[::2], p=traj.p[::2],
                      energy=traj.energy[::2], energy_drift=traj.energy_drift,
                      stats=traj.stats, manifold=traj.manifold)
    return abs(full - action_of_trajectory(half, field))


def action_homogeneous(h_prime: float, h_val: float, H_val: float) -> float:
    """Critical value of the action for h(H) with H homogeneous of degree 2."""
    return 2.0 * h_prime * H_val - h_val


def verify_scaling_law(field: HamiltonianField, chord: Trajectory,
                       c: float) -> tuple[float, float]:
    """Check the inverse-scaling of action spectra for degree-2 Hamiltonians.

    Scales the chord covectors by 1/c, verifies the scaled path solves the
    c*H equations (max residual returned second), and returns the relative
    mismatch |A_{cH}(scaled) - A_H(chord)/c| / |A_H(chord)|.
    """
    if c <= 0:
        raise ValueError("scale factor must be positive")
    cfield = scaled_field(field, c)
    scaled = Trajectory(times=chord.times, q=chord.q, p=chord.p / c,
                        energy=chord.energy / c, energy_drift=chord.energy_drift,
                        stats=chord.stats, manifold=chord.manifold)
    # residual of the scaled path against the c*H equations
    qdot_ref, pdot_ref = field.rhs(chord.q, chord.p)
    qdot_new, pdot_new = cfield.rhs(scaled.q, scaled.p)
    res = max(float(np.max(np.abs(qdot_new - qdot_ref))),
              float(np.max(np.abs(pdot_new - pdot_ref / c))))
    a_ref = action_of_trajectory(chord, field)
    a_new = action_of_trajectory(scaled, cfield)
    rel = abs(a_new - a_ref / c) / max(abs(a_ref), 1e-300)
    return rel, res


def classify_chord_action(chord: Trajectory, sandwich: SandwichedHamiltonians,
                          n: int, tol: float = 1e-6):
    """Classify a chord of n*core by its position relative to the surface and
    assert the matching action inequality.

    Returns (label, action) with label in {"inside", "outside",
    "boundary-ambiguous"}.  Raises on an inequality violation.
    """
    gauge = sandwich.gauge(chord.q, chord.p)
    action = action_of_trajectory(chord, scaled_field(core_field(sandwich), n))
    gmax, gmin = float(np.max(gauge)), float(np.min(gauge))
    if gmax < 1.0 - tol:
        label = "inside"
        if not action < n:
            raise InvariantFailureError(
                f"inside chord has action {action} >= {n}")
    elif gmin > 1.0 + tol:
        label = "outside"
        if not action > n:
            raise InvariantFailureError(
                f"outside chord has action {action} <= {n}")
    else:
        label = "boundary-ambiguous"
    return label, action


def time_change_residual(sandwich: SandwichedHamiltonians,
                         x_on_surface: CotangentPoint, s: float) -> float:
    """Residual of the fiber-scaling conjugacy of the smoothed gauge flow.

    For a point with gauge 1 and s in (0, 1], the field of f(F) at the
    scaled covector s*p equals f'(s^2)*s times the pushforward of the field
    at p under (q, p) -> (q, s p).  Returns the norm of the difference.
    """
    fld = cutoff_gauge_field(sandwich)
    q, p = x_on_surface.q, x_on_surface.p
    qdot, pdot = fld.rhs(q, p)
    lhs_q, lhs_p = fld.rhs(q, s * p)
    _, fprime = sandwich.cutoff.eval(np.asarray(s * s))
    sigma_s = float(fprime) * s
    res_q = lhs_q - sigma_s * qdot
    res_p = lhs_p - sigma_s * (s * pdot)
    return float(np.sqrt(np.sum(res_q ** 2) + np.sum(res_p ** 2)))


# -- fixed-time fiber-to-fiber chords (flat base) -----------------------------

def shoot_fixed_time_chords(field: HamiltonianField, q0, q1, *,
                            duration: float = 1.0, p_max: float = 3.2,
                            grid: int = 48, coarse: float = 0.35,
                            newton_tol: float = 1e-10, max_records: int = 4000,
                            cfg: IntegratorConfig = IntegratorConfig(max_step=0.02)):
    """Find solutions x(0) in the fiber over q0 with base(x(duration)) on a
    lift of q1, by shooting over a covector grid and polishing with damped
    Newton in the starting covector (lockstep across all seeds, since the
    arrival time is fixed).

    Torus-only helper used by the action experiments.  Returns a list of
    (trajectory, deck) pairs deduplicated in (covector, deck).
    """
    manifold = field.manifold
    if manifold.kind != "torus":
        raise ValueError("fixed-time chord shooting expects the torus model")
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    axis = np.linspace(-p_max, p_max, grid)
    px, py = np.meshgrid(axis, axis)
    P0 = np.stack([px.ravel(), py.ravel()], axis=-1)

    def endpoints(P):
        Q0 = np.broadcast_to(q0, P.shape).copy()
        _, Q, _ = integrate_batch(field, Q0, P, duration, cfg,
                                  t_eval=np.array([0.0, duration]))
        return Q[:, -1, :]

    ends = endpoints(P0)
    seeds = []
    spacing = axis[1] - axis[0]
    for i in range(P0.shape[0]):
        deck, dist, lift = manifold.nearest_lift(ends[i], q1)
        if dist < coarse:
            seeds.append((dist, tuple(P0[i]), lift))
    seeds.sort(key=lambda s: s[0])
    taken = []
    for dist, pseed, lift in seeds:
        if any(np.hypot(pseed[0] - t[0][0], pseed[1] - t[0][1]) < 0.6 * spacing
               for t in taken):
            continue
        taken.append((pseed, lift))
    if not taken:
        return []

    # lockstep damped Newton in the covector against each seed's fixed lift
    n = len(taken)
    P = np.array([t[0] for t in taken])
    lifts = np.array([t[1] for t in taken])
    alpha = np.ones(n)
    live = np.ones(n, dtype=bool)
    done = np.zeros(n, dtype=bool)
    rprev = np.full(n, np.inf)
    h = 1e-7
    for _ in range(40):
        idx = np.nonzero(live & ~done)[0]
        if len(idx) == 0:
            break
        k = len(idx)
        stack = np.concatenate([P[idx],
                                P[idx] + np.array([h, 0.0]),
                                P[idx] + np.array([0.0, h])])
        ends = endpoints(stack)
        res = ends[:k] - lifts[idx]
        rn = np.linalg.norm(res, axis=1)
        worse = rn > rprev[idx] * (1 - 1e-4 * alpha[idx])
        first = ~np.isfinite(rprev[idx])
        alpha[idx[worse & ~first]] *= 0.5
        alpha[idx[~worse & ~first]] = np.minimum(
            1.0, 2.0 * alpha[idx[~worse & ~first]])
        rprev[idx] = rn
        done[idx[rn <= newton_tol]] = True
        live[idx[(alpha[idx] < 2 ** -9) & (rn > newton_tol)]] = False
        for pos, i in enumerate(idx):
            if done[i] or not live[i]:
                continue
            jac = np.stack([(ends[k + pos] - ends[pos]) / h,
                            (ends[2 * k + pos] - ends[pos]) / h], axis=-1)
            try:
                step = np.linalg.solve(jac, -res[pos])
            except np.linalg.LinAlgError:
                live[i] = False
                continue
            P[i] = P[i] + alpha[i] * step

    found = np.nonzero(done)[0]
    if len(found) == 0:
        return []
    final_ends = endpoints(P[found])
    selected = []
    for pos, i in enumerate(found):
        deck_star, dist_star, _ = manifold.nearest_lift(final_ends[pos], q1)
        if dist_star > 10 * newton_tol:
            continue
        if any(d_old == deck_star and np.linalg.norm(p_old - P[i]) < 1e-6
               for p_old, d_old in selected):
            continue
        selected.append((P[i].copy(), deck_star))
        if len(selected) >= max_records:
            break
    if not selected:
        return []
    # dense trajectories for all accepted chords in one batch
    P_sel = np.stack([p for p, _ in selected])
    Q_sel = np.broadcast_to(q0, P_sel.shape).copy()
    t_grid = _sample_grid(0.0, duration, cfg.max_step)
    _, Q, Pt = integrate_batch(field, Q_sel, P_sel, duration, cfg,
                               t_eval=t_grid)
    records = []
    for j, (_, deck_star) in enumerate(selected):
        energy = field.value(Q[j], Pt[j])
        records.append((Trajectory(times=t_grid, q=Q[j], p=Pt[j],
                                   energy=energy,
                                   energy_drift=energy_drift(energy),
                                   stats={}, manifold=manifold), deck_star))
    return records


# -- radial chord spectra on the flat torus ----------------------------------

def flat_action_spectrum(manifold: ModelManifold, q0, q1, n: int,
                         bound: float):
    """Action spectrum of n * (geodesic energy) between two torus fibers:
    |w|^2 / (2n) over lattice-shifted separations w, up to ``bound``."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    w_cap = math.sqrt(2.0 * n * bound)
    vals = []
    for w in _lattice_targets(manifold, q1 - q0, w_cap):
        vals.append(np.dot(w, w) / (2.0 * n))
    return sorted(vals)


def _lattice_targets(manifold, delta, w_cap):
    basis = manifold.lattice
    # radius in integer coordinates that covers |w| <= w_cap
    scale = np.linalg.norm(np.linalg.inv(basis), 2)
    r = int(math.ceil((w_cap + np.linalg.norm(delta)) * scale)) + 1
    out = []
    for m in range(-r, r + 1):
        for nn in range(-r, r + 1):
            w = delta + basis @ np.array([float(m), float(nn)])
            if np.linalg.norm(w) <= w_cap:
                out.append(w)
    return out


def exclusion_level(n: int, spectrum) -> float:
    """Midpoint of the widest spectrum gap inside (n, n+1)."""
    pts = [n] + sorted(v for v in spectrum if n < v < n + 1) + [n + 1]
    gaps = [(pts[i + 1] - pts[i], i) for i in range(len(pts) - 1)]
    width, i = max(gaps)
    if width < 1e-3:
        raise InvariantFailureError("no usable spectrum gap in (n, n+1)")
    return 0.5 * (pts[i] + pts[i + 1])


def radial_blend_profile(sandwich: SandwichedHamiltonians, t: float):
    """Scalar profile h with blend(t)(q, p) = h(G) for round profiles on the
    flat torus, returned as vectorized (h, h') callables."""
    beta = float(sandwich.homotopy_step(t))
    sigma = sandwich.upper_scale

    def h(g):
        g = np.asarray(g, dtype=float)
        rho = np.sqrt(2.0 * g)
        tau = sandwich.far_step(rho)
        f_val, _ = sandwich.cutoff.eval(g)
        lower = (1.0 - tau) * f_val + tau * sigma * g
        return (1.0 - beta) * lower + beta * sigma * g

    def h_prime(g):
        g = np.asarray(g, dtype=float)
        rho = np.sqrt(np.maximum(2.0 * g, 1e-300))
        tau = sandwich.far_step(rho)
        dtau = sandwich.far_step_slope(rho) / rho
        f_val, f_slope = sandwich.cutoff.eval(g)
        lower_p = (1.0 - tau) * f_slope + tau * sigma + dtau * (sigma * g - f_val)
        return (1.0 - beta) * lower_p + beta * sigma

    return h, h_prime


def radial_chord_actions(sandwich: SandwichedHamiltonians, n: int, t: float,
                         q0, q1, *, rho_max: float = 4.6,
                         rho_samples: int = 6000, action_cap: float = None):
    """All chord actions of n * blend(t) between two fibers of the flat torus
    with a round profile, by scalar shooting over the radial speed profile.

    The blend is radial there, so a chord to the shifted target w exists for
    each speed rho solving n h'(rho^2/2) rho = |w|; its action follows from
    the homogeneous action formula applied to h.
    """
    if sandwich.manifold.kind != "torus" or sandwich.profile.kind != "round":
        raise ValueError("radial chord enumeration needs a round torus profile")
    if action_cap is None:
        action_cap = n + 2.0
    h, h_prime = radial_blend_profile(sandwich, t)
    rho = np.linspace(1e-9, rho_max, rho_samples)
    g = 0.5 * rho ** 2
    speed = n * h_prime(g) * rho
    w_cap = float(np.max(speed)) * 1.0000001
    delta = np.asarray(q1, dtype=float) - np.asarray(q0, dtype=float)
    norms = sorted({round(float(np.linalg.norm(w)), 12)
                    for w in _lattice_targets(sandwich.manifold, delta, w_cap)})
    actions = []
    for wn in norms:
        if wn == 0.0:
            continue
        diff = speed - wn
        sign_change = np.nonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]
        for i in sign_change:
            root = brentq(lambda r: float(n * h_prime(0.5 * r * r) * r - wn),
                          rho[i], rho[i + 1], xtol=1e-14)
            gr = 0.5 * root ** 2
            a = n * (2.0 * float(h_prime(gr)) * gr - float(h(gr)))
            if a <= action_cap:
                actions.append(a)
    return sorted(actions)
