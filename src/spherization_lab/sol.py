"""Left-invariant magnetic Hamiltonian on the sol quotient.

The Hamiltonian is

    2 H = e^{2z} (p_x + e^{-z})^2 + e^{-2z} p_y^2 + p_z^2
        = (M_x + 1)^2 + M_y^2 + M_z^2

in the left-invariant momenta M_x = e^z p_x, M_y = e^{-z} p_y, M_z = p_z.
The momenta close on themselves (an Euler-type reduction):

    dM_x/dt = M_x M_z,  dM_y/dt = -M_y M_z,  dM_z/dt = M_y^2 - M_x (M_x + 1),

with M_x M_y a first integral.  On the level H = k the momenta live on a
sphere of radius sqrt(2k) centered at (-1, 0, 0); it encloses the origin
exactly when k > 1/2, and then the reduced field has fixed points at
M = (0, 0, +-sqrt(2k-1)).  Along an orbit d log|M_x|/dt = M_z, so the
positive Lyapunov exponent is the absolute time average of M_z, which at
the upper fixed point evaluates to the closed form sqrt(2k-1).

The Lyapunov ensembles therefore integrate only the Euler equations, from
M(0) = momentum_map(q0, p0), with one more component z, z' = M_z, z(0) = 0
(``euler_field``): the exponent over a window [t_b, T] is the increment
|z(T) - z(t_b)| / (T - t_b), which the integrator's own error control
covers, so no dense sample grid and no quadrature are needed.  The energy
and the first integral read off M(t) on a unit sample grid.  An ensemble's
members advance together in one lockstep solve, so ``euler_field`` takes
one state or the k states of the lockstep layout.  The full field on the
cotangent bundle serves the chord census, volume growth and the
conservation checks.  Its formula lives once, in ``flat_rhs``, the kernel
the field hands the integrator in its own stacked layout (other fields go
through the generic adapter over ``grads``); ``grads(q, p)`` reads its
result from that kernel, with the bits of the ``(q, p)`` form.  Both
kernels follow the integrator's contract ``rhs(t, y, out)``: they write
dy/dt into ``out``, every slot of it on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianField, Trajectory, simpson
from .geometry import ModelManifold, momentum_map


def inverse_momentum_map(m, q):
    """Covector at the base point with the given momenta; exact inverse."""
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    ez = np.exp(q[..., 2])
    return np.stack([m[..., 0] / ez, m[..., 1] * ez, m[..., 2]], axis=-1)


def hamiltonian_from_momenta(m):
    m = np.asarray(m, dtype=float)
    return 0.5 * ((m[..., 0] + 1.0) ** 2 + m[..., 1] ** 2 + m[..., 2] ** 2)


def sol_hamiltonian(q, p):
    return hamiltonian_from_momenta(momentum_map(q, p))


def euler_field(t, y, out):
    """Reduced momentum dynamics with the exponent's integrand: writes into
    ``out`` the RHS of k states (M_x, M_y, M_z, z), z' = M_z, in the
    integrator's lockstep layout, all (M_x, M_y) and then all (M_z, z); one
    state is the vector (M_x, M_y, M_z, z) itself.  It runs on Python
    floats, with the bits of numpy's float64 arithmetic, as numpy's per-call
    cost outweighs its arithmetic at one or two states."""
    v = y.tolist()
    half = len(v) // 2
    for i in range(0, half, 2):
        mx, my, mz = v[i], v[i + 1], v[half + i]
        out[i] = mx * mz
        out[i + 1] = -my * mz
        out[half + i] = my * my - mx * (mx + 1.0)
        out[half + i + 1] = mz


def flat_rhs(t, y, out):
    """The magnetic field in the integrator's layout: writes dy/dt of the
    stacked vector y = [Q.ravel(), P.ravel()] of n rows into ``out``, as
    (dH/dp, -dH/dq) on its stride-3 column views.  e^z and the momenta
    M_x, M_y are shared by both gradients; of dH/dq only the z-derivative
    (at fixed p) survives, so dp_x = dp_y = -0.0, which every call fills."""
    half = y.size // 2
    ez = np.exp(y[2:half:3])
    mx = ez * y[half::3]
    my = y[half + 1::3] / ez
    mx1 = mx + 1.0
    np.multiply(mx1, ez, out[0:half:3])
    np.divide(my, ez, out[1:half:3])
    out[2:half:3] = y[half + 2::3]
    out[half:] = -0.0
    mx *= mx1
    mx -= my * my
    np.negative(mx, out[half + 2::3])


def sol_field(manifold: ModelManifold) -> HamiltonianField:
    if manifold.kind != "sol":
        raise ValueError("the magnetic Hamiltonian lives on the sol quotient")

    def value(q, p):
        return sol_hamiltonian(q, p)

    def grads(q, p):
        # the flat kernel on the stacked rows, read back as (dH/dq, dH/dp)
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if q.shape != p.shape:
            q, p = np.broadcast_arrays(q, p)
        dy = np.empty((2,) + q.shape)
        flat_rhs(None, np.concatenate((q.ravel(), p.ravel())), dy.reshape(-1))
        return np.negative(dy[1]), dy[0]

    return HamiltonianField(name="sol-magnetic", manifold=manifold,
                            value=value, grads=grads, flat_rhs=flat_rhs)


def level_covector(k: float, q, u):
    """Covector(s) on the level sphere over q in unit direction(s) u."""
    u = np.asarray(u, dtype=float)
    m = np.array([-1.0, 0.0, 0.0]) + np.sqrt(2.0 * k) * u
    return inverse_momentum_map(m, np.broadcast_to(np.asarray(q, dtype=float),
                                                   u.shape))


def fixed_point_covector(k: float, q):
    """Covector at the upper reduced fixed point M = (0, 0, sqrt(2k-1))."""
    if k <= 0.5:
        raise ValueError("the reduced fixed points exist only for k > 1/2")
    m = np.array([0.0, 0.0, np.sqrt(2.0 * k - 1.0)])
    return inverse_momentum_map(m, np.asarray(q, dtype=float))


def sample_level_states(manifold: ModelManifold, k: float, count: int, rng):
    """Seeded initial conditions on the level: uniform momentum-sphere
    directions over uniform base points of the fundamental domain."""
    us = rng.normal(size=(count, 3))
    us /= np.linalg.norm(us, axis=-1, keepdims=True)
    Q = np.stack([manifold.random_point(rng) for _ in range(count)])
    P = np.empty_like(Q)
    for i in range(count):
        P[i] = level_covector(k, Q[i], us[i])
    return Q, P


@dataclass
class LyapunovEstimate:
    chi: float
    window: tuple[float, float]
    partial_times: np.ndarray
    partial_averages: np.ndarray


def lyapunov_estimate(traj: Trajectory, burn_in_fraction: float = 0.1) -> LyapunovEstimate:
    """Positive Lyapunov exponent along a sampled sol orbit: the absolute
    Simpson average of M_z from the first sample after a burn-in window to
    the end, with the sequence of partial averages for convergence
    diagnosis."""
    t = traj.times
    mz = traj.p[:, 2]
    if t[-1] <= t[0] or len(t) < 8:
        raise ValueError("trajectory too short for a Lyapunov average")
    t_start = t[0] + burn_in_fraction * (t[-1] - t[0])
    i0 = min(int(np.searchsorted(t, t_start)), len(t) - 4)
    chi = abs(float(simpson(mz[i0:], x=t[i0:]))) / float(t[-1] - t[i0])
    cum = np.cumsum(np.concatenate(
        ([0.0], np.diff(t[i0:]) * (mz[i0 + 1:] + mz[i0:-1]) / 2.0)))
    spans = t[i0:] - t[i0]
    with np.errstate(divide="ignore", invalid="ignore"):
        partial = np.abs(cum) / np.where(spans > 0, spans, np.inf)
    return LyapunovEstimate(chi=chi, window=(float(t[i0]), float(t[-1])),
                            partial_times=t[i0:], partial_averages=partial)


def entropy_closed_form(k: float) -> float:
    """Topological entropy of the level flow: sqrt(2k-1) above the critical
    level, zero at or below it."""
    if k <= 0:
        raise ValueError("energy level must be positive")
    return float(np.sqrt(2.0 * k - 1.0)) if k > 0.5 else 0.0


def first_integral(q, p):
    """M_x M_y, conserved along the magnetic flow."""
    m = momentum_map(q, p)
    return m[..., 0] * m[..., 1]
