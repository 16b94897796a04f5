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
M = (0, 0, +-sqrt(2k-1)).  The positive Lyapunov exponent along an orbit is
the absolute time average of M_z, which at the upper fixed point evaluates
to the closed form sqrt(2k-1).

The Lyapunov ensembles therefore integrate only the Euler equations, from
M(0) = momentum_map(q0, p0): the exponent, the energy and the first
integral all read off M(t).  The full field on the cotangent bundle serves
the chord census, volume growth and the conservation checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson

from .dynamics import HamiltonianField, Trajectory
from .geometry import ModelManifold


@dataclass(frozen=True)
class SolLevel:
    """An energy level of the magnetic Hamiltonian on the sol quotient."""

    k: float
    manifold: ModelManifold

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("energy level must be positive")
        if self.manifold.kind != "sol":
            raise ValueError("sol level needs a sol manifold")

    @property
    def starshaped(self) -> bool:
        return self.k > 0.5

    @property
    def momentum_radius(self) -> float:
        return float(np.sqrt(2.0 * self.k))


def momentum_map(q, p):
    """(M_x, M_y, M_z) from cover coordinates; vectorized."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    ez = np.exp(q[..., 2])
    return np.stack([ez * p[..., 0], p[..., 1] / ez, p[..., 2]], axis=-1)


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


def euler_field(m):
    """Reduced momentum dynamics; vectorized over leading axes."""
    mx, my, mz = np.asarray(m, dtype=float).T
    return np.array([mx * mz, -my * mz, my * my - mx * (mx + 1.0)]).T


def sol_field(manifold: ModelManifold) -> HamiltonianField:
    if manifold.kind != "sol":
        raise ValueError("the magnetic Hamiltonian lives on the sol quotient")

    def value(q, p):
        return sol_hamiltonian(q, p)

    def grad_q(q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        m = momentum_map(q, p)
        out = np.zeros_like(q)
        # only the z-derivative survives; d/dz at fixed p
        out[..., 2] = (m[..., 0] + 1.0) * m[..., 0] - m[..., 1] ** 2
        return out

    def grad_p(q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        m = momentum_map(q, p)
        ez = np.exp(q[..., 2])
        return np.stack([(m[..., 0] + 1.0) * ez, m[..., 1] / ez, m[..., 2]],
                        axis=-1)

    return HamiltonianField(name="sol-magnetic", manifold=manifold,
                            value=value, grad_q=grad_q, grad_p=grad_p)


def level_covector(k: float, q, u):
    """Covector(s) on the level sphere over q in unit direction(s) u."""
    u = np.asarray(u, dtype=float)
    m = np.array([-1.0, 0.0, 0.0]) + np.sqrt(2.0 * k) * u
    return inverse_momentum_map(m, np.broadcast_to(np.asarray(q, dtype=float),
                                                   u.shape))


def fixed_point_covector(k: float, q, sign: int = +1):
    """Covector at the reduced fixed point M = (0, 0, +-sqrt(2k-1))."""
    if k <= 0.5:
        raise ValueError("the reduced fixed points exist only for k > 1/2")
    m = np.array([0.0, 0.0, float(sign) * np.sqrt(2.0 * k - 1.0)])
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


def _window_average(times, mz, burn_in_fraction):
    """(i0, chi): the first sample after the burn-in window and the absolute
    Simpson average of M_z from there to the end."""
    if times[-1] <= times[0] or len(times) < 8:
        raise ValueError("trajectory too short for a Lyapunov average")
    t_start = times[0] + burn_in_fraction * (times[-1] - times[0])
    i0 = min(int(np.searchsorted(times, t_start)), len(times) - 4)
    chi = abs(float(simpson(mz[i0:], x=times[i0:]))) / float(times[-1] - times[i0])
    return i0, chi


def lyapunov_estimate(traj: Trajectory, burn_in_fraction: float = 0.1) -> LyapunovEstimate:
    """Positive Lyapunov exponent along a sol orbit: the absolute time
    average of M_z after a burn-in window, with the sequence of partial
    averages for convergence diagnosis."""
    t = traj.times
    mz = traj.p[:, 2]
    i0, chi = _window_average(t, mz, burn_in_fraction)
    cum = cumulative_trapezoid(mz[i0:], t[i0:], initial=0.0)
    spans = t[i0:] - t[i0]
    with np.errstate(divide="ignore", invalid="ignore"):
        partial = np.abs(cum) / np.where(spans > 0, spans, np.inf)
    return LyapunovEstimate(chi=chi, window=(float(t[i0]), float(t[-1])),
                            partial_times=t[i0:], partial_averages=partial)


def lyapunov_from_momentum_series(times, mz, burn_in_fraction: float = 0.1) -> float:
    """The same average for a raw (t, M_z) series, such as a solution of the
    reduced Euler equations."""
    return _window_average(np.asarray(times, dtype=float),
                           np.asarray(mz, dtype=float), burn_in_fraction)[1]


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
