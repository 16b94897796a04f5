"""Constructions on a calibrated sandwich that only the tests use: the
blend, cutoff-gauge and core-plus-potential fields, the fiber-scaling
residual of criterion 5 and the slope check of criterion 6."""

import numpy as np

from spherization_lab.dynamics import HamiltonianField, core_field
from spherization_lab.starshape import _SLOPE_GRID


def blend_field(sandwich, t: float) -> HamiltonianField:
    """h_t(G) for the sandwich's ``blend_profile(t)``: the convex blend
    (1-beta(t)) lower + beta(t) upper, so t = 0 is lower and t = 1 upper."""
    h, h_prime = sandwich.blend_profile(t)

    def grads(q, p):
        slope = h_prime(sandwich.energy(q, p))[..., None]
        g_dq, g_dp = sandwich.energy_grads(q, p)
        return slope * g_dq, slope * g_dp

    return HamiltonianField(
        name=f"blend[{t}]", manifold=sandwich.manifold,
        value=lambda q, p: h(sandwich.energy(q, p)), grads=grads)


def cutoff_gauge_field(sandwich) -> HamiltonianField:
    """f(F): the smoothed gauge without the far-field switch."""

    def value(q, p):
        return sandwich.cutoff.eval(sandwich.gauge(q, p))[0]

    def grads(q, p):
        f_val = sandwich.gauge(q, p)
        _, slope = sandwich.cutoff.eval(f_val)
        dq, dp = sandwich.gauge_grads(q, p)
        return slope[..., None] * dq, slope[..., None] * dp

    return HamiltonianField(name="cutoff-gauge", manifold=sandwich.manifold,
                            value=value, grads=grads)


def potential_field(sandwich, amplitude: float = 0.05) -> HamiltonianField:
    """The core Hamiltonian plus the torus potential a sum(cos(2 pi q)): its
    dH/dq != 0 bends the flow off the closed form of a field of p alone."""
    core = core_field(sandwich)
    k = 2.0 * np.pi

    def grads(q, p):
        gq, gp = core.grads(q, p)
        return gq - amplitude * k * np.sin(k * q), gp

    return HamiltonianField(
        name="core+potential", manifold=core.manifold,
        value=lambda q, p: (core.value(q, p)
                            + amplitude * np.sum(np.cos(k * q), -1)),
        grads=grads)


def time_change_residual(sandwich, x_on_surface, s: float) -> float:
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


def slope_positive_above_knot(cutoff, grid: int = _SLOPE_GRID) -> bool:
    """f' > 0 on a dense grid over (eps^2, max(1, 2 eps)]."""
    r = np.linspace(cutoff.eps ** 2, max(1.0, 2.0 * cutoff.eps), grid + 1)[1:]
    _, slope = cutoff.eval(r)
    return bool(np.all(slope > 0.0))
