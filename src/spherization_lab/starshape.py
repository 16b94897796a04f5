"""Fiberwise starshaped surfaces and the sandwiched Hamiltonians built on them.

A surface is described by a radial profile r(q, u) over unit covector
directions, one class per shape (``RoundProfile``, ``EllipseProfile``,
``FourierProfile``) behind the interface of ``RadialProfile``: ``radius``,
``gauge`` and ``gauge_grads``.  The squared gauge

    F(q, p) = (|p|_g / r(q, p/|p|_g))^2

is fiberwise homogeneous of degree 2 and equals 1 exactly on the surface.
Around it we build the smoothed Hamiltonian and its metric bounds:

    upper = sigma * G
    core  = (1 - step(|p|)) * f(F) + step(|p|) * upper
    lower = (1 - step(|p|)) * f(G) + step(|p|) * upper

where G is half the squared conorm of a once-rescaled metric chosen so that
G <= F <= sigma * G, f is a cutoff vanishing near the zero section, and the
step function switches everything to the quadratic upper bound far out.
Lower, upper and their convex blend, which drives the homotopy experiments,
depend on (q, p) only through G: each is h_t(G) for one scalar profile,
``blend_profile(t)``, with lower at t = 0 and upper at t = 1.

All evaluation functions are vectorized over a leading sample axis and are
pure; a calibrated :class:`SandwichedHamiltonians` is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError
from .geometry import ModelManifold

_SLOPE_GRID = 10_000
_STEP_LO, _STEP_HI = 2.0, 4.0   # |p| over which the far-field step switches on
_CALIBRATION_DIRECTIONS = 4096
_CALIBRATION_BASE_POINTS = 64   # sampled base points on a curved base


def smoothstep(x):
    """Quintic monotone step: 0 below 0, 1 above 1, C^2 at the seams."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 + x * (-15.0 + 6.0 * x))


def smoothstep_slope(x):
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    xc = np.clip(x, 0.0, 1.0)
    return np.where(inside, 30.0 * xc ** 2 * (1.0 - xc) ** 2, 0.0)


class RadialProfile:
    """The fiber radius over unit covector directions, one frozen dataclass
    per shape that holds only its own parameters and sets ``kind``:
    ``RoundProfile`` (r = 1), ``EllipseProfile`` (the coordinate ellipsoid
    with semi-axes ``axes``) and ``FourierProfile`` (2d fibers only:
    r(theta) = base + sum_k cos_k cos(k theta) + sin_k sin(k theta)).  Each
    implements, vectorized, ``radius(u)`` at unit directions u of shape
    (..., d), and the gauge F on a manifold with its gradients (d/dq, d/dp):
    ``gauge(manifold, q, p)`` and ``gauge_grads(manifold, q, p)``."""

    @staticmethod
    def round() -> "RoundProfile":
        return RoundProfile()

    @staticmethod
    def ellipse(axes) -> "EllipseProfile":
        axes = tuple(map(float, axes))
        if any(a <= 0 for a in axes):
            raise ValueError("ellipse axes must be positive")
        return EllipseProfile(axes=axes)

    @staticmethod
    def fourier(base, cos_coeffs=(), sin_coeffs=()) -> "FourierProfile":
        return FourierProfile(float(base), tuple(map(float, cos_coeffs)),
                              tuple(map(float, sin_coeffs)))

    def gauge_terms(self, sandwich, q, p, energy, energy_grads):
        """(F, (dF/dq, dF/dp)) at (q, p), given the sandwich's G there and
        its gradients: the profile's own gauge, unless it can read them
        off G."""
        return (self.gauge(sandwich.manifold, q, p),
                self.gauge_grads(sandwich.manifold, q, p))


@dataclass(frozen=True)
class RoundProfile(RadialProfile):
    kind = "round"

    def radius(self, u):
        return np.ones(np.shape(u)[:-1])

    def gauge(self, manifold, q, p):
        return manifold.conorm_sq(q, p)

    def gauge_grads(self, manifold, q, p):
        gq, gp = manifold.conorm_grads(q, p)
        return 2.0 * gq, 2.0 * gp

    def gauge_terms(self, sandwich, q, p, energy, energy_grads):
        # F = 2 c G with the metric scale c, which calibrate sets to 1 on a
        # round profile: the conorm's own bits, from G's evaluation of it
        scale = 2.0 * sandwich.metric_scale
        return scale * energy, tuple(scale * g for g in energy_grads)


@dataclass(frozen=True)
class EllipseProfile(RadialProfile):
    kind = "ellipse"
    axes: tuple[float, ...]

    def radius(self, u):
        u = np.asarray(u, dtype=float)
        return 1.0 / np.sqrt(np.sum((u / self.axes) ** 2, axis=-1))

    def gauge(self, manifold, q, p):
        return np.sum((np.asarray(p, dtype=float) / self.axes) ** 2, axis=-1)

    def gauge_grads(self, manifold, q, p):
        p = np.asarray(p, dtype=float)
        return np.zeros_like(q, dtype=float), 2.0 * p / np.square(self.axes)


@dataclass(frozen=True)
class FourierProfile(RadialProfile):
    kind = "fourier"
    base: float
    cos_coeffs: tuple[float, ...]
    sin_coeffs: tuple[float, ...]

    def radius(self, u):
        u = np.asarray(u, dtype=float)
        theta = np.arctan2(u[..., 1], u[..., 0])
        r = np.full(theta.shape, self.base)
        for k, c in enumerate(self.cos_coeffs, start=1):
            r = r + c * np.cos(k * theta)
        for k, c in enumerate(self.sin_coeffs, start=1):
            r = r + c * np.sin(k * theta)
        return r

    def _radius_angle_slope(self, theta):
        r = np.zeros(theta.shape)
        for k, c in enumerate(self.cos_coeffs, start=1):
            r = r - c * k * np.sin(k * theta)
        for k, c in enumerate(self.sin_coeffs, start=1):
            r = r + c * k * np.cos(k * theta)
        return r

    def gauge(self, manifold, q, p):
        p = np.asarray(p, dtype=float)
        theta = np.arctan2(p[..., 1], p[..., 0])
        r = self.radius(np.stack([np.cos(theta), np.sin(theta)], axis=-1))
        return manifold.conorm_sq(q, p) / r ** 2

    def gauge_grads(self, manifold, q, p):
        # fourier profile lives on the flat torus fiber
        p = np.asarray(p, dtype=float)
        theta = np.arctan2(p[..., 1], p[..., 0])
        r = self.radius(np.stack([np.cos(theta), np.sin(theta)], axis=-1))
        dr = self._radius_angle_slope(theta)
        dp = np.empty_like(p)
        dp[..., 0] = 2.0 * p[..., 0] / r ** 2 + 2.0 * dr / r ** 3 * p[..., 1]
        dp[..., 1] = 2.0 * p[..., 1] / r ** 2 - 2.0 * dr / r ** 3 * p[..., 0]
        return np.zeros_like(q, dtype=float), dp


@dataclass(frozen=True)
class Cutoff:
    """Smooth interpolation between 0 (below eps^2) and the identity (above eps).

    Built as f(r) = r * smoothstep((r - eps^2)/(eps - eps^2)).  The slope
    bound f' <= 2 is not automatic for every eps; calibration shrinks eps
    until a dense grid certifies it.
    """

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 0.25:
            raise ValueError("cutoff eps must lie in (0, 1/4)")

    def eval(self, r):
        """Return (value, slope); vectorized."""
        r = np.asarray(r, dtype=float)
        lo = self.eps ** 2
        width = self.eps - lo
        x = (r - lo) / width
        s = smoothstep(x)
        ds = smoothstep_slope(x) / width
        val = np.where(r <= lo, 0.0, np.where(r >= self.eps, r, r * s))
        slope = np.where(r <= lo, 0.0, np.where(r >= self.eps, 1.0,
                                                s + r * ds))
        return val, slope

    def slope_bounds(self, grid: int = _SLOPE_GRID) -> tuple[float, float]:
        """(min, max) of f' on a dense grid over [0, max(1, 2 eps)]."""
        r = np.linspace(0.0, max(1.0, 2.0 * self.eps), grid)
        _, slope = self.eval(r)
        return float(np.min(slope)), float(np.max(slope))


@dataclass(frozen=True)
class SandwichedHamiltonians:
    """Calibrated bundle: profile, rescaled metric, cutoff, and the sandwich."""

    manifold: ModelManifold
    profile: RadialProfile
    metric_scale: float      # constant multiplying the metric so G <= F
    upper_scale: float       # sigma with sigma * G >= F
    cutoff: Cutoff

    # -- building blocks -----------------------------------------------------

    def energy(self, q, p):
        """G = half the squared rescaled conorm."""
        return 0.5 * self.manifold.conorm_sq(q, p) / self.metric_scale

    def energy_grads(self, q, p):
        gq, gp = self.manifold.conorm_grads(q, p)
        return gq / self.metric_scale, gp / self.metric_scale

    def gauge(self, q, p):
        """Degree-2 homogeneous gauge F; equals 1 exactly on the surface."""
        return self.profile.gauge(self.manifold, q, p)

    def gauge_grads(self, q, p):
        return self.profile.gauge_grads(self.manifold, q, p)

    def surface_covector(self, q, u):
        """Map unit coordinate directions to covectors on the surface F = 1."""
        q = np.asarray(q, dtype=float)
        u = np.asarray(u, dtype=float)
        norm = np.sqrt(self.manifold.conorm_sq(q, u))
        unit = u / norm[..., None]
        r = self.profile.radius(unit)
        return unit * r[..., None]

    def far_step(self, rho):
        lo, hi = _STEP_LO, _STEP_HI
        return smoothstep((np.asarray(rho, dtype=float) - lo) / (hi - lo))

    def far_step_slope(self, rho):
        lo, hi = _STEP_LO, _STEP_HI
        return smoothstep_slope((np.asarray(rho, dtype=float) - lo) / (hi - lo)) / (hi - lo)

    def homotopy_step(self, s):
        return smoothstep(s)

    # -- the sandwich ---------------------------------------------------------

    def sandwich_eval(self, q, p):
        """Return (lower, core, upper) at the given state(s)."""
        g = self.energy(q, p)
        f_of_f, _ = self.cutoff.eval(self.gauge(q, p))
        f_of_g, _ = self.cutoff.eval(g)
        rho = np.sqrt(2.0 * g)
        tau = self.far_step(rho)
        upper = self.upper_scale * g
        core = (1.0 - tau) * f_of_f + tau * upper
        lower = (1.0 - tau) * f_of_g + tau * upper
        return lower, core, upper

    def blend_profile(self, t: float):
        """Scalar profile h with blend(t)(q, p) = h(G), the convex blend
        (1 - beta(t)) lower + beta(t) upper; returned as vectorized (h, h')
        callables.  Lower is t = 0, upper is t = 1."""
        beta = float(self.homotopy_step(t))
        sigma = self.upper_scale

        def h(g):
            g = np.asarray(g, dtype=float)
            rho = np.sqrt(2.0 * g)
            tau = self.far_step(rho)
            f_val, _ = self.cutoff.eval(g)
            lower = (1.0 - tau) * f_val + tau * sigma * g
            return (1.0 - beta) * lower + beta * sigma * g

        def h_prime(g):
            g = np.asarray(g, dtype=float)
            rho = np.sqrt(np.maximum(2.0 * g, 1e-300))
            tau = self.far_step(rho)
            dtau = self.far_step_slope(rho) / rho
            f_val, f_slope = self.cutoff.eval(g)
            lower_p = ((1.0 - tau) * f_slope + tau * sigma
                       + dtau * (sigma * g - f_val))
            return (1.0 - beta) * lower_p + beta * sigma

        return h, h_prime

    def action_window(self, t, a):
        """Level a(t) = a / (1 + beta(t) (sigma - 1)); nonincreasing in t."""
        beta = self.homotopy_step(t)
        return a / (1.0 + beta * (self.upper_scale - 1.0))


def calibrate(profile: RadialProfile, manifold: ModelManifold, *,
              safety: float = 1.1, eps: float = 0.2,
              rng=None) -> SandwichedHamiltonians:
    """Build a calibrated sandwich for the profile on the manifold.

    The metric rescale makes G <= F, the upper scale sigma makes
    sigma G >= F (sampled extrema times the safety margin), and eps is
    halved until both the slope bound of the cutoff and eps^2 < 1/(2 sigma)
    hold.
    """
    if safety < 1.0:
        raise CalibrationError("safety factor must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    d = manifold.dim

    if d == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, _CALIBRATION_DIRECTIONS,
                            endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        dirs = rng.normal(size=(_CALIBRATION_DIRECTIONS, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    if profile.kind == "fourier" and d != 2:
        raise CalibrationError("fourier profiles support 2d fibers only")

    ratios = []
    for _ in range(_CALIBRATION_BASE_POINTS):
        q = manifold.random_point(rng)
        norm = np.sqrt(manifold.conorm_sq(q, dirs))
        unit = dirs / norm[..., None]
        r = profile.radius(unit)
        if np.any(r <= 0.0):
            raise CalibrationError("profile radius is not positive")
        ratios.append(r)
        if manifold.flat:
            break  # flat metric: directions are base-independent
    r_all = np.concatenate(ratios)
    r_max = float(np.max(r_all))
    r_min = float(np.min(r_all))

    # G = |p|^2 / (2c): c = 1 when the plain metric already fits below F
    metric_scale = max(1.0, 0.5 * r_max ** 2)
    upper_scale = safety * 2.0 * metric_scale / r_min ** 2

    cutoff = Cutoff(eps)
    while True:
        _, slope_max = cutoff.slope_bounds()
        if slope_max <= 2.0 and cutoff.eps ** 2 < 1.0 / (2.0 * upper_scale):
            break
        cutoff = Cutoff(cutoff.eps / 2.0)

    return SandwichedHamiltonians(manifold=manifold, profile=profile,
                                  metric_scale=metric_scale,
                                  upper_scale=upper_scale, cutoff=cutoff)

