import numpy as np
import pytest

from spherization_lab.starshape import (Cutoff, RadialProfile,
                                        SandwichedHamiltonians, calibrate)

from sandwich_helpers import blend_field, slope_positive_above_knot


def quintic(x):
    # independent smoothstep for cross-checks
    x = min(1.0, max(0.0, x))
    return 10 * x ** 3 - 15 * x ** 4 + 6 * x ** 5


def test_gauge_round_and_ellipse(round_sandwich, ellipse_sandwich):
    q = np.zeros(2)
    assert np.isclose(round_sandwich.gauge(q, np.array([0.5, 0.0])), 0.25)
    assert np.isclose(ellipse_sandwich.gauge(q, np.array([0.0, 2.0])), 1.0)
    assert ellipse_sandwich.gauge(q, np.zeros(2)) == 0.0


@pytest.mark.parametrize("scale", [0.5, 2.0, 7.0])
def test_gauge_homogeneity(round_sandwich, ellipse_sandwich,
                           sol_round_sandwich, rng, scale):
    for sw in (round_sandwich, ellipse_sandwich, sol_round_sandwich):
        d = sw.manifold.dim
        q = rng.normal(size=(100, d))
        p = rng.normal(size=(100, d))
        lhs = sw.gauge(q, scale * p)
        rhs = scale ** 2 * sw.gauge(q, p)
        assert np.allclose(lhs, rhs, rtol=1e-10)


def test_fourier_profile_gauge(torus, rng):
    prof = RadialProfile.fourier(1.0, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.05))
    sw = calibrate(prof, torus)
    theta = rng.uniform(0, 2 * np.pi, size=200)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    r = prof.radius(u)
    p = u * r[:, None]
    q = rng.uniform(size=(200, 2))
    assert np.allclose(sw.gauge(q, p), 1.0, atol=1e-12)


def test_cutoff_pointwise_values():
    c = Cutoff(0.2)
    v, s = c.eval(0.03)
    assert v == 0.0 and s == 0.0
    v, s = c.eval(0.5)
    assert v == 0.5 and s == 1.0
    v, s = c.eval(0.1)
    # frozen regression values of the quintic blend
    assert np.isclose(v, 0.027520751953125, atol=1e-15)
    assert np.isclose(s, 1.30517578125, atol=1e-13)
    assert 0.0 < v < 0.1 and 0.0 < s <= 2.0


def test_cutoff_continuity_at_knots():
    c = Cutoff(0.2)
    eps = 0.2
    for r0 in (eps ** 2, eps):
        below = c.eval(r0 - 1e-12)
        above = c.eval(r0 + 1e-12)
        assert abs(below[0] - above[0]) < 1e-10
        assert abs(below[1] - above[1]) < 1e-6


def test_calibrate_round(round_sandwich):
    assert round_sandwich.metric_scale == 1.0
    assert np.isclose(round_sandwich.upper_scale, 2.2)
    # cutoff width shrank until the slope bound certified
    lo, hi = round_sandwich.cutoff.slope_bounds()
    assert 0.0 <= lo and hi <= 2.0
    assert slope_positive_above_knot(round_sandwich.cutoff)
    assert round_sandwich.cutoff.eps ** 2 < 1.0 / (2 * round_sandwich.upper_scale)


def test_calibrate_ellipse(ellipse_sandwich):
    assert np.isclose(ellipse_sandwich.upper_scale / 1.1, 4.0)
    assert np.isclose(ellipse_sandwich.metric_scale, 2.0)
    lo, hi = ellipse_sandwich.cutoff.slope_bounds()
    assert 0.0 <= lo and hi <= 2.0
    assert ellipse_sandwich.cutoff.eps ** 2 < 1.0 / (2 * ellipse_sandwich.upper_scale)


def test_calibrated_bounds_hold_by_sampling(round_sandwich, ellipse_sandwich,
                                            sol_round_sandwich, rng):
    for sw in (round_sandwich, ellipse_sandwich, sol_round_sandwich):
        d = sw.manifold.dim
        q = np.stack([sw.manifold.random_point(rng) for _ in range(200)])
        p = rng.normal(size=(200, d)) * rng.uniform(0.05, 3.0, size=(200, 1))
        g = sw.energy(q, p)
        f = sw.gauge(q, p)
        assert np.all(g <= f + 1e-12)
        assert np.all(sw.upper_scale * g >= f - 1e-12)


def test_sandwich_order_bulk(round_sandwich, ellipse_sandwich, rng):
    # zero violations on a large sample within |p| <= 8
    for sw in (round_sandwich, ellipse_sandwich):
        n = 100_000
        q = rng.uniform(0, 1, size=(n, 2))
        p = rng.normal(size=(n, 2))
        p *= (rng.uniform(0, 8.0, size=(n, 1)) /
              np.linalg.norm(p, axis=1, keepdims=True))
        lo, core, up = sw.sandwich_eval(q, p)
        assert int(np.sum(lo > core + 1e-12)) == 0
        assert int(np.sum(core > up + 1e-12)) == 0


def test_sandwich_far_field_and_origin(round_sandwich):
    q = np.zeros(2)
    lo, core, up = round_sandwich.sandwich_eval(q, np.array([5.0, 0.0]))
    expect = round_sandwich.upper_scale * 12.5
    assert np.isclose(lo, expect) and np.isclose(core, expect) \
        and np.isclose(up, expect)
    assert round_sandwich.sandwich_eval(q, np.zeros(2)) == (0.0, 0.0, 0.0)


def test_core_equals_cutoff_gauge_inside(round_sandwich, rng):
    # wherever the gauge is below 1 the far-field step is off
    q = rng.uniform(size=(500, 2))
    theta = rng.uniform(0, 2 * np.pi, 500)
    p = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    p *= np.sqrt(rng.uniform(0.0, 1.0, size=(500, 1)))
    _, core, _ = round_sandwich.sandwich_eval(q, p)
    f_of_f, _ = round_sandwich.cutoff.eval(round_sandwich.gauge(q, p))
    assert np.allclose(core, f_of_f, atol=1e-14)
    x = np.array([np.sqrt(0.9), 0.0])
    _, core, _ = round_sandwich.sandwich_eval(np.zeros(2), x)
    assert np.isclose(core, 0.9)


def test_homotopy_endpoints_and_window(round_sandwich, ellipse_sandwich,
                                       fourier_sandwich, sol_round_sandwich,
                                       rng):
    # blend_field is h_t(G): lower at t = 0, upper at t = 1, on every sandwich
    beta = quintic(0.5)
    for sw in (round_sandwich, ellipse_sandwich, fourier_sandwich,
               sol_round_sandwich):
        d = sw.manifold.dim
        q = rng.uniform(size=(200, d))
        p = rng.normal(size=(200, d)) * 1.5
        lo, _, up = sw.sandwich_eval(q, p)
        v0 = blend_field(sw, 0.0).value(q, p)
        v1 = blend_field(sw, 1.0).value(q, p)
        assert np.all(np.abs(v0 - lo) <= 1e-13 * np.abs(lo))
        assert np.all(np.abs(v1 - up) <= 1e-13 * np.abs(up))
        # halfway value against an independently coded quintic blend
        vh = blend_field(sw, 0.5).value(q, p)
        want = (1 - beta) * lo + beta * up
        assert np.all(np.abs(vh - want) <= 1e-13 * np.abs(want))
    a = 1.4
    sigma = round_sandwich.upper_scale
    assert np.isclose(round_sandwich.action_window(0.0, a), a)
    assert np.isclose(round_sandwich.action_window(1.0, a), a / sigma)
    assert np.isclose(round_sandwich.action_window(0.5, a),
                      a / (1 + beta * (sigma - 1)))
    # window is monotone nonincreasing
    ts = np.linspace(0, 1, 33)
    ws = [round_sandwich.action_window(t, a) for t in ts]
    assert all(ws[i + 1] <= ws[i] + 1e-15 for i in range(len(ws) - 1))


def test_radial_transversality_on_surface(round_sandwich, ellipse_sandwich,
                                          rng):
    # Euler identity: d/ds F(q, s p) at s=1 equals 2 F = 2 on the surface
    for sw in (round_sandwich, ellipse_sandwich):
        theta = rng.uniform(0, 2 * np.pi, 100)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        q = rng.uniform(size=(100, 2))
        p = sw.surface_covector(q, u)
        h = 1e-6
        deriv = (sw.gauge(q, (1 + h) * p) - sw.gauge(q, (1 - h) * p)) / (2 * h)
        assert np.allclose(deriv, 2.0, atol=1e-8)
        assert np.all(deriv > 0)


def test_calibration_rejects_bad_profile(torus):
    bad = RadialProfile.fourier(0.1, cos_coeffs=(0.5,))  # dips negative
    with pytest.raises(Exception):
        calibrate(bad, torus)
