import itertools

import numpy as np
import pytest

from spherization_lab.geometry import CotangentPoint, ModelManifold
from spherization_lab.growth import multiply


def test_sol_vertical_deck_lift_action(sol):
    # left multiplication by the vertical generator scales the horizontal
    # plane by lam and 1/lam and shifts z by the period
    q = np.array([0.2, 0.5, 0.1])
    lifted = sol.deck_apply((0, 0, 1), q)
    lam = np.exp(sol.period)
    assert np.allclose(lifted, [lam * 0.2, 0.5 / lam, 0.1 + sol.period],
                       atol=1e-14)


def test_deck_group_laws(sol, rng):
    # the group law in growth is the one the deck elements act by
    A = sol.monodromy
    for _ in range(100):
        g = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        h = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        k = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        assert multiply(multiply(g, h, A), k, A) == \
            multiply(g, multiply(h, k, A), A)
        q = sol.random_point(rng)
        assert np.allclose(sol.deck_apply(multiply(g, h, A), q),
                           sol.deck_apply(g, sol.deck_apply(h, q)),
                           rtol=1e-12, atol=1e-12)


def test_cometric_values(torus, sol):
    # the cometric as the quadratic form conorm_sq on unit covectors
    eye2, eye3 = np.eye(2), np.eye(3)
    assert np.allclose(torus.conorm_sq(np.zeros((2, 2)), eye2), 1.0)
    assert np.allclose(sol.conorm_sq(np.zeros((3, 3)), eye3), 1.0)
    q = np.tile([0.0, 0.0, np.log(2.0)], (3, 1))
    assert np.allclose(sol.conorm_sq(q, eye3), [4.0, 0.25, 1.0])


def test_cometric_positive_definite(torus, sol, rng):
    # conorm_sq is positive and dual to the metric norm_sq: the covector
    # p = g(v, .) has |p|^2 = |v|^2
    for man in (torus, sol):
        q = man.random_point(rng) + rng.normal(scale=2.0, size=(1000, man.dim))
        v = rng.normal(size=(1000, man.dim))
        assert np.all(man.norm_sq(q, v) > 0.0)
        p = v.copy()
        if man.kind == "sol":
            e2z = np.exp(2.0 * q[:, 2])
            p[:, 0] = v[:, 0] / e2z
            p[:, 1] = v[:, 1] * e2z
        assert np.allclose(man.conorm_sq(q, p), man.norm_sq(q, v), rtol=1e-12)


def test_sol_conorm_equals_momentum_norm(sol, rng):
    q = rng.normal(size=(64, 3))
    p = rng.normal(size=(64, 3))
    ez = np.exp(q[:, 2])
    m = np.stack([ez * p[:, 0], p[:, 1] / ez, p[:, 2]], axis=-1)
    assert np.allclose(sol.conorm_sq(q, p), np.sum(m * m, axis=-1),
                       rtol=1e-12)


def test_deck_transport_preserves_conorm(sol, rng):
    # the lift of the deck action to the cotangent bundle: the base moves by
    # the left action, the covector by the inverse transpose of its
    # (diagonal) differential
    for _ in range(100):
        x = CotangentPoint(sol.random_point(rng), rng.normal(size=3))
        g = tuple(int(v) for v in rng.integers(-2, 3, size=3))
        zg = g[2] * sol.period
        y = CotangentPoint(sol.deck_apply(g, x.q),
                           x.p * np.array([np.exp(-zg), np.exp(zg), 1.0]))
        a = sol.conorm_sq(x.q, x.p)
        b = sol.conorm_sq(y.q, y.p)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def _deck_box_oracle(man, probe, base, center, r=3):
    """Brute force over the deck box of radius r around ``center``: the lift
    of ``base`` closest to ``probe`` in the frame at the lift."""
    best = None
    for g in itertools.product(*[range(c - r, c + r + 1) for c in center]):
        lift = man.deck_apply(g, base)
        dist = float(np.linalg.norm(man.frame_displacement(probe, lift)))
        if best is None or dist < best[1]:
            best = (g, dist)
    return best


def test_nearest_lift_agrees_with_enumeration(torus, sol, rng):
    skewed = ModelManifold.torus([[1.0, 0.6], [0.0, 0.8]])
    for kind, man in (("unit-torus", torus), ("skewed-torus", skewed),
                      ("sol", sol)):
        n, S, d = 4, 5, man.dim
        base = man.random_point(rng)
        decks = rng.integers(-2, 3, size=(n, S, d))
        noise = rng.normal(size=(n, S, d))
        probes = np.empty((n, S, d))
        for i, j in np.ndindex(n, S):
            lift = man.deck_apply(tuple(decks[i, j]), base)
            if kind == "unit-torus":
                # the corner search is exact anywhere on an orthogonal lattice
                probes[i, j] = lift + 0.5 * noise[i, j]
            elif kind == "skewed-torus":
                probes[i, j] = lift + 0.05 * noise[i, j]
            else:
                # close to the lift in its frame, where the search is exact
                scale = np.exp([lift[2], -lift[2], 0.0])
                probes[i, j] = lift + 0.01 * scale * noise[i, j]
        deck, dist = man.nearest_lift(probes, base)
        assert deck.shape == (n, S, d) and deck.dtype == np.int64, kind
        assert dist.shape == (n, S), kind
        for i, j in np.ndindex(n, S):
            g, want = _deck_box_oracle(man, probes[i, j], base, decks[i, j])
            assert tuple(deck[i, j]) == g, kind
            assert abs(dist[i, j] - want) <= 1e-12 * want, kind
            # a single probe gets the same answer as inside the array
            one = man.nearest_lift(probes[i, j], base)
            assert np.array_equal(one[0], deck[i, j]), kind
            assert one[1] == dist[i, j]
    # more than half a layer above or below a lift, the search still reaches
    # the layer of that lift, so it finds one at least as close
    base = sol.random_point(rng)
    lifts = np.stack([sol.deck_apply(g, base)
                      for g in ((0, 0, 0), (1, -1, 1), (-2, 1, -1), (2, 2, 2))])
    for side in (-1.0, 1.0):
        offset = side * 0.55 * sol.period
        _, dist = sol.nearest_lift(lifts + [0.0, 0.0, offset], base)
        assert np.all(dist <= abs(offset) * (1.0 + 1e-12))


# The two searches as they were written before their elementwise work moved
# onto coordinate planes and np.copyto: every deck and distance must keep
# their bits.
_CORNERS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))


def _reference_torus_lift(man, q_probe, q_base):
    best_d = np.full(q_probe.shape[:-1], np.inf)
    kf = np.floor((q_probe - q_base) @ man.lattice_inv.T)
    best_k = np.zeros_like(kf)
    for corner in _CORNERS:
        k = kf + np.array(corner)
        w = q_probe - (q_base + k @ man.lattice.T)
        dist = np.sqrt((w[..., None, :] @ w[..., :, None])[..., 0, 0])
        better = dist < best_d
        best_d = np.where(better, dist, best_d)
        best_k[better] = k[better]
    return best_k.astype(np.int64), best_d


def _reference_sol_lift(man, q_probe, q_base):
    best_d = np.full(q_probe.shape[:-1], np.inf)
    bm, bi = man.basis_mat, man.basis_inv
    x, y, z = q_probe[..., 0], q_probe[..., 1], q_probe[..., 2]
    l0 = np.round((z - q_base[2]) / man.period)
    k0_best, k1_best, l_best = (np.zeros_like(best_d) for _ in range(3))
    for dl in (-1.0, 0.0, 1.0):
        l = l0 + dl
        zg = l * man.period
        ez = np.exp(zg)
        tx = x - ez * q_base[0]
        ty = y - q_base[1] / ez
        kf0 = np.floor(bi[0, 0] * tx + bi[0, 1] * ty)
        kf1 = np.floor(bi[1, 0] * tx + bi[1, 1] * ty)
        lift_z = zg + q_base[2]
        shrink, grow = np.exp(-lift_z), np.exp(lift_z)
        fz = z - lift_z
        for dm, dn in _CORNERS:
            k0 = kf0 + dm
            k1 = kf1 + dn
            lift_x = bm[0, 0] * k0 + bm[0, 1] * k1 + ez * q_base[0]
            lift_y = bm[1, 0] * k0 + bm[1, 1] * k1 + q_base[1] / ez
            fx = (x - lift_x) * shrink
            fy = (y - lift_y) * grow
            dist = np.sqrt(fx * fx + fy * fy + fz * fz)
            better = dist < best_d
            best_d = np.where(better, dist, best_d)
            k0_best[better] = k0[better]
            k1_best[better] = k1[better]
            l_best[better] = l[better]
    deck = np.stack([k0_best, k1_best, l_best], axis=-1).astype(np.int64)
    return deck, best_d


def _lift_probe_set(man, base, rng):
    """120 probes: near lifts on layers |l| <= 6 (sol), and farther out;
    on cell edges, on corners and at cell centres, where corners tie; and
    rows with nan and inf."""
    d = man.dim
    k = rng.integers(-4, 5, size=(20, d)).astype(float)
    if d == 3:
        k[:, 2] = np.resize(np.arange(-6, 7), 20)
    frac = rng.uniform(size=(20, d))
    if d == 3:
        frac[:, 2] = 0.0
    edge = frac.copy()
    edge[:, 0] = 0.0
    half = np.zeros(d)
    half[:2] = 0.5
    lifts = man.deck_apply(k, base)
    scale = (np.ones((20, d)) if d == 2 else
             np.exp(np.stack([lifts[:, 2], -lifts[:, 2], 0.0 * k[:, 2]], -1)))
    probes = np.concatenate([
        lifts + 0.05 * scale * rng.normal(size=(20, d)),
        lifts + 0.8 * scale * rng.normal(size=(20, d)),
        man.deck_apply(k + frac, base),
        man.deck_apply(k + edge, base),
        man.deck_apply(k + half, base),
        lifts])
    bad = np.zeros((5, d))
    bad[:, 0] = [np.nan, 0.0, -np.inf, np.inf, np.nan]
    bad[:, 1] = [0.0, np.inf, 1.0, np.inf, np.nan]
    if d == 3:
        # between two layers, and non-finite heights
        probes[-5:, 2] = base[2] + (k[-5:, 2] + 0.5) * man.period
        bad[:3, 2] = [0.0, np.nan, np.inf]
    probes[-10:-5] = bad
    return probes


def test_nearest_lift_keeps_the_reference_bits(torus, sol, rng):
    skewed = ModelManifold.torus([[1.0, 0.6], [0.0, 0.8]])
    for man, reference in ((torus, _reference_torus_lift),
                           (skewed, _reference_torus_lift),
                           (sol, _reference_sol_lift)):
        base = man.random_point(rng)
        probes = _lift_probe_set(man, base, rng)
        n, d = probes.shape
        cases = [probes, probes.reshape(8, n // 8, d)]
        cases += [probes[i] for i in range(0, n, 7)]
        with np.errstate(invalid="ignore", over="ignore"):
            for q in cases:
                got = man.nearest_lift(q, base)
                want = reference(man, q, base)
                for a, b in zip(got, want):
                    assert type(a) is type(b), man.kind
                    assert a.dtype == b.dtype and a.shape == b.shape, man.kind
                    assert a.tobytes() == b.tobytes(), (man.kind, q.shape)


def test_stacked_deck_apply_matches_single_decks(torus, sol, rng):
    # deck_apply is each model's one lift formula: a stack of decks, acting
    # on one point or on a point per deck, gives every deck the bits of its
    # own single-deck call
    skewed = ModelManifold.torus([[1.0, 0.6], [0.0, 0.8]])
    for kind, man in (("unit-torus", torus), ("skewed-torus", skewed),
                      ("sol", sol)):
        d = man.dim
        base = man.random_point(rng)
        for shape in ((40,), (4, 5)):
            decks = rng.integers(-20, 21, size=shape + (d,))
            points = base + rng.normal(size=shape + (d,))
            lifts = man.deck_apply(decks, base)
            moved = man.deck_apply(decks, points)
            assert lifts.shape == moved.shape == shape + (d,), kind
            for idx in np.ndindex(shape):
                g = tuple(decks[idx].tolist())
                assert np.array_equal(lifts[idx], man.deck_apply(g, base)), kind
                assert np.array_equal(moved[idx],
                                      man.deck_apply(g, points[idx])), kind


def test_monodromy_validation():
    with pytest.raises(ValueError):
        ModelManifold.sol((2, 1, 1, 2))   # det 3
    with pytest.raises(ValueError):
        ModelManifold.sol((0, 1, -1, 0))  # elliptic
    man = ModelManifold.sol((3, 2, 1, 1))
    diag = man.basis_mat @ np.array([[3.0, 2.0], [1.0, 1.0]]) @ man.basis_inv
    assert abs(diag[0, 0] - np.exp(man.period)) < 1e-12
    assert abs(diag[0, 1]) < 1e-12 and abs(diag[1, 0]) < 1e-12


def test_models_and_states_compare_by_identity(torus, sol):
    # array fields make field-wise == and hash() raise; identity does not
    assert (ModelManifold.torus() == ModelManifold.torus()) is False
    assert torus == torus and sol != torus
    cache = {torus: "torus", sol: "sol"}
    assert cache[torus] == "torus" and cache[sol] == "sol"
    assert {torus, sol, torus} == {sol, torus}
    x = CotangentPoint(np.zeros(2), np.ones(2))
    assert x == x and x != CotangentPoint(np.zeros(2), np.ones(2))
    assert len({x, x}) == 1
