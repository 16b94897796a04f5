"""Model base manifolds and their covering geometry.

Each model is one frozen dataclass behind the base ``ModelManifold``, built
by ``ModelManifold.torus()`` or ``ModelManifold.sol()``:

* ``FlatTorus``: the flat 2-torus R^2 / (B Z^2) for an invertible lattice
  basis B.
* ``SolQuotient``: a compact quotient of the 3-dimensional solvable group
  with left multiplication (x,y,z)*(x',y',z') = (x + e^z x', y + e^{-z} y',
  z + z') and metric e^{-2z} dx^2 + e^{2z} dy^2 + dz^2.  The lattice is
  built from an integer unimodular matrix A with eigenvalue lam > 1 via a
  matrix P with P A P^{-1} = diag(lam, 1/lam): the element (m, n, l) acts
  on the cover by left multiplication with (P(m,n), l*log(lam)).

The per-model interface is listed on ``ModelManifold``.  The metric enters
through ``conorm_sq`` and its one gradient kernel, ``conorm_grads`` (the
gradients of |p|^2 / 2), which the geodesic field, the sandwich energy G
and the round gauge all scale.

Coordinates always live in the universal cover, so trajectories stay
smooth.  ``deck_apply`` places every lift; one vectorized search,
``nearest_lift``, only tags each probe with the deck element of its closest
lift; the torus lattice translates within a radius come from
``lattice_translates``.

Deck elements are plain integer tuples: (m, n) for the torus, (m, n, l) for
the sol quotient.  Their group law, ``multiply``, lives in ``growth``.
All operations here are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Deck = tuple[int, ...]

_CORNERS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))


@dataclass(frozen=True, eq=False)
class CotangentPoint:
    """A phase-space state: base coordinates in the cover plus a covector."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ValueError("non-finite phase-space state")


def momentum_map(q, p):
    """Sol's left-invariant momenta (M_x, M_y, M_z) from cover coordinates;
    vectorized."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    ez = np.exp(q[..., 2])
    return np.stack([ez * p[..., 0], p[..., 1] / ez, p[..., 2]], axis=-1)


class ModelManifold:
    """A model base manifold together with its covering data.

    Each model is a frozen dataclass that holds only its own covering data
    and sets the class attributes ``kind``, ``dim`` and ``flat``; it compares
    and hashes by identity, since its fields are arrays.  ``flat`` says only
    that the metric is constant in the cover coordinates.  Two places read
    it: ``calibrate``, which then samples the directions at one base point,
    and the field constructors of ``dynamics``, whose fields then depend on
    p alone and carry their closed-form flow.  It implements, vectorized
    over leading axes:

    * ``random_point(rng)``: a uniform sample of the fundamental domain;
    * ``conorm_sq(q, p)`` and ``conorm_grads(q, p)``: |p|^2 in the dual
      metric, and (d/dq, d/dp) of |p|^2 / 2;
    * ``norm_sq(q, v)``: |v|^2 of a tangent vector in the base metric;
    * ``frame_components(q_ref, v)``: ``v`` in the orthonormal frame at
      ``q_ref``;
    * ``phase_distance(qa, pa, qb, pb)``: the product-metric chord distance
      between phase-space points;
    * ``_deck_apply(g, q)`` and ``_nearest_lift(q_probe, q_base)``: the
      model's halves of ``deck_apply`` and ``nearest_lift``, on float arrays.

    ``deck_apply``, ``frame_displacement`` and ``nearest_lift`` live here
    only, so that a wrapper set on this class sees every model's lifts.
    """

    # -- constructors ------------------------------------------------------

    @staticmethod
    def torus(basis=None) -> "FlatTorus":
        b = np.eye(2) if basis is None else np.asarray(basis, dtype=float)
        if b.shape != (2, 2) or abs(np.linalg.det(b)) < 1e-12:
            raise ValueError("lattice basis must be an invertible 2x2 matrix")
        return FlatTorus(lattice=b, lattice_inv=np.linalg.inv(b))

    @staticmethod
    def sol(monodromy=(2, 1, 1, 1)) -> "SolQuotient":
        a = tuple(int(v) for v in np.asarray(monodromy).ravel())
        if len(a) != 4:
            raise ValueError("monodromy must be a 2x2 integer matrix")
        if a[0] * a[3] - a[1] * a[2] != 1:
            raise ValueError("monodromy must have determinant 1")
        m = np.array(a, dtype=float).reshape(2, 2)
        vals, vecs = np.linalg.eig(m)
        if np.max(np.abs(np.imag(vals))) > 0:
            raise ValueError("monodromy must be hyperbolic (real eigenvalues)")
        vals, vecs = np.real(vals), np.real(vecs)
        order = np.argsort(vals)[::-1]
        lam = float(vals[order[0]])
        if lam <= 1.0:
            raise ValueError("monodromy must have an eigenvalue > 1")
        v = vecs[:, order].copy()
        # deterministic sign: largest-magnitude entry of each unit
        # eigenvector is positive
        for j in range(2):
            k = int(np.argmax(np.abs(v[:, j])))
            if v[k, j] < 0:
                v[:, j] = -v[:, j]
        p = np.linalg.inv(v)
        diag = p @ m @ v
        if abs(diag[0, 1]) > 1e-12 or abs(diag[1, 0]) > 1e-12 or \
           abs(diag[0, 0] - lam) > 1e-12:
            raise ValueError("diagonalization of the monodromy failed")
        return SolQuotient(monodromy=a, basis_mat=p, basis_inv=v,
                           period=float(np.log(lam)))

    # -- the shared covering interface --------------------------------------

    def deck_apply(self, g, q) -> np.ndarray:
        """Left action of the lattice element ``g``, one deck (k,) or a stack
        (..., k) with the bits of each deck's own call, on a cover point."""
        return self._deck_apply(np.asarray(g, dtype=float),
                                np.asarray(q, dtype=float))

    def frame_displacement(self, q_probe, q_ref):
        """Displacement of ``q_probe`` from ``q_ref`` in an orthonormal frame
        at ``q_ref``.  For the torus this is the plain difference; on sol the
        left-invariant frame absorbs the exponential shear, so the norm of
        the result approximates the Riemannian distance for nearby points.
        """
        q_ref = np.asarray(q_ref, dtype=float)
        return self.frame_components(
            q_ref, np.asarray(q_probe, dtype=float) - q_ref)

    def nearest_lift(self, q_probe, q_base):
        """Deck element whose action on ``q_base`` lands closest to each
        probe, with closeness measured in the frame at the lift.

        Vectorized over probes of shape (..., d).  The candidates are the
        corners of the lattice cell that holds the probe (on sol, in each of
        the three nearest layers).  That is exact on an orthogonal lattice
        and for probes close to a lift; farther from every lift on sol, where
        the frame stretches the cell, it is a heuristic.  Of tied candidates
        the first in ``_CORNERS`` order wins.  Returns ``(deck, dist)`` of
        shapes (..., k) and (...), with ``deck`` the int64 lattice
        coordinates of the winning lift; ``deck_apply`` places that lift.

        A stack of shape (n, S, d) gives each row the bits of that row's
        own (S, d) search, and the search holds several temporaries of the
        stack's size, so a caller with a large mesh searches it a block of
        rows at a time.
        """
        return self._nearest_lift(np.asarray(q_probe, dtype=float),
                                  np.asarray(q_base, dtype=float))


@dataclass(frozen=True, eq=False)
class FlatTorus(ModelManifold):
    """The flat torus R^2 / (B Z^2); ``lattice`` holds the basis columns B."""

    kind = "torus"
    dim = 2
    flat = True
    lattice: np.ndarray
    lattice_inv: np.ndarray

    def _deck_apply(self, g, q):
        return q + (self.lattice @ g[..., None])[..., 0]

    def random_point(self, rng) -> np.ndarray:
        return self.lattice @ rng.uniform(0.0, 1.0, size=2)

    def conorm_sq(self, q, p):
        p = np.asarray(p, dtype=float)
        return np.sum(p * p, axis=-1)

    def conorm_grads(self, q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        return np.zeros_like(q), p.copy()

    def norm_sq(self, q, v):
        v = np.asarray(v, dtype=float)
        return np.sum(v * v, axis=-1)

    def frame_components(self, q_ref, v):
        return np.asarray(v, dtype=float)

    def phase_distance(self, qa, pa, qb, pb):
        base = np.linalg.norm(qa - qb, axis=-1)
        fiber = np.linalg.norm(pa - pb, axis=-1)
        return np.sqrt(base ** 2 + fiber ** 2)

    def _nearest_lift(self, q_probe, q_base):
        # elementwise work runs on the x and y planes: a (2,) operand
        # broadcast against (..., 2) makes numpy loop over the short axis.
        # The lattice products stay matmuls and the distance stays a dot of
        # one vector per probe, for their bits (BLAS fuses multiply-adds)
        x, y = q_probe[..., 0], q_probe[..., 1]
        bx, by = q_base
        d = np.empty(q_probe.shape)
        np.subtract(x, bx, out=d[..., 0])
        np.subtract(y, by, out=d[..., 1])
        kf = np.floor(d @ self.lattice_inv.T, out=d)
        k, w = np.empty_like(kf), np.empty_like(kf)
        best_k = np.zeros_like(kf)
        best_d = np.full(kf.shape[:-1], np.inf)
        for c0, c1 in _CORNERS:
            np.add(kf[..., 0], c0, out=k[..., 0])
            np.add(kf[..., 1], c1, out=k[..., 1])
            lift = k @ self.lattice.T
            np.subtract(x, np.add(bx, lift[..., 0], out=lift[..., 0]),
                        out=w[..., 0])
            np.subtract(y, np.add(by, lift[..., 1], out=lift[..., 1]),
                        out=w[..., 1])
            # np.linalg.norm's dot product of one vector, per probe
            dist = np.sqrt((w[..., None, :] @ w[..., :, None])[..., 0, 0])
            better = dist < best_d
            np.copyto(best_d, dist, where=better)
            np.copyto(best_k[..., 0], k[..., 0], where=better)
            np.copyto(best_k[..., 1], k[..., 1], where=better)
        return best_k.astype(np.int64), best_d

    def lattice_translates(self, delta, radius: float) -> np.ndarray:
        """Translates ``w = delta + B k`` with ``|w| <= radius``.

        Integer vectors k run over a box that covers the disk, in m-major
        order (the order of nested loops over m, then n); returns (N, 2).
        """
        delta = np.asarray(delta, dtype=float)
        scale = np.linalg.norm(self.lattice_inv, 2)
        r = int(math.ceil((radius + np.linalg.norm(delta)) * scale)) + 1
        m, n = np.meshgrid(np.arange(-r, r + 1.0), np.arange(-r, r + 1.0),
                           indexing="ij")
        k = np.stack([m.ravel(), n.ravel()], axis=-1)
        w = delta + (self.lattice @ k[..., None])[..., 0]
        return w[np.linalg.norm(w, axis=-1) <= radius]


@dataclass(frozen=True, eq=False)
class SolQuotient(ModelManifold):
    """The sol quotient of monodromy A (row-major).  ``basis_mat`` is the
    matrix P above (it sends integer lattice coordinates to horizontal cover
    coordinates), ``basis_inv`` its inverse and ``period`` log(lam)."""

    kind = "sol"
    dim = 3
    flat = False
    monodromy: tuple[int, int, int, int]
    basis_mat: np.ndarray
    basis_inv: np.ndarray
    period: float

    def _deck_apply(self, g, q):
        shift = (self.basis_mat @ g[..., :2, None])[..., 0]
        zg = g[..., 2] * self.period
        return np.stack([shift[..., 0] + np.exp(zg) * q[..., 0],
                         shift[..., 1] + np.exp(-zg) * q[..., 1],
                         zg + q[..., 2]], axis=-1)

    def random_point(self, rng) -> np.ndarray:
        frac = rng.uniform(0.0, 1.0, size=3)
        xy = self.basis_mat @ frac[:2]
        return np.array([xy[0], xy[1], frac[2] * self.period])

    def conorm_sq(self, q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        e2z = np.exp(2.0 * q[..., 2])
        return e2z * p[..., 0] ** 2 + p[..., 1] ** 2 / e2z + p[..., 2] ** 2

    def conorm_grads(self, q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        gq = np.zeros_like(q)
        e2z = np.exp(2.0 * q[..., 2])
        gq[..., 2] = e2z * p[..., 0] ** 2 - p[..., 1] ** 2 / e2z
        gp = np.empty_like(p)
        gp[..., 0] = e2z * p[..., 0]
        gp[..., 1] = p[..., 1] / e2z
        gp[..., 2] = p[..., 2]
        return gq, gp

    def norm_sq(self, q, v):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        e2z = np.exp(2.0 * q[..., 2])
        return v[..., 0] ** 2 / e2z + e2z * v[..., 1] ** 2 + v[..., 2] ** 2

    def frame_components(self, q_ref, v):
        # the left-invariant frame e^z d/dx, e^-z d/dy, d/dz
        v = np.asarray(v, dtype=float)
        z = np.asarray(q_ref, dtype=float)[..., 2]
        out = np.empty_like(v)
        out[..., 0] = v[..., 0] * np.exp(-z)
        out[..., 1] = v[..., 1] * np.exp(z)
        out[..., 2] = v[..., 2]
        return out

    def phase_distance(self, qa, pa, qb, pb):
        # the naive chart chord overestimates wildly once an edge spans
        # several z units, so the base part is the minimum of the frame
        # chord and a constructive bound (climb, cross at the cheap height,
        # descend); the fiber part is the left-invariant momentum gap
        za, zb = qa[..., 2], qb[..., 2]
        zbar = 0.5 * (za + zb)
        dx = np.abs(qa[..., 0] - qb[..., 0])
        dy = np.abs(qa[..., 1] - qb[..., 1])
        dz = np.abs(za - zb)
        chord = np.sqrt((dx * np.exp(-zbar)) ** 2 + (dy * np.exp(zbar)) ** 2
                        + dz ** 2)
        # x is cheap at large z, y at small z
        ux = dx * np.exp(-np.maximum(za, zb))
        uy = dy * np.exp(np.minimum(za, zb))
        cx = np.where(ux <= 2.0, ux, 2.0 + 2.0 * np.log(np.maximum(ux, 2.0) / 2.0))
        cy = np.where(uy <= 2.0, uy, 2.0 + 2.0 * np.log(np.maximum(uy, 2.0) / 2.0))
        base = np.minimum(chord, cx + cy + dz)
        fiber = np.linalg.norm(momentum_map(qa, pa) - momentum_map(qb, pb),
                               axis=-1)
        return np.sqrt(base ** 2 + fiber ** 2)

    def _nearest_lift(self, q_probe, q_base):
        best_d = np.full(q_probe.shape[:-1], np.inf)
        bm, bi = self.basis_mat, self.basis_inv
        x, y, z = q_probe[..., 0], q_probe[..., 1], q_probe[..., 2]
        l0 = np.round((z - q_base[2]) / self.period)
        k0_best, k1_best, l_best = (np.zeros_like(best_d) for _ in range(3))
        for dl in (-1.0, 0.0, 1.0):
            l = l0 + dl
            zg = l * self.period
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
                for best, value in ((best_d, dist), (k0_best, k0),
                                    (k1_best, k1), (l_best, l)):
                    np.copyto(best, value, where=better)
        deck = np.stack([k0_best, k1_best, l_best], axis=-1).astype(np.int64)
        return deck, best_d
