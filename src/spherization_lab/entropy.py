"""Growth estimators: Reeb-chord census, evolved-submanifold volume, and
exponential-rate fitting.

The census solves the shooting problem "start on the fiber surface over q0,
arrive on the fiber over q1 (any deck translate) before the horizon" by
seeding a mesh on (surface parameter) x (time), detecting near-arrivals on
dense trajectory samples, and polishing each candidate with damped Newton in
(parameter, time).  Arrivals are tagged with the deck element of the lift
they hit, which identifies the homotopy class of the projected path.

Volume growth evolves a meshed fiber sphere by time-1 maps and keeps edges
below a refinement threshold by bisection; midpoints re-integrate from their
stored initial parameters so the mesh never accumulates stepping error.
A positive fitted rate is reported as a lower-bound witness for entropy,
never as the entropy itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianField, IntegratorConfig, integrate_batch
from .errors import BudgetExceededError
from .geometry import Deck, ModelManifold

# -- rate fitting -------------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    rate: float
    window: tuple[int, int]
    residual: float          # rms of the semilog fit on the window
    verdict: str             # "exponential" | "polynomial" | "inconclusive"
    stderr: float = float("nan")


def fit_exponential_rate(series, window: int, start_index: int = 0) -> GrowthFit:
    """Trailing-window exponential-rate fit of a positive series.

    The rate is the least-squares slope of log(series) against the index.
    A series whose log-log fit beats the semilog fit by a factor of two is
    ruled polynomial; otherwise the fit is exponential when the slope clears
    both three standard errors and 0.05, and inconclusive when it does not.
    """
    y = np.asarray(series, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("rate fitting needs strictly positive entries")
    if window < 3 or window > len(y):
        raise ValueError("window must satisfy 3 <= window <= len(series)")
    xs = np.arange(start_index, start_index + len(y), dtype=float)[-window:]
    ys = np.log(y[-window:])

    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    rss_semilog = float(np.sum((ys - fitted) ** 2))
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    dof = max(window - 2, 1)
    stderr = math.sqrt(rss_semilog / dof / sxx) if sxx > 0 else float("inf")

    positive = xs > 0
    if int(np.sum(positive)) >= 3:
        lx = np.log(xs[positive])
        ly = ys[positive]
        l_slope, l_int = np.polyfit(lx, ly, 1)
        rss_loglog = float(np.sum((ly - (l_slope * lx + l_int)) ** 2))
    else:
        rss_loglog = float("inf")

    if 2.0 * rss_loglog <= rss_semilog + 1e-300:
        verdict = "polynomial"
    elif slope > max(3.0 * stderr, 0.05):
        verdict = "exponential"
    else:
        verdict = "inconclusive"
    return GrowthFit(rate=float(slope),
                     window=(int(xs[0]), int(xs[-1])),
                     residual=math.sqrt(rss_semilog / window),
                     verdict=verdict, stderr=stderr)


# -- fiber surface sampling ----------------------------------------------------


def circle_directions(n: int) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def fibonacci_sphere(n: int) -> np.ndarray:
    """Quasi-uniform unit directions; deterministic."""
    i = np.arange(n, dtype=float) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    zc = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(1.0 - zc * zc, 0.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), zc], axis=-1)


# -- chord census ---------------------------------------------------------------


@dataclass(frozen=True)
class ChordRecord:
    direction: tuple          # unit start direction on the fiber surface
    arrival_time: float
    deck: Deck
    residual: float           # re-integration miss at the target lift
    start_covector: tuple


@dataclass
class ChordCensus:
    q0: np.ndarray
    q1: np.ndarray
    horizon: float
    records: list
    nu_series: np.ndarray     # counts at integer times 1..floor(horizon)
    diagnostics: dict

    def count_before(self, t: float) -> int:
        return sum(1 for r in self.records if r.arrival_time <= t)


def _nearest_lift_arrays(manifold: ModelManifold, Q, q1):
    """Vectorized nearest-lift search for sample arrays Q of shape (..., d).

    Returns (dist, deck_int_array) with distances in the frame at the lift.
    """
    Q = np.asarray(Q, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    if manifold.kind == "torus":
        t = (Q - q1) @ manifold.lattice_inv.T
        kf = np.floor(t)
        best_d = np.full(Q.shape[:-1], np.inf)
        best_k = np.zeros(Q.shape[:-1] + (2,), dtype=np.int64)
        for dm in (0.0, 1.0):
            for dn in (0.0, 1.0):
                k = kf + np.array([dm, dn])
                lift = q1 + k @ manifold.lattice.T
                dist = np.linalg.norm(Q - lift, axis=-1)
                better = dist < best_d
                best_d = np.where(better, dist, best_d)
                best_k[better] = k[better].astype(np.int64)
        return best_d, best_k
    z1 = q1[2]
    l0 = np.round((Q[..., 2] - z1) / manifold.period)
    best_d = np.full(Q.shape[:-1], np.inf)
    best_k = np.zeros(Q.shape[:-1] + (3,), dtype=np.int64)
    Bm = manifold.basis_mat
    Bi = manifold.basis_inv
    for dl in (-1.0, 0.0, 1.0):
        l = l0 + dl
        zg = l * manifold.period
        ez = np.exp(zg)
        tx = Q[..., 0] - ez * q1[0]
        ty = Q[..., 1] - q1[1] / ez
        s0 = Bi[0, 0] * tx + Bi[0, 1] * ty
        s1 = Bi[1, 0] * tx + Bi[1, 1] * ty
        kf0 = np.floor(s0)
        kf1 = np.floor(s1)
        for dm in (0.0, 1.0):
            for dn in (0.0, 1.0):
                k0 = kf0 + dm
                k1 = kf1 + dn
                lift_x = Bm[0, 0] * k0 + Bm[0, 1] * k1 + ez * q1[0]
                lift_y = Bm[1, 0] * k0 + Bm[1, 1] * k1 + q1[1] / ez
                lift_z = zg + z1
                fx = (Q[..., 0] - lift_x) * np.exp(-lift_z)
                fy = (Q[..., 1] - lift_y) * np.exp(lift_z)
                fz = Q[..., 2] - lift_z
                dist = np.sqrt(fx * fx + fy * fy + fz * fz)
                better = dist < best_d
                best_d = np.where(better, dist, best_d)
                best_k[better, 0] = k0[better].astype(np.int64)
                best_k[better, 1] = k1[better].astype(np.int64)
                best_k[better, 2] = l[better].astype(np.int64)
    return best_d, best_k


def _lift_point(manifold: ModelManifold, deck: Deck, q1):
    return manifold.deck_apply(deck, q1)


def _tangent_frame(u):
    u = np.asarray(u, dtype=float)
    a = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return e1, e2


def _unit(v):
    return v / np.linalg.norm(v)


class _LockstepPolisher:
    """Damped Newton on (surface parameter, time) for many candidates at
    once, each against its own fixed lift.

    One sweep advances every live candidate by a single proposed step; all
    endpoint evaluations of a sweep (current point plus finite-difference
    perturbations) ride in shared batch integrations, which amortizes the
    solver overhead that would dominate a per-candidate polish.
    """

    def __init__(self, field, q0, surface_map, cfg, horizon, time_floor, tol,
                 chunk=192, max_sweeps=36, fd_step=1e-6):
        self.field = field
        self.manifold = field.manifold
        self.q0 = np.asarray(q0, dtype=float)
        self.surface_map = surface_map
        self.cfg = cfg
        self.horizon = horizon
        self.time_floor = time_floor
        self.tol = tol
        self.chunk = chunk
        self.max_sweeps = max_sweeps
        self.fd = fd_step

    def _endpoints(self, us, ts):
        """Endpoints of trajectories from surface points us at times ts.

        One batch integration per chunk over the union time grid; each
        trajectory reads off its own arrival sample.
        """
        n = us.shape[0]
        q_out = np.empty((n, self.manifold.dim))
        p_out = np.empty((n, self.manifold.dim))
        order = np.argsort(ts, kind="stable")
        for lo in range(0, n, self.chunk):
            sel = order[lo:lo + self.chunk]
            t_sel = ts[sel]
            grid = np.unique(np.concatenate([[0.0], t_sel]))
            if len(grid) < 2:
                grid = np.array([0.0, max(t_sel[0], 1e-9)])
            p0 = self.surface_map(us[sel])
            q0 = np.broadcast_to(self.q0, p0.shape).copy()
            _, Q, P = integrate_batch(self.field, q0, p0, float(grid[-1]),
                                      self.cfg, t_eval=grid)
            pos = np.searchsorted(grid, t_sel)
            q_out[sel] = Q[np.arange(len(sel)), pos]
            p_out[sel] = P[np.arange(len(sel)), pos]
        return q_out, p_out

    def polish(self, us, ts, lifts):
        n = us.shape[0]
        d = self.manifold.dim
        us = np.array(us, dtype=float)
        ts = np.array(ts, dtype=float)
        lifts = np.array(lifts, dtype=float)
        alpha = np.ones(n)
        live = np.ones(n, dtype=bool)
        done = np.zeros(n, dtype=bool)
        rnorm = np.full(n, np.inf)
        seed_norm = np.full(n, np.inf)
        n_dirs = d - 1

        for sweep in range(self.max_sweeps):
            idx = np.nonzero(live & ~done)[0]
            if len(idx) == 0:
                break
            k = len(idx)
            # assemble current + FD-perturbed starts in one evaluation set
            dirs = np.empty((k, n_dirs, d))
            for row, i in enumerate(idx):
                if d == 2:
                    dirs[row, 0] = (-us[i][1], us[i][0])
                else:
                    dirs[row, 0], dirs[row, 1] = _tangent_frame(us[i])
            eval_us = [us[idx]]
            for j in range(n_dirs):
                pert = us[idx] + self.fd * dirs[:, j]
                eval_us.append(pert / np.linalg.norm(pert, axis=1,
                                                     keepdims=True))
            eval_us = np.concatenate(eval_us, axis=0)
            eval_ts = np.tile(ts[idx], 1 + n_dirs)
            q_end, p_end = self._endpoints(eval_us, eval_ts)

            q_cur = q_end[:k]
            p_cur = p_end[:k]
            res = self.manifold.frame_displacement(q_cur, lifts[idx])
            rn = np.linalg.norm(res, axis=1)
            increased = rn > rnorm[idx] * (1.0 - 1e-4 * alpha[idx])
            first = ~np.isfinite(rnorm[idx])
            seed_norm[idx[first]] = rn[first]
            alpha[idx[increased & ~first]] *= 0.5
            alpha[idx[~increased & ~first]] = np.minimum(
                1.0, alpha[idx[~increased & ~first]] * 2.0)
            rnorm[idx] = rn
            newly_done = rn <= self.tol
            done[idx[newly_done]] = True
            # divergence guards
            give_up = (rn > 6.0 * seed_norm[idx] + 1e-9) | (alpha[idx] < 2 ** -9)
            live[idx[give_up & ~newly_done]] = False

            act = ~newly_done & ~give_up
            rows = np.nonzero(act)[0]
            if len(rows) == 0:
                continue
            vel = self.field.velocity(q_cur[rows], p_cur[rows])
            for pos, row in enumerate(rows):
                i = idx[row]
                cols = []
                for j in range(n_dirs):
                    rp = self.manifold.frame_displacement(
                        q_end[(1 + j) * k + row], lifts[i])
                    cols.append((rp - res[row]) / self.fd)
                cols.append(_frame_velocity(self.manifold, q_cur[row],
                                            lifts[i], vel[pos]))
                jac = np.stack(cols, axis=-1)
                try:
                    step = np.linalg.solve(jac, -res[row])
                except np.linalg.LinAlgError:
                    live[i] = False
                    continue
                a = alpha[i]
                if d == 2:
                    ang = a * step[0]
                    c, s = math.cos(ang), math.sin(ang)
                    us[i] = (c * us[i][0] - s * us[i][1],
                             s * us[i][0] + c * us[i][1])
                else:
                    us[i] = _unit(us[i] + a * (step[0] * dirs[row, 0]
                                               + step[1] * dirs[row, 1]))
                ts[i] = min(max(ts[i] + a * step[-1], self.time_floor),
                            self.horizon * 1.05)
        good = np.nonzero(done)[0]
        return [(us[i], float(ts[i]), float(rnorm[i])) for i in good
                if self.time_floor <= ts[i] <= self.horizon]


def _frame_velocity(manifold, q_end, lift, vel):
    if manifold.kind == "torus":
        return vel
    z = lift[2]
    return np.array([vel[0] * np.exp(-z), vel[1] * np.exp(z), vel[2]])


def chord_census(field: HamiltonianField, q0, q1, surface_map, horizon: float,
                 resolution: int, *,
                 cfg: IntegratorConfig = None,
                 sample_dt: float = None,
                 coarse_threshold: float = 0.25,
                 newton_tol: float = 1e-8,
                 dedup_radius: float = 1e-4,
                 time_floor: float = 1e-6,
                 max_candidates: int = 500_000,
                 batch_size: int = 2048) -> ChordCensus:
    """Count flow lines from the fiber surface over q0 to lifts of q1.

    ``surface_map`` sends unit coordinate directions (N, d) to starting
    covectors (N, d) on the surface over q0.  Resolution is the number of
    seed directions (>= 64).
    """
    manifold = field.manifold
    if resolution < 64:
        raise ValueError("census resolution must be at least 64")
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    cfg = cfg or IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                                  max_step=min(0.05, horizon / 40))
    d = manifold.dim
    dirs = circle_directions(resolution) if d == 2 else fibonacci_sphere(resolution)
    P0_all = surface_map(dirs)
    Q0_all = np.broadcast_to(q0, P0_all.shape).copy()

    # sample spacing tied to the fastest seed so arrivals cannot be stepped over
    v0 = field.velocity(Q0_all, P0_all)
    vmax = float(np.sqrt(np.max(manifold.norm_sq(Q0_all, v0))))
    if sample_dt is None:
        sample_dt = min(coarse_threshold / max(vmax, 1e-9) / 2.0, horizon / 50)
    n_samples = int(math.ceil(horizon / sample_dt)) + 1
    t_grid = np.linspace(0.0, horizon, n_samples)

    mesh_spacing = (2.0 * np.pi / resolution if d == 2
                    else math.sqrt(4.0 * np.pi / resolution))

    raw = []  # (deck, start_idx, time, dist)
    for lo in range(0, resolution, batch_size):
        hi = min(lo + batch_size, resolution)
        _, Q, _ = integrate_batch(field, Q0_all[lo:hi], P0_all[lo:hi],
                                  horizon, cfg, t_eval=t_grid)
        dist, deck = _nearest_lift_arrays(manifold, Q, q1)
        near = dist < coarse_threshold
        interior = np.zeros_like(near)
        interior[:, 1:-1] = (near[:, 1:-1]
                             & (dist[:, 1:-1] <= dist[:, :-2])
                             & (dist[:, 1:-1] <= dist[:, 2:]))
        interior[:, -1] = near[:, -1] & (dist[:, -1] <= dist[:, -2])
        interior[:, 0] = False
        idx_i, idx_j = np.nonzero(interior)
        for i, j in zip(idx_i.tolist(), idx_j.tolist()):
            t = float(t_grid[j])
            if t < time_floor:
                continue
            raw.append((tuple(int(v) for v in deck[i, j]), lo + i, t,
                        float(dist[i, j])))
        if len(raw) > max_candidates:
            raise BudgetExceededError(
                f"census mesh produced more than {max_candidates} candidates")

    # non-max suppression per deck: one representative per (parameter, time) blob
    by_deck = {}
    for item in raw:
        by_deck.setdefault(item[0], []).append(item)
    reps = []
    t_tol = 2.5 * sample_dt
    for deck_key in sorted(by_deck):
        group = sorted(by_deck[deck_key], key=lambda it: (it[3], it[2], it[1]))
        kept = []
        for item in group:
            _, i, t, _ = item
            ui = dirs[i]
            close = False
            for other in kept:
                _, i2, t2, _ = other
                if abs(t - t2) > t_tol:
                    continue
                if d == 2:
                    dtheta = abs(math.atan2(*ui[::-1]) - math.atan2(*dirs[i2][::-1]))
                    dtheta = min(dtheta, 2 * math.pi - dtheta)
                    if dtheta <= 2.2 * mesh_spacing:
                        close = True
                        break
                else:
                    if np.dot(ui, dirs[i2]) > math.cos(2.2 * mesh_spacing):
                        close = True
                        break
            if not close:
                kept.append(item)
        reps.extend(kept)

    # Newton polish against the fixed lift of each representative
    records = []
    failures = 0
    misses = 0
    if reps:
        polisher = _LockstepPolisher(field, q0, surface_map, cfg, horizon,
                                     time_floor, newton_tol)
        us0 = np.stack([dirs[i] for _, i, _, _ in reps])
        ts0 = np.array([t for _, _, t, _ in reps])
        lifts0 = np.stack([_lift_point(manifold, deck_key, q1)
                           for deck_key, _, _, _ in reps])
        polished = polisher.polish(us0, ts0, lifts0)
        failures = len(reps) - len(polished)
        if polished:
            # fresh re-integration of every accepted root, batched; a root
            # counts only if it arrives within newton_tol again
            us = np.stack([u for u, _, _ in polished])
            tss = np.array([t for _, t, _ in polished])
            q_end, _ = polisher._endpoints(us, tss)
            p_start = surface_map(us)
            for j, (u, t_star, _) in enumerate(polished):
                deck_star, dist_star, _ = manifold.nearest_lift(q_end[j], q1)
                if dist_star > newton_tol:
                    misses += 1
                    continue
                records.append(ChordRecord(
                    direction=tuple(float(v) for v in u),
                    arrival_time=float(t_star),
                    deck=tuple(int(v) for v in deck_star),
                    residual=float(dist_star),
                    start_covector=tuple(float(v) for v in p_start[j])))

    records = _dedup_records(records, d, horizon, dedup_radius)
    records.sort(key=lambda r: (r.arrival_time, r.deck))
    n_int = int(math.floor(horizon + 1e-12))
    nu = np.array([sum(1 for r in records if r.arrival_time <= t)
                   for t in range(1, n_int + 1)], dtype=np.int64)
    return ChordCensus(q0=q0, q1=q1, horizon=horizon, records=records,
                       nu_series=nu,
                       diagnostics={"candidates": len(raw),
                                    "representatives": len(reps),
                                    "newton_failures": failures,
                                    "reverify_misses": misses,
                                    "sample_dt": sample_dt,
                                    "resolution": resolution})


def _dedup_records(records, d, horizon, radius):
    out = []
    for rec in sorted(records, key=lambda r: r.residual):
        dup = False
        for kept in out:
            if kept.deck != rec.deck:
                continue
            if abs(kept.arrival_time - rec.arrival_time) / max(horizon, 1.0) > radius:
                continue
            if d == 2:
                a1 = math.atan2(rec.direction[1], rec.direction[0])
                a2 = math.atan2(kept.direction[1], kept.direction[0])
                sep = abs(a1 - a2)
                sep = min(sep, 2 * math.pi - sep) / (2 * math.pi)
            else:
                dot = min(1.0, max(-1.0, sum(a * b for a, b in
                                             zip(rec.direction, kept.direction))))
                sep = math.acos(dot) / math.pi
            if sep <= radius:
                dup = True
                break
        if not dup:
            out.append(rec)
    return out


def torus_chord_count(manifold: ModelManifold, q0, q1, horizon: float,
                      radius: int = None) -> int:
    """Brute-force oracle: unit-speed geodesic arrivals are lattice translates
    within the horizon distance."""
    delta = np.asarray(q1, dtype=float) - np.asarray(q0, dtype=float)
    scale = np.linalg.norm(np.linalg.inv(manifold.lattice), 2)
    r = radius or int(math.ceil((horizon + np.linalg.norm(delta)) * scale)) + 1
    count = 0
    for m in range(-r, r + 1):
        for n in range(-r, r + 1):
            w = delta + manifold.lattice @ np.array([float(m), float(n)])
            if np.linalg.norm(w) <= horizon:
                count += 1
    return count


# -- meshed submanifolds and volume growth --------------------------------------


@dataclass
class MeshedSubmanifold:
    """PL j-submanifold of phase space with per-vertex initial parameters."""

    dimension: int
    params: np.ndarray        # (N, pdim) unit directions on the seed surface
    q: np.ndarray             # (N, d) current base positions
    p: np.ndarray             # (N, d) current covectors
    simplices: np.ndarray     # (M, dimension + 1) vertex indices
    manifold: ModelManifold

    def vertex_count(self) -> int:
        return int(self.params.shape[0])

    def edges(self) -> np.ndarray:
        s = self.simplices
        if self.dimension == 1:
            e = s
        else:
            e = np.concatenate([s[:, [0, 1]], s[:, [1, 2]], s[:, [2, 0]]])
        e = np.sort(e, axis=1)
        return np.unique(e, axis=0)

    def _pair_distance(self, i, j):
        """Product-metric chord distance between vertex sets i and j.

        The base part is the Riemannian chord; on sol the naive chart chord
        overestimates wildly once an edge spans several z units, so it is
        taken as the minimum of the frame chord and a constructive bound
        (climb, cross at the cheap height, descend).  The fiber part uses
        the flat covector gap on the torus and the left-invariant momentum
        gap on sol.
        """
        qa, qb = self.q[i], self.q[j]
        pa, pb = self.p[i], self.p[j]
        if self.manifold.kind == "torus":
            base = np.linalg.norm(qa - qb, axis=-1)
            fiber = np.linalg.norm(pa - pb, axis=-1)
            return np.sqrt(base ** 2 + fiber ** 2)
        za, zb = qa[:, 2], qb[:, 2]
        zbar = 0.5 * (za + zb)
        dx = np.abs(qa[:, 0] - qb[:, 0])
        dy = np.abs(qa[:, 1] - qb[:, 1])
        dz = np.abs(za - zb)
        chord = np.sqrt((dx * np.exp(-zbar)) ** 2 + (dy * np.exp(zbar)) ** 2
                        + dz ** 2)
        # x is cheap at large z, y at small z
        ux = dx * np.exp(-np.maximum(za, zb))
        uy = dy * np.exp(np.minimum(za, zb))
        cx = np.where(ux <= 2.0, ux, 2.0 + 2.0 * np.log(np.maximum(ux, 2.0) / 2.0))
        cy = np.where(uy <= 2.0, uy, 2.0 + 2.0 * np.log(np.maximum(uy, 2.0) / 2.0))
        base = np.minimum(chord, cx + cy + dz)
        ma = np.stack([np.exp(za) * pa[:, 0], pa[:, 1] / np.exp(za),
                       pa[:, 2]], axis=-1)
        mb = np.stack([np.exp(zb) * pb[:, 0], pb[:, 1] / np.exp(zb),
                       pb[:, 2]], axis=-1)
        fiber = np.linalg.norm(ma - mb, axis=-1)
        return np.sqrt(base ** 2 + fiber ** 2)

    def edge_lengths(self, edges=None) -> np.ndarray:
        e = self.edges() if edges is None else edges
        return self._pair_distance(e[:, 0], e[:, 1])

    def volume(self) -> float:
        s = self.simplices
        if self.dimension == 1:
            return float(np.sum(self._pair_distance(s[:, 0], s[:, 1])))
        # Heron from the three chord lengths, in the numerically stable form
        ab = self._pair_distance(s[:, 0], s[:, 1])
        bc = self._pair_distance(s[:, 1], s[:, 2])
        ca = self._pair_distance(s[:, 2], s[:, 0])
        hi = np.maximum(np.maximum(ab, bc), ca)
        lo = np.minimum(np.minimum(ab, bc), ca)
        mid = ab + bc + ca - hi - lo
        t1 = hi + (mid + lo)
        t2 = lo - (hi - mid)
        t3 = lo + (hi - mid)
        t4 = hi + (mid - lo)
        areas = 0.25 * np.sqrt(np.maximum(t1 * t2 * t3 * t4, 0.0))
        return float(np.sum(areas))


def icosphere(level: int):
    """Unit icosphere directions and faces at the given subdivision level."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
             (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
             (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    for _ in range(level):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for (a, b, c) in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.stack(verts), np.array(faces, dtype=np.int64)


def fiber_circle_mesh(manifold, q0, surface_map, resolution: int) -> MeshedSubmanifold:
    dirs = circle_directions(max(resolution, 8))
    p = surface_map(dirs)
    n = dirs.shape[0]
    segs = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=-1)
    q = np.broadcast_to(np.asarray(q0, dtype=float), p.shape).copy()
    return MeshedSubmanifold(dimension=1, params=dirs, q=q, p=p,
                             simplices=segs, manifold=manifold)


def fiber_sphere_mesh(manifold, q0, surface_map, resolution: int) -> MeshedSubmanifold:
    level = 0
    while 10 * 4 ** level + 2 < resolution and level < 6:
        level += 1
    dirs, faces = icosphere(level)
    p = surface_map(dirs)
    q = np.broadcast_to(np.asarray(q0, dtype=float), p.shape).copy()
    return MeshedSubmanifold(dimension=2, params=dirs, q=q, p=p,
                             simplices=faces, manifold=manifold)


@dataclass
class VolumeGrowthResult:
    volumes: np.ndarray
    fit: GrowthFit
    exhausted: bool
    vertex_count: int
    levels_completed: int


def volume_growth(field: HamiltonianField, mesh: MeshedSubmanifold,
                  n_max: int, refine_threshold: float, vertex_budget: int, *,
                  surface_map, cfg: IntegratorConfig = None,
                  fit_window: int = 6, max_passes: int = 100,
                  param_floor: float = 2e-5,
                  batch_size: int = 4096) -> VolumeGrowthResult:
    """Volumes of the evolved mesh at integer times 0..n_max with refinement.

    Existing vertices advance by time-1 maps; midpoints created during
    refinement are integrated from time 0 (their parameters seed the initial
    surface through ``surface_map``), so refinement never compounds stepping
    error.  Edges whose endpoint parameters are closer than ``param_floor``
    are treated as irreducible (near hyperbolic separatrices the image of a
    parameter interval stops shrinking in floating point) and are excluded
    from further splitting.  Exhausting the vertex budget stops the run and
    downgrades the fit verdict to inconclusive.
    """
    if vertex_budget <= mesh.vertex_count():
        raise ValueError("vertex budget must exceed the initial vertex count")
    cfg = cfg or IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, max_step=0.25)
    q0 = mesh.q[0].copy()
    exhausted = False
    volumes = []
    level = 0

    def evolve_new(params, upto):
        p_new = surface_map(params)
        q_new = np.broadcast_to(q0, p_new.shape).copy()
        if upto == 0:
            return q_new, p_new
        qs, ps = [], []
        for lo in range(0, params.shape[0], batch_size):
            hi = min(lo + batch_size, params.shape[0])
            _, Q, P = integrate_batch(field, q_new[lo:hi], p_new[lo:hi],
                                      float(upto), cfg,
                                      t_eval=np.array([0.0, float(upto)]))
            qs.append(Q[:, -1])
            ps.append(P[:, -1])
        return np.concatenate(qs), np.concatenate(ps)

    def splittable(edges, lengths):
        sep = np.linalg.norm(mesh.params[edges[:, 0]] - mesh.params[edges[:, 1]],
                             axis=-1)
        return edges[(lengths > refine_threshold) & (sep > param_floor)]

    def refine(level):
        nonlocal mesh, exhausted
        for _ in range(max_passes):
            edges = mesh.edges()
            lengths = mesh.edge_lengths(edges)
            split = splittable(edges, lengths)
            if len(split) == 0:
                return True
            if mesh.vertex_count() + len(split) > vertex_budget:
                exhausted = True
                return False
            mid_params = mesh.params[split[:, 0]] + mesh.params[split[:, 1]]
            mid_params /= np.linalg.norm(mid_params, axis=-1, keepdims=True)
            q_new, p_new = evolve_new(mid_params, level)
            base = mesh.vertex_count()
            lookup = {(int(i), int(j)): base + k
                      for k, (i, j) in enumerate(split)}
            mesh = MeshedSubmanifold(
                dimension=mesh.dimension,
                params=np.vstack([mesh.params, mid_params]),
                q=np.vstack([mesh.q, q_new]),
                p=np.vstack([mesh.p, p_new]),
                simplices=_resplit(mesh.simplices, lookup, mesh.dimension),
                manifold=mesh.manifold)
        edges = mesh.edges()
        if len(splittable(edges, mesh.edge_lengths(edges))) == 0:
            return True
        exhausted = True  # pass budget ran out with splittable edges left
        return False

    if not refine(0):
        fit = GrowthFit(rate=float("nan"), window=(0, 0), residual=float("nan"),
                        verdict="inconclusive")
        return VolumeGrowthResult(np.array([]), fit, True, mesh.vertex_count(), 0)
    volumes.append(mesh.volume())

    for level in range(1, n_max + 1):
        qs, ps = [], []
        for lo in range(0, mesh.vertex_count(), batch_size):
            hi = min(lo + batch_size, mesh.vertex_count())
            _, Q, P = integrate_batch(field, mesh.q[lo:hi], mesh.p[lo:hi],
                                      1.0, cfg, t0=float(level - 1),
                                      t_eval=np.array([float(level - 1),
                                                       float(level)]))
            qs.append(Q[:, -1])
            ps.append(P[:, -1])
        mesh = MeshedSubmanifold(dimension=mesh.dimension, params=mesh.params,
                                 q=np.concatenate(qs), p=np.concatenate(ps),
                                 simplices=mesh.simplices,
                                 manifold=mesh.manifold)
        if not refine(level):
            break
        volumes.append(mesh.volume())

    volumes = np.array(volumes)
    completed = len(volumes) - 1
    window = min(fit_window, len(volumes))
    if window >= 3 and np.all(volumes > 0):
        fit = fit_exponential_rate(volumes, window=window)
    else:
        fit = GrowthFit(rate=float("nan"), window=(0, 0),
                        residual=float("nan"), verdict="inconclusive")
    if exhausted:
        fit = GrowthFit(rate=fit.rate, window=fit.window, residual=fit.residual,
                        verdict="inconclusive", stderr=fit.stderr)
    return VolumeGrowthResult(volumes=volumes, fit=fit, exhausted=exhausted,
                              vertex_count=mesh.vertex_count(),
                              levels_completed=completed)


def _resplit(simplices, lookup, dimension):
    out = []
    if dimension == 1:
        for a, b in simplices.tolist():
            m = lookup.get((min(a, b), max(a, b)))
            if m is None:
                out.append((a, b))
            else:
                out.extend([(a, m), (m, b)])
        return np.array(out, dtype=np.int64)
    for a, b, c in simplices.tolist():
        m_ab = lookup.get((min(a, b), max(a, b)))
        m_bc = lookup.get((min(b, c), max(b, c)))
        m_ca = lookup.get((min(c, a), max(c, a)))
        n_split = sum(m is not None for m in (m_ab, m_bc, m_ca))
        if n_split == 0:
            out.append((a, b, c))
        elif n_split == 3:
            out.extend([(a, m_ab, m_ca), (b, m_bc, m_ab), (c, m_ca, m_bc),
                        (m_ab, m_bc, m_ca)])
        elif n_split == 1:
            if m_ab is not None:
                out.extend([(a, m_ab, c), (m_ab, b, c)])
            elif m_bc is not None:
                out.extend([(b, m_bc, a), (m_bc, c, a)])
            else:
                out.extend([(c, m_ca, b), (m_ca, a, b)])
        else:
            if m_ab is None:
                out.extend([(b, m_bc, m_ca), (b, m_ca, a), (m_bc, c, m_ca)])
            elif m_bc is None:
                out.extend([(c, m_ca, m_ab), (c, m_ab, b), (m_ca, a, m_ab)])
            else:
                out.extend([(a, m_ab, m_bc), (a, m_bc, c), (m_ab, b, m_bc)])
    return np.array(out, dtype=np.int64)


# -- averaged census (pairs of base points) --------------------------------------


@dataclass
class MppResult:
    fit: GrowthFit
    averaged_counts: np.ndarray
    pair_counts: list
    pairs: list


def mpp_estimate(field: HamiltonianField, surface_map_at, grid: int,
                 horizon: float, resolution: int, rng, *,
                 jitter: float = 1e-3, fit_window: int = None,
                 **census_kwargs) -> MppResult:
    """Average chord counts over a grid x grid sample of base-point pairs,
    weighted by the Riemannian volume density, and fit the growth rate.

    ``surface_map_at(q)`` builds the fiber surface sampler over q.
    """
    manifold = field.manifold
    if grid < 1:
        raise ValueError("grid must be at least 1")
    starts = [manifold.random_point(rng) for _ in range(grid)]
    targets = [manifold.random_point(rng) for _ in range(grid)]
    n_int = int(math.floor(horizon + 1e-12))
    acc = np.zeros(n_int)
    wsum = 0.0
    pair_counts = []
    pairs = []
    for qa in starts:
        for qb in targets:
            q1 = qb + jitter * rng.standard_normal(manifold.dim)
            census = chord_census(field, qa, q1, surface_map_at(qa), horizon,
                                  resolution, **census_kwargs)
            w = float(manifold.volume_density(qa) * manifold.volume_density(q1))
            acc += w * census.nu_series
            wsum += w
            pair_counts.append(census.nu_series.copy())
            pairs.append((qa.copy(), q1.copy()))
    avg = acc / wsum
    positive = np.nonzero(avg > 0)[0]
    if len(positive) >= 3:
        first = int(positive[0])
        series = avg[first:]
        window = min(fit_window or len(series), len(series))
        fit = fit_exponential_rate(series, window=max(window, 3),
                                   start_index=first + 1)
    else:
        fit = GrowthFit(rate=float("nan"), window=(0, 0),
                        residual=float("nan"), verdict="inconclusive")
    return MppResult(fit=fit, averaged_counts=avg, pair_counts=pair_counts,
                     pairs=pairs)
