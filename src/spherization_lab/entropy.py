"""Growth estimators: Reeb-chord census, evolved-submanifold volume, and
exponential-rate fitting.

The census solves the shooting problem "start on the fiber surface over q0,
arrive on the fiber over q1 (any deck translate) before the horizon" by
seeding a mesh on (surface parameter) x (time), detecting near-arrivals on
dense trajectory samples, and polishing each candidate with damped Newton in
(parameter, time) on ``dynamics.lockstep_newton`` (``_polish``).  The
re-verification of the polished roots reads their endpoints from one
batched integration, ``_endpoints``, and so do the mesh and the polish on
sol.  One census counts every pair of base points of a config: the
chunks of all pairs integrate as groups of lockstep ``integrate_batch``
calls, and one polish moves all their candidates, while each pair keeps the
records, counts and diagnostics of its census alone.  On a flat model
(``ModelManifold.flat``, the torus) the flow of a field of p alone
translates q, so the mesh samples and the polish evaluate its time-t map
q0 + t v0, ``dynamics.flat_flow``; only the re-verification integrates
there.  Arrivals are tagged with the deck element of the lift
they hit, which identifies the homotopy class of the projected path: one
vectorized ``ModelManifold.nearest_lift`` call per block of
``_SEARCH_BLOCK`` seeds picks each candidate's deck (on a flat model the
block's samples are evaluated just before; blocks bound the temporaries of
the search, and no count depends on them), one
``ModelManifold.deck_apply`` call places the lifts of
all representatives, and each root is polished toward its lift and
re-verified by its residual against that same lift.  On a flat model an
integrated root more than 10 ``newton_tol`` off its lift (a field with
dH/dq != 0) raises InvariantFailureError.  One per-deck suppression,
``_suppress``, keeps one mesh candidate per blob before the polish and one
root per chord after it.

Volume growth evolves the fiber mesh of ``fiber_mesh`` (a circle over a
surface, a sphere over a 3-manifold) by time-1 maps and keeps edges below a
refinement threshold by bisection; midpoints re-integrate from their stored
initial parameters so the mesh never accumulates stepping error.

Every growth series (evolved volumes, census counts, counts averaged over
base points, word balls) becomes a rate and a verdict through one policy,
``fit_growth``.  A positive fitted rate is reported as a lower-bound witness
for entropy, never as the entropy itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (CONVERGED, NEWTON_OUTCOMES, OUTSIDE_WINDOW,
                       HamiltonianField, IntegratorConfig, flat_flow,
                       integrate_batch, lockstep_newton)
from .errors import BudgetExceededError, InvariantFailureError
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


INCONCLUSIVE = GrowthFit(rate=float("nan"), window=(0, 0),
                         residual=float("nan"), verdict="inconclusive")


def fit_growth(series, window: int = None,
               start_index: int = 0) -> GrowthFit | None:
    """The growth fit of ``series``, whose first entry has index
    ``start_index``: from its first positive entry on, the trailing
    ``window`` entries (all of them when None, at most those left) go
    through ``fit_exponential_rate``.  None when fewer than 3 are left."""
    y = np.asarray(series, dtype=float)
    positive = np.nonzero(y > 0)[0]
    if len(positive) == 0:
        return None
    first = int(positive[0])
    left = len(y) - first
    window = left if window is None else min(window, left)
    if window < 3:
        return None
    return fit_exponential_rate(y[first:], window=window,
                                start_index=start_index + first)


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

_MESH_BATCH = 2048     # seeds integrated together in the mesh pass
_SEARCH_BLOCK = 128    # seeds whose near-arrivals one lift search detects
_DEDUP_RADIUS = 1e-4   # relative window within which two roots are one chord


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


def _tangent_frames(u):
    """Orthonormal tangent frames (k, d - 1, d) at unit directions u (k, d):
    the rotated direction on the circle, two cross products on the sphere."""
    if u.shape[1] == 2:
        return np.stack([-u[:, 1], u[:, 0]], axis=-1)[:, None, :]
    a = np.where((np.abs(u[:, 0]) < 0.9)[:, None], [1.0, 0.0, 0.0],
                 [0.0, 1.0, 0.0])
    e1 = np.cross(u, a)
    e1 /= _row_norms(e1)[:, None]
    return np.stack([e1, np.cross(u, e1)], axis=1)


def _row_norms(v):
    # per row, the dot product np.linalg.norm takes of a single vector
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


# endpoint rows per batch integration, the finite-difference step in
# direction, the sweep cap and the blow-up guard (times the seed residual)
_POLISH_CHUNK, _POLISH_FD_STEP = 192, 1e-6
_POLISH_SWEEPS, _POLISH_BLOWUP = 36, 6.0
# rows per lockstep integrate_batch call of the mesh and the endpoints,
# which bounds the call's buffers and outputs
_LOCKSTEP_ROWS = 2048


def _lockstep_calls(chunks):
    """Consecutive runs of ``chunks`` (each with its rows ``chunk[-1]``) of
    at most ``_LOCKSTEP_ROWS`` rows, or of one larger chunk."""
    call, rows = [], 0
    for chunk in chunks:
        if call and rows + chunk[-1] > _LOCKSTEP_ROWS:
            yield call
            call, rows = [], 0
        call.append(chunk)
        rows += chunk[-1]
    if call:
        yield call


def _by_owner(owner, count):
    """The rows of each of ``count`` owners, in order."""
    order = np.argsort(owner, kind="stable")
    return np.split(order, np.searchsorted(owner[order], np.arange(1, count)))


def _endpoints(field, cfg, starts, stats, us, ts, owner):
    """Endpoints of trajectories from surface points us at times ts, row r
    from the fiber of pair ``owner[r]``: ``starts[i]`` is its (q0,
    surface_map), and ``stats[i]`` sums the integrator counters of its rows.

    The rows of each pair go in order of time, ``_POLISH_CHUNK`` at a time,
    into one group of a lockstep ``integrate_batch`` over the union of their
    times; the interpolant fills each row at its own arrival time only
    (``at``), with the bits of the full read.  The groups of all pairs
    advance together, ``_LOCKSTEP_ROWS`` rows per call; a row's bits depend
    on its own pair's chunk alone.
    """
    q_out = np.empty((len(us), field.manifold.dim))
    p_out = np.empty((len(us), field.manifold.dim))
    chunks = []
    for i, rows in enumerate(_by_owner(owner, len(starts))):
        rows = rows[np.argsort(ts[rows], kind="stable")]
        chunks += [(i, sel, len(sel)) for sel in
                   np.split(rows, np.arange(_POLISH_CHUNK, len(rows),
                                            _POLISH_CHUNK))
                   if len(sel)]
    for call in _lockstep_calls(chunks):
        Q0, P0, grids, at = [], [], [], []
        for i, sel, _ in call:
            q0, surface_map = starts[i]
            t_sel = ts[sel]
            grid = np.unique(np.concatenate([[0.0], t_sel]))
            if len(grid) < 2:
                grid = np.array([0.0, max(t_sel[0], 1e-9)])
            p0 = surface_map(us[sel])
            Q0.append(np.broadcast_to(q0, p0.shape))
            P0.append(p0)
            grids.append(grid)
            at.append(np.searchsorted(grid, t_sel))
        ends = integrate_batch(
            field, np.concatenate(Q0), np.concatenate(P0),
            [float(grid[-1]) for grid in grids], cfg, t_eval=grids, at=at,
            stats=[stats[i] for i, _, _ in call],
            sizes=[rows for _, _, rows in call])
        for (_, sel, _), (q, p) in zip(call, ends):
            q_out[sel], p_out[sel] = q, p
    return q_out, p_out


def _flat_endpoints(field, starts, us, ts, owner):
    """``_endpoints`` on a flat model, from the closed-form flow."""
    q_out = np.empty((len(us), field.manifold.dim))
    p_out = np.empty((len(us), field.manifold.dim))
    for (q0, surface_map), rows in zip(starts, _by_owner(owner, len(starts))):
        q_out[rows], p_out[rows] = flat_flow(field, q0, surface_map(us[rows]),
                                             ts[rows])
    return q_out, p_out


def _polish(field, endpoints, us, ts, lifts, horizon, time_floor, tol):
    """Damped Newton on (surface parameter, time) for many candidates at
    once, each against its own fixed lift; returns the final directions and
    times, and each candidate's index into NEWTON_OUTCOMES.

    One sweep of ``lockstep_newton`` advances every live candidate by a
    single proposed step; all endpoint evaluations of a sweep (current point
    plus finite-difference perturbations) ride in one ``endpoints(us, ts,
    candidates)`` call, which amortizes the solver overhead that would
    dominate a per-candidate polish.
    """
    manifold = field.manifold
    d = manifold.dim
    us = np.array(us, dtype=float)
    ts = np.array(ts, dtype=float)
    frames = np.empty((len(us), d - 1, d))

    def linearize(idx):
        # the current and the finite-difference starts in one evaluation
        k = len(idx)
        frames[idx] = dirs = _tangent_frames(us[idx])
        eval_us = [us[idx]]
        for j in range(d - 1):
            pert = us[idx] + _POLISH_FD_STEP * dirs[:, j]
            eval_us.append(pert / np.linalg.norm(pert, axis=1, keepdims=True))
        q_end, p_end = endpoints(np.concatenate(eval_us, axis=0),
                                 np.tile(ts[idx], d), np.tile(idx, d))
        res = manifold.frame_displacement(q_end[:k], lifts[idx])

        def jacobian(rows):
            i = idx[rows]
            cols = [(manifold.frame_displacement(q_end[(1 + j) * k + rows],
                                                 lifts[i]) - res[rows])
                    / _POLISH_FD_STEP for j in range(d - 1)]
            vel = field.velocity(q_end[rows], p_end[rows])
            cols.append(manifold.frame_components(lifts[i], vel))
            return np.stack(cols, axis=-1)

        return res, jacobian

    def move(i, step, a):
        if d == 2:
            ang = a * step[:, 0]
            c, s = np.cos(ang), np.sin(ang)
            u0, u1 = us[i, 0], us[i, 1]
            us[i] = np.stack([c * u0 - s * u1, s * u0 + c * u1], axis=-1)
        else:
            dirs = frames[i]
            v = us[i] + a[:, None] * (step[:, :1] * dirs[:, 0]
                                      + step[:, 1:2] * dirs[:, 1])
            us[i] = v / _row_norms(v)[:, None]
        ts[i] = np.minimum(np.maximum(ts[i] + a * step[:, -1], time_floor),
                           horizon * 1.05)

    outcome = lockstep_newton(len(us), linearize, move, tol=tol,
                              max_sweeps=_POLISH_SWEEPS, blowup=_POLISH_BLOWUP)
    outside = (ts < time_floor) | (ts > horizon)
    outcome[(outcome == CONVERGED) & outside] = OUTSIDE_WINDOW
    return us, ts, outcome


def _suppress(decks, seeds, times, dists, dirs, t_tol, angle):
    """Non-max suppression per deck: one representative per (parameter,
    time) blob.

    Within a deck, candidates go in order of (distance, time, seed); one is
    kept unless a kept one lies within ``t_tol`` in time and less than
    ``angle`` away in direction (u . v > cos(angle), on circle and sphere).
    Returns the kept indices, by deck and then in that order.
    """
    deck_keys = tuple(decks.T[::-1])     # lexsort's last key is primary
    order = np.lexsort((seeds, times, dists) + deck_keys)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # every pair on one deck within t_tol: in deck-then-time order, a row
    # whose partner `gap` places on does not qualify has none further on
    by_time = np.lexsort((times,) + deck_keys)
    d_sorted, t_sorted = decks[by_time], times[by_time]
    g_sorted = np.cumsum(np.any(d_sorted != np.roll(d_sorted, 1, axis=0),
                                axis=1))
    pos = np.arange(len(by_time))
    pairs = [(pos[:0], pos[:0])]
    for gap in range(1, len(by_time)):
        pos = pos[pos + gap < len(by_time)]
        pos = pos[(g_sorted[pos] == g_sorted[pos + gap])
                  & (t_sorted[pos + gap] - t_sorted[pos] <= t_tol)]
        if len(pos) == 0:
            break
        pairs.append((by_time[pos], by_time[pos + gap]))
    a, b = (np.concatenate(x) for x in zip(*pairs))
    ua, ub = dirs[seeds[a]], dirs[seeds[b]]
    close = (ua[:, None, :] @ ub[:, :, None])[:, 0, 0] > math.cos(angle)
    a, b = a[close], b[close]
    swap = rank[a] > rank[b]
    later, earlier = np.where(swap, a, b), np.where(swap, b, a)
    by_later = np.argsort(rank[later], kind="stable")
    # greedy in suppression order: a pair's earlier member is final by the
    # time its later member is decided
    keep = [True] * len(order)
    for x, y in zip(later[by_later].tolist(), earlier[by_later].tolist()):
        if keep[y]:
            keep[x] = False
    return order[np.array(keep, dtype=bool)[order]]


def chord_census(field: HamiltonianField, pairs, horizon: float,
                 resolution: int, *,
                 cfg: IntegratorConfig = IntegratorConfig(),
                 coarse_threshold: float = 0.25,
                 newton_tol: float = 1e-8,
                 time_floor: float = 1e-6,
                 max_candidates: int = 500_000) -> list:
    """Count flow lines from the fiber surface over q0 to lifts of q1, for
    each ``(q0, q1, surface_map)`` of ``pairs``; returns one ChordCensus per
    pair.

    ``surface_map`` sends unit coordinate directions (N, d) to starting
    covectors (N, d) on the surface over q0.  Resolution is the number of
    seed directions (>= 64).  ``diagnostics["integrator"]`` sums the
    counters of the pair's solves: on a flat model those of the
    re-verification alone.  The pairs share each stage: one lockstep
    integration of every pair's mesh chunks, one ``_polish`` of every
    pair's representatives, one re-verification.  Each mesh chunk and
    endpoint chunk is a group of its own pair's rows, so a pair's records,
    counts and diagnostics are those of its census alone.
    """
    manifold = field.manifold
    if resolution < 64:
        raise ValueError("census resolution must be at least 64")
    d = manifold.dim
    dirs = circle_directions(resolution) if d == 2 else fibonacci_sphere(resolution)
    mesh_spacing = (2.0 * np.pi / resolution if d == 2
                    else math.sqrt(4.0 * np.pi / resolution))
    starts, targets, P0s, sample_dts, grids = [], [], [], [], []
    for q0, q1, surface_map in pairs:
        q0 = np.asarray(q0, dtype=float)
        starts.append((q0, surface_map))
        targets.append(np.asarray(q1, dtype=float))
        P0_all = surface_map(dirs)
        Q0_all = np.broadcast_to(q0, P0_all.shape).copy()
        # sample spacing tied to the fastest seed so arrivals cannot be
        # stepped over
        v0 = field.velocity(Q0_all, P0_all)
        vmax = float(np.sqrt(np.max(manifold.norm_sq(Q0_all, v0))))
        sample_dt = min(coarse_threshold / max(vmax, 1e-9) / 2.0, horizon / 50)
        n_samples = int(math.ceil(horizon / sample_dt)) + 1
        P0s.append(P0_all)
        sample_dts.append(sample_dt)
        grids.append(np.linspace(0.0, horizon, n_samples))

    # integrator counters of the mesh, polish and re-verification solves;
    # on a flat model the mesh and the polish evaluate the closed form
    counts = [{"nfev": 0, "steps": 0, "rejected": 0} for _ in pairs]
    # candidates: deck, seed index, time and distance of each near-arrival
    raw = [([], [], [], []) for _ in pairs]
    n_raw = [0] * len(pairs)

    def near_arrivals(i, lo, Q):
        t_grid = grids[i]
        deck, dist = manifold.nearest_lift(Q, targets[i])
        near = dist < coarse_threshold
        interior = np.zeros_like(near)
        interior[:, 1:-1] = (near[:, 1:-1]
                             & (dist[:, 1:-1] <= dist[:, :-2])
                             & (dist[:, 1:-1] <= dist[:, 2:]))
        interior[:, -1] = near[:, -1] & (dist[:, -1] <= dist[:, -2])
        interior[:, 0] = False
        interior[:, t_grid < time_floor] = False
        idx_i, idx_j = np.nonzero(interior)
        for part, value in zip(raw[i], (deck[idx_i, idx_j], lo + idx_i,
                                        t_grid[idx_j], dist[idx_i, idx_j])):
            part.append(value)
        n_raw[i] += len(idx_i)
        if n_raw[i] > max_candidates:
            raise BudgetExceededError(
                f"census mesh produced more than {max_candidates} candidates")

    if manifold.flat:
        for i in range(len(pairs)):
            for lo in range(0, resolution, _SEARCH_BLOCK):
                near_arrivals(i, lo, flat_flow(
                    field, starts[i][0], P0s[i][lo:lo + _SEARCH_BLOCK, None],
                    grids[i])[0])
    else:
        chunks = [(i, lo, min(lo + _MESH_BATCH, resolution) - lo)
                  for i in range(len(pairs))
                  for lo in range(0, resolution, _MESH_BATCH)]
        for call in _lockstep_calls(chunks):
            ends = integrate_batch(
                field, np.concatenate([np.broadcast_to(starts[i][0], (rows, d))
                                       for i, _, rows in call]),
                np.concatenate([P0s[i][lo:lo + rows]
                                for i, lo, rows in call]),
                [horizon] * len(call), cfg,
                t_eval=[grids[i] for i, _, _ in call],
                stats=[counts[i] for i, _, _ in call],
                sizes=[rows for _, _, rows in call])
            for (i, lo, rows), (_, Q, _) in zip(call, ends):
                for b in range(0, rows, _SEARCH_BLOCK):
                    near_arrivals(i, lo + b, Q[b:b + _SEARCH_BLOCK])

    # one representative per blob, and its lift; every pair's in one stack
    decks, seeds, times, lifts, owner = [], [], [], [], []
    reps_per_pair = []
    for i, part in enumerate(raw):
        deck, seed, time, dist = (np.concatenate(p) for p in part)
        reps = _suppress(deck, seed, time, dist, dirs,
                         2.5 * sample_dts[i], 2.2 * mesh_spacing)
        reps_per_pair.append(len(reps))
        decks.append(deck[reps])
        seeds.append(seed[reps])
        times.append(time[reps])
        lifts.append(manifold.deck_apply(deck[reps], targets[i]))
        owner.append(np.full(len(reps), i))
    decks, seeds, times, lifts, owner = (
        np.concatenate(x) for x in (decks, seeds, times, lifts, owner))

    # Newton polish against the fixed lift of each representative
    if manifold.flat:
        def endpoints(us, ts, cand):
            return _flat_endpoints(field, starts, us, ts, owner[cand])
    else:
        def endpoints(us, ts, cand):
            return _endpoints(field, cfg, starts, counts, us, ts, owner[cand])
    us, ts, outcome = _polish(field, endpoints, dirs[seeds], times, lifts,
                              horizon, time_floor, newton_tol)
    # fresh re-integration of every accepted root, batched; a root counts
    # only if it arrives again within newton_tol of the lift it was
    # polished toward
    good = np.nonzero(outcome == CONVERGED)[0]
    q_end, _ = _endpoints(field, cfg, starts, counts, us[good], ts[good],
                          owner[good])
    res = _row_norms(manifold.frame_displacement(q_end, lifts[good]))
    if manifold.flat and np.any(res > 10 * newton_tol):
        raise InvariantFailureError(
            f"integrated chord misses its lift by {np.max(res):.3e}: the "
            f"closed-form flow needs a field that depends on p alone")
    n_int = int(math.floor(horizon + 1e-12))
    censuses = []
    for i, (cand, rows) in enumerate(zip(_by_owner(owner, len(pairs)),
                                         _by_owner(owner[good], len(pairs)))):
        q0, surface_map = starts[i]
        hit = rows[res[rows] <= newton_tol]
        misses = len(rows) - len(hit)
        hit = hit[_dedup_roots(decks[good[hit]], ts[good[hit]], res[hit],
                               us[good[hit]], horizon)]
        g = good[hit]
        records = [ChordRecord(direction=tuple(u), arrival_time=t,
                               deck=tuple(k), residual=r,
                               start_covector=tuple(p))
                   for u, t, k, r, p in zip(
                       us[g].tolist(), ts[g].tolist(), decks[g].tolist(),
                       res[hit].tolist(), surface_map(us[g]).tolist())]
        records.sort(key=lambda r: (r.arrival_time, r.deck))
        nu = np.searchsorted([r.arrival_time for r in records],
                             np.arange(1, n_int + 1),
                             side="right").astype(np.int64)
        outcomes = dict(zip(NEWTON_OUTCOMES, np.bincount(
            outcome[cand], minlength=len(NEWTON_OUTCOMES)).tolist()))
        censuses.append(ChordCensus(
            q0=q0, q1=targets[i], horizon=horizon, records=records,
            nu_series=nu,
            diagnostics={"candidates": n_raw[i],
                         "representatives": reps_per_pair[i],
                         "newton_failures":
                             reps_per_pair[i] - outcomes["converged"],
                         "reverify_misses": misses,
                         "sample_dt": sample_dts[i],
                         "resolution": resolution,
                         "newton_outcomes": outcomes,
                         "integrator": counts[i]}))
    return censuses


def _dedup_roots(decks, times, residuals, dirs, horizon):
    """Indices of the re-verified roots to keep, one per chord, lowest
    residual first: windows of ``_DEDUP_RADIUS`` times the horizon in time
    and the full turn (circle) or half-turn (sphere) in direction."""
    # the torus's linear flow ties residuals; the earlier root wins a tie
    by_res = np.argsort(residuals, kind="stable")
    rank = np.arange(len(by_res))     # stands in for the residual
    angle = _DEDUP_RADIUS * (2.0 * math.pi if dirs.shape[1] == 2 else math.pi)
    return by_res[_suppress(decks[by_res], rank, times[by_res], rank,
                            dirs[by_res], _DEDUP_RADIUS * max(horizon, 1.0),
                            angle)]


def torus_chord_count(manifold: ModelManifold, q0, q1, horizon: float) -> int:
    """Brute-force oracle: unit-speed geodesic arrivals are lattice translates
    within the horizon distance."""
    delta = np.asarray(q1, dtype=float) - np.asarray(q0, dtype=float)
    return len(manifold.lattice_translates(delta, horizon))


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
        # unique rows in lexicographic order, through one int64 key
        n = self.vertex_count()
        key = np.unique(e[:, 0].astype(np.int64) * n + e[:, 1])
        return np.stack([key // n, key % n], axis=1).astype(e.dtype, copy=False)

    def _pair_distance(self, i, j):
        """Product-metric chord distance between vertex sets i and j."""
        return self.manifold.phase_distance(self.q[i], self.p[i], self.q[j],
                                            self.p[j])

    def edge_lengths(self, edges) -> np.ndarray:
        return self._pair_distance(edges[:, 0], edges[:, 1])

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


def fiber_mesh(manifold, q0, surface_map, resolution: int) -> MeshedSubmanifold:
    """The fiber surface over q0, meshed: a closed polygon of
    ``max(resolution, 8)`` directions over a surface, and over a 3-manifold
    the coarsest icosphere (level at most 6) with ``resolution`` vertices."""
    if manifold.dim == 2:
        dirs = circle_directions(max(resolution, 8))
        n = dirs.shape[0]
        simplices = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=-1)
    else:
        level = 0
        while 10 * 4 ** level + 2 < resolution and level < 6:
            level += 1
        dirs, simplices = icosphere(level)
    p = surface_map(dirs)
    q = np.broadcast_to(np.asarray(q0, dtype=float), p.shape).copy()
    return MeshedSubmanifold(dimension=manifold.dim - 1, params=dirs, q=q,
                             p=p, simplices=simplices, manifold=manifold)


_VOLUME_BATCH = 4096     # vertices integrated together
_REFINE_PASSES = 100     # bisection passes per level before giving up
_PARAM_FLOOR = 2e-5      # parameter gap below which an edge is irreducible


@dataclass
class VolumeGrowthResult:
    volumes: np.ndarray
    fit: GrowthFit
    exhausted: bool
    vertex_count: int
    levels_completed: int


def volume_growth(field: HamiltonianField, mesh: MeshedSubmanifold,
                  n_max: int, refine_threshold: float, vertex_budget: int, *,
                  surface_map,
                  cfg: IntegratorConfig = IntegratorConfig(
                      rel_tol=1e-8, abs_tol=1e-10, max_step=0.25),
                  fit_window: int = 6) -> VolumeGrowthResult:
    """Volumes of the evolved mesh at integer times 0..n_max with refinement.

    Existing vertices advance by time-1 maps; midpoints created during
    refinement are integrated from time 0 (their parameters seed the initial
    surface through ``surface_map``), so refinement never compounds stepping
    error.  Edges whose endpoint parameters are closer than ``_PARAM_FLOOR``
    are treated as irreducible (near hyperbolic separatrices the image of a
    parameter interval stops shrinking in floating point) and are excluded
    from further splitting.  Exhausting the vertex budget stops the run and
    downgrades the fit verdict to inconclusive.
    """
    if vertex_budget <= mesh.vertex_count():
        raise ValueError("vertex budget must exceed the initial vertex count")
    q0 = mesh.q[0].copy()
    mesh = replace(mesh)     # the levels rebind its arrays, not the caller's

    def evolve_new(params, upto):
        p_new = surface_map(params)
        q_new = np.broadcast_to(q0, p_new.shape).copy()
        if upto == 0:
            return q_new, p_new
        qs, ps = [], []
        for lo in range(0, params.shape[0], _VOLUME_BATCH):
            hi = min(lo + _VOLUME_BATCH, params.shape[0])
            _, Q, P = integrate_batch(field, q_new[lo:hi], p_new[lo:hi],
                                      float(upto), cfg,
                                      t_eval=np.array([0.0, float(upto)]))
            qs.append(Q[:, -1])
            ps.append(P[:, -1])
        return np.concatenate(qs), np.concatenate(ps)

    exhausted = False
    volumes = []
    for level in range(n_max + 1):
        if level:
            qs, ps = [], []
            for lo in range(0, mesh.vertex_count(), _VOLUME_BATCH):
                hi = min(lo + _VOLUME_BATCH, mesh.vertex_count())
                _, Q, P = integrate_batch(field, mesh.q[lo:hi], mesh.p[lo:hi],
                                          1.0, cfg, t0=float(level - 1),
                                          t_eval=np.array([float(level - 1),
                                                           float(level)]))
                qs.append(Q[:, -1])
                ps.append(P[:, -1])
            mesh.q, mesh.p = np.concatenate(qs), np.concatenate(ps)
        for n_pass in range(_REFINE_PASSES + 1):
            edges = mesh.edges()
            sep = np.linalg.norm(mesh.params[edges[:, 0]]
                                 - mesh.params[edges[:, 1]], axis=-1)
            split = edges[(mesh.edge_lengths(edges) > refine_threshold)
                          & (sep > _PARAM_FLOOR)]
            if len(split) == 0:
                break
            # splittable edges left after the last pass, or over the budget
            if (n_pass == _REFINE_PASSES
                    or mesh.vertex_count() + len(split) > vertex_budget):
                exhausted = True
                break
            mid_params = mesh.params[split[:, 0]] + mesh.params[split[:, 1]]
            mid_params /= np.linalg.norm(mid_params, axis=-1, keepdims=True)
            q_new, p_new = evolve_new(mid_params, level)
            mesh.simplices = _resplit(mesh.simplices, split,
                                      mesh.vertex_count())
            mesh.params = np.vstack([mesh.params, mid_params])
            mesh.q = np.vstack([mesh.q, q_new])
            mesh.p = np.vstack([mesh.p, p_new])
        if exhausted:
            break
        volumes.append(mesh.volume())

    volumes = np.array(volumes)
    fit = fit_growth(volumes, fit_window) or INCONCLUSIVE
    if exhausted:
        fit = replace(fit, verdict="inconclusive")
    return VolumeGrowthResult(volumes=volumes, fit=fit, exhausted=exhausted,
                              vertex_count=mesh.vertex_count(),
                              levels_completed=max(len(volumes) - 1, 0))


# The children of a simplex, by which of its edges split (bit e for edge e of
# _SIMPLEX_EDGES): rows of indices into the simplex's vertices followed by
# its edges' midpoints, the midpoints of unsplit edges unused.
_SIMPLEX_EDGES = {1: ((0, 1),), 2: ((0, 1), (1, 2), (2, 0))}
_CHILDREN = {
    1: [[(0, 1)], [(0, 2), (2, 1)]],
    2: [[(0, 1, 2)],
        [(0, 3, 2), (3, 1, 2)],                         # ab
        [(1, 4, 0), (4, 2, 0)],                         # bc
        [(0, 3, 4), (0, 4, 2), (3, 1, 4)],              # ab, bc
        [(2, 5, 1), (5, 0, 1)],                         # ca
        [(2, 5, 3), (2, 3, 1), (5, 0, 3)],              # ab, ca
        [(1, 4, 5), (1, 5, 0), (4, 2, 5)],              # bc, ca
        [(0, 3, 5), (1, 4, 3), (2, 5, 4), (3, 4, 5)]],  # all three
}


def _resplit(simplices, split, base):
    """The simplices after bisecting each edge (i, j), i < j, of the
    non-empty ``split`` at the new vertex ``base + k``, k its row; every
    index is below ``base``.
    A simplex's children replace it in place, in the order of
    ``_CHILDREN``."""
    dim = simplices.shape[1] - 1
    keys = split[:, 0].astype(np.int64) * base + split[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    verts = [simplices]
    pattern = np.zeros(len(simplices), dtype=np.int64)
    for e, (i, j) in enumerate(_SIMPLEX_EDGES[dim]):
        a, b = simplices[:, i], simplices[:, j]
        key = np.minimum(a, b).astype(np.int64) * base + np.maximum(a, b)
        pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        hit = keys[pos] == key
        verts.append(np.where(hit, base + order[pos], -1)[:, None])
        pattern |= hit.astype(np.int64) << e
    verts = np.concatenate(verts, axis=1)
    table = _CHILDREN[dim]
    width = max(len(c) for c in table)
    # the child rows of every pattern, padded to the widest
    rows = np.array([c + [c[0]] * (width - len(c)) for c in table])
    counts = np.array([len(c) for c in table])[pattern]
    starts = np.cumsum(counts) - counts
    out = np.empty((int(counts.sum()), dim + 1), dtype=np.int64)
    for slot in range(width):
        sel = np.nonzero(counts > slot)[0]
        out[starts[sel] + slot] = np.take_along_axis(
            verts[sel], rows[pattern[sel], slot], axis=1)
    return out


# -- averaged census (pairs of base points) --------------------------------------


@dataclass
class MppResult:
    fit: GrowthFit
    averaged_counts: np.ndarray
    pairs: list


def mpp_estimate(field: HamiltonianField, surface_map_at, grid: int,
                 horizon: float, resolution: int, rng, *,
                 jitter: float = 1e-3, **census_kwargs) -> MppResult:
    """Average chord counts over a grid x grid sample of base-point pairs
    and fit the growth rate on every time from the first positive average
    on.  Both shipped models have unit volume density in their coordinates,
    so the average is the plain mean over pairs.

    ``surface_map_at(q)`` builds the fiber surface sampler over q.
    """
    manifold = field.manifold
    if grid < 1:
        raise ValueError("grid must be at least 1")
    starts = [manifold.random_point(rng) for _ in range(grid)]
    targets = [manifold.random_point(rng) for _ in range(grid)]
    pairs = [(qa.copy(), qb + jitter * rng.standard_normal(manifold.dim))
             for qa in starts for qb in targets]
    counts = [census.nu_series for census in chord_census(
        field, [(qa, q1, surface_map_at(qa)) for qa, q1 in pairs], horizon,
        resolution, **census_kwargs)]
    avg = np.mean(counts, axis=0)
    fit = fit_growth(avg, start_index=1) or INCONCLUSIVE
    return MppResult(fit=fit, averaged_counts=avg, pairs=pairs)
