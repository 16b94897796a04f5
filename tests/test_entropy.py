import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from spherization_lab import dynamics as dyn
from spherization_lab import entropy, experiments
from spherization_lab import sol as sol_mod
from spherization_lab.config import load_config
from spherization_lab.geometry import CotangentPoint, ModelManifold
from spherization_lab.entropy import (ChordRecord, _dedup_roots, _resplit,
                                      _split_edge_table, _suppress,
                                      _tangent_frames, chord_census,
                                      circle_directions, fiber_mesh,
                                      fibonacci_sphere, fit_exponential_rate,
                                      fit_growth, mpp_estimate,
                                      torus_chord_count, volume_growth)

from sandwich_helpers import potential_field


# -- rate fitting ---------------------------------------------------------------

def test_fit_exact_exponential():
    n = np.arange(20)
    fit = fit_exponential_rate(np.exp(0.7 * n), window=10)
    assert abs(fit.rate - 0.7) <= 1e-9
    assert fit.verdict == "exponential"


def test_fit_quadratic_is_polynomial():
    n = np.arange(1, 40)
    fit = fit_exponential_rate(n.astype(float) ** 2, window=20,
                               start_index=1)
    assert fit.verdict == "polynomial"
    # the semilog slope decays toward zero as the data window moves out
    far = fit_exponential_rate(np.arange(1, 160).astype(float) ** 2,
                               window=20, start_index=1)
    assert far.rate < fit.rate < 1.0
    assert far.verdict == "polynomial"


def test_fit_noisy_exponential():
    rng = np.random.default_rng(5)
    n = np.arange(25)
    series = np.exp(0.5 * n) * (1.0 + 0.1 * rng.uniform(-1, 1, size=25))
    fit = fit_exponential_rate(series, window=15)
    assert abs(fit.rate - 0.5) <= 0.05
    assert fit.verdict == "exponential"


def test_fit_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_exponential_rate([1.0, 0.0, 2.0], window=3)


def test_fit_constant_series_polynomial():
    fit = fit_exponential_rate(np.ones(10), window=6)
    assert fit.rate == 0.0
    assert fit.verdict == "polynomial"


def test_fit_growth_skips_leading_zeros_and_clips_window():
    rng = np.random.default_rng(8)
    tail = np.exp(0.4 * np.arange(7)) * (1.0 + 0.05 * rng.uniform(-1, 1, 7))
    series = np.concatenate([[0.0, 0.0], tail])
    # entry i has index 1 + i, so the tail starts at index 3
    full = fit_growth(series, start_index=1)
    assert full == fit_exponential_rate(tail, window=7, start_index=3)
    assert full.window == (3, 9)
    assert fit_growth(series, window=50, start_index=1) == full
    trailing = fit_growth(series, window=4, start_index=1)
    assert trailing == fit_exponential_rate(tail, window=4, start_index=3)
    assert trailing.window == (6, 9)


def test_fit_growth_needs_three_entries():
    assert fit_growth([0.0, 0.0, 0.0, 1.0, 2.0]) is None
    assert fit_growth(np.zeros(6)) is None
    assert fit_growth([1.0, 2.0, 4.0, 8.0], window=2) is None
    assert fit_growth([0.0, 1.0, 2.0, 4.0]).window == (1, 3)


# -- chord census -----------------------------------------------------------------

@pytest.fixture(scope="module")
def torus_census_ctx(round_sandwich):
    torus = round_sandwich.manifold
    geo = dyn.geodesic_field(torus)
    q0 = np.zeros(2)
    q1 = np.array([0.5, 0.5])
    smap = lambda u: round_sandwich.surface_covector(q0, u)
    return torus, geo, q0, q1, smap


def test_census_zero_before_first_arrival(torus_census_ctx):
    torus, geo, q0, q1, smap = torus_census_ctx
    # horizon below the fiber distance: no chords can arrive
    dist = float(torus.nearest_lift(q1, q0)[1])
    [census] = chord_census(geo, [(q0, q1, smap)], 0.5 * dist, 64)
    assert len(census.records) == 0


def test_census_matches_lattice_oracle(torus_census_ctx):
    torus, geo, q0, q1, smap = torus_census_ctx
    [census] = chord_census(geo, [(q0, q1, smap)], 4.0, 128)
    oracle = [torus_chord_count(torus, q0, q1, float(t)) for t in (1, 2, 3, 4)]
    assert list(census.nu_series) == oracle
    # monotone counts, clean residuals, one record per deck
    assert all(np.diff(census.nu_series) >= 0)
    assert max(r.residual for r in census.records) <= 1e-8
    decks = [r.deck for r in census.records]
    assert len(decks) == len(set(decks))


@pytest.mark.parametrize("resolution", [128, 300, entropy._MESH_BATCH])
def test_torus_census_makes_one_lift_search(monkeypatch, torus_census_ctx,
                                            resolution):
    # one search per seed block of the mesh pass: together the searches see
    # every seed's trajectory once, in seed order, and they pick every
    # candidate's deck; the polish and the re-verification measure against
    # deck_apply's lift of that deck, so no search ever sees a re-verified
    # endpoint
    torus, geo, q0, q1, smap = torus_census_ctx
    probes = []
    search = ModelManifold.nearest_lift

    def counted(self, q_probe, q_base):
        probes.append(np.array(q_probe))
        return search(self, q_probe, q_base)

    monkeypatch.setattr(ModelManifold, "nearest_lift", counted)
    [census] = chord_census(geo, [(q0, q1, smap)], 3.0, resolution)
    n_samples = math.ceil(3.0 / census.diagnostics["sample_dt"]) + 1
    assert census.records
    assert [len(p) for p in probes] == [
        min(entropy._SEARCH_BLOCK, resolution - lo)
        for lo in range(0, resolution, entropy._SEARCH_BLOCK)]
    mesh = geo.flow(q0, smap(circle_directions(resolution))[:, None],
                    np.linspace(0.0, 3.0, n_samples))[0]
    assert np.array_equal(np.concatenate(probes), mesh)


def test_torus_census_peak_memory(tmp_path):
    # criterion 07's census (1024 seeds to T = 30): searched a seed block at
    # a time, its mesh peaks near 10 MiB; one search over the whole
    # (1024, 241, 2) mesh peaks at 31 MiB
    config = tmp_path / "census.ini"
    config.write_text("[experiment]\nname = chord-census\nseed = 107\n"
                      "[census]\nhorizon = 30.0\nresolution = 1024\n")
    cfg = load_config(str(config))
    tracemalloc.start()
    try:
        experiments.run(cfg, out_dir=tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_census_resolution_refinement_is_superset(torus_census_ctx):
    torus, geo, q0, q1, smap = torus_census_ctx
    [coarse] = chord_census(geo, [(q0, q1, smap)], 2.5, 128)
    [fine] = chord_census(geo, [(q0, q1, smap)], 2.5, 256)
    fine_keys = {(r.deck, round(r.arrival_time, 6)) for r in fine.records}
    for r in coarse.records:
        assert (r.deck, round(r.arrival_time, 6)) in fine_keys


def test_census_rejects_low_resolution(torus_census_ctx):
    torus, geo, q0, q1, smap = torus_census_ctx
    with pytest.raises(ValueError):
        chord_census(geo, [(q0, q1, smap)], 2.0, 32)


def _assert_per_row_read_is_full_grid(monkeypatch, census):
    # the per-row read of entropy._endpoints keeps the configured scheme
    # and gives the records of the full-grid read picked out by hand
    cfg = dyn.IntegratorConfig(scheme="midpoint", max_step=0.05)

    def no_rk(*args):
        raise AssertionError("a midpoint census ran DOP853")

    monkeypatch.setattr(dyn, "_dop853", no_rk)
    read = census(cfg)
    full_batch = entropy.integrate_batch

    def by_hand(field, Q0, P0, T, cfg, t0=0.0, t_eval=None, at=None,
                stats=None, sizes=None):
        # every group read on its full grid, then at its rows' samples
        full = full_batch(field, Q0, P0, T, cfg, t0=t0, t_eval=t_eval,
                          stats=stats, sizes=sizes)
        if sizes is None:
            full, at = [full], [at]
        elif at is None:
            at = [None] * len(full)
        out = []
        for (times, Q, P), pos in zip(full, at):
            rows = np.arange(len(Q))
            out.append((times, Q, P) if pos is None
                       else (Q[rows, pos], P[rows, pos]))
        return out if sizes is not None else out[0]

    monkeypatch.setattr(entropy, "integrate_batch", by_hand)
    full = census(cfg)
    assert len(read.records) > 0 and read.records == full.records
    assert read.diagnostics == full.diagnostics
    counts = read.diagnostics["integrator"]
    assert counts["rejected"] == 0 and counts["steps"] > 0


def test_midpoint_census_reads_endpoints_as_the_full_grid(torus_census_ctx,
                                                         monkeypatch):
    # on the torus the mesh and the polish run in closed form, so this
    # reaches the re-verification's read only
    torus, geo, q0, q1, smap = torus_census_ctx
    _assert_per_row_read_is_full_grid(
        monkeypatch,
        lambda cfg: chord_census(geo, [(q0, q1, smap)], 3.0, 64,
                                 cfg=cfg)[0])


def test_midpoint_sol_census_reads_polish_rows_as_the_full_grid(sol,
                                                               monkeypatch):
    # the sol polish integrates every Newton row, so this reaches its read
    field = sol_mod.sol_field(sol)
    rng = np.random.default_rng(3)
    q0 = sol.random_point(rng)
    q1 = sol.random_point(rng) + 1e-3 * rng.standard_normal(3)
    smap = lambda u: sol_mod.level_covector(1.0, q0, u)
    _assert_per_row_read_is_full_grid(
        monkeypatch,
        lambda cfg: chord_census(field, [(q0, q1, smap)], 1.5, 64, cfg=cfg,
                                 coarse_threshold=0.35)[0])


def test_torus_census_integrates_a_field_that_depends_on_q(monkeypatch,
                                                          round_sandwich):
    # a potential bends the flow off the closed form of a field of p alone,
    # so the field carries no flow: on the torus its census integrates the
    # mesh and the polish, and every root it counts re-verifies on its lift
    field = potential_field(round_sandwich)
    q0, q1 = np.zeros(2), np.array([0.5, 0.5])
    smap = lambda u: round_sandwich.surface_covector(q0, u)
    rows = []
    integrate = entropy.integrate_batch

    def counted(field, Q0, *args, **kwargs):
        rows.append(len(Q0))
        return integrate(field, Q0, *args, **kwargs)

    monkeypatch.setattr(entropy, "integrate_batch", counted)
    [census] = chord_census(field, [(q0, q1, smap)], 2.0, 64)
    # the mesh pass over all 64 seeds, then the polish sweeps, then the
    # re-verification
    assert rows[0] == 64 and len(rows) > 2
    assert census.records and census.diagnostics["reverify_misses"] == 0
    assert max(r.residual for r in census.records) <= 1e-8
    assert all(np.diff(census.nu_series) >= 0)


CENSUS_C07 = """
[experiment]
name = chord-census
seed = 107

[census]
horizon = 8.0
resolution = 1024
"""

CENSUS_ELLIPSE = """
[experiment]
name = chord-census
seed = 117

[profile]
kind = ellipse
axes = 1 2

[census]
horizon = 6.0
resolution = 1024
"""


@pytest.mark.parametrize("text", [CENSUS_C07, CENSUS_ELLIPSE],
                         ids=["round", "ellipse"])
def test_closed_form_torus_census_matches_the_integrating_one(
        tmp_path, monkeypatch, text):
    # criterion 07's pair and the ellipse chord test's, at a short horizon:
    # the same chords whether the mesh and the polish read the field's
    # closed-form flow or integrate, as they do for a field without one
    config = tmp_path / "census.ini"
    config.write_text(text)
    found = []

    def census(field, *args, **kwargs):
        found.append(chord_census(field, *args, **kwargs))
        return found[-1]

    def integrating(field, *args, **kwargs):
        assert field.flow is not None
        return census(dataclasses.replace(field, flow=None), *args, **kwargs)

    monkeypatch.setattr(experiments, "chord_census", census)
    experiments.run(load_config(str(config)), out_dir=tmp_path / "closed")
    monkeypatch.setattr(experiments, "chord_census", integrating)
    experiments.run(load_config(str(config)), out_dir=tmp_path / "integrated")
    [closed], [integrated] = found
    assert list(closed.nu_series) == list(integrated.nu_series)
    assert len(closed.records) == len(integrated.records) > 0
    assert ([r.deck for r in closed.records]
            == [r.deck for r in integrated.records])
    for a, b in zip(closed.records, integrated.records):
        assert abs(a.arrival_time - b.arrival_time) <= 1e-9
        assert np.max(np.abs(np.subtract(a.direction, b.direction))) <= 1e-9
    # both re-verify by integration; only the integrating census ran the
    # mesh and the polish solves
    assert (0 < closed.diagnostics["integrator"]["nfev"]
            < integrated.diagnostics["integrator"]["nfev"])


CENSUS_SOL_TWO_PAIRS = """
[experiment]
name = chord-census
seed = 2

[manifold]
kind = sol

[sol]
k = 1.0

[census]
horizon = 3.0
resolution = 192
coarse_threshold = 0.35
pairs = 2
"""


def _assert_each_pair_as_alone(field, pairs, *args, **kwargs):
    together = chord_census(field, pairs, *args, **kwargs)
    assert len(together) == len(pairs)
    for census, pair in zip(together, pairs):
        [alone] = chord_census(field, [pair], *args, **kwargs)
        assert census.records == alone.records and census.records
        assert list(census.nu_series) == list(alone.nu_series)
        assert census.diagnostics == alone.diagnostics
        assert (census.q0.tobytes(), census.q1.tobytes()) == (
            alone.q0.tobytes(), alone.q1.tobytes())
    return together


@pytest.mark.parametrize("lockstep_rows", [entropy._LOCKSTEP_ROWS, 300])
def test_multi_pair_sol_census_is_each_pair_alone(tmp_path, monkeypatch,
                                                  lockstep_rows):
    # test_sol_census_pinned_counts' two pairs: censused together, as the
    # experiment runs them, or one by one, each pair has the same records,
    # counts and diagnostics, also when fewer rows fit into one call
    monkeypatch.setattr(entropy, "_LOCKSTEP_ROWS", lockstep_rows)
    config = tmp_path / "census.ini"
    config.write_text(CENSUS_SOL_TWO_PAIRS)
    calls = []

    def census(*args, **kwargs):
        calls.append((args, kwargs))
        return chord_census(*args, **kwargs)

    monkeypatch.setattr(experiments, "chord_census", census)
    manifest = experiments.run(load_config(str(config)),
                               out_dir=tmp_path / "out")
    [((field, pairs, *args), kwargs)] = calls
    assert len(pairs) == 2
    together = _assert_each_pair_as_alone(field, pairs, *args, **kwargs)
    assert [list(c.nu_series) for c in together] == [
        p["nu"] for p in manifest["results"]["pairs"]]


@pytest.mark.parametrize("kind", ["torus", "sol"])
def test_census_is_independent_of_the_search_block(tmp_path, monkeypatch,
                                                   torus_census_ctx, kind):
    # the mesh pass searches a seed block at a time; with the whole mesh as
    # one block, every record, count and diagnostic is the same.  Neither
    # resolution is a multiple of the block
    if kind == "torus":
        torus, geo, q0, q1, smap = torus_census_ctx
        field, pairs, args, kwargs = geo, [(q0, q1, smap)], (4.0, 300), {}
    else:
        # test_sol_census_pinned_counts' two pairs, as the experiment runs
        config = tmp_path / "census.ini"
        config.write_text(CENSUS_SOL_TWO_PAIRS)
        calls = []

        def census(*args, **kwargs):
            calls.append((args, kwargs))
            return chord_census(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(experiments, "chord_census", census)
            experiments.run(load_config(str(config)), out_dir=tmp_path / "out")
        [((field, pairs, *args), kwargs)] = calls
    resolution = args[1]
    assert resolution > entropy._SEARCH_BLOCK
    assert resolution % entropy._SEARCH_BLOCK
    blocked = chord_census(field, pairs, *args, **kwargs)
    monkeypatch.setattr(entropy, "_SEARCH_BLOCK", resolution)
    whole = chord_census(field, pairs, *args, **kwargs)
    assert len(blocked) == len(whole) == len(pairs)
    for a, b in zip(blocked, whole):
        assert a.records == b.records and a.records
        assert list(a.nu_series) == list(b.nu_series)
        assert a.diagnostics == b.diagnostics


def test_multi_pair_torus_census_is_each_pair_alone(round_sandwich):
    # the closed-form mesh and polish, and the integrated re-verification,
    # of two torus pairs together, one of them the census fixture's
    geo = dyn.geodesic_field(round_sandwich.manifold)
    smap = lambda q0: (lambda u: round_sandwich.surface_covector(q0, u))
    q0, q0b = np.zeros(2), np.array([0.3, 0.1])
    _assert_each_pair_as_alone(
        geo, [(q0, np.array([0.5, 0.5]), smap(q0)),
              (q0b, np.array([0.8, 0.35]), smap(q0b))], 5.0, 256)


def test_sol_census_finds_verified_chords(sol):
    field = sol_mod.sol_field(sol)
    rng = np.random.default_rng(3)
    q0 = sol.random_point(rng)
    q1 = sol.random_point(rng) + 1e-3 * rng.standard_normal(3)
    smap = lambda u: sol_mod.level_covector(1.0, q0, u)
    [census] = chord_census(field, [(q0, q1, smap)], 3.0, 256,
                            coarse_threshold=0.35)
    assert len(census.records) > 0
    assert max(r.residual for r in census.records) <= 1e-8
    assert all(np.diff(census.nu_series) >= 0)
    # re-integrate one record from scratch and hit the tagged lift
    rec = census.records[0]
    traj = dyn.integrate(field,
                         CotangentPoint(q0, np.array(rec.start_covector)),
                         rec.arrival_time,
                         dyn.IntegratorConfig(max_step=rec.arrival_time / 64))
    lift = sol.deck_apply(rec.deck, q1)
    miss = np.linalg.norm(sol.frame_displacement(traj.q[-1], lift))
    assert miss <= 1e-6


def test_polish_retires_a_time_clamped_for_consecutive_sweeps(torus,
                                                             monkeypatch):
    # a driver that moves every candidate by scripted time steps, horizon 1:
    # candidate 0 runs into the upper clamp and stays, candidate 1 leaves
    # it for a sweep in between and candidate 2 sits at the time floor
    steps = [[1.0, 1.0, -1.0], [1.0, -0.2, -1.0], [1.0, 1.0, -1.0]]
    marks = []

    def scripted(n, linearize, move, **kwargs):
        for dt in steps:
            step = np.stack([np.zeros(n), dt], axis=-1)
            marks.append(move(np.arange(n), step, np.ones(n)).tolist())
        return np.full(n, dyn.SWEEP_CAP)

    monkeypatch.setattr(entropy, "lockstep_newton", scripted)
    _, ts, _, _ = entropy._polish(dyn.geodesic_field(torus), None,
                                  circle_directions(3), np.full(3, 0.5),
                                  None, 1.0, 1e-6, 1e-8)
    assert marks == [[False, False, False], [True, False, False],
                     [True, False, False]]
    assert ts.tolist() == [1.05, 1.05, 1e-6]


def _tangent_frame_loop(u):
    a = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, a)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(u, e1)


def test_tangent_frames_match_per_direction_frames():
    u = fibonacci_sphere(300)
    frames = _tangent_frames(u)
    for row, ui in zip(frames, u):
        e1, e2 = _tangent_frame_loop(ui)
        assert np.array_equal(row[0], e1) and np.array_equal(row[1], e2)
    circle = circle_directions(64)
    assert np.array_equal(_tangent_frames(circle)[:, 0],
                          np.stack([-circle[:, 1], circle[:, 0]], axis=-1))


def _suppress_loop(decks, seeds, times, dists, dirs, t_tol, angle):
    # the per-candidate scan that _suppress replaces, kept as its reference
    by_deck = {}
    for c in range(len(seeds)):
        by_deck.setdefault(tuple(decks[c]), []).append(c)
    out = []
    for key in sorted(by_deck):
        kept = []
        for c in sorted(by_deck[key], key=lambda c: (dists[c], times[c], seeds[c])):
            ui = dirs[seeds[c]]
            close = False
            for k in kept:
                if abs(times[c] - times[k]) > t_tol:
                    continue
                uk = dirs[seeds[k]]
                if dirs.shape[1] == 2:
                    dth = abs(math.atan2(ui[1], ui[0]) - math.atan2(uk[1], uk[0]))
                    close = min(dth, 2 * math.pi - dth) <= angle
                else:
                    close = np.dot(ui, uk) > math.cos(angle)
                if close:
                    break
            if not close:
                kept.append(c)
        out.extend(kept)
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_suppress_matches_per_candidate_scan(d):
    rng = np.random.default_rng(40 + d)
    n_dirs, m = 256, 3000
    dirs = circle_directions(n_dirs) if d == 2 else fibonacci_sphere(n_dirs)
    spacing = (2 * math.pi / n_dirs if d == 2
               else math.sqrt(4 * math.pi / n_dirs))
    decks = rng.integers(-1, 2, size=(m, d))
    seeds = rng.integers(0, n_dirs, size=m)
    # binary-exact sample times, so pairs exactly t_tol apart occur
    times = 0.0625 * rng.integers(1, 61, size=m)
    dists = np.round(rng.uniform(0.0, 0.3, size=m), 2)   # ties on purpose
    args = (decks, seeds, times, dists, dirs, 2 * 0.0625, 2.2 * spacing)
    kept = _suppress(*args).tolist()
    assert kept == _suppress_loop(*args)
    assert 0 < len(kept) < m


def _record(direction, time, deck, residual):
    return ChordRecord(direction=tuple(direction), arrival_time=time,
                       deck=deck, residual=residual, start_covector=(0.0,))


def _dedup_loop(records, d, horizon, radius):
    # a scan of every kept record per root, the reference for the census's
    # suppression of its re-verified roots
    out = []
    for rec in sorted(records, key=lambda r: r.residual):
        dup = False
        for kept in out:
            if kept.deck != rec.deck:
                continue
            if abs(kept.arrival_time - rec.arrival_time) / max(horizon, 1.0) > radius:
                continue
            if d == 2:
                sep = abs(math.atan2(rec.direction[1], rec.direction[0])
                          - math.atan2(kept.direction[1], kept.direction[0]))
                sep = min(sep, 2 * math.pi - sep) / (2 * math.pi)
            else:
                dot = sum(a * b for a, b in zip(rec.direction, kept.direction))
                sep = math.acos(min(1.0, max(-1.0, dot))) / math.pi
            if sep <= radius:
                dup = True
                break
        if not dup:
            out.append(rec)
    return out


def _dedup(records, horizon):
    kept = _dedup_roots(np.array([r.deck for r in records]),
                        np.array([r.arrival_time for r in records]),
                        np.array([r.residual for r in records]),
                        np.array([r.direction for r in records]), horizon)
    return [records[j] for j in kept]


def _census_order(records):
    return sorted(records, key=lambda r: (r.arrival_time, r.deck))


def test_dedup_keeps_one_arrival_on_two_decks():
    u = (0.6, 0.8)
    recs = [_record(u, 2.0, (0, 1), 3e-9), _record(u, 2.0, (0, 2), 1e-9)]
    out = _dedup(recs, 4.0)
    assert [r.deck for r in _census_order(out)] == [(0, 1), (0, 2)]


@pytest.mark.parametrize("d", [2, 3])
def test_dedup_collapses_within_deck_to_lowest_residual(d):
    rng = np.random.default_rng(50 + d)
    base = circle_directions(40) if d == 2 else fibonacci_sphere(40)
    recs = []
    for j, u in enumerate(base):
        for _ in range(3):    # near copies well inside the radius
            v = u + 1e-7 * rng.standard_normal(d)
            recs.append(_record(v / np.linalg.norm(v),
                                1.0 + j / 40 + 1e-7 * rng.standard_normal(),
                                (0,) * (d - 1) + (j % 3,),
                                # ties on purpose: the earlier record wins
                                float(rng.integers(1, 3)) * 1e-9))
    out = _dedup(recs, 3.0)
    assert _census_order(out) == _census_order(_dedup_loop(recs, d, 3.0, 1e-4))
    assert len(out) == len(base)
    for j, kept in enumerate(sorted(out, key=lambda r: r.arrival_time)):
        assert kept.residual == min(r.residual for r in recs[3 * j:3 * j + 3])


# -- volume growth ------------------------------------------------------------------

def test_volume_static_field_constant(torus, round_sandwich):
    q0 = np.zeros(2)
    smap = lambda u: round_sandwich.surface_covector(q0, u)
    mesh = fiber_mesh(torus, q0, smap, 64)
    res = volume_growth(dyn.scaled_field(dyn.geodesic_field(torus), 0.0),
                        mesh, 8, 0.5, 10000,
                        surface_map=smap, fit_window=6)
    assert np.allclose(res.volumes, res.volumes[0])
    assert abs(res.fit.rate) <= 1e-12
    assert np.isclose(res.volumes[0], 2 * np.pi, rtol=1e-3)


def test_volume_torus_circle_oracle(torus, round_sandwich):
    geo = dyn.geodesic_field(torus)
    q0 = np.array([0.2, 0.7])
    smap = lambda u: round_sandwich.surface_covector(q0, u)
    exact = 2 * np.pi * np.sqrt(1.0 + np.arange(31) ** 2)
    results = {}
    for thr in (0.2, 0.1):
        mesh = fiber_mesh(torus, q0, smap, 64)
        res = volume_growth(geo, mesh, 30, thr, 100000, surface_map=smap,
                            fit_window=8)
        assert res.levels_completed == 30 and not res.exhausted
        assert np.max(np.abs(res.volumes - exact) / exact) <= 0.02
        results[thr] = res.volumes
    # halving the threshold moves the estimate by at most 2 percent
    assert np.max(np.abs(results[0.2] - results[0.1]) / results[0.1]) <= 0.02
    fit = fit_exponential_rate(results[0.1], window=8)
    assert fit.rate <= 0.05
    assert fit.verdict != "exponential"


def test_volume_sol_sphere_positive_rate(sol):
    field = sol_mod.sol_field(sol)
    rng = np.random.default_rng(11)
    q0 = sol.random_point(rng)
    smap = lambda u: sol_mod.level_covector(1.0, q0, u)
    mesh = fiber_mesh(sol, q0, smap, 162)
    # initial sphere area in the product metric: radius sqrt(2) momentum
    # sphere over a point, i.e. 8 pi
    assert np.isclose(mesh.volume(), 8 * np.pi, rtol=0.02)
    res = volume_growth(field, mesh, 8, 18.0, 200000, surface_map=smap)
    assert res.levels_completed == 8 and not res.exhausted
    assert np.all(np.diff(np.log(res.volumes[:6])) > 0)


def test_volume_budget_exhaustion_flags(sol):
    field = sol_mod.sol_field(sol)
    rng = np.random.default_rng(11)
    q0 = sol.random_point(rng)
    smap = lambda u: sol_mod.level_covector(1.0, q0, u)
    mesh = fiber_mesh(sol, q0, smap, 162)
    res = volume_growth(field, mesh, 12, 2.0, 400, surface_map=smap)
    assert res.exhausted
    assert res.fit.verdict == "inconclusive"
    assert res.levels_completed < 12


def _volume_growth_reference(field, mesh, n_max, refine_threshold,
                             vertex_budget, surface_map, fit_window=6):
    """``volume_growth`` as a loop that finds every edge with ``edges()``
    and measures every edge and face again on each pass and level, with
    the per-level counts the run reports."""
    cfg = dyn.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, max_step=0.25)
    q0 = mesh.q[0].copy()
    mesh = dataclasses.replace(mesh)

    def advance(q, p, t0, t1):
        qs, ps = [], []
        for lo in range(0, len(q), entropy._VOLUME_BATCH):
            hi = lo + entropy._VOLUME_BATCH
            _, Q, P = dyn.integrate_batch(field, q[lo:hi], p[lo:hi], t1 - t0,
                                          cfg, t0=t0, t_eval=np.array(
                                              [t0, t1]))
            qs.append(Q[:, -1])
            ps.append(P[:, -1])
        return np.concatenate(qs), np.concatenate(ps)

    exhausted = False
    volumes, levels = [], []
    for level in range(n_max + 1):
        if level:
            mesh.q, mesh.p = advance(mesh.q, mesh.p, float(level - 1),
                                     float(level))
        splits = 0
        for n_pass in range(entropy._REFINE_PASSES + 1):
            edges = mesh.edges()
            sep = np.linalg.norm(mesh.params[edges[:, 0]]
                                 - mesh.params[edges[:, 1]], axis=-1)
            over = mesh.edge_lengths(edges) > refine_threshold
            split = edges[over & (sep > entropy._PARAM_FLOOR)]
            if len(split) == 0:
                break
            if (n_pass == entropy._REFINE_PASSES
                    or mesh.vertex_count() + len(split) > vertex_budget):
                exhausted = True
                break
            mid = mesh.params[split[:, 0]] + mesh.params[split[:, 1]]
            mid /= np.linalg.norm(mid, axis=-1, keepdims=True)
            p_new = surface_map(mid)
            q_new = np.broadcast_to(q0, p_new.shape).copy()
            if level:
                q_new, p_new = advance(q_new, p_new, 0.0, float(level))
            mesh.simplices, _ = _resplit(mesh.simplices, split,
                                         mesh.vertex_count())
            mesh.params = np.vstack([mesh.params, mid])
            mesh.q = np.vstack([mesh.q, q_new])
            mesh.p = np.vstack([mesh.p, p_new])
            splits += len(split)
        levels.append((mesh.vertex_count(), splits, n_pass, int(np.sum(
            over & ~(sep > entropy._PARAM_FLOOR)))))
        if exhausted:
            break
        volumes.append(mesh.volume())
    volumes = np.array(volumes)
    fit = fit_growth(volumes, fit_window) or entropy.INCONCLUSIVE
    if exhausted:
        fit = dataclasses.replace(fit, verdict="inconclusive")
    return volumes, fit, exhausted, mesh.vertex_count(), levels


def test_volume_growth_keeps_the_remeasuring_loops_bits(
        torus, sol, round_sandwich, ellipse_sandwich):
    # one edge table, measured once per level and only on new edges within
    # one, against a loop that finds and measures everything on every pass:
    # sol with up to 3 passes a level, sol exhausting its budget, the torus
    # circle at 0.1 and the ellipse's gauge flow
    q_sol = sol.random_point(np.random.default_rng(13))
    q_exh = sol.random_point(np.random.default_rng(11))
    q_tor = np.array([0.2, 0.7])
    runs = [(sol_mod.sol_field(sol), sol, q_sol,
             lambda u: sol_mod.level_covector(1.0, q_sol, u), 42, 3, 1.0,
             200000),
            (sol_mod.sol_field(sol), sol, q_exh,
             lambda u: sol_mod.level_covector(1.0, q_exh, u), 162, 12, 2.0,
             400),
            (dyn.geodesic_field(torus), torus, q_tor,
             lambda u: round_sandwich.surface_covector(q_tor, u), 64, 30,
             0.1, 100000),
            (dyn.scaled_field(dyn.gauge_field(ellipse_sandwich), 0.5), torus,
             q_tor, lambda u: ellipse_sandwich.surface_covector(q_tor, u),
             64, 12, 0.1, 100000)]
    passes, exhausted_runs = [], []
    for field, manifold, q0, smap, resolution, n_max, thr, budget in runs:
        mesh = fiber_mesh(manifold, q0, smap, resolution)
        res = volume_growth(field, mesh, n_max, thr, budget, surface_map=smap)
        volumes, fit, exhausted, vertices, levels = _volume_growth_reference(
            field, mesh, n_max, thr, budget, smap)
        assert res.volumes.tobytes() == volumes.tobytes()
        assert repr(res.fit) == repr(fit)
        assert (res.exhausted, res.vertex_count) == (exhausted, vertices)
        assert res.levels_completed == max(len(volumes) - 1, 0)
        assert list(zip(res.vertices, res.splits, res.passes,
                        res.irreducible)) == levels
        assert res.integrator["nfev"] > 0
        passes.append(max(res.passes))
        exhausted_runs.append(res.exhausted)
    assert passes[0] == 3 and exhausted_runs == [False, True, False, False]


def _resplit_reference(simplices, lookup, dimension):
    """The refinement's split of each simplex by a Python loop, with
    ``lookup`` the midpoint vertex of each split edge (i, j), i < j."""
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


@pytest.mark.parametrize("dimension", [1, 2])
def test_resplit_matches_the_loop(torus, sol, round_sandwich, dimension):
    # random split patterns over several passes (so that faces of every
    # pattern and of irregular shape occur), with the split rows in the
    # refinement's sorted order and shuffled: the same children, in order,
    # and the rows marked as children of split simplices are those that
    # hold a new vertex
    rng = np.random.default_rng(dimension)
    if dimension == 1:
        q0 = np.array([0.2, 0.7])
        mesh = fiber_mesh(torus, q0, lambda u: round_sandwich.surface_covector(
            q0, u), 16)
    else:
        q0 = np.zeros(3)
        mesh = fiber_mesh(sol, q0, lambda u: sol_mod.level_covector(
            1.0, q0, u), 42)
    simplices, n = mesh.simplices, mesh.vertex_count()
    for share in (0.3, 0.6, 1.0, 0.5, 0.1):
        edges = entropy.MeshedSubmanifold(
            dimension=dimension, params=np.zeros((n, 1)), q=None, p=None,
            simplices=simplices, manifold=None).edges()
        split = edges[rng.random(len(edges)) < share]
        if share == 0.1:
            split = rng.permutation(split)
        lookup = {(int(i), int(j)): n + k for k, (i, j) in enumerate(split)}
        want = _resplit_reference(simplices, lookup, dimension)
        got, children = _resplit(simplices, split, n)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(children, np.any(got >= n, axis=1))
        simplices, n = got, n + len(split)
    assert n > 4 * mesh.vertex_count()


@pytest.mark.parametrize("dimension", [1, 2])
def test_split_edge_table_matches_the_mesh(torus, sol, round_sandwich,
                                           dimension):
    # after each pass of random splits, the updated table holds the edges
    # of edges() in its order, with edge_lengths' and the separations' bits
    rng = np.random.default_rng(10 + dimension)
    if dimension == 1:
        q0 = np.array([0.2, 0.7])
        mesh = fiber_mesh(torus, q0, lambda u: round_sandwich.surface_covector(
            q0, u), 16)
    else:
        q0 = np.zeros(3)
        mesh = fiber_mesh(sol, q0, lambda u: sol_mod.level_covector(
            1.0, q0, u), 42)
    mesh.q = mesh.q + rng.normal(size=mesh.q.shape)
    radix = 100000

    def table_of(mesh):
        edges = mesh.edges()
        seps = np.linalg.norm(mesh.params[edges[:, 0]]
                              - mesh.params[edges[:, 1]], axis=-1)
        return (edges[:, 0] * radix + edges[:, 1], mesh.edge_lengths(edges),
                seps)

    table = table_of(mesh)
    for share in (0.3, 0.6, 1.0, 0.5, 0.1):
        keys = table[0]
        split_at = np.flatnonzero(rng.random(len(keys)) < share)
        split = np.stack([keys[split_at] // radix, keys[split_at] % radix], 1)
        base = mesh.vertex_count()
        mid = mesh.params[split[:, 0]] + mesh.params[split[:, 1]]
        mesh.simplices, children = _resplit(mesh.simplices, split, base)
        mesh.params = np.vstack([mesh.params, mid / np.linalg.norm(
            mid, axis=-1, keepdims=True)])
        mesh.q, mesh.p = (np.vstack([x, rng.normal(size=(len(split),
                                                         x.shape[1]))])
                          for x in (mesh.q, mesh.p))
        table = _split_edge_table(mesh, table, split_at, children, radix)
        for got, want in zip(table, table_of(mesh)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert mesh.vertex_count() > 4 * 16


def test_phase_distance_is_symmetric_bit_for_bit(torus, sol):
    # the edge table measures (i, j) with i < j, the faces ask for either
    # order; sol's pairs span many z units, so both of its base branches
    # (frame chord, climb and descent) occur
    rng = np.random.default_rng(5)
    for manifold, z_scale in ((torus, None), (sol, 4.0)):
        qa, qb = (np.stack([manifold.random_point(rng) for _ in range(4000)])
                  for _ in range(2))
        if z_scale is not None:
            qa[:, 2] *= z_scale
            qa[:, :2] *= rng.choice([1e-3, 1.0, 1e3], size=(4000, 1))
        pa, pb = rng.normal(size=qa.shape), rng.normal(size=qa.shape)
        ab = manifold.phase_distance(qa, pa, qb, pb)
        ba = manifold.phase_distance(qb, pb, qa, pa)
        assert ab.tobytes() == ba.tobytes()
        assert np.all(np.isfinite(ab))


def test_fiber_mesh_circle_and_sphere(torus, sol, round_sandwich):
    q0 = np.array([0.2, 0.7])
    circle = fiber_mesh(torus, q0, lambda u: round_sandwich.surface_covector(
        q0, u), 64)
    assert circle.dimension == 1 and circle.vertex_count() == 64
    assert circle.simplices.shape == (64, 2)
    q0 = sol.random_point(np.random.default_rng(11))
    sphere = fiber_mesh(sol, q0, lambda u: sol_mod.level_covector(1.0, q0, u),
                        162)
    assert sphere.dimension == 2 and sphere.vertex_count() == 162
    assert sphere.simplices.shape == (320, 3)
    assert np.all(sphere.q == q0)


def test_mesh_edges_match_unique_rows(torus, sol, round_sandwich):
    # the int64 edge key gives np.unique(axis=0)'s rows, in its order
    q0 = np.array([0.2, 0.7])
    circle = fiber_mesh(torus, q0, lambda u: round_sandwich.surface_covector(
        q0, u), 64)
    q0 = sol.random_point(np.random.default_rng(11))
    sphere = fiber_mesh(sol, q0, lambda u: sol_mod.level_covector(1.0, q0, u),
                        642)
    for mesh in (circle, sphere):
        s = mesh.simplices
        e = (s if mesh.dimension == 1 else
             np.concatenate([s[:, [0, 1]], s[:, [1, 2]], s[:, [2, 0]]]))
        expected = np.unique(np.sort(e, axis=1), axis=0)
        edges = mesh.edges()
        assert edges.dtype == expected.dtype
        assert edges.tobytes() == expected.tobytes()
    assert len(sphere.edges()) == 1920


def test_volume_growth_leaves_its_mesh_unchanged(torus, round_sandwich):
    q0 = np.array([0.2, 0.7])
    smap = lambda u: round_sandwich.surface_covector(q0, u)
    mesh = fiber_mesh(torus, q0, smap, 16)
    before = {name: getattr(mesh, name).copy()
              for name in ("params", "q", "p", "simplices")}
    res = volume_growth(dyn.geodesic_field(torus), mesh, 4, 0.3, 10000,
                        surface_map=smap, fit_window=4)
    assert res.vertex_count > mesh.vertex_count()   # the run did refine
    for name, value in before.items():
        assert np.array_equal(getattr(mesh, name), value)


def test_fibonacci_sphere_is_unit():
    u = fibonacci_sphere(500)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
    assert abs(float(np.max(u @ np.ones(3) / np.sqrt(3)))) <= 1.0


# -- averaged census -------------------------------------------------------------

def test_mpp_single_pair_matches_census_fit(torus_census_ctx):
    torus, geo, q0, q1, smap_q0 = torus_census_ctx

    def surface_at(q):
        return smap_q0  # round profile: same covectors over any base point

    rng = np.random.default_rng(9)
    result = mpp_estimate(geo, surface_at, 1, 6.0, 128, rng, jitter=1e-3)
    qa, qb = result.pairs[0]
    [census] = chord_census(geo, [(qa, qb, surface_at(qa))], 6.0, 128)
    assert np.allclose(result.averaged_counts, census.nu_series)
    first = int(np.nonzero(census.nu_series > 0)[0][0])
    fit = fit_exponential_rate(census.nu_series[first:].astype(float),
                               window=len(census.nu_series) - first,
                               start_index=first + 1)
    assert np.isclose(result.fit.rate, fit.rate)


def test_mpp_torus_polynomial(torus_census_ctx):
    torus, geo, q0, q1, smap_q0 = torus_census_ctx

    def surface_at(q):
        return smap_q0

    rng = np.random.default_rng(9)
    result = mpp_estimate(geo, surface_at, 2, 10.0, 128, rng, jitter=1e-3)
    assert result.fit.verdict == "polynomial"
