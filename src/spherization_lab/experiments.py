"""Named experiments: wiring from a validated config to CSV/JSON outputs.

Every experiment writes its data files plus ``manifest.json`` (config echo,
hash, seed, results, pass/fail against the thresholds embedded here).  The
manifest is written even when a run fails; the error category then rides
along.  Worker counts only fan out independent shares of an ensemble whose
results merge in input order, so outputs are byte-identical for any worker
count.

The sol Lyapunov experiments (``sol-entropy``, ``sol-sweep``) integrate each
ensemble member on the reduced Euler equations for its left-invariant
momenta together with z, z' = M_z (see ``sol``).  The members split into
one contiguous share per worker, and each share advances in one lockstep
solve, in which every member keeps the bits and counters of its own solve:
a member's exponent never depends on which other members run.  The exponent
is the z increment over the window after the burn-in, divided by the
window's length; the energy and first-integral drifts are read on a unit
sample grid, and the members' integrator counters (RHS calls, steps,
rejected steps) are summed into the manifest's ``diagnostics``.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from . import growth as growth_mod
from . import sol as sol_mod
from .config import ExperimentConfig
from .dynamics import (IntegratorConfig, _sample_grid, action_homogeneous,
                       classify_chord_action, core_field, energy_drift,
                       exclusion_level, flat_action_spectrum, gauge_field,
                       geodesic_field, integrate, radial_chord_actions,
                       scaled_field, shoot_fixed_time_chords, solve_groups,
                       verify_scaling_law)
from .entropy import (INCONCLUSIVE, chord_census, fiber_mesh, fit_growth,
                      mpp_estimate, torus_chord_count, volume_growth)
from .errors import ConfigError, InvariantFailureError, SpherizationError
from .geometry import CotangentPoint, ModelManifold
from .starshape import RadialProfile, calibrate

# -- context builders ---------------------------------------------------------

def manifold_from(cfg: ExperimentConfig) -> ModelManifold:
    kind = cfg.get("manifold", "kind")
    if kind == "torus":
        lat = cfg.get("manifold", "lattice")
        return ModelManifold.torus(np.array(lat, dtype=float).reshape(2, 2))
    return ModelManifold.sol(cfg.get("manifold", "monodromy"))


def profile_from(cfg: ExperimentConfig, dim: int) -> RadialProfile:
    kind = cfg.get("profile", "kind")
    if kind == "round":
        return RadialProfile.round()
    if kind == "ellipse":
        axes = cfg.get("profile", "axes")[:dim]
        if len(axes) != dim:
            raise ConfigError("[profile] axes must match the fiber dimension")
        return RadialProfile.ellipse(axes)
    return RadialProfile.fourier(cfg.get("profile", "fourier_base"),
                                 cfg.get("profile", "fourier_cos"),
                                 cfg.get("profile", "fourier_sin"))


def integrator_from(cfg: ExperimentConfig, **overrides) -> IntegratorConfig:
    params = dict(scheme=cfg.get("integrator", "scheme"),
                  rel_tol=cfg.get("integrator", "rel_tol"),
                  abs_tol=cfg.get("integrator", "abs_tol"),
                  max_step=cfg.get("integrator", "max_step"),
                  drift_abort=cfg.get("integrator", "drift_abort"))
    params.update(overrides)
    return IntegratorConfig(**params)


def sandwich_from(cfg: ExperimentConfig, manifold: ModelManifold):
    profile = profile_from(cfg, manifold.dim)
    return calibrate(profile, manifold,
                     safety=cfg.get("cutoff", "safety"),
                     eps=cfg.get("cutoff", "epsilon"),
                     rng=np.random.default_rng(cfg.seed ^ 0x5EED))


# -- deterministic fan-out ------------------------------------------------------

def _pmap(fn, tasks, workers: int):
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here, so a one-worker run loads no process pool
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _sol_chi_share(args):
    """(chi, energy drift, first-integral drift, solve stats) of each member
    of one share of an ensemble, integrated on the Euler equations from its
    momenta M0 together with z, z' = M_z; the share's members advance in
    one lockstep solve, each with the bits of its own.  chi is the z
    increment over the window [burn_in * T, T]; the drifts are read on the
    unit grid of ``_sample_grid(0, T, 1.0)`` with the window start added."""
    (M0s, horizon, burn_in, cfg) = args
    t_b = burn_in * horizon
    grid = _sample_grid(0.0, horizon, 1.0)
    i_b = int(np.searchsorted(grid, t_b))
    if grid[i_b] != t_b:
        grid = np.insert(grid, i_b, t_b)
    outs = []
    for _, ys, stats in solve_groups(
            sol_mod.euler_field,
            [(np.append(M0, 0.0), 0.0, horizon, grid, None) for M0 in M0s],
            cfg):
        mx, my, _, z = ys
        drift = energy_drift(sol_mod.hamiltonian_from_momenta(ys[:3].T),
                             cfg.drift_abort)
        chi = abs(float(z[-1] - z[i_b])) / (horizon - t_b)
        integral = mx * my
        outs.append((chi, drift,
                     float(np.max(np.abs(integral - integral[0]))), stats))
    return outs


def _sol_chis(members, workers: int):
    """``_sol_chi_share`` over ``workers`` contiguous shares of ``members`` =
    (M0s, horizon, burn_in, cfg), merged in member order."""
    M0s, *rest = members
    n = len(M0s)
    bounds = [i * n // workers for i in range(workers + 1)]
    shares = [(M0s[lo:hi], *rest) for lo, hi in zip(bounds, bounds[1:])
              if hi > lo]
    return [o for share in _pmap(_sol_chi_share, shares, workers)
            for o in share]


def _summed_stats(outs):
    """The members' integrator counters, summed in input order."""
    return {key: sum(o[3][key] for o in outs)
            for key in ("nfev", "steps", "rejected")}


# -- output helpers --------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _check(checks: dict, name: str, passed: bool, hard: bool = True, **info):
    checks[name] = {"passed": bool(passed), "hard": hard, **info}


# -- experiments ------------------------------------------------------------------

def _sol_members(cfg, manifold, rng, k, mode=None):
    mode = mode or cfg.get("sol", "mode")
    horizon = cfg.get("sol", "horizon")
    burn_in = cfg.get("sol", "burn_in")
    int_cfg = integrator_from(cfg)
    if mode == "fixed-point":
        q0 = manifold.random_point(rng)
        Q, P = q0[None, :], sol_mod.fixed_point_covector(k, q0)[None, :]
    else:
        Q, P = sol_mod.sample_level_states(manifold, k, cfg.get("sol", "count"),
                                           rng)
    return sol_mod.momentum_map(Q, P), horizon, burn_in, int_cfg


def _run_sol_entropy(cfg, out: Path, rng):
    manifold = manifold_from(cfg)
    k = cfg.get("sol", "k")
    mode = cfg.get("sol", "mode")
    if mode == "fixed-point" and k <= 0.5:
        raise ConfigError("fixed-point seeding needs k > 1/2")
    outs = _sol_chis(_sol_members(cfg, manifold, rng, k), cfg.workers)
    closed = sol_mod.entropy_closed_form(k)
    rows = []
    for i, (chi, *_) in enumerate(outs):
        ratio = chi / closed if closed > 0 else float("nan")
        rows.append((i, chi, closed, ratio))
    write_csv(out / "sol-entropy.csv", ("ic", "chi_plus", "closed_form",
                                        "ratio"), rows)
    chis = np.array([o[0] for o in outs])
    results = {"k": k, "mode": mode, "count": len(outs),
               "chi_max": float(np.max(chis)), "chi_mean": float(np.mean(chis)),
               "closed_form": closed,
               "energy_drift_max": float(max(o[1] for o in outs)),
               "first_integral_drift_max": float(max(o[2] for o in outs)),
               "diagnostics": {"integrator": _summed_stats(outs)}}
    checks = {}
    if mode == "fixed-point":
        _check(checks, "fixed-point-matches-closed-form",
               abs(results["chi_max"] - closed) <= 1e-3,
               gap=abs(results["chi_max"] - closed), tolerance=1e-3)
    elif k <= 0.5:
        _check(checks, "subcritical-vanishing", results["chi_max"] <= 0.02,
               chi_max=results["chi_max"], tolerance=0.02)
    else:
        _check(checks, "exponent-below-momentum-bound",
               results["chi_max"] <= math.sqrt(2 * k) + 0.01, hard=False)
    return results, checks, ["sol-entropy.csv"]


def _run_sol_sweep(cfg, out: Path, rng):
    manifold = manifold_from(cfg)
    rows = []
    checks = {}
    per_k = {}
    for k in cfg.get("sol", "k_values"):
        mode = cfg.get("sol", "mode")
        mode_k = "ensemble" if (k <= 0.5 and mode == "fixed-point") else mode
        sub_rng = np.random.default_rng([cfg.seed, int(round(k * 1e6))])
        outs = _sol_chis(_sol_members(cfg, manifold, sub_rng, k, mode=mode_k),
                         cfg.workers)
        chis = np.array([o[0] for o in outs])
        chi = float(np.mean(chis))
        closed = sol_mod.entropy_closed_form(k)
        ratio = chi / closed if closed > 0 else float("nan")
        rows.append((k, chi, closed, ratio))
        per_k[str(k)] = {"chi": chi, "chi_max": float(np.max(chis)),
                         "closed_form": closed,
                         "diagnostics": {"integrator": _summed_stats(outs)}}
        if k > 0.5 and mode_k == "fixed-point":
            _check(checks, f"k={k}-matches-closed-form",
                   abs(chi - closed) <= 1e-3, gap=abs(chi - closed))
        elif k <= 0.5:
            _check(checks, f"k={k}-subcritical",
                   float(np.max(chis)) <= 0.02, chi_max=float(np.max(chis)))
        else:
            _check(checks, f"k={k}-reported", True, hard=False)
    write_csv(out / "sol-sweep.csv", ("k", "chi_plus", "closed_form", "ratio"),
              rows)
    return {"levels": per_k}, checks, ["sol-sweep.csv"]


def _field_and_surface(cfg, manifold):
    """The flow of the census and volume experiments, and the map from a
    base point q to its fiber's surface parametrization u -> covector.

    On the torus the flow is that of F/2 for the profile's gauge F: F is
    homogeneous of degree 2, so on the surface F = 1 this is the surface's
    Reeb flow, with time equal to action.  For a round profile F/2 is the
    geodesic energy, whose field is used as is (the same bits)."""
    if manifold.kind == "torus":
        sandwich = sandwich_from(cfg, manifold)
        if cfg.get("profile", "kind") == "round":
            field = geodesic_field(manifold)
        else:
            field = scaled_field(gauge_field(sandwich), 0.5)
        def surface_at(q):
            return lambda u: sandwich.surface_covector(q, u)
        return field, surface_at
    k = cfg.get("sol", "k")
    field = sol_mod.sol_field(manifold)
    def surface_at(q):
        return lambda u: sol_mod.level_covector(k, q, u)
    return field, surface_at


def _census_kwargs(cfg):
    return dict(coarse_threshold=cfg.get("census", "coarse_threshold"),
                newton_tol=cfg.get("census", "newton_tol"),
                time_floor=cfg.get("census", "time_floor"),
                max_candidates=cfg.get("census", "max_candidates"),
                cfg=integrator_from(cfg))


def _run_chord_census(cfg, out: Path, rng):
    manifold = manifold_from(cfg)
    field, surface_at = _field_and_surface(cfg, manifold)
    horizon = cfg.get("census", "horizon")
    resolution = cfg.get("census", "resolution")
    jitter = cfg.get("census", "jitter")
    kwargs = _census_kwargs(cfg)

    qa = np.array(cfg.get("census", "q0"), dtype=float)
    qb = np.array(cfg.get("census", "q1"), dtype=float)
    if manifold.kind == "torus":
        if qa.shape != (2,) or qb.shape != (2,):
            raise ConfigError("[census] q0/q1 must be 2-vectors on the torus")
        pairs = [(qa, qb)]
    else:
        # honor an explicit 3-vector pair; fill the rest with seeded samples
        pairs = [(qa, qb)] if qa.shape == (3,) and qb.shape == (3,) else []
        while len(pairs) < cfg.get("census", "pairs"):
            pairs.append((manifold.random_point(rng),
                          manifold.random_point(rng)))

    jits = [jitter * rng.standard_normal(manifold.dim) for _ in pairs]
    pairs = [(qa, qb + jit, jit) for (qa, qb), jit in zip(pairs, jits)]
    censuses = chord_census(field, [(qa, q1, surface_at(qa))
                                    for qa, q1, _ in pairs],
                            horizon, resolution, **kwargs)
    results = {"pairs": []}
    checks = {}
    files = []
    for idx, ((qa, q1, jit), census) in enumerate(zip(pairs, censuses)):
        name = "chord-census.csv" if idx == 0 else f"chord-census_{idx + 1}.csv"
        write_csv(out / name, ("t", "nu"),
                  [(t + 1, int(v)) for t, v in enumerate(census.nu_series)])
        files.append(name)
        entry = {"q0": list(qa), "q1": list(q1), "jitter": list(jit),
                 "records": len(census.records),
                 "nu": [int(v) for v in census.nu_series],
                 "max_residual": (max(r.residual for r in census.records)
                                  if census.records else 0.0),
                 "diagnostics": census.diagnostics}
        results["pairs"].append(entry)

        if manifold.kind == "torus" and cfg.get("profile", "kind") == "round":
            t_top = min(10, int(math.floor(horizon)))
            oracle = [torus_chord_count(manifold, qa, q1, float(t))
                      for t in range(1, t_top + 1)]
            got = [int(v) for v in census.nu_series[:t_top]]
            _check(checks, "torus-oracle-exact", got == oracle,
                   oracle=oracle, census=got)
            if horizon >= 30:
                ts = np.arange(5, int(math.floor(horizon)) + 1)
                nu = census.nu_series[4:len(ts) + 4].astype(float)
                mask = nu > 0
                slope = float(np.polyfit(np.log(ts[mask]), np.log(nu[mask]),
                                         1)[0])
                entry["loglog_slope"] = slope
                _check(checks, "torus-quadratic-slope",
                       abs(slope - 2.0) <= 0.3, slope=slope)
        if manifold.kind == "sol" and horizon >= 12:
            nus = census.nu_series
            g = [math.log(nus[t - 1]) / t if nus[t - 1] > 0 else -math.inf
                 for t in range(6, 13)]
            entry["normalized_log_counts"] = g
            ok = nus[5] > 0 and all(g[i + 1] >= g[i] - 1e-12
                                    for i in range(len(g) - 1))
            _check(checks, f"pair{idx}-positive-nondecreasing-rate", ok,
                   rates=g)
        fit = fit_growth(census.nu_series, start_index=1)
        if fit is not None:
            entry["fit"] = {"rate": fit.rate, "verdict": fit.verdict,
                            "window": list(fit.window)}
    return results, checks, files


def _run_volume_growth(cfg, out: Path, rng):
    manifold = manifold_from(cfg)
    n_max = cfg.get("volume", "n_max")
    field, surface_at = _field_and_surface(cfg, manifold)
    q0 = manifold.random_point(rng)
    surface_map = surface_at(q0)
    mesh = fiber_mesh(manifold, q0, surface_map,
                      cfg.get("volume", "resolution"))
    budget = cfg.get("volume", "vertex_budget")
    if budget <= mesh.vertex_count():
        raise ConfigError(f"[volume] vertex_budget {budget} must exceed the "
                          f"initial mesh's {mesh.vertex_count()} vertices")
    result = volume_growth(
        field, mesh, n_max, cfg.get("volume", "refine_threshold"),
        budget, surface_map=surface_map,
        cfg=IntegratorConfig(rel_tol=cfg.get("volume", "rel_tol"),
                             abs_tol=cfg.get("volume", "rel_tol") * 1e-2,
                             max_step=0.25),
        fit_window=cfg.get("volume", "fit_window"))
    write_csv(out / "volume-growth.csv", ("n", "volume"),
              list(enumerate(result.volumes.tolist())))
    results = {"volumes": result.volumes.tolist(),
               "rate": result.fit.rate, "verdict": result.fit.verdict,
               "window": list(result.fit.window),
               "exhausted": result.exhausted,
               "vertex_count": result.vertex_count,
               "levels_completed": result.levels_completed}
    checks = {}
    if manifold.kind == "torus":
        # a circle's length grows linearly, so its semilog slope over a
        # window ending at n is about 1/n: the verdict, not a fixed rate
        # bound, tells polynomial from exponential at every horizon
        _check(checks, "flat-volume-subexponential",
               (not result.exhausted) and result.fit.verdict == "polynomial",
               rate=result.fit.rate, verdict=result.fit.verdict)
    else:
        _check(checks, "sol-volume-exponential-witness",
               (not result.exhausted) and result.fit.verdict == "exponential"
               and result.fit.rate >= 0.2, rate=result.fit.rate,
               verdict=result.fit.verdict, exhausted=result.exhausted)
    return results, checks, ["volume-growth.csv"]


def _run_action_check(cfg, out: Path, rng):
    manifold = manifold_from(cfg)
    if manifold.kind != "torus":
        raise ConfigError("action-check runs on the torus model")
    q0 = np.array(cfg.get("census", "q0"), dtype=float)
    q1 = np.array(cfg.get("census", "q1"), dtype=float)
    scales = cfg.get("action", "scales")
    n_values = cfg.get("action", "n_values")
    int_cfg = integrator_from(cfg, max_step=0.01)

    # torus calibration is deterministic: one sandwich per profile serves
    # both the scaling law and the shot chords
    profiles = {"round": RadialProfile.round(),
                "ellipse": RadialProfile.ellipse(cfg.get("profile", "axes")[:2])}
    sandwiches = {name: calibrate(profile, manifold,
                                  safety=cfg.get("cutoff", "safety"),
                                  eps=cfg.get("cutoff", "epsilon"))
                  for name, profile in profiles.items()}

    # (a) inverse scaling of the action under H -> cH on analytic chords:
    # the chord_count translates of q1 - q0 nearest to the origin (ties keep
    # the lattice order) under the geodesic flow, and the first three under
    # the ellipse gauge's
    count = cfg.get("action", "chord_count")
    radius = 1.0
    while len(translates := manifold.lattice_translates(q1 - q0, radius)) < count:
        radius *= 2.0
    targets = sorted(translates, key=np.linalg.norm)[:count]
    axes = np.asarray(profiles["ellipse"].axes)
    scaling_rows = []
    max_scaling = 0.0
    for label, field, starts in (
            ("geodesic", geodesic_field(manifold), targets),
            ("ellipse-gauge", gauge_field(sandwiches["ellipse"]),
             [w * axes ** 2 / 2.0 for w in targets[:3]])):
        for i, p0 in enumerate(starts):
            chord = integrate(field, CotangentPoint(q0, p0), 1.0, int_cfg)
            for c in scales:
                rel, res = verify_scaling_law(field, chord, c)
                scaling_rows.append((label, i, c, rel, res))
                max_scaling = max(max_scaling, rel)
    write_csv(out / "action-scaling.csv",
              ("hamiltonian", "chord", "scale", "rel_error", "field_residual"),
              scaling_rows)

    # (b, c) classification and the homogeneous action formula on shot chords
    chord_rows = []
    counts = {"inside": 0, "outside": 0, "boundary-ambiguous": 0}
    max_formula_gap = 0.0
    for prof_name, sandwich in sandwiches.items():
        for n in n_values:
            field_n = scaled_field(core_field(sandwich), n)
            found = shoot_fixed_time_chords(
                field_n, q0, q1,
                p_max=cfg.get("action", "p_max"),
                grid=cfg.get("action", "grid"),
                cfg=int_cfg)
            for traj, deck in found:
                label, action = classify_chord_action(traj, sandwich, n)
                counts[label] += 1
                gap = float("nan")
                if label == "inside":
                    f_val = float(np.mean(sandwich.gauge(traj.q, traj.p)))
                    cut, slope = sandwich.cutoff.eval(np.asarray(f_val))
                    formula = n * action_homogeneous(float(slope), float(cut),
                                                     f_val)
                    gap = abs(action - formula)
                    max_formula_gap = max(max_formula_gap, gap)
                chord_rows.append((prof_name, n, deck[0], deck[1], label,
                                   action, gap))
    write_csv(out / "action-chords.csv",
              ("profile", "n", "deck_m", "deck_n", "classification", "action",
               "formula_gap"), chord_rows)

    results = {"max_scaling_error": max_scaling,
               "max_formula_gap": max_formula_gap,
               "classified": counts}
    checks = {}
    _check(checks, "scaling-law", max_scaling <= 1e-6, value=max_scaling)
    _check(checks, "classification-complete",
           counts["inside"] > 0 and counts["outside"] > 0, counts=counts)
    _check(checks, "homogeneous-formula", max_formula_gap <= 1e-6,
           value=max_formula_gap)
    return results, checks, ["action-scaling.csv", "action-chords.csv"]


def _run_noncrossing(cfg, out: Path, rng):
    manifold = manifold_from(cfg)
    if manifold.kind != "torus" or cfg.get("profile", "kind") != "round":
        raise ConfigError("the non-crossing check needs the round torus model")
    sandwich = sandwich_from(cfg, manifold)
    q0 = np.array(cfg.get("census", "q0"), dtype=float)
    q1 = np.array(cfg.get("census", "q1"), dtype=float)
    exclusion = cfg.get("noncrossing", "exclusion")
    s_grid = np.linspace(0.0, 1.0, cfg.get("noncrossing", "s_points"))
    rows = []
    min_sep = math.inf
    for n in cfg.get("noncrossing", "n_values"):
        spectrum = flat_action_spectrum(manifold, q0, q1, n, bound=n + 1.0)
        a = exclusion_level(n, spectrum)
        for s in s_grid:
            a_s = float(sandwich.action_window(s, a))
            actions = radial_chord_actions(sandwich, n, float(s), q0, q1)
            if actions:
                nearest = min(actions, key=lambda v: abs(v - a_s))
                sep = abs(nearest - a_s)
            else:
                nearest, sep = float("nan"), math.inf
            min_sep = min(min_sep, sep)
            rows.append((n, float(s), a, a_s, nearest, sep))
    write_csv(out / "noncrossing-check.csv",
              ("n", "s", "a", "a_s", "nearest_action", "separation"), rows)
    results = {"min_separation": (min_sep if math.isfinite(min_sep) else None)}
    checks = {}
    _check(checks, "window-avoids-spectrum", min_sep > exclusion,
           min_separation=min_sep, exclusion=exclusion)
    return results, checks, ["noncrossing-check.csv"]


def _run_group_growth(cfg, out: Path, rng):
    mono = cfg.get("manifold", "monodromy")
    n_max = cfg.get("growth", "n_max")
    counts = growth_mod.ball_counts(mono, n_max)
    fit = fit_growth(counts, cfg.get("growth", "fit_window")) or INCONCLUSIVE
    rows = [(n, b, (math.log(b) / n if n else 0.0))
            for n, b in enumerate(counts)]
    write_csv(out / "group-growth.csv", ("n", "ball_size", "running_rate"),
              rows)
    ctrl_n = cfg.get("growth", "control_n_max")
    control = growth_mod.ball_counts(mono, ctrl_n, include_vertical=False)
    ctrl_fit = (fit_growth(control, cfg.get("growth", "control_fit_window"))
                or INCONCLUSIVE)
    ctrl_rows = [(n, b, (math.log(b) / n if n else 0.0))
                 for n, b in enumerate(control)]
    write_csv(out / "group-growth_control.csv",
              ("n", "ball_size", "running_rate"), ctrl_rows)
    results = {"counts": counts, "rate": fit.rate, "verdict": fit.verdict,
               "control_counts": control, "control_rate": ctrl_fit.rate,
               "control_verdict": ctrl_fit.verdict}
    checks = {}
    _check(checks, "lattice-exponential",
           fit.verdict == "exponential" and fit.rate >= 0.3, rate=fit.rate,
           verdict=fit.verdict)
    _check(checks, "abelian-control-polynomial",
           ctrl_fit.verdict == "polynomial" and ctrl_fit.rate <= 0.1,
           rate=ctrl_fit.rate, verdict=ctrl_fit.verdict)
    return results, checks, ["group-growth.csv", "group-growth_control.csv"]


def _run_mpp(cfg, out: Path, rng):
    manifold = manifold_from(cfg)
    field, surface_at = _field_and_surface(cfg, manifold)
    result = mpp_estimate(field, surface_at, cfg.get("census", "grid"),
                          cfg.get("census", "horizon"),
                          cfg.get("census", "resolution"), rng,
                          jitter=cfg.get("census", "jitter"),
                          **_census_kwargs(cfg))
    write_csv(out / "mpp.csv", ("t", "avg_nu"),
              [(t + 1, v) for t, v in enumerate(result.averaged_counts)])
    results = {"avg_counts": result.averaged_counts.tolist(),
               "rate": result.fit.rate, "verdict": result.fit.verdict}
    checks = {}
    if manifold.kind == "torus":
        _check(checks, "flat-average-polynomial",
               result.fit.verdict == "polynomial", verdict=result.fit.verdict,
               rate=result.fit.rate)
    else:
        closed = sol_mod.entropy_closed_form(cfg.get("sol", "k"))
        ratio = result.fit.rate / closed if closed > 0 else float("nan")
        results["closed_form"] = closed
        results["rate_over_closed_form"] = ratio
        _check(checks, "positive-rate-reported", result.fit.rate > 0,
               hard=False, rate=result.fit.rate, ratio=ratio)
    return results, checks, ["mpp.csv"]


_RUNNERS = {
    "sol-entropy": _run_sol_entropy,
    "sol-sweep": _run_sol_sweep,
    "chord-census": _run_chord_census,
    "volume-growth": _run_volume_growth,
    "action-check": _run_action_check,
    "noncrossing-check": _run_noncrossing,
    "group-growth": _run_group_growth,
    "mpp": _run_mpp,
}


def run(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Execute the configured experiment; returns the manifest dict.

    Data CSVs and ``manifest.json`` land in the output directory.  The
    manifest is written even on failure, with the error category recorded.
    A failed hard check raises InvariantFailureError after the manifest is
    written.
    """
    out = Path(out_dir if out_dir is not None else cfg.get("experiment",
                                                           "out_dir"))
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    started = time.perf_counter()
    manifest = {
        "experiment": cfg.name,
        "config": cfg.echo(),
        "config_hash": cfg.canonical_hash(),
        "seed": cfg.seed,
        "workers": cfg.workers,
        "results": {},
        "checks": {},
        "files": [],
        "pass": False,
        "error": None,
    }
    try:
        results, checks, files = _RUNNERS[cfg.name](cfg, out, rng)
        manifest["results"] = results
        manifest["checks"] = checks
        manifest["files"] = files
        manifest["pass"] = all(c["passed"] for c in checks.values()
                               if c["hard"])
    except Exception as exc:
        category = (exc.category if isinstance(exc, SpherizationError)
                    else "internal-error")
        manifest["error"] = {"category": category, "message": str(exc)}
        manifest["wall_clock_sec"] = time.perf_counter() - started
        _write_manifest(out, manifest)
        raise
    manifest["wall_clock_sec"] = time.perf_counter() - started
    _write_manifest(out, manifest)
    if not manifest["pass"]:
        failed = [k for k, c in manifest["checks"].items()
                  if c["hard"] and not c["passed"]]
        raise InvariantFailureError(
            f"embedded checks failed: {', '.join(failed)}")
    return manifest


def _sanitize(v):
    """Strict-JSON form: numpy scalars unwrapped, non-finite floats to None."""
    if isinstance(v, dict):
        return {k: _sanitize(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_sanitize(u) for u in v]
    if isinstance(v, np.ndarray):
        return [_sanitize(u) for u in v.tolist()]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else None
    return v


def _write_manifest(out: Path, manifest: dict):
    (out / "manifest.json").write_text(
        json.dumps(_sanitize(manifest), indent=2, sort_keys=True) + "\n",
        encoding="ascii")
