"""Hamiltonian vector fields, trajectory integration, and action checks.

Sign convention: with the symplectic form sum dp_i ^ dq_i and
omega(X_H, .) = -dH, the equations of motion are

    dq/dt = dH/dp,      dp/dt = -dH/dq,

so the flow of half the squared conorm is the geodesic flow (tested, not
assumed).  Every Hamiltonian carries one analytic gradient kernel
``grads(q, p) -> (dH/dq, dH/dp)``; the integrator calls it once per field
evaluation, through a generic adapter to its stacked vector
``[Q.ravel(), P.ravel()]``.  A field may instead hand the integrator its own
flat kernel in that layout (``HamiltonianField.flat_rhs``), with the bits of
the ``(q, p)`` form: the sol field does.  Every kernel the integrator calls
has one contract, ``rhs(t, y, out)``: it writes dy/dt into ``out``, which
it may not assume to hold anything, and leaves ``y`` as it was.  The tests
cross-check the gradients against central finite differences.

The geodesic field's kernel is ``ModelManifold.conorm_grads``.  The lower,
upper and blended sandwich Hamiltonians are one scalar profile of G, the
sandwich's ``blend_profile(t)``, whose slope h_t'(G) scales the gradients
of G.

The adaptive scheme is an in-house DOP853 (Dormand and Prince's explicit
Runge-Kutta pair of order 8(5,3) with a 7th-order interpolant; Hairer,
Norsett and Wanner, *Solving ODEs I*, Sec. II.5), ``_dop853``: one step
shared by all components, taken operation for operation as in scipy's
``solve_ivp(method="DOP853")``, whose results it reproduces bit for bit.
Its tableau is read from scipy's ``dop853_coefficients.py`` file, so the lab
imports no scipy submodule.  ``integrate_batch(..., at=...)`` reads each
row of a batch at its own sample only: the steps, stages and interpolant
coefficients stay those of the whole batch, and the interpolant (or the
midpoint scheme's step endpoint) fills only the samples kept, with the bits
of the full read; the census's ``entropy._endpoints`` reads this way.
``integrate_batch(..., sizes=...)`` integrates consecutive row groups as
independent systems in one call, and ``solve_groups`` independent vectors:
``_dop853`` advances them in lockstep, one kernel call per stage over the
rows of every live group, while each group keeps its own steps, error norm
and counters.  A row's bits depend on its group-mates and on the chunk
sizes of the caller, never on the other groups of a call, nor on which
census pairs or ensemble members share one.
``simpson`` is the composite Simpson rule of the action and Lyapunov
quadratures, equal to scipy's bit for bit.

Both chord finders, the census polish ``entropy._polish`` and the fixed-time
chords here, polish with one damped Newton driver, ``lockstep_newton``
(Kelley, *Solving Nonlinear Equations with Newton's Method*, 2003).  On a
flat model (``ModelManifold.flat``, the torus) a field of p alone keeps p
and translates q, and both evaluate that flow in closed form,
``flat_flow``: the fixed-time chords solve its time-1 map, and the census
seeds and polishes on it.  Each integrates only the chords it accepts,
which re-verifies them; an integrated endpoint off its lift (a field with
dH/dq != 0) raises InvariantFailureError.
"""

from __future__ import annotations

import bisect
import importlib.util
import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IntegrationDivergedError, InvariantFailureError, StiffnessError
from .geometry import CotangentPoint, ModelManifold
from .starshape import SandwichedHamiltonians


@dataclass(frozen=True)
class HamiltonianField:
    """A Hamiltonian with its gradient kernel.

    ``value(q, p)`` and ``grads(q, p) -> (dH/dq, dH/dp)`` accept arrays of
    shape (..., d); one ``grads`` call yields both gradients, so shared
    subexpressions are computed once per field evaluation.  ``flat_rhs``,
    when given, is the field's own kernel in the integrator's layout:
    ``flat_rhs(t, y, out)`` writes dy/dt of the stacked ``[Q.ravel(),
    P.ravel()]`` into ``out`` (a view the stepper owns, of any prior
    content), with the bits of ``(dH/dp, -dH/dq)``; ``integrate_batch``
    calls it in place of the generic adapter over ``grads``.
    """

    name: str
    manifold: ModelManifold
    value: callable
    grads: callable
    flat_rhs: callable = None

    def dq(self, q, p):
        return self.grads(q, p)[0]

    def dp(self, q, p):
        return self.grads(q, p)[1]

    def velocity(self, q, p):
        """Base velocity dq/dt."""
        return self.grads(q, p)[1]

    def rhs(self, q, p):
        """(dq/dt, dp/dt) under the fixed sign convention."""
        gq, gp = self.grads(q, p)
        return gp, -gq


def scaled_field(field: HamiltonianField, c: float) -> HamiltonianField:
    c = float(c)

    def grads(q, p):
        gq, gp = field.grads(q, p)
        return c * gq, c * gp

    return HamiltonianField(
        name=f"{c}*{field.name}", manifold=field.manifold,
        value=lambda q, p: c * field.value(q, p), grads=grads)


def geodesic_field(manifold: ModelManifold) -> HamiltonianField:
    """H = |p|^2 / 2 in the base metric."""
    return HamiltonianField(
        name="geodesic", manifold=manifold,
        value=lambda q, p: 0.5 * manifold.conorm_sq(q, p),
        grads=manifold.conorm_grads)


def gauge_field(sandwich: SandwichedHamiltonians) -> HamiltonianField:
    """The degree-2 homogeneous gauge F as a Hamiltonian."""
    return HamiltonianField(
        name="gauge", manifold=sandwich.manifold,
        value=sandwich.gauge, grads=sandwich.gauge_grads)


def core_field(sandwich: SandwichedHamiltonians) -> HamiltonianField:
    """The smoothed starshape Hamiltonian (middle of the sandwich)."""

    def value(q, p):
        return sandwich.sandwich_eval(q, p)[1]

    def grads(q, p):
        # (1 - tau) f(F) + tau sigma G, with tau the far-field step of G;
        # the metric's conorm kernels run once, inside G and its gradients
        g = sandwich.energy(q, p)
        g_dq, g_dp = sandwich.energy_grads(q, p)
        gauge, (dq_f, dp_f) = sandwich.profile.gauge_terms(
            sandwich, q, p, g, (g_dq, g_dp))
        cut, slope = sandwich.cutoff.eval(gauge)
        rho = np.sqrt(np.maximum(2.0 * g, 1e-300))
        tau = sandwich.far_step(rho)
        dtau = sandwich.far_step_slope(rho) / rho  # d tau / d g
        sigma = sandwich.upper_scale
        inner = (1.0 - tau)[..., None]
        outer = (tau * sigma + dtau * (sigma * g - cut))[..., None]
        return (inner * (slope[..., None] * dq_f) + outer * g_dq,
                inner * (slope[..., None] * dp_f) + outer * g_dp)

    return HamiltonianField(name="core", manifold=sandwich.manifold,
                            value=value, grads=grads)


# -- integration ------------------------------------------------------------

@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str = "rk"           # "rk" (adaptive DOP853) | "midpoint"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.05       # default sample spacing of solve; midpoint's step
    drift_abort: float = 1e-6

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_step <= 0:
            raise ValueError("integrator tolerances must be positive")


@dataclass
class Trajectory:
    """Time-stamped phase-space samples in universal-cover coordinates."""

    times: np.ndarray
    q: np.ndarray            # (samples, d)
    p: np.ndarray
    energy: np.ndarray
    energy_drift: float
    stats: dict
    manifold: ModelManifold


def _sample_grid(t0: float, t1: float, max_step: float) -> np.ndarray:
    n = max(2, int(math.ceil((t1 - t0) / max_step)) + 1)
    if n % 2 == 0:
        n += 1  # odd count keeps composite Simpson exact-order
    return np.linspace(t0, t1, n)


def _flat_rhs(field: HamiltonianField, d: int):
    """The field's flat kernel, or the generic adapter over ``grads``; either
    writes dy/dt into its ``out``."""
    if field.flat_rhs is not None:
        return field.flat_rhs

    def rhs(t, y, out):
        n = y.size // (2 * d)
        q = y[: n * d].reshape(n, d)
        p = y[n * d:].reshape(n, d)
        gq, gp = field.grads(q, p)
        out[: n * d] = gp.ravel()
        np.negative(gq.ravel(), out=out[n * d:])
    return rhs


def integrate(field: HamiltonianField, x0: CotangentPoint, T: float,
              cfg: IntegratorConfig = IntegratorConfig(),
              t0: float = 0.0) -> Trajectory:
    """Integrate one initial condition over [t0, t0 + T], as a one-row
    ``integrate_batch`` sampled on the quadrature grid of ``cfg.max_step``."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    stats = {}
    times, Q, P = integrate_batch(field, x0.q, x0.p, T, cfg, t0=t0,
                                  stats=stats)
    q, p = Q[0], P[0]
    energy = field.value(q, p)
    drift = energy_drift(energy, cfg.drift_abort)
    return Trajectory(times=times, q=q, p=p, energy=energy,
                      energy_drift=drift, stats=stats, manifold=field.manifold)


def energy_drift(energy, abort: float = math.inf) -> float:
    """Largest |H(t) - H(0)| relative to max(1, |H(0)|); raises
    IntegrationDivergedError when it exceeds ``abort``."""
    h0 = float(energy[0])
    drift = float(np.max(np.abs(energy - h0)) / max(1.0, abs(h0)))
    if drift > abort:
        raise IntegrationDivergedError(
            f"energy drift {drift:.3e} exceeds abort bound {abort:.3e}")
    return drift


def integrate_batch(field: HamiltonianField, Q0, P0, T,
                    cfg: IntegratorConfig = IntegratorConfig(),
                    t0: float = 0.0, t_eval=None, at=None, stats=None,
                    sizes=None):
    """Integrate many initial conditions as one stacked system, or as
    several independent ones in lockstep.

    Returns (times, Q, P) with Q, P of shape (n, samples, d).  With ``at``,
    one index into ``t_eval`` per row, returns (q, p) of shape (n, d) instead:
    row r at ``t_eval[at[r]]`` only, the same bits as ``Q[r, at[r]]`` and
    ``P[r, at[r]]`` of the full read, with no other sample interpolated.  A
    ``stats`` dict gains the solve's ``nfev``, ``steps`` and ``rejected``.

    With ``sizes``, the rows are consecutive groups of those sizes, each its
    own system: ``T``, ``t_eval``, ``at`` and ``stats`` then hold one entry
    per group (None for all, an entry None for one, and several groups may
    share a stats dict), and the result is the list of what one call per
    group returns, with its bits and counters.  The groups advance in
    lockstep, one RHS call per stage over the rows of all of them.

    The rows of a group share one step sequence.  Each component has its own
    error scale, but one RMS norm over the group's stack accepts or rejects
    every step, so a row's bits depend on its group-mates and on the chunk
    sizes of the caller, never on the other groups of the call.
    """
    Q0 = np.atleast_2d(np.asarray(Q0, dtype=float))
    P0 = np.atleast_2d(np.asarray(P0, dtype=float))
    n, d = Q0.shape
    grouped = sizes is not None
    if not grouped:
        sizes, T, t_eval, at, stats = [n], [T], [t_eval], [at], [stats]
    t_eval, at, stats = ([None] * len(sizes) if x is None else x
                         for x in (t_eval, at, stats))
    if sum(sizes) != n or min(sizes) < 1:
        raise ValueError("group sizes must be positive and sum to the rows")
    ends = list(itertools.accumulate(sizes))
    spans = list(zip([0] + ends[:-1], ends))
    systems = [(np.concatenate([Q0[lo:hi].ravel(), P0[lo:hi].ravel()]),
                t0, t0 + T_g, grid,
                None if pos is None else np.tile(np.repeat(pos, d), 2))
               for (lo, hi), T_g, grid, pos in zip(spans, T, t_eval, at)]
    out = []
    for (lo, hi), pos, counter, (times, ys, counts) in zip(
            spans, at, stats, solve_groups(_flat_rhs(field, d), systems, cfg)):
        if counter is not None:
            for key in ("nfev", "steps", "rejected"):
                counter[key] = counter.get(key, 0) + counts[key]
        m = hi - lo
        if pos is not None:
            out.append((ys[: m * d].reshape(m, d), ys[m * d:].reshape(m, d)))
            continue
        S = len(times)
        out.append((times, ys[: m * d].reshape(m, d, S).transpose(0, 2, 1),
                    ys[m * d:].reshape(m, d, S).transpose(0, 2, 1)))
    return out if grouped else out[0]


def solve(rhs, y0, t0, t1, cfg: IntegratorConfig, t_eval=None, reads=None):
    """Integrate y' = rhs(t, y) over [t0, t1] with the configured scheme;
    ``rhs(t, y, out)`` writes dy/dt into ``out``, whatever ``out`` held.

    Returns (times, ys, stats) with ys of shape (len(y0), samples), sampled
    on ``t_eval`` (default: the quadrature grid of ``cfg.max_step``), which
    must increase strictly from t0 to t1.  With ``reads``, one index into
    ``t_eval`` per component, ys is instead the vector of each component at
    its own sample, the same bits as the full read; the step sequence does
    not change.  ``stats`` counts RHS calls (``nfev``), accepted and
    rejected steps and samples.
    """
    return solve_groups(rhs, [(y0, t0, t1, t_eval, reads)], cfg)[0]


def solve_groups(rhs, systems, cfg: IntegratorConfig):
    """``solve`` of each system (y0, t0, t1, t_eval, reads), in one call, each
    with the bits and counters of its own ``solve``: DOP853 advances them in
    lockstep, the midpoint scheme one by one.  With several systems, each
    ``y0`` is ``[Q.ravel(), P.ravel()]`` of its rows, and ``rhs`` must not
    read t (see ``_dop853``)."""
    groups = []
    for y0, t0, t1, t_eval, reads in systems:
        t_eval = np.asarray(_sample_grid(t0, t1, cfg.max_step)
                            if t_eval is None else t_eval, dtype=float)
        if (t_eval.ndim != 1 or len(t_eval) < 2 or t_eval[0] != t0
                or t_eval[-1] != t1 or np.any(np.diff(t_eval) <= 0)):
            raise ValueError("t_eval must increase strictly from t0 to t1")
        if reads is not None:
            reads = np.asarray(reads)
            if (reads.shape != (len(y0),) or reads.dtype.kind not in "iu"
                    or np.any(reads < 0) or np.any(reads >= len(t_eval))):
                raise ValueError(
                    "reads must hold one sample index per component")
            reads = _SampleReads(reads, len(t_eval))
        groups.append((y0, t_eval, reads))
    if cfg.scheme == "midpoint":
        return [_implicit_midpoint(rhs, y0, t_eval, cfg, reads)
                for y0, t_eval, reads in groups]
    return _dop853(rhs, groups, cfg)


class _SampleReads:
    """The components that read each sample, grouped by sample."""

    def __init__(self, reads, samples):
        self.index = reads
        self.by_sample = np.argsort(reads, kind="stable")
        self.starts = np.searchsorted(reads[self.by_sample],
                                      np.arange(samples + 1))

    def components(self, lo, hi):
        """The components whose sample lies in [lo, hi)."""
        return self.by_sample[self.starts[lo]:self.starts[hi]]


def _load_dop853_tableau():
    """scipy's DOP853 coefficients, run from their file: importing them as
    ``scipy.integrate._ivp.dop853_coefficients`` would first run
    ``scipy.integrate``'s package init, which loads most of scipy."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = Path(root) / "integrate" / "_ivp" / "dop853_coefficients.py"
    spec = importlib.util.spec_from_file_location("_dop853_coefficients", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DOP853 = _load_dop853_tableau()
_STAGES = _DOP853.N_STAGES                         # 12; K gains f_new as row 12
_EXTENDED = _DOP853.N_STAGES_EXTENDED              # 16: 3 more for the interpolant
_NODES = [float(c) for c in _DOP853.C]
_WEIGHTS = [_DOP853.A[s, :s] for s in range(_EXTENDED)]
_B, _E3, _E5, _D = _DOP853.B, _DOP853.E3, _DOP853.E5, _DOP853.D
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8                           # -1 / (error order 7 + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class _Group:
    """One system of a lockstep DOP853 solve: its grid, reads, output, step
    state and counters, and its offset ``o`` in the solve's flat buffers."""

    __slots__ = ("times", "t_eval", "reads", "n", "out", "t", "t_bound",
                 "h_abs", "h", "t_new", "min_step", "step_rejected",
                 "new_step", "sampled", "sample_to", "nfev", "steps",
                 "rejected", "o")

    def __init__(self, y0, t_eval, reads):
        self.t_eval, self.reads, self.n = t_eval, reads, len(y0)
        self.times = t_eval.tolist()
        self.t, self.t_bound = self.times[0], self.times[-1]
        self.out = np.empty((self.n, len(self.times)) if reads is None
                            else self.n)
        self.sampled = self.steps = self.rejected = 0
        self.nfev = 2                   # f and the initial step's probe
        self.new_step = True
        self.h = -0.0                   # f's time t + 0 h is then t, even -0.0


class _Stack:
    """The live groups of a lockstep DOP853 solve at their offsets ``g.o``
    in its flat buffers: ``y``, ``y_new`` and ``dy`` hold each group's own
    vector, ``h`` its step per component, ``z`` and ``fz`` the kernel's
    input and output, and ``K`` each group's (16, n) stage block, whose row
    0 is its f.

    Consecutive groups of one size form a run: one ``np.matmul`` per stage
    reads the run's blocks as one (k, 16, m) stack, with each block's own
    ``np.dot`` bits (``np.dot`` itself for a run of one).  Elementwise work
    runs once over the flat buffers, for one group as for several.  Only
    ``evaluate`` tells them apart.  One kernel call per stage serves every
    group: a lone group's kernel reads its own vector and writes its stage
    row in place, while several meet the kernel as one vector in its layout,
    all first halves (q) and then all second halves (p), gathered into
    ``z`` from the runs' strided views, and its output ``fz`` is scattered
    back into their stage rows.
    """

    def __init__(self, groups, bufs, K):
        self.groups = groups
        self.size = size = sum(g.n for g in groups)
        self.half = size // 2
        self.flat = {name: buf[:size] for name, buf in bufs.items()}
        self.y, self.y_new, self.dy, self.h, self.z, self.fz = (
            self.flat[name] for name in ("y", "y_new", "dy", "h", "z", "fz"))
        self.runs = []
        i = lo = 0
        while i < len(groups):
            o, m = groups[i].o, groups[i].n
            j = i + 1
            while (j < len(groups) and groups[j].n == m
                   and groups[j].o == o + (j - i) * m):
                j += 1
            self.runs.append(_Run(groups[i:j], o, m, lo, self, K))
            lo += (j - i) * (m // 2)
            i = j
        self.K0 = list(self.runs[0].K3[0])  # the first group's stage rows
        self.sums = [(run.sums, run.KT, run.own["dy"]) for run in self.runs]

    def set_steps(self):
        """Each component's step, from its group's ``h``."""
        for g in self.groups:
            self.h[g.o:g.o + g.n] = g.h

    def evaluate(self, rhs, name, s, c):
        """Stage row ``s`` of every block: the RHS at the flat buffer
        ``name``, in one kernel call.  One group's kernel writes its stage
        row in place, at its t + c h; several go into the kernel's layout
        and back, at t None."""
        if len(self.groups) == 1:
            g = self.groups[0]
            rhs(g.t + c * g.h, self.flat[name], self.K0[s])
            return
        for run in self.runs:
            run.z[...] = run.halves[name]
        rhs(None, self.z, self.fz)
        for run in self.runs:
            run.rows[s][...] = run.fz

    def stages(self, rhs, first, last):
        """Stage rows first..last-1 of every block: the RHS at ``y + h *
        (K[:s].T @ _WEIGHTS[s])``, formed in ``dy``, each group with its own
        step h, at its t + c_s h."""
        y, dy, steps = self.y, self.dy, self.h
        for s in range(first, last):
            for dot, KT, out in self.sums:
                dot(KT[s], _WEIGHTS[s], out=out)
            dy *= steps
            dy += y
            self.evaluate(rhs, "dy", s, _NODES[s])

    def attempt(self, rhs, atol, rtol):
        """One step of every group with its own h: stage rows 1..12, y_new,
        and per group the squared norms of ``(K[:13].T @ E) / scale`` for
        E5 and E3 (scale = atol + max(|y|, |y_new|) rtol), each the ddot of
        the group's own contiguous vector."""
        self.set_steps()
        self.stages(rhs, 1, _STAGES)
        # y_new, and f_new as stage row 12
        y, y_new = self.y, self.y_new
        for run in self.runs:
            run.sums(run.KT[_STAGES], _B, out=run.own["y_new"])
        y_new *= self.h
        y_new += y
        self.evaluate(rhs, "y_new", _STAGES, 1.0)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err = self.dy
        sq = []
        for weights in (_E5, _E3):
            for run in self.runs:
                run.sums(run.KT[_STAGES + 1], weights, out=run.own["dy"])
            err /= scale
            sq.append([])
            for run in self.runs:
                if run.rows_cols is None:
                    e = run.own["dy"]
                    sq[-1].append(e.dot(e))
                else:
                    sq[-1] += np.matmul(*run.rows_cols)[:, 0, 0].tolist()
        return zip(*sq)

    def accept(self):
        """Move the groups whose step was accepted to t_new, y_new and f
        (stage row 12 into row 0)."""
        taken = [g.new_step for g in self.groups]
        if all(taken):
            self.y[...] = self.y_new
        elif any(taken):
            np.copyto(self.y, self.y_new,
                      where=np.repeat(taken, [g.n for g in self.groups]))
        for run in self.runs:
            done = [g.new_step for g in run.groups]
            if all(done):
                run.K3[:, 0] = run.K3[:, _STAGES]
            elif any(done):
                np.copyto(run.K3[:, 0], run.K3[:, _STAGES],
                          where=np.array(done)[:, None])
        for g in self.groups:
            if g.new_step:
                g.t = g.t_new


class _Run:
    """Consecutive groups of one size m in a ``_Stack``: their stage blocks
    as one (k, 16, m) stack with ``KT[s]`` the operand of stage s's sums,
    their part ``own[name]`` of each group's own flat buffer (one vector for
    a run of one, whose error norms ``np.dot`` takes; for several,
    ``rows_cols`` holds ``own["dy"]`` as (k, 1, m) and (k, m, 1), the
    operands of their stacked norms), and, when the stack holds several
    groups, for the kernel's layout their halves ``halves[name]`` and
    ``rows[s]`` of stage row s, and their rows [lo, hi) of each half of
    ``z`` and ``fz``, all (2, k, m / 2) views."""

    __slots__ = ("groups", "K3", "KT", "sums", "own", "rows_cols", "halves",
                 "rows", "z", "fz", "lo", "hi")

    def __init__(self, groups, o, m, lo, stack, K):
        k, hm = len(groups), m // 2
        self.groups, self.lo, self.hi = groups, lo, lo + k * hm
        self.K3 = K[_EXTENDED * o:_EXTENDED * (o + k * m)].reshape(
            k, _EXTENDED, m)
        span, shape = slice(o, o + k * m), (k, m)
        if k == 1:
            self.sums, shape = np.dot, (m,)
            self.KT = [self.K3[0, :s].T for s in range(_EXTENDED + 1)]
        else:
            self.sums = np.matmul
            self.KT = [self.K3[:, :s].transpose(0, 2, 1)
                       for s in range(_EXTENDED + 1)]
        self.own = {name: stack.flat[name][span].reshape(shape)
                    for name in ("y", "y_new", "dy", "h")}
        e = self.own["dy"]
        self.rows_cols = None if k == 1 else (e[:, None, :], e[:, :, None])
        if len(stack.groups) == 1:      # its kernel reads its own vector
            return
        self.halves = {name: stack.flat[name][span].reshape(
            k, 2, hm).transpose(1, 0, 2) for name in ("y", "y_new", "dy")}
        self.rows = [self.K3[:, s].reshape(k, 2, hm).transpose(1, 0, 2)
                     for s in range(_EXTENDED)]
        self.z, self.fz = (buf.reshape(2, stack.half)[:, lo:self.hi].reshape(
            2, k, hm) for buf in (stack.z, stack.fz))


def _dop853(rhs, groups, cfg):
    """DOP853 of independent systems in lockstep: each ``(y0, t_eval,
    reads)`` of ``groups`` over [t_eval[0], t_eval[-1]] with one step for
    all its components, sampled on ``t_eval`` by the 7th-order interpolant,
    or with ``reads`` (a ``_SampleReads``) each component at its own
    sample only.  Returns one (t_eval, ys, stats) per group.

    Each group runs scipy 1.17's ``solve_ivp(method="DOP853")`` operation
    for operation, so that its results are the same bits: the initial step
    guess, the stage sums as ``np.dot`` on the rows of its own (16, n) stage
    block, the RMS error norm of the 5th- and 3rd-order estimators, the step
    controller (safety 0.9, factors in [0.2, 10], no growth right after a
    rejection) and its 10-ulp minimum step, and the three extra stages of
    the interpolant on those steps only that hold a sample.  ``rel_tol`` is
    clamped at 100 eps with a warning, a non-finite ``y0`` is a ValueError,
    and a step below the minimum (where a non-finite RHS ends up, and also a
    non-finite step, which would loop in scipy) raises StiffnessError.
    ``reads`` narrows the interpolant's elementwise Horner loop alone: the
    steps, stages and the ``_D`` product still run over the group's whole
    stack, as BLAS on a column subset need not give the same bits.

    The groups share the loop: per iteration every live group attempts one
    step of its own size, with the same arithmetic for one group as for
    several (``_Stack``), and each stage is one call ``rhs(t, y, out)``,
    which writes dy/dt into ``out``.  A lone live group hands ``rhs`` its
    own vector and its stage row in place, at its stage time; several hand
    it the rows of all of them at t None, so each vector must then be
    ``[Q.ravel(), P.ravel()]`` of its rows and ``rhs`` must not read t.
    A group's error norm, steps and counters never see another group.
    """
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    if rtol < _RTOL_FLOOR:
        warnings.warn(f"rel_tol {rtol:.3g} is below 100 eps; using "
                      f"{_RTOL_FLOOR:.3g}", stacklevel=4)
        rtol = _RTOL_FLOOR
    starts = [np.asarray(y0, dtype=float) for y0, _, _ in groups]
    if not all(y0.ndim == 1 and y0.size and np.isfinite(y0).all()
               for y0 in starts):
        raise ValueError("the initial state must be a finite, non-empty vector")
    everyone = [_Group(y0, t_eval, reads)
                for y0, (_, t_eval, reads) in zip(starts, groups)]
    # equal sizes side by side, so that they form runs
    live = sorted(everyone, key=lambda g: g.n)
    size = sum(g.n for g in live)
    bufs = {name: np.empty(size)
            for name in ("y", "y_new", "dy", "h", "z", "fz")}
    K = np.empty(_EXTENDED * size)
    o = 0
    for g in live:
        g.o, o = o, o + g.n
    for g, y0 in zip(everyone, starts):
        bufs["y"][g.o:g.o + g.n] = y0
    stack = _Stack(live, bufs, K)

    # initial step (Hairer, Norsett and Wanner, Sec. II.4): f into stage
    # row 0, the probe's f1 into row 1
    y = stack.y
    stack.evaluate(rhs, "y", 0, 0.0)
    guesses = []
    for run in stack.runs:
        for i, g in enumerate(run.groups):
            y0, f = y[g.o:g.o + g.n], run.K3[i, 0]
            scale = atol + np.abs(y0) * rtol
            d0, d1 = _rms(y0 / scale), _rms(f / scale)
            g.h = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1,
                      g.t_bound - g.t)
            guesses.append((run, i, scale, d1))
    stack.set_steps()
    for run in stack.runs:
        np.multiply(run.K3[:, 0].reshape(run.own["h"].shape), run.own["h"],
                    out=run.own["dy"])
    stack.dy += y
    stack.evaluate(rhs, "dy", 1, 1.0)
    for run, i, scale, d1 in guesses:
        g = run.groups[i]
        d2 = _rms((run.K3[i, 1] - run.K3[i, 0]) / scale) / g.h
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, g.h * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.125
        g.h_abs = float(min(100 * g.h, h1, g.t_bound - g.t))

    while live:
        for g in live:
            if g.new_step:
                g.min_step = 10 * abs(math.nextafter(g.t, math.inf) - g.t)
                g.h_abs = max(g.h_abs, g.min_step)
                g.step_rejected = g.new_step = False
            if not g.h_abs >= g.min_step:
                raise StiffnessError("integrator failed: Required step size "
                                     "is less than spacing between numbers.")
            g.t_new = min(g.t + g.h_abs, g.t_bound)
            g.h = g.t_new - g.t
            g.h_abs = abs(g.h)
        sampling = finished = False
        # the runs hold the live groups in order
        for g, (sq5, sq3) in zip(live, stack.attempt(rhs, atol, rtol)):
            g.nfev += _STAGES
            error_norm = _error_norm(g.h, sq5, sq3, g.n)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error_norm ** _ERROR_EXPONENT))
                if g.step_rejected:
                    factor = min(1, factor)
                g.h_abs *= factor
                g.new_step = True
                g.steps += 1
                g.sample_to = bisect.bisect_right(g.times, g.t_new, g.sampled)
                sampling |= g.sample_to > g.sampled
                finished |= g.t_new >= g.t_bound
            else:
                g.h_abs *= max(_MIN_FACTOR,
                               _SAFETY * error_norm ** _ERROR_EXPONENT)
                g.step_rejected = True
                g.rejected += 1
        if sampling:
            _dense_output(rhs, stack)
        stack.accept()
        if finished:
            live = [g for g in live if g.t < g.t_bound]
            if not live:
                break
            # the others move down, in order, so that no move overwrites a
            # group: their y and f (stage row 0) go along
            y, o = stack.y, 0
            for g in live:
                y[o:o + g.n] = y[g.o:g.o + g.n]
                K[_EXTENDED * o:_EXTENDED * o + g.n] = K[
                    _EXTENDED * g.o:_EXTENDED * g.o + g.n]
                g.o, o = o, o + g.n
            stack = _Stack(live, bufs, K)
    return [(g.t_eval, g.out, {"nfev": g.nfev, "steps": g.steps,
                               "rejected": g.rejected,
                               "samples": len(g.times)})
            for g in everyone]


def _dense_output(rhs, stack):
    """The interpolant of every group whose accepted step holds a sample of
    its grid, as scipy's Dop853DenseOutput evaluates it: the three extra
    stages (run over the whole stack, read by those groups only), the
    interpolant's coefficients (one stacked evaluation per run) and each
    group's Horner sum on its samples in (t, t_new]."""
    stack.stages(rhs, _STAGES + 1, _EXTENDED)
    for run in stack.runs:
        wanted = [(i, g) for i, g in enumerate(run.groups)
                  if g.new_step and g.sample_to > g.sampled]
        if not wanted:
            continue
        y_old, y = run.own["y"], run.own["y_new"]
        if len(run.groups) == 1:
            g = run.groups[0]
            _interpolate(g, _coefficients(g.h, run.K3[0], y_old, y), y_old)
            continue
        F = _coefficients(run.own["h"][:, :1], run.K3, y_old, y)
        for i, g in wanted:
            _interpolate(g, F[:, i], y_old[i])


def _coefficients(h, K, y_old, y):
    """The interpolant's 7 coefficient rows of a step of size h from y_old
    to y with stage block K (16, n), or of a stack of them: K (k, 16, n)
    with h (k, 1), each group's rows the bits of its own evaluation."""
    delta_y = y - y_old
    F = np.empty((_DOP853.INTERPOLATOR_POWER,) + delta_y.shape)
    f_old, f = K[..., 0, :], K[..., _STAGES, :]
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    if K.ndim == 2:
        F[3:] = h * np.dot(_D, K)
    else:
        F[3:] = (h[..., None] * np.matmul(_D, K)).transpose(1, 0, 2)
    return F


def _interpolate(g, F, y_old):
    """Group g's samples in (t, t_new] from its coefficient rows F."""
    g.nfev += _EXTENDED - _STAGES - 1
    lo, hi = g.sampled, g.sample_to
    x = (g.t_eval[lo:hi] - g.t) / (g.t_new - g.t)
    if g.reads is None:
        x, base = x[:, None], y_old
        ys = np.zeros((hi - lo, g.n))
    else:
        comps = g.reads.components(lo, hi)
        x = x[g.reads.index[comps] - lo]
        F, base = F[:, comps], y_old[comps]
        ys = np.zeros(len(comps))
    one_minus_x = 1 - x
    for i, row in enumerate(F[::-1]):
        ys += row
        ys *= one_minus_x if i % 2 else x
    ys += base
    if g.reads is None:
        g.out[:, lo:hi] = ys.T
    else:
        g.out[comps] = ys
    g.sampled = hi


def _error_norm(h, sq5, sq3, size):
    """scipy's DOP853 error norm from the squared norms of the 5th- and
    3rd-order estimates: their RMS, the 5th damped by the 3rd."""
    err5_norm_2 = math.sqrt(sq5) ** 2
    err3_norm_2 = math.sqrt(sq3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    if denom == 0:   # an underflow, 0 / 0 in scipy's numpy scalars
        return math.nan
    return abs(h) * err5_norm_2 / math.sqrt(denom * size)


def _implicit_midpoint(rhs, y0, t_eval, cfg, reads=None):
    """Implicit midpoint across each interval of ``t_eval`` in equal steps of
    at most ``cfg.max_step``, so every sample is a step endpoint; with
    ``reads`` each component keeps the endpoint at its own sample only."""
    y = np.asarray(y0, dtype=float)
    f = np.empty_like(y)                # the kernel's output
    out = np.empty((len(y0), len(t_eval)) if reads is None else len(y0))

    def keep(j, y):
        if reads is None:
            out[:, j] = y
        else:
            comps = reads.components(j, j + 1)
            out[comps] = y[comps]

    keep(0, y)
    nfev = total_steps = 0
    for i in range(len(t_eval) - 1):
        t, dt = t_eval[i], t_eval[i + 1] - t_eval[i]
        # the tolerance keeps a spacing of max_step plus rounding at one step
        steps = max(1, math.ceil(dt / cfg.max_step - 1e-9))
        h = dt / steps
        for _ in range(steps):
            y, calls = _midpoint_step(rhs, t, y, h, f)
            nfev += calls
            t += h
        total_steps += steps
        keep(i + 1, y)
    return t_eval, out, {"nfev": nfev, "steps": total_steps, "rejected": 0,
                         "samples": len(t_eval)}


def _midpoint_step(rhs, t, y, h, f):
    """One implicit midpoint step by fixed-point iteration, with ``f`` the
    kernel's output; returns the new state and the number of RHS calls (the
    explicit predictor included)."""
    rhs(t, y, f)
    mid = y + 0.5 * h * f
    for iteration in range(1, 61):
        rhs(t + 0.5 * h, mid, f)
        new_mid = y + 0.5 * h * f
        done = np.max(np.abs(new_mid - mid)) < 1e-14 * (1 + np.max(np.abs(mid)))
        mid = new_mid
        if done:
            return 2.0 * mid - y, 1 + iteration
    raise StiffnessError("implicit midpoint iteration stalled")


# -- action functional -------------------------------------------------------

def simpson(y, x):
    """Composite Simpson's rule of samples ``y`` at increasing abscissae
    ``x``, equal bit for bit to scipy 1.17's ``simpson(y, x=x)`` on 1-D
    input.  For an even number of samples the rule covers all but the last
    interval, which gets Cartwright's three-point correction."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)
    if n == 2:
        return 0.0 + (0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2]))
    if n % 2:
        return _basic_simpson(y, x, n - 2)
    result = _basic_simpson(y, x, n - 3)
    diffs = np.diff(x)
    h0, h1 = np.asarray(diffs[-2]), np.asarray(diffs[-1])
    alpha = _divide(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _divide(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
    eta = _divide(1 * h1 ** 3, 6 * h0 * (h0 + h1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result + 0.0


def _basic_simpson(y, x, stop):
    """Simpson's rule for unequal spacing over the samples [0, stop + 2)."""
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = _divide(h0, h1)
    tmp = hsum / 6.0 * (y[0:stop:2] * (2.0 - _divide(1.0, h0divh1))
                        + y[1:stop + 1:2] * (hsum * _divide(hsum, hprod))
                        + y[2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(tmp)


def _divide(a, b):
    """a / b, and 0 where b is 0."""
    return np.true_divide(a, b, out=np.zeros_like(b), where=b != 0)


def action_of_trajectory(traj: Trajectory, field: HamiltonianField) -> float:
    """Quadrature of the classical action integral(p . dq/dt - H) dt.

    Composite Simpson on the stored samples; chords should be parametrized
    on [0, 1] (rescale n-fold Hamiltonians rather than the time interval).
    """
    if len(traj.times) < 5:
        raise ValueError("too few samples for the action quadrature")
    qdot = field.velocity(traj.q, traj.p)
    integrand = np.sum(traj.p * qdot, axis=-1) - field.value(traj.q, traj.p)
    return float(simpson(integrand, x=traj.times))


def action_homogeneous(h_prime: float, h_val: float, H_val: float) -> float:
    """Critical value of the action for h(H) with H homogeneous of degree 2."""
    return 2.0 * h_prime * H_val - h_val


def verify_scaling_law(field: HamiltonianField, chord: Trajectory,
                       c: float) -> tuple[float, float]:
    """Check the inverse-scaling of action spectra for degree-2 Hamiltonians.

    Scales the chord covectors by 1/c, verifies the scaled path solves the
    c*H equations (max residual returned second), and returns the relative
    mismatch |A_{cH}(scaled) - A_H(chord)/c| / |A_H(chord)|.
    """
    if c <= 0:
        raise ValueError("scale factor must be positive")
    cfield = scaled_field(field, c)
    scaled = Trajectory(times=chord.times, q=chord.q, p=chord.p / c,
                        energy=chord.energy / c, energy_drift=chord.energy_drift,
                        stats=chord.stats, manifold=chord.manifold)
    # residual of the scaled path against the c*H equations
    qdot_ref, pdot_ref = field.rhs(chord.q, chord.p)
    qdot_new, pdot_new = cfield.rhs(scaled.q, scaled.p)
    res = max(float(np.max(np.abs(qdot_new - qdot_ref))),
              float(np.max(np.abs(pdot_new - pdot_ref / c))))
    a_ref = action_of_trajectory(chord, field)
    a_new = action_of_trajectory(scaled, cfield)
    rel = abs(a_new - a_ref / c) / max(abs(a_ref), 1e-300)
    return rel, res


def classify_chord_action(chord: Trajectory, sandwich: SandwichedHamiltonians,
                          n: int, tol: float = 1e-6):
    """Classify a chord of n*core by its position relative to the surface and
    assert the matching action inequality.

    Returns (label, action) with label in {"inside", "outside",
    "boundary-ambiguous"}.  Raises on an inequality violation.
    """
    gauge = sandwich.gauge(chord.q, chord.p)
    action = action_of_trajectory(chord, scaled_field(core_field(sandwich), n))
    gmax, gmin = float(np.max(gauge)), float(np.min(gauge))
    if gmax < 1.0 - tol:
        label = "inside"
        if not action < n:
            raise InvariantFailureError(
                f"inside chord has action {action} >= {n}")
    elif gmin > 1.0 + tol:
        label = "outside"
        if not action > n:
            raise InvariantFailureError(
                f"outside chord has action {action} <= {n}")
    else:
        label = "boundary-ambiguous"
    return label, action


# -- lockstep damped Newton ----------------------------------------------------

# Newton outcomes of a candidate.  When several hold in one sweep the first
# listed wins; "outside_window" is the census's mark for a root it converged
# to outside its time window, "sweep_cap" one still live at the last sweep.
NEWTON_OUTCOMES = ("converged", "blowup", "damping_floor", "singular",
                   "outside_window", "sweep_cap")
CONVERGED, BLOWUP, DAMPING_FLOOR, SINGULAR, OUTSIDE_WINDOW, SWEEP_CAP = range(6)


def solve_stacked(jac, rhs):
    """``(step, singular)`` of a (k, d, d) Jacobian stack against rhs (k, d):
    one stacked solve, or row by row with the singular rows flagged if any
    matrix is singular; each step equals a per-row ``np.linalg.solve``."""
    singular = np.zeros(len(rhs), dtype=bool)
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], singular
    except np.linalg.LinAlgError:
        step = np.zeros_like(rhs)
        for r in range(len(rhs)):
            try:
                step[r] = np.linalg.solve(jac[r], rhs[r])
            except np.linalg.LinAlgError:
                singular[r] = True
        return step, singular


def lockstep_newton(n, linearize, move, *, tol, max_sweeps, blowup=None):
    """Damped Newton on ``n`` independent candidates at once; returns each
    candidate's index into ``NEWTON_OUTCOMES``.

    Per sweep, ``linearize(idx)`` evaluates the live candidates ``idx`` and
    returns their residuals (k, m) and ``jacobian(rows)``, the (r, m, m)
    Jacobians of the rows of ``idx`` still live after the outcome checks.
    One stacked solve gives the steps; ``move(i, step, alpha)`` moves the
    unknowns of ``i`` by ``alpha * step``.  ``alpha`` halves when the
    residual norm did not drop and doubles (up to 1) when it did.  A
    candidate converges at a residual norm of at most ``tol``, blows up
    above ``blowup`` times its first one (never, when None) and gives up
    once ``alpha < 2^-9``.
    """
    alpha = np.ones(n)
    outcome = np.full(n, SWEEP_CAP)
    rnorm = np.full(n, np.inf)
    seed_norm = np.full(n, np.inf)
    for _ in range(max_sweeps):
        idx = np.nonzero(outcome == SWEEP_CAP)[0]
        if len(idx) == 0:
            break
        res, jacobian = linearize(idx)
        rn = np.linalg.norm(res, axis=1)
        increased = rn > rnorm[idx] * (1.0 - 1e-4 * alpha[idx])
        first = ~np.isfinite(rnorm[idx])
        seed_norm[idx[first]] = rn[first]
        alpha[idx[increased & ~first]] *= 0.5
        alpha[idx[~increased & ~first]] = np.minimum(
            1.0, alpha[idx[~increased & ~first]] * 2.0)
        rnorm[idx] = rn
        # convergence, then the divergence guards
        blown = (rn > blowup * seed_norm[idx] + 1e-9 if blowup is not None
                 else np.zeros(len(idx), dtype=bool))
        outcome[idx] = np.select([rn <= tol, blown, alpha[idx] < 2 ** -9],
                                 [CONVERGED, BLOWUP, DAMPING_FLOOR], SWEEP_CAP)

        rows = np.nonzero(outcome[idx] == SWEEP_CAP)[0]
        if len(rows) == 0:
            continue
        step, singular = solve_stacked(jacobian(rows), -res[rows])
        outcome[idx[rows[singular]]] = SINGULAR
        i = idx[rows[~singular]]
        move(i, step[~singular], alpha[i])
    return outcome


# -- fixed-time fiber-to-fiber chords (flat base) -----------------------------

_SHOOT_DURATION = 1.0      # the fixed arrival time of a shot chord
_SHOOT_COARSE = 0.35       # arrival distance that makes a grid covector a seed
_SHOOT_TOL = 1e-10         # Newton residual of an accepted chord
_SHOOT_SWEEPS, _SHOOT_FD_STEP, _SHOOT_MAX_RECORDS = 40, 1e-7, 4000


def flat_flow(field: HamiltonianField, q0, P, t):
    """The time-t map (q0 + t dH/dp(q0, P), P) of a field that depends on p
    alone on a flat model, whose flow keeps p and translates q; ``t`` is one
    time, or one per row of ``P``."""
    P = np.asarray(P, dtype=float)
    v = field.grads(np.broadcast_to(q0, P.shape), P)[1]
    return q0 + np.asarray(t, dtype=float)[..., None] * v, P


def shoot_fixed_time_chords(field: HamiltonianField, q0, q1, *,
                            p_max: float = 3.2, grid: int = 48,
                            cfg: IntegratorConfig):
    """Find solutions x(0) in the fiber over q0 with base(x(1)) on a lift of
    q1, for a field on a flat model that depends on p alone (the action
    experiments).

    p is then constant and the time-1 map is ``flat_flow``'s
    q0 + dH/dp(p0): grid covectors landing within ``_SHOOT_COARSE`` of a
    lift seed ``lockstep_newton`` on that closed form.  The accepted chords
    are integrated densely, and an endpoint more than ``10 * _SHOOT_TOL``
    off its lift (dH/dq != 0) raises InvariantFailureError.  Returns
    (trajectory, deck) pairs, deduplicated in (covector, deck) and sorted
    by (deck, covector).
    """
    manifold = field.manifold
    if not manifold.flat:
        raise ValueError("fixed-time chord shooting expects a flat model")
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    axis = np.linspace(-p_max, p_max, grid)
    px, py = np.meshgrid(axis, axis)
    P0 = np.stack([px.ravel(), py.ravel()], axis=-1)

    deck0, dist = manifold.nearest_lift(
        flat_flow(field, q0, P0, _SHOOT_DURATION)[0], q1)
    near = np.nonzero(dist < _SHOOT_COARSE)[0]

    # lockstep damped Newton in the covector against each seed's fixed lift
    P, lifts = P0[near], manifold.deck_apply(deck0[near], q1)
    h = _SHOOT_FD_STEP

    def linearize(idx):
        k = len(idx)
        ends, _ = flat_flow(field, q0, np.concatenate(
            [P[idx], P[idx] + np.array([h, 0.0]), P[idx] + np.array([0.0, h])]),
            _SHOOT_DURATION)

        def jacobian(rows):
            return np.stack([(ends[k + rows] - ends[rows]) / h,
                             (ends[2 * k + rows] - ends[rows]) / h], axis=-1)

        return ends[:k] - lifts[idx], jacobian

    def move(i, step, alpha):
        P[i] = P[i] + alpha[:, None] * step

    outcome = lockstep_newton(len(P), linearize, move, tol=_SHOOT_TOL,
                              max_sweeps=_SHOOT_SWEEPS)
    # a root within _SHOOT_TOL of its seed's lift keeps the seed's deck; in
    # (deck, covector) order the first of each 1e-6 cluster wins
    clusters = {}
    for deck, p, i in sorted((tuple(deck0[near[i]].tolist()), tuple(P[i]), i)
                             for i in np.nonzero(outcome == CONVERGED)[0]):
        roots = clusters.setdefault(deck, {})
        if all(math.dist(p, r) >= 1e-6 for r in roots):
            roots[p] = i
    sel = [i for roots in clusters.values()
           for i in roots.values()][:_SHOOT_MAX_RECORDS]
    if not sel:
        return []
    # dense chords in one batch, for the quadrature and as re-verification
    P_sel = P[sel]
    Q_sel = np.broadcast_to(q0, P_sel.shape).copy()
    t_grid = _sample_grid(0.0, _SHOOT_DURATION, cfg.max_step)
    _, Q, Pt = integrate_batch(field, Q_sel, P_sel, _SHOOT_DURATION, cfg,
                               t_eval=t_grid)
    miss = np.linalg.norm(Q[:, -1] - lifts[sel], axis=-1)
    if not np.all(miss <= 10 * _SHOOT_TOL):
        raise InvariantFailureError(
            f"integrated chord misses its lift by {np.max(miss):.3e}: the "
            f"closed-form time-1 map needs a field that depends on p alone")
    records = []
    for j, i in enumerate(sel):
        energy = field.value(Q[j], Pt[j])
        records.append((Trajectory(times=t_grid, q=Q[j], p=Pt[j],
                                   energy=energy,
                                   energy_drift=energy_drift(energy),
                                   stats={}, manifold=manifold),
                        tuple(deck0[near[i]].tolist())))
    return records


# -- radial chord spectra on the flat torus ----------------------------------

def flat_action_spectrum(manifold: ModelManifold, q0, q1, n: int,
                         bound: float):
    """Action spectrum of n * (geodesic energy) between two torus fibers:
    |w|^2 / (2n) over lattice-shifted separations w, up to ``bound``."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    w_cap = math.sqrt(2.0 * n * bound)
    return sorted(np.dot(w, w) / (2.0 * n)
                  for w in manifold.lattice_translates(q1 - q0, w_cap))


def exclusion_level(n: int, spectrum) -> float:
    """Midpoint of the widest spectrum gap inside (n, n+1)."""
    pts = [n] + sorted(v for v in spectrum if n < v < n + 1) + [n + 1]
    gaps = [(pts[i + 1] - pts[i], i) for i in range(len(pts) - 1)]
    width, i = max(gaps)
    if width < 1e-3:
        raise InvariantFailureError("no usable spectrum gap in (n, n+1)")
    return 0.5 * (pts[i] + pts[i + 1])


_RHO_MAX = 4.6        # largest radial speed scanned for chords
_RHO_SAMPLES = 6000
_RHO_XTOL, _RHO_BISECTIONS = 1e-14, 64   # a scan bracket needs 37 halvings


def radial_chord_actions(sandwich: SandwichedHamiltonians, n: int, t: float,
                         q0, q1):
    """All chord actions up to n + 2 of n * blend(t) between two fibers of
    the flat torus with a round profile.

    The blend is h(G) with G radial there, so a chord to the shifted target
    w exists for each speed rho solving n h'(rho^2/2) rho = |w|; its action
    follows from the homogeneous action formula applied to h.  A sign scan
    brackets the roots for every |w|; one bisection narrows them all at once.
    """
    if sandwich.manifold.kind != "torus" or sandwich.profile.kind != "round":
        raise ValueError("radial chord enumeration needs a round torus profile")
    h, h_prime = sandwich.blend_profile(t)
    rho = np.linspace(1e-9, _RHO_MAX, _RHO_SAMPLES)
    speed = n * h_prime(0.5 * rho ** 2) * rho
    w_cap = float(np.max(speed)) * 1.0000001
    delta = np.asarray(q1, dtype=float) - np.asarray(q0, dtype=float)
    w = sandwich.manifold.lattice_translates(delta, w_cap)
    # np.linalg.norm's dot product of one vector, per translate
    lengths = np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0]).tolist()
    norms = np.array(sorted({round(v, 12) for v in lengths} - {0.0}))
    # speed - |w| changes sign on [rho_i, rho_i+1] for the |w| strictly
    # between speed_i and speed_i+1: one sorted lookup per scan interval
    ends = np.sort(np.stack([speed[:-1], speed[1:]]), axis=0)
    start = np.searchsorted(norms, ends[0], side="right")
    stop = np.searchsorted(norms, ends[1], side="left")
    j = np.nonzero(stop > start)[0]
    count = stop[j] - start[j]
    i = np.repeat(j, count)   # one bracket per (interval, norm) pair
    k = start[i] + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    lo, hi, wn = rho[i], rho[i + 1], norms[k]
    sign_lo = np.sign(speed[i] - wn)
    for _ in range(_RHO_BISECTIONS):
        if not np.any(hi - lo > _RHO_XTOL):
            break
        mid = 0.5 * (lo + hi)
        below = np.sign(n * h_prime(0.5 * mid * mid) * mid - wn) == sign_lo
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    gr = 0.5 * (0.5 * (lo + hi)) ** 2
    actions = n * (2.0 * h_prime(gr) * gr - h(gr))
    return sorted(float(a) for a in actions if a <= n + 2.0)
