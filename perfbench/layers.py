"""Per-layer measurement: spans around the lab's public calls, and the RHS
kernel microbenchmark.

Tracing lives entirely in the benchmark.  ``install`` replaces public
callables at the names the program looks them up through at run time (module
globals such as ``experiments.integrate``, module attributes such as
``sol.lyapunov_estimate``, and methods on the classes), so ``src/`` stays
unchanged.  Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import workloads

# The caller of integrate_batch decides which stage its time belongs to.
_STAGE_OF_CALLER = {
    "chord_census": "census.mesh",
    "_endpoints": "census.polish",       # Newton sweeps and re-verification
    "volume_growth": "volume.advance",
    "evolve_new": "volume.refine",
}


class _Total:
    __slots__ = ("calls", "inclusive_s", "self_s", "rows", "count")

    def __init__(self):
        self.calls = 0
        self.inclusive_s = 0.0   # outermost spans only, so nesting never doubles
        self.self_s = 0.0
        self.rows = 0
        self.count = 0


class Tracer:
    """Spans at layer boundaries: name, start, end, parent and caller.

    Leaf spans (field gradients, geometry lifts, mesh measures) run tens of
    thousands of times per sample, so they are only added to the totals; the
    other spans are also kept whole for the span file.
    """

    def __init__(self):
        self.spans = []              # (id, parent_id, name, caller, start, end, self_s)
        self.totals = {}             # name -> _Total
        self.stages = {}             # stage -> _Total of by_stage calls
        self._stack = [[None, 0.0, 0]]   # [name, child_s, span_id]
        self._next_id = 1

    def _total(self, table, key):
        tot = table.get(key)
        if tot is None:
            tot = table[key] = _Total()
        return tot

    def wrap(self, fn, name, *, leaf=False, by_stage=False, rows=None,
             count=None):
        """``fn`` timed as a span; ``rows(args)`` and ``count(result)`` add
        the work it did to the totals, and ``by_stage`` also files it under
        the stage its caller belongs to."""
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            caller = None if leaf else sys._getframe(1).f_code.co_name
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                parent[1] += dur
                self_s = dur - frame[1]
                n_rows = rows(args) if rows is not None else 0
                tots = [tracer._total(tracer.totals, name)]
                if by_stage:
                    tots.append(tracer._total(
                        tracer.stages, _STAGE_OF_CALLER.get(caller, caller)))
                for tot in tots:
                    tot.calls += 1
                    tot.self_s += self_s
                    tot.rows += n_rows
                    if parent[0] != name:
                        tot.inclusive_s += dur
                if not leaf:
                    tracer.spans.append((span_id, parent[2], name, caller,
                                         start, end, self_s))
            if count is not None:
                tracer.totals[name].count += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "caller", "start", "end",
                     "self_s"), span))) + "\n")


def _rows_qp(args):
    q = args[1]                      # method call: (field, q, p)
    shape = getattr(q, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def install(tracer: Tracer):
    """Route the lab's public entry points through ``tracer``."""
    from spherization_lab import dynamics, entropy, experiments, geometry, sol

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **kw))

    patch(experiments, "run", "experiments.run")
    patch(experiments, "integrate", "dynamics.integrate",
          count=lambda traj: traj.stats.get("nfev", 0))
    patch(entropy, "integrate_batch", "dynamics.integrate_batch",
          by_stage=True, rows=lambda args: len(args[1]))
    # one RHS evaluation is one dq plus one dp call (velocity is dp alone)
    for attr in ("dq", "dp"):
        patch(dynamics.HamiltonianField, attr, "dynamics.rhs", leaf=True,
              rows=_rows_qp)
    census = tracer.wrap(entropy.chord_census, "entropy.chord_census")
    experiments.chord_census = entropy.chord_census = census
    patch(experiments, "volume_growth", "entropy.volume_growth")
    for attr in ("edges", "edge_lengths", "volume"):
        patch(entropy.MeshedSubmanifold, attr, "volume.measure", leaf=True)
    for attr in ("nearest_lift", "frame_displacement", "deck_apply"):
        patch(geometry.ModelManifold, attr, "geometry.lift", leaf=True)
    patch(experiments, "calibrate", "starshape.calibrate")
    for attr in ("lyapunov_estimate", "first_integral"):
        patch(sol, attr, "sol.estimate")


def layer_metrics(tracer: Tracer, manifests: list) -> dict:
    """Per-layer metrics of one traced sample."""
    t = tracer.totals
    stage = tracer.stages
    none = _Total()

    def tot(name):
        return t.get(name, none)

    def stage_s(name):
        return stage.get(name, none).inclusive_s

    def ratio(a, b):
        return a / b if b else 0.0

    rhs = tot("dynamics.rhs")
    pairs = [p for m in manifests for p in m.get("results", {}).get("pairs", [])]
    diag = [p["diagnostics"] for p in pairs]
    reps = sum(d["representatives"] for d in diag)
    records = workloads.chords_verified(manifests)
    volume = [m["results"] for m in manifests
              if "vertex_count" in m.get("results", {})]
    return {
        "dynamics.rhs.calls": rhs.calls,
        "dynamics.rhs.rows_per_call": ratio(rhs.rows, rhs.calls),
        "dynamics.rhs.s": rhs.inclusive_s,
        "dynamics.integrate.calls": tot("dynamics.integrate").calls,
        "dynamics.integrate.nfev": tot("dynamics.integrate").count,
        "dynamics.integrate.s": tot("dynamics.integrate").inclusive_s,
        "dynamics.integrate_batch.calls": tot("dynamics.integrate_batch").calls,
        "dynamics.integrate_batch.rows": tot("dynamics.integrate_batch").rows,
        "dynamics.integrate_batch.s":
            tot("dynamics.integrate_batch").inclusive_s,
        "census.mesh_s": stage_s("census.mesh"),
        "census.polish_s": stage_s("census.polish"),
        "census.self_s": tot("entropy.chord_census").self_s,
        "census.candidates": sum(d["candidates"] for d in diag),
        "census.representatives": reps,
        "census.newton_fail_ratio":
            ratio(sum(d["newton_failures"] for d in diag), reps),
        "census.chords_per_rep": ratio(records, reps),
        "census.polish_rows_per_rep":
            ratio(stage.get("census.polish", none).rows, reps),
        "chords_verified": records,
        "geometry.lift.calls": tot("geometry.lift").calls,
        "geometry.lift.s": tot("geometry.lift").inclusive_s,
        "starshape.calibrate_s": tot("starshape.calibrate").inclusive_s,
        "volume.advance_s": stage_s("volume.advance"),
        "volume.refine_s": stage_s("volume.refine"),
        "volume.measure_s": tot("volume.measure").inclusive_s,
        "volume.vertices": volume[-1]["vertex_count"] if volume else 0,
        "volume.levels": volume[-1]["levels_completed"] if volume else 0,
        "sol.estimate_s": tot("sol.estimate").inclusive_s,
    }


MICROBENCH_ROWS = (1, 192, 2048)   # ensemble, polisher chunk, census mesh chunk
MICROBENCH_REPEATS = 5             # timed batches per row count; median kept
MICROBENCH_MIN_S = 0.02            # shortest timed batch


def rhs_microbench(seed: int) -> dict:
    """Microseconds per row of ``HamiltonianField.rhs`` for the sol and torus
    fields at the batch sizes the workloads use.

    At these sizes the kernel is bound by numpy's per-call dispatch, not by
    arithmetic or memory bandwidth, so no roofline ratio is reported.
    """
    import numpy as np
    from spherization_lab.dynamics import geodesic_field
    from spherization_lab.geometry import ModelManifold
    from spherization_lab.sol import sol_field

    rng = np.random.default_rng(seed)
    fields = {"sol": sol_field(ModelManifold.sol()),
              "torus": geodesic_field(ModelManifold.torus())}
    out = {}
    for name, field in fields.items():
        d = field.manifold.dim
        for n in MICROBENCH_ROWS:
            q = rng.uniform(-1.0, 1.0, size=(n, d))
            p = rng.normal(size=(n, d))
            field.rhs(q, p)
            loops = 1
            while True:
                start = time.perf_counter()
                for _ in range(loops):
                    field.rhs(q, p)
                if time.perf_counter() - start >= MICROBENCH_MIN_S:
                    break
                loops *= 2
            per_call = []
            for _ in range(MICROBENCH_REPEATS):
                start = time.perf_counter()
                for _ in range(loops):
                    field.rhs(q, p)
                per_call.append((time.perf_counter() - start) / loops)
            out[f"rhs.{name}.us_per_row.r{n}"] = (
                statistics.median(per_call) / n * 1e6)
    return out
