"""Workload definitions: config sections, correctness checks, fingerprints.

Pure Python on purpose: the orchestrator imports this module without numpy
or the lab, so every check below is computed independently of the program
whose output it judges.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

# Trailing volumes the witness fit uses; the volume check recomputes it.
_VOLUME_FIT_WINDOW = 6


@dataclass(frozen=True)
class Workload:
    name: str
    sections: dict                       # INI sections of one experiments.run
    smoke: dict = field(default_factory=dict)   # section overrides for --smoke
    inputs: int = 1                      # configs a run cycles through

    def configs(self, seed: int, *, workers: int = 1, smoke: bool = False):
        """INI texts of the inputs a benchmark run on ``seed`` cycles
        through; the set never depends on how many samples fit."""
        sections = {sec: dict(keys) for sec, keys in self.sections.items()}
        if smoke:
            for sec, keys in self.smoke.items():
                sections[sec].update(keys)
        texts = []
        for i in range(1 if smoke else self.inputs):
            sections["experiment"]["seed"] = run_seed(seed, i)
            sections["experiment"]["workers"] = workers
            texts.append(_ini(sections))
        return texts


def run_seed(seed: int, i: int) -> int:
    """Config seed of input ``i`` of a benchmark run on ``seed``.

    Input 0 takes ``seed`` itself; the others take seeds derived from it.
    """
    if i == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def heldout_seed(seed: int) -> int:
    """The second seed each traced pass also runs, for claims made later."""
    return (seed + 1_000_003) % (2 ** 63 - 1)


def _ini(sections: dict) -> str:
    lines = []
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


# Sizes are scaled so one sample takes 0.2 to 2.5 s and one cycle over a
# workload's inputs 2 to 20 s on a 2-core x86 VM, so a 25 s run times every
# input at least once and ends within a few seconds of its 25 s.  The sol
# workloads' cost varies from input to input, so each run averages over
# several inputs.
WORKLOADS = {
    w.name: w for w in (
        # Criterion 02 scaled down: single-row 6-D DOP853 over long horizons,
        # dominated by the 1-row RHS; no census code runs.
        Workload("sol-ensemble",
                 {"experiment": {"name": "sol-entropy"},
                  "sol": {"k": 0.3, "mode": "ensemble", "count": 2,
                          "horizon": 200.0}},
                 smoke={"sol": {"count": 1, "horizon": 60.0}},
                 inputs=9),
        # Criterion 08b scaled down: Newton polish in 192-row chunks
        # dominates.  Two pairs per run, so a mesh pass shared across pairs
        # can show.
        Workload("sol-census",
                 {"experiment": {"name": "chord-census"},
                  "manifold": {"kind": "sol"},
                  "sol": {"k": 1.0},
                  "census": {"horizon": 3.0, "resolution": 192,
                             "coarse_threshold": 0.35, "pairs": 2}},
                 smoke={"census": {"horizon": 2.0, "resolution": 64,
                                   "pairs": 1}},
                 inputs=8),
        # Criterion 07: same census code with a cheap linear RHS; time goes
        # to Python loops (suppression, dedup, per-candidate solves).  Its
        # one pair is fixed by the config, so one input is all there is.
        Workload("torus-census",
                 {"experiment": {"name": "chord-census"},
                  "manifold": {"kind": "torus", "lattice": "1 0 0 1"},
                  "profile": {"kind": "round"},
                  "census": {"horizon": 30.0, "resolution": 1024}},
                 smoke={"census": {"horizon": 10.0, "resolution": 256}}),
        # Criterion 08a on 16 seeds: the only volume_growth workload, with
        # short 2-point integrate_batch solves.
        Workload("sol-volume",
                 {"experiment": {"name": "volume-growth"},
                  "manifold": {"kind": "sol"},
                  "sol": {"k": 1.0},
                  "volume": {"n_max": 12, "resolution": 162,
                             "refine_threshold": 18.0,
                             "vertex_budget": 200000,
                             "fit_window": _VOLUME_FIT_WINDOW}},
                 inputs=16),
    )
}


# -- correctness ------------------------------------------------------------------
#
# Each check takes the manifests of one sample (one per experiments.run call,
# as written to disk) and returns a list of problems; empty means correct.


def check(workload: str, manifests: list) -> list:
    problems = []
    for i, m in enumerate(manifests):
        if m.get("error"):
            problems.append(f"run {i}: {m['error'].get('category')}: "
                            f"{m['error'].get('message')}")
            continue
        problems += [f"run {i}: {p}" for p in _CHECKS[workload](m)]
    return problems


def _check_ensemble(m):
    r = m["results"]
    want = m["config"]["sol"]["count"]
    out = []
    if r["count"] != want:
        out.append(f"ensemble has {r['count']} members, expected {want}")
    if not r["chi_max"] <= 0.02:
        out.append(f"chi_max {r['chi_max']} above 0.02 at k=0.3")
    return out


def _check_sol_census(m):
    out = []
    for k, pair in enumerate(m["results"]["pairs"]):
        nu = pair["nu"]
        if not pair["max_residual"] <= 1e-8:
            out.append(f"pair {k}: residual {pair['max_residual']} > 1e-8")
        if not nu or min(nu) <= 0:
            out.append(f"pair {k}: nu not positive: {nu}")
        if any(b < a for a, b in zip(nu, nu[1:])):
            out.append(f"pair {k}: nu decreases: {nu}")
        if nu and pair["records"] != nu[-1]:
            out.append(f"pair {k}: {pair['records']} records != nu[-1]")
    return out


def torus_oracle(lattice, q0, q1, t: float) -> int:
    """Lattice translates of q1 - q0 within distance t (unit-speed arrivals)."""
    a, b, c, d = lattice            # row-major; translates are L @ (m, n)
    dx, dy = q1[0] - q0[0], q1[1] - q0[1]
    # the Frobenius norm of L^-1 bounds the integer range that can reach t
    inv_norm = math.sqrt(a * a + b * b + c * c + d * d) / abs(a * d - b * c)
    r = int(math.ceil((t + math.hypot(dx, dy)) * inv_norm)) + 1
    count = 0
    for m_ in range(-r, r + 1):
        for n_ in range(-r, r + 1):
            wx = dx + a * m_ + b * n_
            wy = dy + c * m_ + d * n_
            if math.hypot(wx, wy) <= t:
                count += 1
    return count


def _loglog_slope(ts, ys):
    lx = [math.log(t) for t in ts]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    sxx = sum((x - mx) ** 2 for x in lx)
    return sxy / sxx


def _check_torus_census(m):
    out = []
    lattice = [float(v) for v in m["config"]["manifold"]["lattice"]]
    horizon = m["config"]["census"]["horizon"]
    for k, pair in enumerate(m["results"]["pairs"]):
        nu = pair["nu"]
        top = min(10, int(math.floor(horizon)))
        oracle = [torus_oracle(lattice, pair["q0"], pair["q1"], float(t))
                  for t in range(1, top + 1)]
        if nu[:top] != oracle:
            out.append(f"pair {k}: census {nu[:top]} != oracle {oracle}")
        if horizon >= 30:
            ts = list(range(5, int(math.floor(horizon)) + 1))
            ys = nu[4:4 + len(ts)]
            pts = [(t, y) for t, y in zip(ts, ys) if y > 0]
            slope = _loglog_slope(*zip(*pts))
            if not abs(slope - 2.0) <= 0.3:
                out.append(f"pair {k}: log-log slope {slope} not 2+-0.3")
    return out


def _check_volume(m):
    out = []
    check_ = m["checks"].get("sol-volume-exponential-witness")
    if not check_ or not check_["passed"]:
        out.append(f"witness check failed: {check_}")
    vols = m["results"]["volumes"]
    if len(vols) < _VOLUME_FIT_WINDOW or min(vols) <= 0:
        out.append(f"volumes unusable for a rate fit: {vols}")
        return out
    tail = vols[-_VOLUME_FIT_WINDOW:]
    ns = list(range(len(vols) - len(tail), len(vols)))
    logs = [math.log(v) for v in tail]
    mn, ml = sum(ns) / len(ns), sum(logs) / len(logs)
    rate = (sum((n - mn) * (l - ml) for n, l in zip(ns, logs))
            / sum((n - mn) ** 2 for n in ns))
    if not rate >= 0.2:
        out.append(f"recomputed volume rate {rate} below 0.2")
    return out


_CHECKS = {
    "sol-ensemble": _check_ensemble,
    "sol-census": _check_sol_census,
    "torus-census": _check_torus_census,
    "sol-volume": _check_volume,
}


def chords_verified(manifests: list) -> int:
    """Re-verified chords summed over pairs and runs (census workloads)."""
    return sum(p["records"] for m in manifests
               for p in m.get("results", {}).get("pairs", []))


def fingerprint(manifests: list) -> str:
    """Hash of the outputs a correct change must reproduce bit for bit:
    chi_max, the nu series and the volumes."""
    keep = []
    for m in manifests:
        r = m.get("results", {})
        keep.append({"chi_max": r.get("chi_max"),
                     "nu": [p["nu"] for p in r.get("pairs", [])],
                     "volumes": r.get("volumes"),
                     "error": (m.get("error") or {}).get("category")})
    blob = json.dumps(keep, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
