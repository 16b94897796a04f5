"""Experiment configuration: a flat, typed key-value format with sections.

Files use INI syntax (section headers, ``key = value`` lines).  Every key is
declared once, in the schema below, with its type, default and admissible
range; unknown sections or keys are rejected, as are out-of-range values.
Vector values are space-separated numbers, each within the key's range.
Values are literal UTF-8 text, with no ``%`` interpolation.  The parsed
configuration echoes into the run manifest so a run is reproducible from
its manifest alone.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ConfigError

EXPERIMENTS = ("sol-entropy", "sol-sweep", "chord-census", "volume-growth",
               "action-check", "noncrossing-check", "group-growth", "mpp")

_INT64_MAX = 2 ** 63 - 1


def _typed(kind, default, lo=None, hi=None, choices=None, length=None):
    return {"kind": kind, "default": default, "lo": lo, "hi": hi,
            "choices": choices, "length": length}


SCHEMA = {
    "experiment": {
        "name": _typed("str", None, choices=EXPERIMENTS),    # required
        "seed": _typed("int", 0, lo=0, hi=_INT64_MAX),
        "workers": _typed("int", 1, lo=1, hi=256),
        "out_dir": _typed("str", "runs"),
    },
    "manifold": {
        # None: the experiment's model, from _DEFAULT_MANIFOLD
        "kind": _typed("str", None, choices=("torus", "sol")),
        "lattice": _typed("floats", (1.0, 0.0, 0.0, 1.0),    # row-major basis
                          length=4),
        "monodromy": _typed("ints", (2, 1, 1, 1), length=4),
    },
    "profile": {
        "kind": _typed("str", "round",
                       choices=("round", "ellipse", "fourier")),
        "axes": _typed("floats", (1.0, 2.0)),
        "fourier_base": _typed("float", 1.0, lo=1e-6),
        "fourier_cos": _typed("floats", ()),
        "fourier_sin": _typed("floats", ()),
    },
    "cutoff": {
        "epsilon": _typed("float", 0.2, lo=1e-9, hi=0.2499999),
        "safety": _typed("float", 1.1, lo=1.0, hi=10.0),
    },
    "integrator": {
        "scheme": _typed("str", "rk", choices=("rk", "midpoint")),
        "rel_tol": _typed("float", 1e-10, lo=1e-14, hi=1e-2),
        "abs_tol": _typed("float", 1e-12, lo=1e-16, hi=1e-2),
        "max_step": _typed("float", 0.05, lo=1e-6, hi=10.0),
        "drift_abort": _typed("float", 1e-6, lo=1e-14, hi=1.0),
    },
    "sol": {
        "k": _typed("float", 1.0, lo=1e-6, hi=100.0),
        "mode": _typed("str", "ensemble", choices=("ensemble", "fixed-point")),
        "count": _typed("int", 50, lo=1, hi=10000),
        "horizon": _typed("float", 2000.0, lo=0.1, hi=1e6),
        "burn_in": _typed("float", 0.1, lo=0.0, hi=0.9),
        "k_values": _typed("floats", (0.75, 1.0, 1.5), lo=1e-6, hi=100.0),
    },
    "census": {
        "horizon": _typed("float", 10.0, lo=0.1, hi=1000.0),
        "resolution": _typed("int", 512, lo=64, hi=1_000_000),
        "coarse_threshold": _typed("float", 0.25, lo=1e-4, hi=10.0),
        "q0": _typed("floats", (0.0, 0.0)),
        "q1": _typed("floats", (0.5, 0.5)),
        "jitter": _typed("float", 1e-3, lo=0.0, hi=0.1),
        "time_floor": _typed("float", 1e-6, lo=0.0, hi=1.0),
        "max_candidates": _typed("int", 500_000, lo=1000, hi=50_000_000),
        "pairs": _typed("int", 3, lo=1, hi=64),
        "grid": _typed("int", 2, lo=1, hi=16),
        "newton_tol": _typed("float", 1e-8, lo=1e-14, hi=1e-4),
    },
    "volume": {
        "n_max": _typed("int", 30, lo=1, hi=64),
        "resolution": _typed("int", 64, lo=8, hi=100_000),
        "refine_threshold": _typed("float", 0.2, lo=1e-3, hi=1e3),
        "vertex_budget": _typed("int", 200_000, lo=16, hi=10_000_000),
        "fit_window": _typed("int", 8, lo=3, hi=64),
        "rel_tol": _typed("float", 1e-8, lo=1e-14, hi=1e-2),
    },
    "action": {
        "n_values": _typed("ints", (1, 2, 3), lo=1),
        "scales": _typed("floats", (2.0, 3.0), lo=1e-6),
        "chord_count": _typed("int", 10, lo=1, hi=1000),
        "grid": _typed("int", 40, lo=8, hi=512),
        "p_max": _typed("float", 2.6, lo=0.1, hi=16.0),
    },
    "noncrossing": {
        "n_values": _typed("ints", (1, 2, 3), lo=1),
        "s_points": _typed("int", 32, lo=2, hi=1024),
        "exclusion": _typed("float", 1e-4, lo=0.0, hi=1.0),
    },
    "growth": {
        "n_max": _typed("int", 12, lo=1, hi=16),
        "control_n_max": _typed("int", 28, lo=1, hi=64),
        "fit_window": _typed("int", 6, lo=3, hi=17),
        "control_fit_window": _typed("int", 8, lo=3, hi=65),
    },
}

DEFAULTS = {sec: {key: spec["default"] for key, spec in keys.items()}
            for sec, keys in SCHEMA.items()}

_DEFAULT_MANIFOLD = {
    "sol-entropy": "sol", "sol-sweep": "sol", "chord-census": "torus",
    "volume-growth": "torus", "action-check": "torus",
    "noncrossing-check": "torus", "group-growth": "sol", "mpp": "torus",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration; sections are plain nested dicts."""

    sections: dict

    @property
    def name(self) -> str:
        return self.sections["experiment"]["name"]

    @property
    def seed(self) -> int:
        return self.sections["experiment"]["seed"]

    @property
    def workers(self) -> int:
        return self.sections["experiment"]["workers"]

    def get(self, section: str, key: str):
        return self.sections[section][key]

    def echo(self) -> dict:
        """Canonical nested-dict form (tuples as lists) for the manifest."""
        return json.loads(json.dumps(self.sections, sort_keys=True,
                                     default=list))

    def canonical_hash(self) -> str:
        blob = json.dumps(self.sections, sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()


def _parse_value(raw: str, spec: dict, where: str):
    kind = spec["kind"]
    try:
        if kind == "int":
            val = int(raw)
        elif kind == "float":
            val = float(raw)
        elif kind == "str":
            val = raw.strip()
        elif kind == "ints":
            val = tuple(int(tok) for tok in raw.split())
        elif kind == "floats":
            val = tuple(float(tok) for tok in raw.split())
        else:  # pragma: no cover
            raise AssertionError(kind)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from exc
    if spec["choices"] is not None and val not in spec["choices"]:
        raise ConfigError(f"{where}: {val!r} not one of {spec['choices']}")
    if spec["length"] is not None and len(val) != spec["length"]:
        raise ConfigError(f"{where}: expected {spec['length']} entries")
    for entry in val if kind in ("ints", "floats") else (val,):
        # nan compares false with every bound, and inf passes a one-sided
        # range
        if kind in ("float", "floats") and not math.isfinite(entry):
            raise ConfigError(f"{where}: {entry} is not finite")
        if spec["lo"] is not None and entry < spec["lo"]:
            raise ConfigError(f"{where}: {entry} below minimum {spec['lo']}")
        if spec["hi"] is not None and entry > spec["hi"]:
            raise ConfigError(f"{where}: {entry} above maximum {spec['hi']}")
    return val


def load_config(path: str) -> ExperimentConfig:
    # values are literal: a '%' is a character, not an interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    sections = {name: dict(values) for name, values in DEFAULTS.items()}
    for sec in parser.sections():
        if sec not in SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in parser[sec].items():
            if key not in SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
            sections[sec][key] = _parse_value(raw, SCHEMA[sec][key],
                                              f"[{sec}] {key}")

    name = sections["experiment"]["name"]
    if name is None:
        raise ConfigError("missing required key [experiment] name")
    if sections["manifold"]["kind"] is None:
        sections["manifold"]["kind"] = _DEFAULT_MANIFOLD[name]
    _cross_validate(sections)
    return ExperimentConfig(sections=sections)


def _cross_validate(sections: dict):
    prof = sections["profile"]
    if prof["kind"] == "ellipse":
        if len(prof["axes"]) < 2 or any(a <= 0 for a in prof["axes"]):
            raise ConfigError("[profile] axes must be positive and match the "
                              "fiber dimension")
    mono = sections["manifold"]["monodromy"]
    if mono[0] * mono[3] - mono[1] * mono[2] != 1:
        raise ConfigError("[manifold] monodromy must have determinant 1")
    if mono[0] + mono[3] <= 2:
        raise ConfigError("[manifold] monodromy trace must exceed 2")
    lat = sections["manifold"]["lattice"]
    if abs(lat[0] * lat[3] - lat[1] * lat[2]) < 1e-12:
        raise ConfigError("[manifold] lattice basis must be invertible")
