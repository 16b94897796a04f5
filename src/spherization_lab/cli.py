"""Command-line entry point.

    spherization-lab run <config> [--out DIR] [--seed N] [--workers N]
    spherization-lab validate <config>

Exit codes: 0 ok, 2 invalid config, 3 budget exceeded, 4 integration
diverged, 5 invariant failure.  ``SPHERIZATION_LAB_OUT`` overrides the
configured output directory (an explicit ``--out`` wins over both).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import SCHEMA, _parse_value, load_config
from .errors import SpherizationError
from .experiments import run

OUT_ENV = "SPHERIZATION_LAB_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherization-lab",
        description="entropy experiments on cotangent bundles of model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to the experiment config file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", default=None,
                       help="override the configured seed")
    p_run.add_argument("--workers", default=None,
                       help="worker-count hint; never changes results")

    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("config", help="path to the experiment config file")
    return parser


def _fail(exc: SpherizationError) -> int:
    sys.stderr.write(json.dumps({"error": exc.category,
                                 "message": str(exc)}) + "\n")
    return exc.exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except SpherizationError as exc:
        return _fail(exc)

    if args.command == "validate":
        sys.stdout.write("ok\n")
        return 0

    out_dir = args.out or os.environ.get(OUT_ENV) or None
    try:
        for key in ("seed", "workers"):
            if getattr(args, key) is not None:
                cfg.sections["experiment"][key] = _parse_value(
                    getattr(args, key), SCHEMA["experiment"][key], f"--{key}")
        manifest = run(cfg, out_dir=out_dir)
    except SpherizationError as exc:
        return _fail(exc)
    sys.stdout.write(f"pass={str(manifest['pass']).lower()} "
                     f"wall={manifest['wall_clock_sec']:.2f}s\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
