"""Benchmark samples in a fresh process, as a user's CLI run would take them.

    python3 perfbench/worker.py --out DIR --seed N [--budget S]
                                [--trace SPANS.jsonl] CONFIG.ini [...]

Imports the lab from ``src/`` and loads every config.  A sample is one
``experiments.run`` of one config.  Without ``--budget`` the process takes
one sample, of the first config.  With it, the process runs cycles of one
sample per config, in order: the first cycle, then more while the next one
is expected to end within S seconds.  Every config is thus timed equally
often.  ``--budget 0`` only sets up.  ``--seed`` seeds the inputs of the RHS
microbenchmark of a traced process.

The host's speed drifts (see ``reference_s``), so the process times a fixed
reference workload once the configs are loaded and again after every
sample.  Prints one JSON line: the clock and steal readings when the configs
were loaded (the parent subtracts its own readings at spawn to get set-up
time), the reference times, the process's peak resident memory, each
sample's wall, CPU and steal time and the manifest its run wrote and, with
``--trace``, the per-layer metrics of the one traced sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def steal_s() -> float:
    """Seconds the hypervisor has kept this machine's CPUs from running
    while they had work (the steal column of /proc/stat), or 0 where the
    kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def reference_s() -> float:
    """CPU time of a fixed workload that does not involve the lab.

    The benchmark shares a physical host with other machines, and the work
    a CPU second does here drifts by up to 2x within minutes.  This mix of
    pure-Python arithmetic and small-array numpy calls, the two kinds of
    work the lab's time goes to, slows down with it, so a sample's time
    divided by the reference time around it cancels most of the drift.
    CPU time, because time the hypervisor steals is removed separately.
    """
    import numpy
    start = time.process_time()
    total = 0
    for i in range(400_000):
        total += i * i
    x = numpy.arange(6.0)
    for _ in range(8_000):
        (x * 2.0 + x).sum()
    return time.process_time() - start


def _sample(experiments, cfg, out, index) -> dict:
    """Run one config; a failed run still reports its timing."""
    errors = []
    cpu0 = _cpu_s()
    steal0 = steal_s()
    start = time.perf_counter()
    try:
        experiments.run(cfg, out_dir=out)
    except Exception:
        errors.append(traceback.format_exc(limit=3))
    run_s = time.perf_counter() - start
    stolen = steal_s() - steal0
    cpu_s = _cpu_s() - cpu0
    path = out / "manifest.json"
    manifest = (json.loads(path.read_text()) if path.exists()
                else {"error": {"category": "no-manifest",
                                "message": "run wrote no manifest"}})
    path.unlink(missing_ok=True)
    return {"index": index, "run_s": run_s, "cpu_s": cpu_s, "steal_s": stolen,
            "manifests": [manifest], "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", type=Path, default=None)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=None,
                    help="run cycles over the configs while the next one is "
                         "expected to end within this many seconds (0: set "
                         "up only); default one sample")
    ap.add_argument("configs", nargs="+")
    args = ap.parse_args(argv)

    import numpy
    import scipy
    from spherization_lab import experiments
    from spherization_lab.config import load_config
    cfgs = [load_config(path) for path in args.configs]
    t_loaded = time.perf_counter()
    steal_loaded = steal_s()
    refs = [reference_s()]

    tracer = None
    micro = {}
    if args.trace is not None:
        import layers
        micro = layers.rhs_microbench(args.seed)
        tracer = layers.Tracer()
        layers.install(tracer)

    samples = []
    if args.budget is None:
        samples.append(_sample(experiments, cfgs[0], args.out, 0))
        refs.append(reference_s())
    else:
        started = time.perf_counter()
        cycle_s = 0.0
        while args.budget > 0 and (
                not samples
                or time.perf_counter() - started + cycle_s <= args.budget):
            t0 = time.perf_counter()
            for cfg in cfgs:
                samples.append(_sample(experiments, cfg, args.out,
                                       len(samples)))
                refs.append(reference_s())
            cycle_s = time.perf_counter() - t0
    result = {"t_loaded": t_loaded, "steal_loaded": steal_loaded,
              "ref_s": refs, "samples": samples,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if tracer is not None:
        tracer.write(args.trace)
        result["layers"] = {**layers.layer_metrics(
            tracer, samples[0]["manifests"]), **micro}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
