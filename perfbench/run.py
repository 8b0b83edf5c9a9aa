"""Benchmark entry point: one workload, one seed, one mode.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures end to end with tracing off; ``--trace 1`` is the
separate traced run that gives per-layer self times and counts. Every line
but the last is a human-readable JSON report (all metrics with units, the
tail percentile and sample counts, check results, the machine record). The
last line is the result: ``correct``, ``attempted``, ``failed`` and exactly
the metrics ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_record(seed: int, load_at_start: tuple) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "loadavg_at_start": load_at_start,
        "seed": seed,
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup_seconds(workload: str, seed: int) -> list:
    """Process start to ready-for-the-first-timed-solve, once per probe process."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(elapsed)
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    workloads_listed = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads_listed:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {workloads_listed}")
    bootstrap.prepare()
    bootstrap.check_imported_from_source()
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = dict(result.metrics)
    if not args.trace:
        samples = setup_seconds(args.workload, args.seed)
        metrics["setup_s"] = (statistics.median(samples), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        result.notes["setup_s_samples"] = samples

    declared = bench["per_layer" if args.trace else "end_to_end"]
    for entry in declared:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} measured in {unit}, declared in {entry['unit']}")
    report = {
        "workload": args.workload,
        "mode": "traced" if args.trace else "end_to_end",
        "seconds": args.seconds,
        "machine": machine_record(args.seed, load_at_start),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "run_checks": result.run_checks,
        "notes": result.notes,
        "failures": [
            {"solver": o.solver, "scene_seed": o.scene_seed, "power_dbm": o.power_dbm,
             "problems": o.problems}
            for o in result.outcomes if o.failed
        ][:20],
    }
    print(json.dumps({"report": report}, default=float))
    final = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            e["name"]: {"value": metrics[e["name"]][0], "unit": e["unit"]} for e in declared
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
