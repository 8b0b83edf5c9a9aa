"""Self-test of the benchmark itself (about two minutes on two cores).

    python3 perfbench/selftest.py

1. Every workload, in both modes, emits exactly the metrics BENCHMARK.json
   declares, with their units, and the report carries all twelve end-to-end
   metrics the benchmark defines.
2. The checks catch a corrupted solve: a beamformer scaled off the power
   sphere is counted as failed, on a direct workload and through the sweep's
   process pool.
3. Counts (``*.calls_per_iter``, ``*.calls_per_solve``, ``*.iterations_mean``)
   repeat exactly across two traced runs of the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
REPORTED_E2E = (
    "full_solve_ms.p50", "full_solve_ms.tail", "ld_solve_ms.p50", "ld_solve_ms.tail",
    "solves_per_s", "objective.mean", "stationarity.p50", "stationarity.max",
    "failed_frac", "nonconverged_frac", "setup_s", "peak_rss_mb",
)
COUNT_SUFFIXES = (".calls_per_iter", ".calls_per_solve", ".iterations_mean")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metric_names(bench: dict) -> list:
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report, final = run(w["name"], 3, 1, trace)
            declared = {e["name"]: e["unit"] for e in bench[key]}
            emitted = {k: v["unit"] for k, v in final["metrics"].items()}
            if emitted != declared:
                problems.append(f"{w['name']} trace={trace}: emitted {sorted(emitted)} "
                                f"!= declared {sorted(declared)}")
            if not final["correct"] or final["failed"] or final["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: not a clean run: {final}")
            if not trace:
                missing = [m for m in REPORTED_E2E if m not in report["metrics"]]
                if missing:
                    problems.append(f"{w['name']}: report lacks {missing}")
    return problems


def check_corruption_is_caught() -> list:
    """In-process: rebind ``solve`` to one that returns a beamformer 1% off
    the power sphere and count what the workloads report."""
    bootstrap.prepare()
    import isacbeam
    import workloads
    from tracer import patched

    real = isacbeam.sca.solve

    def corrupted(scene, *args, **kwargs):
        result = real(scene, *args, **kwargs)
        w = result.beamformer
        bad = w.replace_matrix(1.01 * w.matrix)
        return isacbeam.SolveResult(bad, result.objective_trace, result.sum_rate,
                                    result.crlb_trace, result.iterations, result.converged,
                                    result.timings)

    problems = []
    with patched({real: corrupted}):
        direct = workloads.run("paper_batch", 4, 0.1, trace=False)
        sweep = workloads.run("power_sweep", 4, 0.1, trace=False)
    for name, result in (("paper_batch", direct), ("power_sweep", sweep)):
        full = [o for o in result.outcomes if o.solver == "full"]
        caught = [o for o in full if any("power sphere" in p for p in o.problems)]
        if not full or len(caught) != len(full) or result.correct:
            problems.append(f"{name}: {len(caught)} of {len(full)} corrupted solves caught, "
                            f"correct={result.correct}")
        if any(o.failed for o in result.outcomes if o.solver == "lowdim"):
            problems.append(f"{name}: an uncorrupted solve was counted as failed")
    return problems


def check_counts_repeat() -> list:
    problems = []
    for workload in ("paper_batch", "power_sweep"):
        first, second = (run(workload, 5, 1, 1)[0]["metrics"] for _ in range(2))
        for name, entry in first.items():
            if name.endswith(COUNT_SUFFIXES) and entry["value"] != second[name]["value"]:
                problems.append(f"{workload}: {name} {entry['value']} then {second[name]['value']}")
    return problems


def main() -> int:
    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for title, check in (
        ("metric names and units", lambda: check_metric_names(bench)),
        ("counts repeat exactly", check_counts_repeat),
        ("corrupted solves are counted failed", check_corruption_is_caught),
    ):
        problems = check()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {title}")
        for p in problems:
            print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
