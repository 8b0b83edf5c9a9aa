"""The three benchmark workloads and the measurements taken on them.

All workloads are closed loops: one caller sends its next solve (or sweep
batch) only after the previous one returns. Scene seeds are derived from the
workload seed (``seed * SEED_STRIDE + i``), so the same seed gives the same
inputs and the solvers see only the generated scenes. Every workload runs
both front ends, ``solve`` and ``solve_ld``, with weights 0.25/1.0 and the
default ``SolverConfig``.

Why these three (each later optimisation dominates one and is nearly absent
from another):

* ``paper_batch`` -- the paper's statistical-benchmark scene (16 tx / 20 rx,
  4 users, ``benchmark_targets()``, 10 dBm). Small-matrix work dominated by
  the sensing layer (``fim_from_covariance``, ``quad_matrix``), so Fisher
  operator and FIM/Cholesky reuse changes show here.
* ``wide_array`` -- the same scene with a 12x12 transmit array. The full
  solver's n_tx^2 terms dominate while ``solve_ld`` stays small, so a
  matrix-free full solver moves ``full_solve_ms`` and not ``ld_solve_ms``.
* ``power_sweep`` -- ``run_experiment`` over -10/10/20 dBm with two pool
  workers: short set-up-bound solves at -10 dBm (~25 iterations), ~1250
  iteration solves at 20 dBm that stop far from stationary, and the only use
  of the ``experiments`` pool. The top power is 20 dBm, not 30: 30 dBm solves
  take 1000-5000 iterations (coefficient of variation ~40%), so the ~6 sweep
  seeds a 30-second run completes leave every timing spreading 14-27% from
  seed to seed; at 20 dBm (1025-1347 iterations) they stay near 10%.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import os
import pickle
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import isacbeam
from isacbeam import ArrayGeometry, ExperimentConfig, SolverConfig, lowdim, sca

import checks
from bootstrap import OUT, ROOT
from calibrate import Calibrator, slowdown_over
from checks import WEIGHTS, Outcome
from tracer import Tracer, patched, public_functions

SEED_STRIDE = 100_000
WARMUP_INDEX = SEED_STRIDE - 1  # never reached by a run's own scenes
SOLVERS = ("full", "lowdim")
POWERS_DBM = (-10.0, 10.0, 20.0)
SWEEP_WORKERS = 2
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    tx: tuple = (4, 4)
    # Scenes built in set-up; a run that solves them all stops early.
    max_scenes: int = 0
    # Seconds one traced unit (a scene, or a sweep batch) takes untraced plus
    # traced on a busy 2-vCPU x86 host; fixes the traced run's size from
    # --seconds, so counts repeat exactly for a seed.
    traced_unit_s: float = 1.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_batch", tx=(4, 4), max_scenes=256, traced_unit_s=2.4),
        Workload("wide_array", tx=(12, 12), max_scenes=48, traced_unit_s=15.0),
        Workload("power_sweep", traced_unit_s=15.0),
    )
}

TARGETS_JSON = [
    {"azimuth": t.azimuth, "elevation": t.elevation, "rcs_real": t.rcs.real, "rcs_imag": t.rcs.imag}
    for t in isacbeam.benchmark_targets()
]


def scene_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def direct_scene(work: Workload, seed_value: int):
    return isacbeam.sample_scene(
        seed_value, tx_geometry=ArrayGeometry(*work.tx), targets=isacbeam.benchmark_targets()
    )


def build_inputs(work: Workload, seed: int, count: int | None = None):
    """Everything the workload's caller builds before its first timed solve:
    scenes and steering sets for direct workloads, the sweep config otherwise."""
    if work.name == "power_sweep":
        return sweep_config(seed, 0, SWEEP_WORKERS)
    inputs = []
    for i in range(work.max_scenes if count is None else count):
        scene = direct_scene(work, scene_seed(seed, i))
        inputs.append((scene_seed(seed, i), scene, isacbeam.build_steering_set(scene)))
    return inputs


def sweep_config(seed: int, batch: int, workers: int) -> ExperimentConfig:
    return ExperimentConfig(
        sweep_axis="power_dbm",
        sweep_values=POWERS_DBM,
        trials=1,
        base_seed=scene_seed(seed, batch),
        solver="both",
        workers=workers,
        scene={"targets": TARGETS_JSON},
    )


@contextmanager
def capped_on_purpose():
    """Silence the solver's iteration-cap warning for deliberately short solves."""
    logger = logging.getLogger(sca.__name__)
    disabled, logger.disabled = logger.disabled, True
    try:
        yield
    finally:
        logger.disabled = disabled


def warm_up(work: Workload, seed: int) -> None:
    """One short untimed solve per front end on a scene outside the run's set."""
    scene = direct_scene(work, scene_seed(seed, WARMUP_INDEX))
    cfg = SolverConfig(max_iters=20)
    with capped_on_purpose():
        isacbeam.solve(scene, WEIGHTS, cfg)
        isacbeam.solve_ld(scene, WEIGHTS, cfg)


def timed_solve(solver: str, scene, seed_value: int, power_dbm: float) -> Outcome:
    fn = isacbeam.solve if solver == "full" else isacbeam.solve_ld
    start = perf_counter()
    try:
        result = fn(scene, WEIGHTS)
    except Exception as exc:  # a failing solve is counted, never fatal
        end = perf_counter()
        out = Outcome(solver, seed_value, power_dbm, 0.0, error=f"{type(exc).__name__}: {exc}")
    else:
        end = perf_counter()
        out = Outcome.from_result(solver, seed_value, power_dbm, 0.0, result)
    out.start, out.end, out.wall_ms, out.pid = start, end, (end - start) * 1e3, os.getpid()
    return out


# --- result capture for the sweep ---------------------------------------------


def scene_key(solver: str, scene) -> tuple:
    digest = hashlib.blake2b(scene.channels.tobytes(), digest_size=12)
    digest.update(np.float64(scene.power_budget).tobytes())
    return solver, digest.hexdigest()


@dataclass
class Captured:
    """What a solve returned, as written by the process that ran it."""

    matrix: np.ndarray
    n_users: int
    power_budget: float
    objective_trace: np.ndarray
    sum_rate: float
    crlb_trace: float
    iterations: int
    converged: bool
    timings: dict
    # The solving process, when it ran the solve, and the kernel samples it
    # took since its previous solve (see calibrate.py).
    pid: int = 0
    start: float = math.nan
    end: float = math.nan
    samples: list = field(default_factory=list)

    @classmethod
    def of(cls, result, start=math.nan, end=math.nan, samples=()) -> "Captured":
        w = result.beamformer
        return cls(w.matrix, w.n_users, w.power_budget, np.asarray(result.objective_trace),
                   result.sum_rate, result.crlb_trace, result.iterations, result.converged,
                   dict(result.timings), os.getpid(), start, end, list(samples))

    def outcome(self, solver: str, scene_seed: int, power_dbm: float, wall_ms: float) -> Outcome:
        k = self.n_users
        return Outcome(
            solver, scene_seed, power_dbm, wall_ms,
            beamformer=isacbeam.Beamformer(self.matrix[:, :k], self.matrix[:, k:], self.power_budget),
            objective_trace=np.asarray(self.objective_trace, dtype=float),
            sum_rate=float(self.sum_rate), crlb_trace=float(self.crlb_trace),
            iterations=int(self.iterations), converged=bool(self.converged),
            timings=dict(self.timings), start=self.start, end=self.end, pid=self.pid,
        )


class Capture:
    """Keeps every ``SolveResult`` that ``run_experiment`` discards.

    ``run_experiment`` returns ``TrialRecord`` rows without beamformers or
    objective traces, which the checks and the stationarity oracle need. While
    :meth:`active`, ``solve`` and ``solve_ld`` are rebound (in the parent,
    hence in fork-started pool workers too) to wrappers that append each
    result to a per-process file: one ``os.write`` of a few kilobytes, inside
    the trial's ``wall_ms``. With a calibrator, ``scene_from_config``, which a
    trial calls before its timer starts, is rebound to sample the host speed
    in the worker first.
    """

    def __init__(self, directory: Path, calibrator: Calibrator | None = None):
        self.directory = directory
        self.directory.mkdir(parents=True, exist_ok=True)
        self._calibrator = calibrator
        self._fd = None
        self._pid = None

    def _write(self, solver: str, scene, result, start: float, end: float) -> None:
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._fd = os.open(
                self.directory / f"{self._pid}.pkl", os.O_WRONLY | os.O_CREAT | os.O_APPEND
            )
        samples = []
        if self._calibrator is not None:
            samples, self._calibrator.samples = self._calibrator.samples, []
        record = (scene_key(solver, scene), Captured.of(result, start, end, samples))
        os.write(self._fd, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))

    def _capturing(self, solver: str, fn):
        @functools.wraps(fn)
        def capturing(scene, *args, **kwargs):
            start = perf_counter()
            result = fn(scene, *args, **kwargs)
            self._write(solver, scene, result, start, perf_counter())
            return result

        return capturing

    def _sampling(self, fn):
        @functools.wraps(fn)
        def sampling(*args, **kwargs):
            self._calibrator.sample()
            return fn(*args, **kwargs)

        return sampling

    @contextmanager
    def active(self):
        solve, solve_ld = sca.solve, lowdim.solve_ld
        replacements = {solve: self._capturing("full", solve),
                        solve_ld: self._capturing("lowdim", solve_ld)}
        if self._calibrator is not None:
            build = isacbeam.scene.scene_from_config
            replacements[build] = self._sampling(build)
        with patched(replacements):
            yield

    def drain(self) -> tuple:
        """Every result captured so far, by scene key, and every process's
        kernel samples, by pid; the files are removed."""
        if self._fd is not None and self._pid == os.getpid():
            os.close(self._fd)
            self._fd = self._pid = None
        found, samples = {}, {}
        for path in sorted(self.directory.glob("*.pkl")):
            with open(path, "rb") as f:  # written by this run's own processes
                while True:
                    try:
                        key, captured = pickle.load(f)
                    except EOFError:
                        break
                    found[key] = captured
                    samples.setdefault(captured.pid, []).extend(captured.samples)
            path.unlink()
        return found, samples

    def close(self) -> None:
        self.drain()
        shutil.rmtree(self.directory, ignore_errors=True)


def sweep_outcomes(records, captured: dict, samples: dict | None = None) -> list:
    """Turn sweep rows into checked outcomes, joining the captured results.

    A row whose result was not captured is solved again here, untimed, so the
    checks and the oracle still see its beamformer.
    """
    outcomes = []
    for rec in records:
        power = float(rec.sweep_value)
        scene = isacbeam.scene.scene_from_config(
            {"seed": rec.seed, "power_dbm": power, "targets": TARGETS_JSON})
        if rec.status.startswith("failed"):
            outcomes.append((scene, Outcome(rec.solver, rec.seed, power, rec.wall_ms, error=rec.status)))
            continue
        key = scene_key(rec.solver, scene)
        if key not in captured:
            fn = sca.solve if rec.solver == "full" else lowdim.solve_ld
            captured[key] = Captured.of(fn(scene, WEIGHTS))
        got = captured[key]
        out = got.outcome(rec.solver, rec.seed, power, rec.wall_ms)
        if samples and samples.get(out.pid):
            out.slowdown = slowdown_over(out.start, out.end, samples[out.pid])
        if (
            out.iterations != rec.iterations
            or out.objective != rec.objective
            or (rec.status == "ok") != out.converged
        ):
            out.problems.append("sweep row disagrees with the solver's result")
        outcomes.append((scene, out))
    return outcomes


# --- statistics ---------------------------------------------------------------


def tail(values) -> tuple:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it; the median when there are fewer than 20 samples."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50.0)) if n else math.nan


def e2e_metrics(outcomes, busy_s: float, cal_busy_s: float) -> tuple:
    """The end-to-end metrics (name -> (value, unit)) and notes on them.

    Times are calibrated to the reference host speed (see calibrate.py); the
    raw wall-clock figures are reported beside them with a ``.raw`` suffix.
    ``busy_s`` is the time the caller spent inside solve calls (sweep calls).
    """
    attempted = len(outcomes)
    returned = [o for o in outcomes if o.returned]
    metrics, notes = {}, {}
    for solver, prefix in (("full", "full_solve_ms"), ("lowdim", "ld_solve_ms")):
        mine = [o for o in returned if o.solver == solver]
        for suffix, times in (("", [o.cal_ms for o in mine]), (".raw", [o.wall_ms for o in mine])):
            p, value = tail(times)
            metrics[f"{prefix}.mean{suffix}"] = (float(np.mean(times)) if times else math.nan, "ms")
            metrics[f"{prefix}.p50{suffix}"] = (float(np.median(times)) if times else math.nan, "ms")
            metrics[f"{prefix}.tail{suffix}"] = (value, "ms")
        notes[f"{prefix}.tail"] = {"percentile": p, "samples": len(mine)}
    metrics["solves_per_s"] = (len(returned) / cal_busy_s, "1/s")
    metrics["solves_per_s.raw"] = (len(returned) / busy_s, "1/s")
    objectives = [o.objective for o in returned]
    metrics["objective.mean"] = (float(np.mean(objectives)) if objectives else math.nan, "1")
    residuals = [o.stationarity for o in returned if math.isfinite(o.stationarity)]
    metrics["stationarity.p50"] = (float(np.median(residuals)) if residuals else math.nan, "1")
    metrics["stationarity.max"] = (float(np.max(residuals)) if residuals else math.nan, "1")
    failed = sum(o.failed for o in outcomes)
    nonconverged = sum(o.returned and not o.converged for o in outcomes)
    metrics["failed_frac"] = (failed / attempted, "1")
    metrics["nonconverged_frac"] = (nonconverged / attempted, "1")
    metrics["converged_frac"] = (1.0 - nonconverged / attempted, "1")
    notes["stationarity"] = {"samples": len(residuals), "oracle_failures": len(returned) - len(residuals)}
    notes["busy_s"] = busy_s
    return metrics, notes


def per_solve(outcomes) -> list:
    """(solver, scene seed, power dBm, wall ms, slowdown, iterations, pid,
    start, end) per solve."""
    return [(o.solver, o.scene_seed, o.power_dbm, o.wall_ms, o.slowdown, o.iterations,
             o.pid, o.start, o.end) for o in outcomes]


def per_power(outcomes) -> dict:
    """Iteration mean and nonconverged share per sweep power."""
    out = {}
    for power in POWERS_DBM:
        here = [o for o in outcomes if o.power_dbm == power and o.returned]
        tag = f"{power:g}dBm"
        out[f"experiments.iterations_mean.{tag}"] = (
            float(np.mean([o.iterations for o in here])) if here else math.nan, "count")
        out[f"experiments.nonconverged.{tag}"] = (
            float(np.mean([not o.converged for o in here])) if here else math.nan, "1")
    return out


# --- untraced (end-to-end) runs -------------------------------------------------


@dataclass
class RunResult:
    outcomes: list
    metrics: dict
    notes: dict
    run_checks: dict

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c.get("passed", True) for c in self.run_checks.values())


def finish(pairs, oracle: bool):
    """Check every (scene, outcome) pair, then run the oracle untimed."""
    for scene, out in pairs:
        checks.check_solve(scene, out)
    outcomes = [out for _, out in pairs]
    checks.check_pairs(outcomes)
    if oracle:
        steering = {}
        for scene, out in pairs:
            key = id(scene)
            if key not in steering:
                steering[key] = isacbeam.build_steering_set(scene)
            checks.stationarity(scene, steering[key], out)
    return outcomes


def run_direct(work: Workload, seed: int, seconds: float) -> RunResult:
    inputs = build_inputs(work, seed)
    warm_up(work, seed)
    cal = Calibrator()
    pairs = []
    cal.sample()
    deadline = perf_counter() + seconds
    for seed_value, scene, _ in inputs:
        if perf_counter() >= deadline:
            break
        for solver in SOLVERS:
            pairs.append((scene, timed_solve(solver, scene, seed_value, 10.0)))
            cal.sample()
    for _, out in pairs:
        out.slowdown = slowdown_over(out.start, out.end, cal.samples)
    busy_s = sum(out.wall_ms for _, out in pairs) / 1e3
    cal_busy_s = sum(out.cal_ms for _, out in pairs) / 1e3
    outcomes = finish(pairs, oracle=True)
    metrics, notes = e2e_metrics(outcomes, busy_s, cal_busy_s)
    run_checks = {}
    bands = checks.band_check(outcomes) if work.name == "paper_batch" and seed == 0 else None
    if bands is not None:
        run_checks["published_bands"] = {
            "passed": all(b["passed"] for b in bands.values()), **bands}
    notes["scenes_solved"] = len(outcomes) // 2
    notes["calibration"] = cal.summary()
    notes["per_solve"] = per_solve(outcomes)
    notes["kernel_samples"] = {os.getpid(): cal.samples}
    return RunResult(outcomes, metrics, notes, run_checks)


def run_sweep(seed: int, seconds: float) -> RunResult:
    work = WORKLOADS["power_sweep"]
    build_inputs(work, seed)
    warm_up(work, seed)
    cal = Calibrator()
    capture = Capture(OUT / f"capture-{os.getpid()}", cal)
    records, batch_walls = [], []
    try:
        with capture.active():
            deadline = perf_counter() + seconds
            while perf_counter() < deadline:
                batch = len(batch_walls)
                t0 = perf_counter()
                try:
                    records.extend(
                        isacbeam.run_experiment(sweep_config(seed, batch, SWEEP_WORKERS)).records)
                except Exception as exc:  # counts the whole batch as failed
                    records.extend(failed_rows(seed, batch, exc))
                batch_walls.append(perf_counter() - t0)
        captured, samples = capture.drain()
    finally:
        capture.close()
    outcomes = finish(sweep_outcomes(records, captured, samples), oracle=True)
    busy_s = sum(batch_walls)
    # Scale the pool's wall time by the workers' mean slowdown over the run.
    raw_ms = sum(o.wall_ms for o in outcomes)
    cal_ms = sum(o.cal_ms for o in outcomes)
    metrics, notes = e2e_metrics(outcomes, busy_s, busy_s * cal_ms / raw_ms)
    notes["experiments"] = {
        "experiments.pool_busy_frac": (raw_ms / 1e3 / (SWEEP_WORKERS * busy_s), "1"),
        "experiments.run_experiment.s": (float(np.mean(batch_walls)), "s"),
        **per_power(outcomes),
    }
    notes["batches"] = len(batch_walls)
    notes["uncalibrated_solves"] = sum(o.slowdown == 1.0 for o in outcomes)
    notes["per_solve"] = per_solve(outcomes)
    notes["kernel_samples"] = samples
    return RunResult(outcomes, metrics, notes, {})


def failed_rows(seed: int, batch: int, exc: Exception):
    cfg = sweep_config(seed, batch, SWEEP_WORKERS)
    status = f"failed:{type(exc).__name__}"
    return [
        isacbeam.TrialRecord(p, cfg.base_seed, s, status, math.nan, math.nan, math.nan, 0, 0.0)
        for p in POWERS_DBM for s in SOLVERS
    ]


# --- traced (per-layer) runs ----------------------------------------------------

SELF_US = (
    "scene.build_steering_set", "scene.sample_scene",
    "metrics.fim_from_covariance", "metrics.crlb_trace", "metrics.inverse_fisher",
    "metrics.sum_rate", "metrics.objective",
    "sca.quad_matrix", "sca.power_iteration", "sca.shift_parameter",
    "sca.surrogate_matrices", "sca.sca_step", "sca.comm_aux_core",
    "lowdim.build_basis", "lowdim.effective_channels", "lowdim.ld_step",
)
CALLS_PER_ITER = ("metrics.fim_from_covariance", "metrics.crlb_trace", "metrics.user_rate")
CALLS_PER_SOLVE = ("scene.build_steering_set",)
FRONT_ENDS = (("full", "sca.solve"), ("lowdim", "lowdim.solve_ld"))
# n_tx -> (array side, fixed max_iters) of the scaling probe
SCALING = {16: (4, 40), 64: (8, 40), 256: (16, 10), 1024: (32, 3)}


def traced_units(work: Workload, seconds: float) -> int:
    return max(1, int(seconds // work.traced_unit_s))


def scaling_probe(seed: int) -> dict:
    """Per-iteration cost of each front end at growing n_tx, fixed iterations."""
    out = {}
    for n_tx, (side, iters) in SCALING.items():
        scene = isacbeam.sample_scene(
            scene_seed(seed, WARMUP_INDEX), tx_geometry=ArrayGeometry(side, side),
            targets=isacbeam.benchmark_targets(),
        )
        cfg = SolverConfig(max_iters=iters, tol_objective=0.0)
        for solver, name in FRONT_ENDS:
            fn = isacbeam.solve if solver == "full" else isacbeam.solve_ld
            with capped_on_purpose():
                result = fn(scene, WEIGHTS, cfg)
            out[f"{name}.us_per_iter.ntx{n_tx}"] = (result.timings["per_iteration_s"] * 1e6, "us")
    return out


def layer_metrics(tracer: Tracer, traced, untraced, functions, untraced_s, traced_s) -> tuple:
    """Per-layer metrics from the spans, the traced outcomes (counts) and the
    untraced outcomes of the same inputs (SolveResult timings)."""
    summary = tracer.summary()
    iters = sum(o.iterations for o in traced if o.returned)
    solves = sum(o.returned for o in traced)
    metrics = {}
    for name in SELF_US:
        s = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.self_us"] = (s["self_s"] / s["calls"] * 1e6 if s["calls"] else 0.0, "us")
    for name in CALLS_PER_ITER:
        calls = summary.get(name, {}).get("calls_in_solve", 0)
        metrics[f"{name}.calls_per_iter"] = (calls / iters if iters else 0.0, "count")
    for name in CALLS_PER_SOLVE:
        calls = summary.get(name, {}).get("calls_in_solve", 0)
        metrics[f"{name}.calls_per_solve"] = (calls / solves if solves else 0.0, "count")
    for solver, name in FRONT_ENDS:
        mine = [o for o in traced if o.solver == solver and o.returned]
        plain = [o for o in untraced if o.solver == solver and o.returned]
        n_iter = sum(o.iterations for o in mine)
        metrics[f"{name}.iterations_mean"] = (float(np.mean([o.iterations for o in mine])), "count")
        metrics[f"{name}.us_per_iter"] = (
            float(np.mean([o.timings["per_iteration_s"] for o in plain])) * 1e6, "us")
        metrics[f"{name}.setup_ms"] = (
            float(np.mean([o.timings["setup_s"] for o in plain])) * 1e3, "ms")
        self_s = summary.get(name, {}).get("self_s", 0.0)
        metrics[f"{name}.self_us_per_iter"] = (self_s / n_iter * 1e6 if n_iter else 0.0, "us")
    metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "1")

    total_self = sum(s["self_s"] for s in summary.values()) or 1.0
    table = {
        name: {
            "calls": s["calls"],
            "calls_per_iter": s["calls_in_solve"] / iters if iters else 0.0,
            "self_us": s["self_s"] / s["calls"] * 1e6 if s["calls"] else 0.0,
            "self_frac": s["self_s"] / total_self,
        }
        for name, s in summary.items()
        if s["calls"]
    }
    wanted = set(SELF_US) | set(CALLS_PER_ITER) | set(CALLS_PER_SOLVE) | {n for _, n in FRONT_ENDS}
    notes = {
        "layers": table,
        "absent": sorted(wanted - set(functions)),
        "uncalled": sorted(n for n in wanted & set(functions) if not summary[n]["calls"]),
        "traced_iterations": iters,
        "traced_solves": solves,
    }
    return metrics, notes


def trace_direct(work: Workload, seed: int, seconds: float) -> RunResult:
    functions = public_functions()
    tracer = Tracer(functions)
    count = traced_units(work, seconds)
    with tracer.active():
        inputs = build_inputs(work, seed, count)
    warm_up(work, seed)
    plain, traced = [], []
    untraced_s = traced_s = 0.0
    for seed_value, scene, _ in inputs:
        for solver in SOLVERS:
            out = timed_solve(solver, scene, seed_value, 10.0)
            untraced_s += out.wall_ms / 1e3
            plain.append((scene, out))
        with tracer.active():
            for solver in SOLVERS:
                out = timed_solve(solver, scene, seed_value, 10.0)
                traced_s += out.wall_ms / 1e3
                traced.append((scene, out))
    return traced_result(work, seed, tracer, functions, plain, traced, untraced_s, traced_s)


def trace_sweep(seed: int, seconds: float) -> RunResult:
    """Sweep batches with one in-process worker, so every span is recorded
    here; each batch runs untraced, then traced."""
    work = WORKLOADS["power_sweep"]
    warm_up(work, seed)
    capture = Capture(OUT / f"capture-{os.getpid()}")
    plain_rows, traced_rows, plain_results, traced_results = [], [], {}, {}
    untraced_s = traced_s = 0.0
    try:
        with capture.active():
            # Built while the capture is bound, so the tracer wraps its wrappers.
            functions = public_functions()
            tracer = Tracer(functions)
            for batch in range(traced_units(work, seconds)):
                cfg = sweep_config(seed, batch, workers=1)
                t0 = perf_counter()
                plain_rows.extend(isacbeam.run_experiment(cfg).records)
                untraced_s += perf_counter() - t0
                plain_results.update(capture.drain()[0])
                with tracer.active():
                    t0 = perf_counter()
                    traced_rows.extend(isacbeam.run_experiment(cfg).records)
                    traced_s += perf_counter() - t0
                traced_results.update(capture.drain()[0])
    finally:
        capture.close()
    traced = sweep_outcomes(traced_rows, traced_results)
    result = traced_result(
        work, seed, tracer, functions, sweep_outcomes(plain_rows, plain_results), traced,
        untraced_s, traced_s, roots=("experiments.run_experiment",),
    )
    result.notes["experiments"] = per_power([out for _, out in traced])
    return result


def traced_result(work, seed, tracer, functions, plain_pairs, traced_pairs,
                  untraced_s, traced_s, roots=("sca.solve", "lowdim.solve_ld")) -> RunResult:
    plain = finish(plain_pairs, oracle=False)
    traced = finish(traced_pairs, oracle=False)
    metrics, notes = layer_metrics(tracer, traced, plain, functions, untraced_s, traced_s)
    metrics.update(scaling_probe(seed))
    root_s = tracer.root_seconds(roots)
    notes["self_time_sum_s"] = tracer.self_seconds_under(roots)
    notes["root_span_s"] = root_s
    notes["caller_wall_s"] = traced_s
    notes["self_cover_frac"] = notes["self_time_sum_s"] / traced_s
    run_checks = {
        # The tracer must not change what the solvers compute.
        "traced_equals_untraced": {
            "passed": [(o.solver, o.scene_seed, o.power_dbm, o.iterations, o.objective) for o in plain]
            == [(o.solver, o.scene_seed, o.power_dbm, o.iterations, o.objective) for o in traced]
        }
    }
    path = OUT / f"spans-{work.name}-seed{seed}.npz"
    tracer.save(path)
    notes["spans_file"] = str(path.relative_to(ROOT))
    notes["spans"] = len(tracer.start)
    return RunResult(plain + traced, metrics, notes, run_checks)


def run(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    work = WORKLOADS[workload]
    if work.name == "power_sweep":
        return trace_sweep(seed, seconds) if trace else run_sweep(seed, seconds)
    return trace_direct(work, seed, seconds) if trace else run_direct(work, seed, seconds)
