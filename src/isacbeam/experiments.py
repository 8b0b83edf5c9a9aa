"""Experiment harness: seeded sweeps, aggregation, CSV/JSON emission.

A sweep varies one axis (tradeoff weight, stream count, antenna count, user
count, or transmit power) over a list of values, solving `trials` seeded
instances per value. Records come in the order of the trials, (sweep value,
seed, solver), so results are independent of worker scheduling.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analysis, lowdim, metrics, sca
from .metrics import Weights
from .scene import ArrayGeometry, _call, check_integer, check_real, philox, sample_scene, scene_from_config
from .sca import SolverConfig

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentResult",
    "front_ends",
    "run_experiment",
    "records_to_csv",
    "verify",
    "config_from_dict",
    "CSV_HEADER",
]

CSV_HEADER = (
    "sweep_axis,sweep_value,seed,solver,status,"
    "sum_rate_nats,crlb_trace,objective,iterations,wall_ms"
)

# sweep axis: (least value of a count axis or None, the scene key each trial sets or None)
_AXES = {"comm_weight": (None, None), "n_sense": (0, None), "n_tx": (1, "tx_geometry"),
         "n_users": (0, "n_users"), "power_dbm": (None, "power_dbm")}
_SOLVERS = {"full": ("full",), "lowdim": ("lowdim",), "both": ("full", "lowdim")}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: axis, values, trial count, solver selection, scene overrides.

    scene holds scene_from_config keys, but neither seed (trial seeds are
    base_seed + trial index) nor the key the sweep axis sets (tx_geometry
    under n_tx, n_users, power_dbm): either is a ValueError. comm_weight is
    the weight of sweeps along the other axes (`config_from_dict` rejects it
    under a comm_weight sweep). measure_time, a bool, set False zeroes
    wall_ms so repeated runs emit byte-identical CSV.
    """

    sweep_axis: str = "comm_weight"
    sweep_values: tuple = (0.25,)
    trials: int = 50
    base_seed: int = 0
    solver: str = "full"
    comm_weight: float = 0.25
    sense_weight: float = 1.0
    scene: dict = field(default_factory=dict)
    solver_config: SolverConfig = SolverConfig()
    workers: int = 1
    measure_time: bool = True

    def __post_init__(self):
        if not isinstance(self.sweep_axis, str) or self.sweep_axis not in _AXES:
            raise ValueError(f"sweep_axis must be one of {tuple(_AXES)}, got {self.sweep_axis!r}")
        least, scene_key = _AXES[self.sweep_axis]
        if not isinstance(self.solver_config, SolverConfig):
            raise ValueError("solver_config must be a SolverConfig")
        if "lowdim" in dict(front_ends(self.solver)):  # front_ends checks the choice
            lowdim._check_config(self.solver_config)
        try:
            values = tuple(self.sweep_values)
        except TypeError:
            raise ValueError(f"sweep_values must be a list, got {self.sweep_values!r}") from None
        if not values:
            raise ValueError("sweep_values must be nonempty")
        check_integer("trials", self.trials, 1)
        check_integer("workers", self.workers, 1)
        check_integer("base_seed", self.base_seed, 0)
        Weights(self.comm_weight, self.sense_weight)
        if not isinstance(self.measure_time, bool):
            raise ValueError(f"measure_time must be a bool, got {self.measure_time!r}")
        for value in values:
            if least is not None:
                check_integer(self.sweep_axis, value, least)
            elif self.sweep_axis == "comm_weight":
                Weights(value, self.sense_weight)
            else:
                check_real(self.sweep_axis, value)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep_values must be strictly ascending")
        if not isinstance(self.scene, dict):
            raise ValueError(f"scene must be a dict of scene keys, got {self.scene!r}")
        for key in ("seed", scene_key):
            if key in self.scene:
                raise ValueError(f"scene must not hold {key!r}, which each trial of this sweep sets")
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "scene", dict(self.scene))


@dataclass(frozen=True)
class TrialRecord:
    """One solved instance: identity columns plus final metrics.
    stationarity (`SolveResult.stationarity`) comes last so that positional
    construction keeps working; it is NaN for a failed trial and is not a CSV
    column."""

    sweep_value: float
    seed: int
    solver: str
    status: str
    sum_rate: float
    crlb_trace: float
    objective: float
    iterations: int
    wall_ms: float
    stationarity: float = float("nan")

    def __post_init__(self):
        check_integer("iterations", self.iterations, 0)
        check_real("wall_ms", self.wall_ms, 0.0)


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple
    summary: dict


def _near_square(n: int) -> list:
    """Closest-to-square [nh, nv] factorization of an antenna count, wider side first."""
    best = [n, 1]
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            best = [n // d, d]
    return best


def _trial_inputs(cfg: ExperimentConfig, value, seed: int):
    scene_cfg = {**cfg.scene, "seed": seed}
    weights = Weights(value if cfg.sweep_axis == "comm_weight" else cfg.comm_weight, cfg.sense_weight)
    scene_key = _AXES[cfg.sweep_axis][1]
    if scene_key == "tx_geometry":
        value = _near_square(value)
    if scene_key is not None:
        scene_cfg[scene_key] = value
    return scene_cfg, weights, value if cfg.sweep_axis == "n_sense" else None


def front_ends(solver: str) -> list:
    """(name, solve function) pairs that a solver choice (a key of _SOLVERS)
    runs, in record order; another choice is a ValueError. The functions are
    looked up when called, so a rebound sca.solve or lowdim.solve_ld runs."""
    if not isinstance(solver, str) or solver not in _SOLVERS:
        raise ValueError(f"solver must be one of {tuple(_SOLVERS)}, got {solver!r}")
    return [(name, lowdim.solve_ld if name == "lowdim" else sca.solve) for name in _SOLVERS[solver]]


def _run_trial(cfg: ExperimentConfig, value, seed: int, solver_name: str) -> TrialRecord:
    scene_cfg, weights, n_sense = _trial_inputs(cfg, value, seed)
    scene = scene_from_config(scene_cfg)
    t0 = time.perf_counter()
    try:
        [(_, front_end)] = front_ends(solver_name)
        result = front_end(scene, weights, cfg.solver_config, n_sense=n_sense)
        status = "ok" if result.converged else "nonconverged"
        numbers = (result.sum_rate, result.crlb_trace, result.objective, result.iterations, result.stationarity)
    except (metrics.SingularFisherError, ValueError) as exc:
        status = f"failed:{type(exc).__name__}"
        numbers = (math.nan, math.nan, math.nan, 0, math.nan)
    wall_ms = (time.perf_counter() - t0) * 1e3 if cfg.measure_time else 0.0
    sum_rate, crlb, objective, iterations, stationarity = numbers
    return TrialRecord(
        sweep_value=float(value),
        seed=seed,
        solver=solver_name,
        status=status,
        sum_rate=float(sum_rate),
        crlb_trace=float(crlb),
        objective=float(objective),
        iterations=iterations,
        wall_ms=wall_ms,
        stationarity=float(stationarity),
    )


def _trial_args(cfg: ExperimentConfig):
    solvers = [name for name, _ in front_ends(cfg.solver)]
    for value in cfg.sweep_values:
        for trial in range(cfg.trials):
            for solver_name in solvers:
                yield (cfg, value, cfg.base_seed + trial, solver_name)


def _summarize(records) -> dict:
    """{solver: {repr(sweep value): bucket}}, the groups in record order."""
    groups: dict = {}
    for rec in records:
        groups.setdefault(rec.solver, {}).setdefault(repr(rec.sweep_value), []).append(rec)
    return {
        solver: {value: _bucket(rows) for value, rows in per_value.items()}
        for solver, per_value in groups.items()
    }


def _bucket(rows: list) -> dict:
    """Counts and statistics of one group's records. Failed rows count only
    in n and n_failed; non-finite metrics are left out of the means."""
    solved = [r for r in rows if not r.status.startswith("failed")]
    n_ok = sum(r.status == "ok" for r in solved)
    bucket = {"n": len(rows), "n_ok": n_ok, "n_nonconverged": len(solved) - n_ok,
              "n_failed": len(rows) - len(solved)}
    iterations = [r.iterations for r in solved]
    residuals = [r.stationarity for r in solved]
    bucket["iterations"] = (
        {"mean": float(np.mean(iterations)), "max": int(max(iterations))}
        if solved else {"mean": math.nan, "max": math.nan}
    )
    bucket["stationarity"] = (
        {"median": float(np.median(residuals)), "max": float(max(residuals))}
        if solved else {"median": math.nan, "max": math.nan}
    )
    for attr, name in (("sum_rate", "sum_rate_nats"), ("crlb_trace", "crlb_trace"), ("objective", "objective")):
        vals = np.array([getattr(r, attr) for r in solved], dtype=float)
        vals = vals[np.isfinite(vals)]
        if vals.size:
            stderr = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            bucket[name] = {"mean": float(np.mean(vals)), "stderr": stderr}
        else:
            bucket[name] = {"mean": math.nan, "stderr": math.nan}
    return bucket


# This process's pool, (key, executor) or None, kept across sweeps so that a
# loop of sweeps does not fork and warm its workers each time. The key holds
# the worker count and the functions a trial looks up, so a rebinding of any
# of them gets workers that run it. The lock makes the check-then-replace and
# the map one step for concurrent callers.
_pool = None
_pool_lock = threading.Lock()


def _exit_with_parent() -> None:
    """Pool-worker initializer: a thread that ends the worker once the process
    that started the pool is gone. A caller killed by a signal never runs the
    exit hook that joins its workers, which would otherwise wait on the task
    queue for good. This waits on multiprocessing's parent sentinel, not on
    the OS parent, which is a forkserver under that start method."""
    parent = multiprocessing.parent_process()

    def watch():
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _drop_pool() -> None:
    """Shut the pool down and join its threads and workers."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True)
        _pool = None


def _pooled(cfg: ExperimentConfig, args: list) -> list:
    """The trials' records from the process pool of cfg.workers workers.

    A pool with another key is shut down before this one starts, so no fork
    happens while its threads run. A worker that dies raises BrokenProcessPool
    here; the pool is dropped, and the next call starts a fresh one."""
    global _pool
    key = (cfg.workers, sca.solve, lowdim.solve_ld, scene_from_config)
    with _pool_lock:
        if _pool is None or _pool[0] != key:
            _drop_pool()
            _pool = (key, ProcessPoolExecutor(max_workers=cfg.workers, initializer=_exit_with_parent))
        try:
            return list(_pool[1].map(_run_trial, *zip(*args)))
        except BrokenProcessPool:
            _drop_pool()
            raise


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (sweep value, seed, solver) trial and aggregate.

    Individual trial failures become failed rows; they never abort the sweep.
    Records come in trial order however the workers finish (`Executor.map`
    keeps its input's order). With workers > 1 the trials run on a process
    pool that is kept for later calls with the same workers and solve
    functions.
    """
    args = list(_trial_args(cfg))
    if cfg.workers > 1:
        records = _pooled(cfg, args)
    else:
        records = [_run_trial(*a) for a in args]
    return ExperimentResult(records=tuple(records), summary=_summarize(records))


def records_to_csv(records, sweep_axis: str) -> str:
    """Serialize trial records under the fixed CSV header."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for rec in records:
        writer.writerow(
            [
                sweep_axis,
                repr(rec.sweep_value),
                rec.seed,
                rec.solver,
                rec.status,
                repr(rec.sum_rate),
                repr(rec.crlb_trace),
                repr(rec.objective),
                rec.iterations,
                repr(rec.wall_ms),
            ]
        )
    return out.getvalue()


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat JSON-style dict; comm_weight under
    a comm_weight sweep, or an unknown key, is a ValueError naming it."""
    data = dict(raw)
    if "comm_weight" in data and data.get("sweep_axis", ExperimentConfig.sweep_axis) == "comm_weight":
        raise ValueError("comm_weight must not be set under a comm_weight sweep, whose values are the weights")
    if "solver_config" in data:
        data["solver_config"] = _call(SolverConfig, "solver_config", data["solver_config"])
    return _call(ExperimentConfig, "experiment config", data)


# --- verification -----------------------------------------------------------


def _check(name: str, value: float, threshold: float) -> analysis.CheckRecord:
    return analysis.CheckRecord(
        name=name, value=float(value), threshold=float(threshold),
        passed=bool(value <= threshold),
    )


def verify(scene_config: Optional[dict] = None) -> list:
    """Run the structural invariant suite on freshly solved instances.

    Returns nine CheckRecords: oracle agreement (gradient, Fisher
    information, adjoint identity), full-power behavior (the solve ends at
    full power and gains nothing by scaling inward), the solve's reported
    stationarity residual against `analysis.obs_residuals`, and
    stationary-structure residuals (the sensing one on the same scene
    without users, whose sensing streams are active). The scene_config seed
    (default `ExperimentConfig.base_seed`) seeds every scene and draw."""
    scene_cfg = {"seed": ExperimentConfig.base_seed, **(scene_config or {})}
    scene = scene_from_config(scene_cfg)
    seed = scene_cfg["seed"]
    weights = Weights(ExperimentConfig.comm_weight, ExperimentConfig.sense_weight)
    checks = []

    # the derived keys wrap, so that every seed in [0, 2^64) has them
    small = sample_scene((int(seed) + 1) % 2**64, tx_geometry=ArrayGeometry(3, 2),
                         rx_geometry=ArrayGeometry(2, 2), n_users=2, n_targets=1, n_slots=8)
    w_small = sca.start_beamformer(small, 3)
    g_fd = analysis.fd_gradient(small, w_small, weights)
    g_an = sca.analytic_gradient(small, w_small, weights)
    checks.append(_check("gradient_fd_relative_error",
                         np.linalg.norm(g_an - g_fd) / np.linalg.norm(g_fd), 1e-5))

    w0 = sca.start_beamformer(scene, 3 * scene.n_targets)  # a stream on every column of Sbar
    f_fd = analysis.fd_fim(scene, w0)
    f_an = metrics.fim(scene, w0)
    checks.append(_check("fim_fd_relative_error",
                         np.linalg.norm(f_an - f_fd) / np.linalg.norm(f_fd), 1e-5))

    rng = philox((int(seed) + 0x5EED) % 2**64)
    worst = 0.0
    for _ in range(10):
        wmat = rng.standard_normal(w0.matrix.shape) + 1j * rng.standard_normal(w0.matrix.shape)
        wr = w0.replace_matrix(sca.project_power(wmat, scene.power_budget, 1))
        phi = rng.standard_normal((4 * scene.n_targets,) * 2)
        phi = 0.5 * (phi + phi.T)
        zs = scene.steering.tx.conj().T @ wr.matrix
        kmat = metrics.table_adjoint(scene.geometry.operator, phi)
        lhs = float(np.trace(phi.T @ metrics.fim(scene, wr)))
        rhs = float(np.real(np.trace(kmat @ zs @ zs.conj().T)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    checks.append(_check("adjoint_identity_relative_error", worst, 1e-8))

    result = sca.solve(scene, weights)
    w = result.beamformer
    checks.append(_check("full_power_relative_error",
                         abs(w.total_power - scene.power_budget) / scene.power_budget, 1e-9))
    shrunk = w.replace_matrix(0.99 * w.matrix)
    inward = metrics.objective(scene, shrunk, weights) - result.objective
    checks.append(_check("inward_scaling_gain", inward, 0.0))
    reported = analysis.obs_residuals(scene, scene.steering, w, weights).stationarity_residual
    checks.append(_check("stationarity_report_error",
                         abs(result.stationarity - reported) / max(reported, 1e-300), 1e-6))

    tight_cfg = SolverConfig(tol_objective=0.0, max_iters=20000)  # stop once every change is roundoff
    tight = sca.solve(scene, weights, tight_cfg)
    report = analysis.obs_residuals(scene, scene.steering, tight.beamformer, weights)
    checks.append(_check("obs_stationarity_residual", report.stationarity_residual, 1e-2))
    checks.append(_check("obs_comm_structure_residual", report.comm_structure_residual, 1e-2))
    # with users the sensing block vanishes at these weights, which leaves the
    # eigenvector condition nothing to check; without users the default keeps
    # M sensing streams, and the solve keeps power on them
    radar = scene_from_config({**scene_cfg, "n_users": 0})
    sensing = sca.solve(radar, weights, tight_cfg)
    report = analysis.obs_residuals(radar, radar.steering, sensing.beamformer, weights)
    checks.append(_check("obs_sense_eigen_residual", report.sense_eigen_residual, 1e-2))
    return checks
