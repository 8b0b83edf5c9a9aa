"""Correctness checks applied to every solve the benchmark makes.

They are the acceptance suite's checks, restated for one solve at a time:
the beamformer lies on the power sphere, the objective trace never decreases,
the reported metrics are finite, and the full and reduced solvers reach the
same objective on the same scene. A solve that raises or fails any of them
counts as failed. The stationarity residual is the quality oracle, computed
outside the timed phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from isacbeam import Beamformer, Scene, SteeringSet, Weights, analysis

WEIGHTS = Weights(comm=0.25, sense=1.0)

SPHERE_RTOL = 1e-9
MONOTONE_SLACK = 1e-9
PARITY_RTOL = 0.01

# Published statistical benchmark over scene seeds 0-49, +/-10 percent bands.
BAND_SEEDS = range(50)
BANDS = {
    "full": {"sum_rate": 15.07, "crlb_trace": 1.13},
    "lowdim": {"sum_rate": 15.04, "crlb_trace": 1.14},
}
BAND_RTOL = 0.10


@dataclass
class Outcome:
    """One solve call as the caller saw it, plus what the checks found."""

    solver: str  # "full" or "lowdim"
    scene_seed: int
    power_dbm: float
    wall_ms: float
    error: Optional[str] = None
    beamformer: Optional[Beamformer] = None
    objective_trace: Optional[np.ndarray] = None
    sum_rate: float = math.nan
    crlb_trace: float = math.nan
    iterations: int = 0
    converged: bool = False
    timings: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    stationarity: float = math.nan
    # When and in which process the solve ran, and the host slowdown there
    # (see calibrate.py).
    start: float = math.nan
    end: float = math.nan
    pid: int = 0
    slowdown: float = 1.0

    @property
    def cal_ms(self) -> float:
        return self.wall_ms / self.slowdown

    @property
    def returned(self) -> bool:
        return self.error is None

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1]) if self.objective_trace is not None else math.nan

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @classmethod
    def from_result(cls, solver, scene_seed, power_dbm, wall_ms, result) -> "Outcome":
        return cls(
            solver=solver,
            scene_seed=scene_seed,
            power_dbm=power_dbm,
            wall_ms=wall_ms,
            beamformer=result.beamformer,
            objective_trace=np.asarray(result.objective_trace, dtype=float),
            sum_rate=float(result.sum_rate),
            crlb_trace=float(result.crlb_trace),
            iterations=int(result.iterations),
            converged=bool(result.converged),
            timings=dict(result.timings),
        )


def check_solve(scene: Scene, out: Outcome) -> None:
    """Record in ``out.problems`` every single-solve check it fails."""
    if out.error is not None:
        out.problems.append(f"raised {out.error}")
        return
    w = out.beamformer
    if w is None or out.objective_trace is None or out.objective_trace.size == 0:
        out.problems.append("no beamformer or objective trace returned")
        return
    if w.n_tx != scene.n_tx or w.n_users != scene.n_users:
        out.problems.append("beamformer shape does not match the scene")
        return
    if abs(w.total_power - scene.power_budget) > SPHERE_RTOL * scene.power_budget:
        out.problems.append(
            f"off the power sphere: {w.total_power!r} vs budget {scene.power_budget!r}"
        )
    trace = out.objective_trace
    slack = MONOTONE_SLACK * max(1.0, float(np.max(np.abs(trace))))
    if trace.size > 1 and float(np.min(np.diff(trace))) < -slack:
        out.problems.append("objective trace decreases")
    if not all(math.isfinite(v) for v in (out.sum_rate, out.crlb_trace, out.objective)):
        out.problems.append("non-finite sum rate, CRLB or objective")
    if out.iterations != trace.size - 1:
        out.problems.append("iteration count disagrees with the objective trace")


def check_parity(full: Outcome, lowdim: Outcome) -> None:
    """Full and reduced solvers must agree within 1% on the same scene; a pair
    that disagrees marks both solves failed."""
    if not (full.returned and lowdim.returned):
        return
    ref = abs(full.objective)
    if not abs(lowdim.objective - full.objective) <= PARITY_RTOL * ref:
        msg = f"full/lowdim objective parity {full.objective!r} vs {lowdim.objective!r}"
        full.problems.append(msg)
        lowdim.problems.append(msg)


def check_pairs(outcomes) -> None:
    """Apply :func:`check_parity` to every (scene, power) solved by both."""
    pairs: dict = {}
    for out in outcomes:
        pairs.setdefault((out.scene_seed, out.power_dbm), {})[out.solver] = out
    for pair in pairs.values():
        if "full" in pair and "lowdim" in pair:
            check_parity(pair["full"], pair["lowdim"])


def band_check(outcomes) -> Optional[dict]:
    """Mean sum rate and CRLB over scene seeds 0-49 against the published
    bands, or None when this run did not solve all of those seeds."""
    report = {}
    for solver, band in BANDS.items():
        by_seed = {o.scene_seed: o for o in outcomes if o.solver == solver and o.returned}
        if not all(s in by_seed for s in BAND_SEEDS):
            return None
        entry = {"passed": True}
        for key, target in band.items():
            mean = float(np.mean([getattr(by_seed[s], key) for s in BAND_SEEDS]))
            entry[key] = mean
            if not abs(mean - target) <= BAND_RTOL * target:
                entry["passed"] = False
        report[solver] = entry
    return report


def stationarity(scene: Scene, steering: SteeringSet, out: Outcome) -> None:
    """Scale-free stationarity residual of a returned beamformer (NaN when the
    oracle itself cannot evaluate it)."""
    if out.beamformer is None:
        return
    try:
        report = analysis.obs_residuals(scene, steering, out.beamformer, WEIGHTS)
    except (RuntimeError, ValueError, np.linalg.LinAlgError):
        return
    out.stationarity = float(report.stationarity_residual)
