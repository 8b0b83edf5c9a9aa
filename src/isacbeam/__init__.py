"""ISAC beamforming: sum-rate / CRLB tradeoff optimization via sphere projections."""

from .experiments import ExperimentConfig, TrialRecord, run_experiment, verify
from .lowdim import solve_ld
from .metrics import Beamformer, SingularFisherError, Weights
from .sca import SolveResult, SolverConfig, solve
from .scene import (
    ArrayGeometry,
    Scene,
    SteeringSet,
    Target,
    benchmark_targets,
    build_steering_set,
    sample_scene,
)

__all__ = [
    "ArrayGeometry",
    "Beamformer",
    "ExperimentConfig",
    "Scene",
    "SingularFisherError",
    "SolveResult",
    "SolverConfig",
    "SteeringSet",
    "Target",
    "TrialRecord",
    "Weights",
    "benchmark_targets",
    "build_steering_set",
    "run_experiment",
    "sample_scene",
    "solve",
    "solve_ld",
    "verify",
]
