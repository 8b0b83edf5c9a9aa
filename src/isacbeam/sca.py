"""Successive convex approximation solver: one core in basis coordinates.

Stationary beamformers lie in the span of V = [H, A, A_dtheta, A_dphi], and
every per-iteration quantity depends on the iterate only through Z = V^H W:
the rates through the rows Z[:K], the Fisher matrix through
R_s = Z_S Z_S^H with Z_S = Z[K:]. Each iteration evaluates the objective and
the surrogate auxiliaries at Z once, then takes the majorization-minimization
step (Sun, Babu & Palomar, IEEE TSP 2017)

    X+ = Pi(lambda X + lift(E - D Z)),

with D = blockdiag(delta_c diag(sigma2), -delta_s K) the surrogate curvature
in basis coordinates and lambda = 1.1 max|eig(G^1/2 D G^1/2)|, G = V^H V, the
exact spectral shift. `solve` keeps antenna coordinates (X = W, Z = V^H X,
lift = V., sphere or per-antenna Pi); `lowdim.solve_ld` keeps basis
coordinates. Both run the loop in `run`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import metrics
from .metrics import Beamformer, SingularFisherError, Weights
from .scene import Scene, SteeringSet, build_steering_set

__all__ = [
    "CommAux",
    "Point",
    "SolverConfig",
    "SolverCore",
    "SolveResult",
    "comm_aux_core",
    "solver_core",
    "evaluate",
    "curvature",
    "half_gradient",
    "shift_parameter",
    "quad_matrix",
    "project_total_power",
    "project_per_antenna",
    "sca_step",
    "prepare",
    "run",
    "solve",
    "analytic_gradient",
    "matched_filter_init",
]

logger = logging.getLogger(__name__)

# The shift is this factor times the exact curvature radius, floored so that a
# vanishing curvature still leaves a well-defined step.
LAMBDA_SAFETY = 1.1
LAMBDA_FLOOR = 1e-8


@dataclass(frozen=True)
class CommAux:
    """Per-user expansion-point auxiliaries for the rate surrogate.

    sinr: current SINR values; signal_coeff: complex linearization coefficient
    of the desired signal; power_coeff: received-power penalty weight.
    """

    sinr: np.ndarray
    signal_coeff: np.ndarray
    power_coeff: np.ndarray


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    tol_objective: float = 1e-4
    init_mode: str = "matched-filter"  # or "random"
    power_constraint: str = "total"  # or "per-antenna"
    init_seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.tol_objective) and self.tol_objective >= 0):
            raise ValueError("tol_objective must be finite and nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.init_mode not in ("matched-filter", "random"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.power_constraint not in ("total", "per-antenna"):
            raise ValueError(f"unknown power_constraint {self.power_constraint!r}")


@dataclass(frozen=True)
class SolveResult:
    beamformer: Beamformer
    objective_trace: np.ndarray
    sum_rate: float
    crlb_trace: float
    iterations: int
    converged: bool
    timings: dict = field(default_factory=dict)

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


@dataclass(frozen=True)
class SolverCore:
    """What the iteration needs of a scene, in basis coordinates.

    basis is V = [H, A, A_dtheta, A_dphi] (n_tx x (K + 3M)), gram = V^H V and
    gram_half its positive semidefinite square root (G may be singular, for
    example with repeated targets). table is the Fisher Jacobian table, None
    when the sensing weight is zero.
    """

    scene: Scene
    steering: SteeringSet
    weights: Weights
    basis: np.ndarray
    gram: np.ndarray
    gram_half: np.ndarray
    table: Optional[metrics.JacobianTable]

    def coords(self, w: np.ndarray) -> np.ndarray:
        """Z = V^H W."""
        return self.basis.conj().T @ w

    def lift(self, y: np.ndarray) -> np.ndarray:
        """V Y, the antenna-domain matrix with basis coefficients Y."""
        return self.basis @ y


@dataclass(frozen=True)
class Point:
    """Objective value at an iterate and the surrogate auxiliaries there:
    the rate auxiliaries and the squared inverse Fisher matrix (None without a
    sensing term)."""

    objective: float
    comm: CommAux
    inv_sq: Optional[np.ndarray]


def solver_core(scene: Scene, steering: SteeringSet, weights: Weights) -> SolverCore:
    """Basis, Gram square root and Jacobian table of a scene.

    A positive sensing weight needs targets whose parameters are identifiable:
    the Fisher matrix at R_x = I has the largest null space of any transmit
    covariance, so when it is rank-deficient every beamformer's Fisher matrix
    is singular (repeated targets, for example) and ValueError is raised.
    """
    basis = np.concatenate([scene.channels, steering.tx], axis=1)
    gram = basis.conj().T @ basis
    eigs, vecs = np.linalg.eigh(gram)
    gram_half = (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
    table = None
    if weights.sense > 0:
        if scene.n_targets == 0:
            raise ValueError("a positive sensing weight needs at least one target")
        table = metrics.jacobian_table(steering, scene.noise_radar, scene.slots)
        k = scene.n_users
        widest = metrics.table_fim(table, gram[k:, k:]).matrix
        if np.linalg.matrix_rank(widest, hermitian=True) < widest.shape[0]:
            raise ValueError("target parameters are unidentifiable: singular Fisher matrix")
    return SolverCore(scene, steering, weights, basis, gram, gram_half, table)


def comm_aux_core(gains: np.ndarray, noise: np.ndarray) -> CommAux:
    """Rate-surrogate auxiliaries from the gains H^H W (K x streams, the first
    K columns the communication streams).

    Users with a vanishing desired signal get all three auxiliaries set to 0,
    which drops the linear term from their surrogate.
    """
    sinr, total = metrics.sinr(gains, noise)
    desired = np.diag(gains[:, : gains.shape[0]])
    signal_coeff = sinr / np.where(desired == 0, 1.0, desired)
    return CommAux(sinr=sinr, signal_coeff=signal_coeff, power_coeff=sinr / total)


def evaluate(core: SolverCore, z: np.ndarray) -> Point:
    """Objective and surrogate auxiliaries at the iterate with coordinates Z:
    one Fisher matrix and one SPD factorization."""
    k = core.scene.n_users
    aux = comm_aux_core(z[:k], core.scene.noise_comm)
    value = core.weights.comm * float(np.sum(np.log1p(aux.sinr)))
    if core.table is None:
        return Point(value, aux, None)
    zs = z[k:]
    inv = metrics.inverse_fisher(metrics.table_fim(core.table, zs @ zs.conj().T))
    return Point(value - core.weights.sense * float(np.trace(inv)), aux, inv @ inv)


def curvature(core: SolverCore, point: Point) -> np.ndarray:
    """D = blockdiag(delta_c diag(sigma2), -delta_s K), Hermitian, so that the
    antenna-domain surrogate curvature delta_c H Sigma2 H^H - delta_s Q is V D V^H."""
    k = core.scene.n_users
    d = np.zeros(core.gram.shape, dtype=complex)
    d[:k, :k] = np.diag(core.weights.comm * point.comm.power_coeff)
    if point.inv_sq is not None:
        kmat = metrics.table_adjoint(core.table, point.inv_sq)
        d[k:, k:] = -0.5 * core.weights.sense * (kmat + kmat.conj().T)
    return d


def half_gradient(core: SolverCore, point: Point, z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """E - D Z, where E holds delta_c Sigma1^H in the user rows and columns:
    the objective's gradient at the iterate is 2 V (E - D Z)."""
    k = core.scene.n_users
    g = -(d @ z)
    g[:k, :k] += np.diag(core.weights.comm * point.comm.signal_coeff.conj())
    return g


def shift_parameter(core: SolverCore, d: np.ndarray) -> float:
    """Safety factor times max|eig(G^1/2 D G^1/2)|, which equals the spectral
    radius of the antenna-domain curvature V D V^H; floored away from zero."""
    radius = float(np.max(np.abs(np.linalg.eigvalsh(core.gram_half @ d @ core.gram_half))))
    return max(LAMBDA_FLOOR, LAMBDA_SAFETY * radius)


def quad_matrix(steering: SteeringSet, phi: np.ndarray, noise_radar: float, slots: int) -> np.ndarray:
    """Transmit-side quadratic form matching tr(phi^T F): the n_tx x n_tx
    matrix Q = Sbar K Sbar^H with tr(phi^T F(W)) = Re tr(R_x Q)."""
    kmat = metrics.table_adjoint(metrics.jacobian_table(steering, noise_radar, slots), phi)
    return steering.tx @ kmat @ steering.tx.conj().T


def project_total_power(x: np.ndarray, power_budget: float) -> np.ndarray:
    """Scale onto the total-power sphere tr(X X^H) = power_budget."""
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ValueError("cannot project the zero matrix onto the power sphere")
    return np.sqrt(power_budget) / nrm * x


def project_per_antenna(x: np.ndarray, power_budget: float, n_tx: int) -> np.ndarray:
    """Scale each row onto power budget/n_tx squared norm (inverse square root
    of the per-row power, so the row-power constraint holds exactly)."""
    row_power = np.sum(np.abs(x) ** 2, axis=1)
    if np.any(row_power == 0.0):
        raise ValueError("cannot project a matrix with a zero row onto per-antenna powers")
    return x * np.sqrt(power_budget / n_tx / row_power)[:, None]


def _project(x: np.ndarray, power_budget: float, cfg: SolverConfig) -> np.ndarray:
    if cfg.power_constraint == "per-antenna":
        return project_per_antenna(x, power_budget, x.shape[0])
    return project_total_power(x, power_budget)


def sca_step(
    core: SolverCore,
    x: np.ndarray,
    z: np.ndarray,
    point: Point,
    lift: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, float]:
    """One surrogate maximization, X+ = Pi(lambda X + lift(E - D Z)).
    Returns (next iterate, shift)."""
    d = curvature(core, point)
    shift = shift_parameter(core, d)
    return project(shift * x + lift(half_gradient(core, point, z, d))), shift


def analytic_gradient(
    scene: Scene, steering: SteeringSet, w: Beamformer, weights: Weights
) -> np.ndarray:
    """Closed-form gradient of the tradeoff objective at w: 2 V (E - D Z)."""
    core = solver_core(scene, steering, weights)
    z = core.coords(w.matrix)
    point = evaluate(core, z)
    return 2.0 * core.lift(half_gradient(core, point, z, curvature(core, point)))


def matched_filter_init(
    scene: Scene, steering: SteeringSet, n_sense: int, cfg: SolverConfig
) -> Beamformer:
    """Default start: normalized user channels for communication columns,
    cycled transmit steering vectors for sensing columns, then one projection."""
    if cfg.init_mode == "random":
        rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.init_seed + 0xA11)))
        wc = rng.standard_normal((scene.n_tx, scene.n_users)) + 1j * rng.standard_normal(
            (scene.n_tx, scene.n_users)
        )
        ws = rng.standard_normal((scene.n_tx, n_sense)) + 1j * rng.standard_normal(
            (scene.n_tx, n_sense)
        )
    else:
        norms = np.linalg.norm(scene.channels, axis=0)
        wc = scene.channels / np.where(norms > 0, norms, 1.0)[None, :]
        if n_sense and scene.n_targets:
            ws = steering.tx[:, np.arange(n_sense) % scene.n_targets]
        else:
            ws = np.ones((scene.n_tx, n_sense), complex) / np.sqrt(scene.n_tx)
    stacked = np.concatenate([wc, ws], axis=1)
    if stacked.size == 0:
        raise ValueError("beamformer has no columns (n_users + n_sense = 0)")
    w = Beamformer(wc, ws, scene.power_budget)
    return w.replace_matrix(_project(stacked, w.power_budget, cfg))


def prepare(
    scene: Scene,
    weights: Weights,
    cfg: SolverConfig,
    n_sense: Optional[int],
    init: Optional[Beamformer] = None,
) -> tuple[SolverCore, Beamformer]:
    """Shared front-end validation: the solver core and the antenna-domain start.

    n_sense defaults to 3 * n_targets (the structural stream bound).
    """
    if n_sense is None:
        n_sense = 3 * scene.n_targets
    elif n_sense < 0:
        raise ValueError(f"n_sense must be nonnegative, got {n_sense}")
    core = solver_core(scene, build_steering_set(scene), weights)
    if init is None:
        init = matched_filter_init(scene, core.steering, n_sense, cfg)
    elif init.n_tx != scene.n_tx or init.n_users != scene.n_users:
        raise ValueError("initial beamformer dimensions do not match the scene")
    return core, init


def run(
    core: SolverCore,
    x: np.ndarray,
    cfg: SolverConfig,
    coords: Callable[[np.ndarray], np.ndarray],
    lift: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    antenna: Callable[[np.ndarray], np.ndarray],
    t0: float,
) -> SolveResult:
    """The iteration shared by both front ends, from iterate x to tolerance or
    iteration budget.

    coords maps an iterate to Z = V^H W, lift maps basis coefficients into the
    iterate's coordinates, project applies the power constraint there, and
    antenna returns the antenna-domain beamformer matrix; t0 is the
    front end's start time. A run that exhausts max_iters without meeting the
    tolerance is reported via converged=False, never silently truncated.
    """
    z = coords(x)
    point = evaluate(core, z)
    trace = [point.objective]
    t_setup = time.perf_counter() - t0
    t1 = time.perf_counter()
    converged = False
    for _ in range(cfg.max_iters):
        x, _ = sca_step(core, x, z, point, lift, project)
        z = coords(x)
        new = evaluate(core, z)
        trace.append(new.objective)
        delta, point = abs(new.objective - point.objective), new
        if delta <= cfg.tol_objective:
            converged = True
            break
    t_iter = time.perf_counter() - t1
    if not converged:
        logger.warning(
            "solver hit max_iters=%d with last objective change above tol=%g",
            cfg.max_iters,
            cfg.tol_objective,
        )
    t2 = time.perf_counter()
    scene = core.scene
    wmat = antenna(x)
    w = Beamformer(wmat[:, : scene.n_users], wmat[:, scene.n_users :], scene.power_budget)
    final_rate = metrics.sum_rate(scene, w)
    try:
        final_crlb = metrics.crlb_trace(metrics.fim(scene, core.steering, w))
    except (ValueError, SingularFisherError):  # no targets, or a singular Fisher matrix
        final_crlb = float("nan")
    iterations = len(trace) - 1
    timings = {
        "setup_s": t_setup,
        "iterations_s": t_iter,
        "metrics_s": time.perf_counter() - t2,
        "per_iteration_s": t_iter / max(iterations, 1),
    }
    return SolveResult(
        beamformer=w,
        objective_trace=np.array(trace),
        sum_rate=final_rate,
        crlb_trace=final_crlb,
        iterations=iterations,
        converged=converged,
        timings=timings,
    )


def solve(
    scene: Scene,
    weights: Weights,
    cfg: SolverConfig = SolverConfig(),
    n_sense: Optional[int] = None,
    init: Optional[Beamformer] = None,
) -> SolveResult:
    """Full-dimension front end: iterates on the antenna-domain beamformer, so
    it honours the per-antenna constraint and starts outside span(V).

    n_sense defaults to 3 * n_targets (the structural stream bound).
    """
    t0 = time.perf_counter()
    core, w0 = prepare(scene, weights, cfg, n_sense, init)
    budget = scene.power_budget
    return run(
        core, w0.matrix, cfg,
        coords=core.coords,
        lift=core.lift,
        project=lambda w: _project(w, budget, cfg),
        antenna=lambda w: w,
        t0=t0,
    )
