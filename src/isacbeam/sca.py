"""Successive convex approximation solver: one core in an orthonormal frame.

Stationary beamformers lie in the span of V = [H, A, A_dtheta, A_dphi], and
every per-iteration quantity depends on the iterate only through Z = V^H W:
the rates through the rows Z[:K], the Fisher matrix through
R_s = Z_S Z_S^H with Z_S = Z[K:]. So the solver reads its iterate X through
one matrix A, Z = A X. Under the total-power constraint X is the frame
coordinates Q: V~, the left singular vectors of V whose squared singular
values (the eigenvalues of G = V^H V) are numerically nonzero, has
orthonormal columns to roundoff, so W = V~ Q, |Q|^2 = |W|^2 and A is the
frame B = V^H V~ (Absil, Mahony & Sepulchre, Optimization Algorithms on
Matrix Manifolds, 2008, sec. 3.6). Under the per-antenna constraint, whose
projection leaves span(V), X = W and A = V^H. `evaluate` makes one record
of each iterate, a `Point`: Z, the objective, the surrogate curvature
D = blockdiag(delta_c diag(sigma2), -delta_s K) in basis coordinates and the
half gradient g = E - D Z, which together fix the surrogate there. The
objective's gradient in X is 2 A^H g, and its majorization-minimization (MM)
candidate (Sun, Babu & Palomar, IEEE TSP 2017) is

    X+ = Pi(lambda X + A^H g),

with lambda = 1.1 max|eig(B^H D B)| the exact spectral shift: unfloored, so
scaling the objective (weights, radar noise) leaves every iterate as it was.
Zero curvature brings g = 0, and X is its own MM candidate. A start is its
basis coefficients P0 alone, and the iteration starts at Pi(A^H P0): since
V~ B^H = V, under both constraints that is V P0 projected onto the
constraint set. The default P0 is regularized zero-forcing
(`start_coefficients`), the structure of the optimal communication beams
(Bjornson, Bengtsson & Ottersten, IEEE SPM 2014). Both front ends make one
call of `run`; under the total-power constraint it forms W = V~ Q once, at
the end. The steering set, Fisher operator and identifiability come memoized
from `scene.target_geometry`.

Each iteration first forms a quasi-Newton candidate: an L-BFGS step over the
last MEMORY pairs of Riemannian gradients (Liu & Nocedal, Math. Prog. 1989;
Huang, Gallivan & Absil, SIAM J. Optim. 2015) in the compact representation
(Byrd, Nocedal & Schnabel, Math. Prog. 1994), retracted by Pi and capped at a
trust radius (Absil, Mahony & Sepulchre, 2008, ch. 7). Both constraints are
one rule, Pi = `project_power`, the budget split equally over row groups of
X, so it runs on their spheres |x_i|^2 = budget/groups: |Q|^2 = budget for
total power (both front ends in the same arithmetic), the n_tx row spheres
per antenna (the oblique manifold, Absil & Gallivan, ICASSP 2006), with one
tangent: each group's gradient minus its component along the group. One
group runs the rule in whole-array arithmetic, with the bits of the row-wise
form and a few numpy calls fewer per pass (`project_power`). Each pass
measures objective changes against tau = max(tol_objective, ROUNDOFF |f|),
f the iterate's objective, so that a change within the objective's own
rounding never counts. A candidate that climbs by more than tau is taken
without forming the MM candidate, as in the guarded quasi-Newton
acceleration of MM (Zhou, Alexander & Lange, Stat. Comput. 2011); otherwise
the iteration keeps the better of the two. The linearized sensing term
bounds -tr(F^-1) from above, not below, so even the MM candidate can
descend: then the ascent check doubles the shift and retries it. A
candidate that falls by no more than tau, or that still falls once the
doublings run out, counts as no change (the iterate stays and the solve has
converged, except on the first pass, which cannot end a solve), so every
objective trace is monotone. The result reports the
stationarity residual, the relative norm of the gradient's tangent
component at the returned iterate. First iterations, which have no
quasi-Newton direction, take the MM candidate alone.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import metrics
from .metrics import Beamformer, SingularFisherError, Weights
from .scene import Scene, check_integer, check_real

__all__ = [
    "Point",
    "SolverConfig",
    "SolverCore",
    "SolveResult",
    "solver_core",
    "evaluate",
    "shift_parameter",
    "project_power",
    "run",
    "solve",
    "analytic_gradient",
    "start_beamformer",
    "start_coefficients",
]

logger = logging.getLogger(__name__)

# The shift is this factor times the exact curvature radius, with no floor.
LAMBDA_SAFETY = 1.1
# Curvature pairs the quasi-Newton candidate remembers.
MEMORY = 8
# A pair (s, y) enters the memory only when <s, y> exceeds this share of
# |s| |y|, which keeps the quasi-Newton model positive definite.
CURVATURE_FLOOR = 1e-10
# Trust radius of the quasi-Newton step: after a candidate that climbs it
# becomes at least GROW times the step, after one that does not SHRINK times it.
GROW = 4.0
SHRINK = 0.25
# Shift doublings the ascent check tries; a candidate that still falls after
# them counts as no change.
MAX_RETRIES = 30
# A change of at most this share of |f| is within the objective's rounding
# and counts as no change, however small tol_objective is.
ROUNDOFF = 1000 * np.finfo(float).eps
_POWER_CONSTRAINTS = ("total", "per-antenna")  # the constraints `project_power` handles


@dataclass(frozen=True)
class SolverConfig:
    """max_iters caps the passes of `run`. tol_objective is the absolute
    objective change below which a pass counts as no change and the solve
    stops; `run` raises it to ROUNDOFF |f| where the objective's rounding is
    larger, so tol_objective=0 means: stop once every change is roundoff."""

    max_iters: int = 5000
    tol_objective: float = 1e-4
    power_constraint: str = "total"  # or another of _POWER_CONSTRAINTS

    def __post_init__(self):
        check_real("tol_objective", self.tol_objective, 0.0)
        check_integer("max_iters", self.max_iters, 1)
        if self.power_constraint not in _POWER_CONSTRAINTS:
            raise ValueError(f"power_constraint must be one of {_POWER_CONSTRAINTS}, got {self.power_constraint!r}")


@dataclass(frozen=True)
class SolveResult:
    """What a solve returns. stationarity is the relative residual
    |grad - 2 diag(mu) W| / |grad| at the returned beamformer, one multiplier
    per group of `project_power` from its budget share, mu_i = Re<w_i, grad_i>
    / (2 budget / groups): one under the total-power constraint (the figure
    `analysis.obs_residuals` reports as stationarity_residual), one per row
    under the per-antenna one. It comes after timings so that positional
    construction keeps working. `run` returns objective_trace read-only, its
    last entry the objective, and timings holding setup_s and per_iteration_s."""

    beamformer: Beamformer
    objective_trace: np.ndarray
    sum_rate: float
    crlb_trace: float
    iterations: int
    converged: bool
    timings: dict = field(default_factory=dict)
    stationarity: float = float("nan")

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


@dataclass(frozen=True)
class SolverCore:
    """What the iteration needs of a scene, in frame coordinates.

    basis is V = [H, A, A_dtheta, A_dphi] (n_tx x (K + 3M)). orthonormal is
    V~, the r left singular vectors of V whose squared singular values pass
    numpy's `matrix_rank` cut on the eigenvalues of G = V^H V (G may be
    singular, for example with repeated targets or fewer antennas than basis
    columns); frame is B = V^H V~, so Z = B Q for W = V~ Q, and B B^H = G.
    operator is the scene's Fisher operator (`scene.geometry.operator`), a
    (0, 0) array when the scene has no targets.
    """

    scene: Scene
    weights: Weights
    basis: np.ndarray
    frame: np.ndarray
    orthonormal: np.ndarray
    operator: np.ndarray


@dataclass(frozen=True)
class Point:
    """An iterate's coordinates Z and what the surrogate there needs: the
    objective, the curvature D = blockdiag(delta_c diag(sigma2), -delta_s K),
    Hermitian, so that the antenna-domain surrogate curvature
    delta_c H Sigma2 H^H - delta_s Q is V D V^H, the half gradient
    g = E - D Z, E holding delta_c (h_k^H w_k) / (I_k + sigma2_k) on the user
    diagonal (0 for a user with no desired signal), I_k = sum_{j != k}
    |h_k^H w_j|^2, so that the objective's gradient is 2 V g, and the CRLB trace
    tr(F^-1) (NaN without a sensing term)."""

    z: np.ndarray
    objective: float
    curvature: np.ndarray
    gradient: np.ndarray
    crlb: float = math.nan


def solver_core(scene: Scene, weights: Weights) -> SolverCore:
    """Basis, frame and Fisher operator of a scene.

    A positive sensing weight needs targets whose parameters are identifiable
    (`scene.TargetGeometry`); otherwise every beamformer's Fisher matrix is
    singular and ValueError is raised.
    """
    basis = _basis(scene)
    left, sing, _ = np.linalg.svd(basis, full_matrices=False)
    eigs = sing**2  # the eigenvalues of G beyond n_tx are 0
    keep = eigs > eigs.max(initial=0.0) * basis.shape[1] * np.finfo(float).eps  # matrix_rank's cut
    orthonormal = left[:, keep]
    frame = basis.conj().T @ orthonormal
    if weights.sense > 0 and scene.n_targets == 0:
        raise ValueError("a positive sensing weight needs at least one target")
    if weights.sense > 0 and not scene.geometry.identifiable:
        raise ValueError("target parameters are unidentifiable: singular Fisher matrix")
    return SolverCore(scene, weights, basis, frame, orthonormal, scene.geometry.operator)


def evaluate(core: SolverCore, z: np.ndarray) -> Point:
    """The point with coordinates Z: one SINR evaluation on the gains Z[:K]
    = H^H W, one Fisher matrix and one SPD inverse (the core of
    `metrics.spd_inverse`, which skips the checks on caller input). Every
    rate term is built on the interference-plus-noise floor f_k of
    `metrics.sinr`: the signal coefficient conj(h_k^H w_k) / f_k and the
    curvature sinr_k / (f_k (1 + sinr_k)), so the rate terms of a user with a
    vanishing desired signal are 0, which drops the linear term from its
    surrogate."""
    k = core.scene.n_users
    gains = z[:k]
    sinr, floor = metrics.sinr(gains, core.scene.noise_comm)
    desired = gains.diagonal() / floor  # the conjugate signal coefficients
    value = core.weights.comm * float(np.log1p(sinr).sum())
    n = core.basis.shape[1]
    d = np.zeros((n, n), dtype=complex)
    d.reshape(-1)[: k * (n + 1) : n + 1] = core.weights.comm * (sinr / (floor * (1.0 + sinr)))  # d[i, i], i < K
    crlb = math.nan
    if core.weights.sense > 0:
        zs = z[k:]
        inv = metrics._cholesky_inverse(metrics.fim_matrix(core.operator, zs @ zs.conj().T))
        crlb = float(inv.trace())
        value -= core.weights.sense * crlb
        d[k:, k:] = -core.weights.sense * metrics.table_adjoint(core.operator, inv @ inv)
    g = -(d @ z)
    step = g.shape[1] + 1
    g.reshape(-1)[: k * step : step] += core.weights.comm * desired  # g[i, i], i < K
    return Point(z, value, d, g, crlb)


def shift_parameter(core: SolverCore, point: Point) -> float:
    """Safety factor times max|eig(B^H D B)|, D the point's curvature, which
    equals the spectral radius of the antenna-domain curvature V D V^H. No
    floor: scaling the objective scales the shift and leaves the MM candidate
    as it was. The shift is 0 only at zero curvature, which needs every
    desired gain 0 and no sensing term, so the half gradient is 0 too."""
    d = point.curvature
    radius = float(np.max(np.abs(np.linalg.eigvalsh(core.frame.conj().T @ d @ core.frame))))
    return LAMBDA_SAFETY * radius


def project_power(x: np.ndarray, power_budget: float, groups: int) -> np.ndarray:
    """Scale X onto the budget split equally over its groups: groups = 1 is
    the total-power sphere tr(X X^H) = power_budget, and groups = X's row
    count puts each row on a sphere of squared norm power_budget / groups
    (per antenna, for X = W). np.vecdot, here and in `run`'s tangent, rounds
    as np.vdot and ndarray.dot do (np.einsum does not), so one group runs
    whole-array arithmetic, np.vdot and scalars, with the bits of the
    row-wise form but without its reshape, vecdot and count, which cost
    1-3 us a call: about 6-7% of a total-power solve on the benchmark scene."""
    if groups == 1:
        norms = math.sqrt(np.vdot(x, x).real)
        zero = norms == 0.0
    else:
        rows = x.reshape(groups, -1)
        norms = np.sqrt(np.vecdot(rows, rows, keepdims=True).real)
        zero = np.count_nonzero(norms) < groups
    if zero:
        raise ValueError("cannot project a zero group onto its power sphere")
    return math.sqrt(power_budget / groups) / norms * x


def analytic_gradient(scene: Scene, w: Beamformer, weights: Weights) -> np.ndarray:
    """Closed-form gradient of the tradeoff objective at w: 2 V (E - D Z)."""
    core = solver_core(scene, weights)
    return 2.0 * (core.basis @ evaluate(core, core.basis.conj().T @ w.matrix).gradient)


def _basis(scene: Scene) -> np.ndarray:
    """V = [H, A, A_dtheta, A_dphi], n_tx x (K + 3M)."""
    return np.concatenate([scene.channels, scene.steering.tx], axis=1)


def start_coefficients(scene: Scene, n_sense: Optional[int]) -> np.ndarray:
    """Basis coefficients P0 of the start, (K + 3M) x (K + n_sense), so the
    start lies in span(V): regularized zero-forcing (RZF). The user block is
    (H^H H + alpha I)^-1 with the MMSE regularization alpha = sum_k sigma2_k / P,
    so the communication columns are H (H^H H + alpha I)^-1, the structure of
    the optimal beams (Bjornson, Bengtsson & Ottersten, IEEE SPM 2014).
    Sensing column j starts on basis column K + j, column j of
    Sbar = [A, A_dtheta, A_dphi], with the coefficient |H P_KK|_F / sqrt(K),
    the RMS norm of the RZF columns (1 where they are zero or absent). Up to
    M streams those are the unit-norm steering vectors, so every column starts
    with the same power; the derivative columns beyond them are longer.
    Another start is any P0 of this shape passed to `run`.

    Every update of `run` multiplies the sensing block on the left, so its
    rank never exceeds the start's: distinct start columns are what let
    n_sense > M streams reach a sensing rank above M. Sbar has 3M columns, so
    an n_sense above 3M (any sensing stream without targets) is a
    ValueError.

    n_sense defaults to a reduced count of dedicated sensing streams, after
    the radar-stream reduction of arXiv 2503.09489: M without users, and
    max(0, M + 1 - K) with users, whose K communication streams also carry
    sensing power. Without users the optimum can need rank M + 1 (random
    targets, M = 2, seeds 3 and 9: M + 1 streams reach a CRLB 0.4-0.5% lower
    at a tight stop), but at the default stop M + 1 streams more often end
    higher: on sensing-only random-target scenes at 30 dBm, seeds 0-49, by
    more than 0.1% on 29 of 50 scenes at M = 1 and 13 of 50 at M = 2, by up
    to 13%. So the default stays M until the stop is a stationarity test.
    The count with users is this package's rule, not a bound quoted from the
    paper; the tests check per scene, over K = 0..4 and M = 2, that it
    reaches the objective of 3M streams. An explicit n_sense overrides the
    default."""
    k, m = scene.n_users, scene.n_targets
    if n_sense is None:
        n_sense = m if k == 0 else max(0, m + 1 - k)
    check_integer("n_sense", n_sense, 0)
    if n_sense > 3 * m:  # one start column of Sbar each
        raise ValueError(f"n_sense must be at most 3M = {3 * m}, got {n_sense}")
    if k + n_sense == 0:
        raise ValueError("beamformer has no columns (n_users + n_sense = 0)")
    p0 = np.zeros((k + 3 * m, k + n_sense), dtype=complex)
    h = scene.channels
    alpha = scene.noise_comm.sum() / scene.power_budget
    p0[:k, :k] = np.linalg.inv(h.conj().T @ h + alpha * np.eye(k))
    rms = np.linalg.norm(h @ p0[:k, :k]) / math.sqrt(k) if k else 0.0
    np.fill_diagonal(p0[k:, k:], rms if rms > 0 else 1.0)
    return p0


def start_beamformer(scene: Scene, n_sense: Optional[int]) -> Beamformer:
    """The start in the antenna domain: V P0 scaled onto the total-power
    sphere, P0 from `start_coefficients`."""
    w = project_power(_basis(scene) @ start_coefficients(scene, n_sense), scene.power_budget, 1)
    return Beamformer(w[:, : scene.n_users], w[:, scene.n_users :], scene.power_budget)


class _History:
    """Limited-memory quasi-Newton model of the objective on the spheres of
    `project_power` with the plain inner product <a, b> = Re tr(a^H b);
    tangent(x, g) projects g onto the tangent space at x, both as float views.

    The inverse Hessian is the compact L-BFGS representation (Byrd, Nocedal &
    Schnabel, Math. Prog. 1994; Nocedal & Wright eq. 7.24), which gives the
    two-loop recursion's step in a few whole-array products. The pairs are
    rows of a real buffer, the float views of the complex matrices (whose dot
    product is <a, b>), oldest first; the slot after them stages the next pair.
    The inverse of R = triu(S^T Y) is kept up to date as pairs come and go,
    so a step inverts nothing: a new pair (s, y) appends the column
    -R^-1 S^T y / rho and the diagonal entry 1 / rho, rho = <s, y>, and
    dropping the oldest pair keeps the trailing block, which for a
    triangular matrix is exactly the inverse of R's trailing block, so a
    drop adds no rounding error.
    """

    def __init__(self, tangent: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.tangent = tangent
        self.rows: Optional[np.ndarray] = None  # (MEMORY + 1, 2, n): (s, y) per pair
        self.count = 0  # pairs in memory
        self.inverse = np.zeros((MEMORY, MEMORY))  # R^-1 in its leading count x count block
        self.last: Optional[tuple] = None  # the newest iterate, its Riemannian gradient, its shape
        self.scale = 1.0  # <s, y> / <y, y> of the newest pair: the initial inverse Hessian

    def observe(self, x: np.ndarray, g: np.ndarray) -> None:
        """Take the Riemannian ascent direction tangent(X, g) at the iterate X
        (g the half gradient in X's coordinates) and pair it with the
        previous iterate's; a pair enters the memory only with positive
        curvature."""
        point = x.reshape(-1).view(float)
        grad = self.tangent(point, g.reshape(-1).view(float))
        if self.last is None:
            self.rows = np.empty((MEMORY + 1, 2, point.size))
        else:
            s, y = self.rows[self.count]
            np.subtract(point, self.last[0], out=s)
            np.subtract(self.last[1], grad, out=y)  # y: the gradient of -objective
            sy, yy = s.dot(y), y.dot(y)
            if sy > CURVATURE_FLOOR * math.sqrt(s.dot(s) * yy):
                self.scale = sy / yy
                inverse = self.inverse
                if self.count < MEMORY:
                    self.count += 1
                else:
                    self.rows[:MEMORY] = self.rows[1:]
                    inverse[:-1, :-1] = inverse[1:, 1:]
                j = self.count - 1  # the new pair's index; rows[:j] hold the older ones
                inverse[:j, j] = inverse[:j, :j] @ (self.rows[:j, 0] @ y) / -sy
                inverse[j, j] = 1.0 / sy
        self.last = (point, grad, x.shape)

    def direction(self, radius: float) -> Optional[tuple]:
        """The L-BFGS ascent step H v (v the newest Riemannian gradient)
        projected onto the tangent space at the iterate and capped at the
        radius, with its length; None while the memory is empty. With S and Y
        the pairs as columns, R the upper triangle of S^T Y (whose inverse
        `observe` keeps), D its diagonal and c = R^-1 S^T v,

            H v = gamma v + S R^-T ((D + gamma Y^T Y) c - gamma Y^T v) - gamma Y c.
        """
        m = self.count
        if m == 0:
            return None
        point, v, shape = self.last
        pairs = self.rows[:m].reshape(2 * m, -1)  # s_0, y_0, s_1, y_1, ...
        gram = pairs @ self.rows[:m, 1].T  # rows <s_i, y_j> and <y_i, y_j> in turn
        inverse = self.inverse[:m, :m]
        products = pairs.dot(v)
        c = inverse @ products[::2]
        coefficients = np.empty(2 * m)
        coefficients[::2] = inverse.T @ (
            gram[::2].diagonal() * c + self.scale * (gram[1::2] @ c - products[1::2])
        )
        coefficients[1::2] = -self.scale * c
        r = self.tangent(point, self.scale * v + coefficients @ pairs)
        length = math.sqrt(r.dot(r))
        if length > radius:
            r *= radius / length
            length = radius
        return r.view(complex).reshape(shape), length


def run(core: SolverCore, p0: np.ndarray, cfg: SolverConfig) -> SolveResult:
    """The iteration of both front ends, from the start Pi(A^H P0) to
    tolerance or iteration budget, Pi the `project_power` of the constraint.

    p0 holds the start's basis coefficients, (K + 3M) x (K + n_sense), from
    `start_coefficients` or any other start. timings["setup_s"] runs from
    this call's entry through the start's projection and first evaluation;
    timings["per_iteration_s"] is the passes' time over their count.
    The constraint sets the matrix A through which the iterate X enters
    every quantity, Z = A X, the lift of X to the antenna domain and the group
    count of Pi: X = Q, A = B and one group under the total-power constraint,
    with W = V~ Q formed once, at the end; X = W, A = V^H and one group per
    row under the per-antenna one, whose projection leaves span(V). Since
    V~ B^H = V, both start from V P0 projected onto the constraint set. The
    loop carries the iterate as a pair (X, point), point = evaluate(A X), and
    h = A^H point.gradient, the half gradient in X's coordinates. One tangent
    (history, step, stationarity) removes from each group of a gradient (float
    views) its component along that group of X, the multiplier from the budget
    share budget / groups. Each iteration first evaluates the quasi-Newton
    candidate Pi(X + r), r capped at the trust radius; the
    radius becomes at least GROW times the step when the candidate climbs,
    and SHRINK times the step when it does not or its Fisher matrix is
    singular. Every test of a change on a pass uses one threshold,
    tau = max(tol_objective, ROUNDOFF |f|) with f the objective at X: from
    |f| = tol_objective / ROUNDOFF (about 4.5e8 at the default) the second
    term takes over, so a change within the objective's rounding never
    counts as an ascent or a fall. The candidate is taken when it gains more
    than tau; otherwise (no direction yet, a singular Fisher matrix there, or
    a smaller gain) the iteration forms the MM candidate
    Pi(lambda X + h), lambda from `shift_parameter`, and keeps the
    better of the two. If neither ascends (both fall by more than tau), the
    shift doubles (at most MAX_RETRIES times) until the MM candidate does.
    A pass whose best candidate still falls keeps the iterate, so every pass
    appends one objective. converged=True means that on a pass after the
    first the better of both candidates gained at most tau (a fall
    included). The first pass
    cannot end the solve: it has only the MM candidate, whose step length
    comes from the global curvature bound alone, so a small gain there says
    little about stationarity (from the RZF start at 30 dBm it would end most
    solves after one pass). converged=False means the run exhausted
    max_iters, and comes with one warning, never silently truncated.
    """
    t0 = time.perf_counter()
    budget = core.scene.power_budget
    if cfg.power_constraint == "total":
        a, antenna, groups = core.frame, lambda q: core.orthonormal @ q, 1
    else:
        a, antenna, groups = core.basis.conj().T, lambda w: w, core.scene.n_tx
    a_h = a.conj().T
    share = budget / groups

    def tangent(x: np.ndarray, g: np.ndarray) -> np.ndarray:
        if groups == 1:  # the row-wise form's bits in whole-array arithmetic
            return g - (x.dot(g) / share) * x
        rows, grads = x.reshape(groups, -1), g.reshape(groups, -1)
        return (grads - np.vecdot(rows, grads, keepdims=True) / share * rows).reshape(-1)

    def candidate(y: np.ndarray) -> tuple:
        nxt = project_power(y, budget, groups)
        return nxt, evaluate(core, a @ nxt)

    x, point = candidate(a_h @ p0)
    h = a_h @ point.gradient
    history = _History(tangent)
    trace = [point.objective]
    t_setup = time.perf_counter() - t0
    t1 = time.perf_counter()
    converged = False

    radius = np.inf  # the trust radius
    for _ in range(cfg.max_iters):
        tol = max(cfg.tol_objective, ROUNDOFF * abs(point.objective))
        qn = None
        history.observe(x, h)
        proposal = history.direction(radius)
        if proposal is not None:
            r, length = proposal
            try:
                qn = candidate(x + r)
            except SingularFisherError:  # the model stepped to an unidentifiable point
                pass
            climbed = qn is not None and qn[-1].objective > point.objective
            radius = max(radius, GROW * length) if climbed else SHRINK * length
        if qn is not None and qn[-1].objective - point.objective > tol:
            best = qn  # a climb that cannot end the solve: no MM candidate
        else:
            shift = shift_parameter(core, point)
            best = candidate(shift * x + h) if shift else (x, point)  # zero shift: h = 0, X is stationary
            if qn is not None and qn[-1].objective > best[-1].objective:
                best = qn
            for _ in range(MAX_RETRIES):
                if best[-1].objective >= point.objective - tol:
                    break
                shift *= 2.0
                best = candidate(shift * x + h)
        delta = best[-1].objective - point.objective
        if delta >= 0.0:  # after any fall the iterate stays: no change
            x, point = best
            h = a_h @ point.gradient
        trace.append(point.objective)
        if delta <= tol and len(trace) > 2:
            converged = True
            break
    t_iter = time.perf_counter() - t1
    if not converged:
        logger.warning(
            "solver hit max_iters=%d with last objective change above tol=%g",
            cfg.max_iters,
            tol,
        )
    scene = core.scene
    wmat = antenna(x)
    w = Beamformer(wmat[:, : scene.n_users], wmat[:, scene.n_users :], scene.power_budget)
    final_rate = metrics.sum_rate(scene, w)
    final_crlb = point.crlb  # NaN without targets, or at a singular or non-finite Fisher matrix
    if core.weights.sense == 0 and scene.n_targets:
        zs = point.z[scene.n_users :]
        try:
            final_crlb = metrics.crlb_trace(metrics.fim_matrix(core.operator, zs @ zs.conj().T))
        except (ValueError, SingularFisherError):
            pass
    iterations = len(trace) - 1
    grad = h.reshape(-1).view(float)
    norm = np.linalg.norm(grad)
    residual = np.linalg.norm(tangent(x.reshape(-1).view(float), grad)) / norm if norm else 0.0
    objective_trace = np.array(trace)
    objective_trace.setflags(write=False)
    return SolveResult(
        beamformer=w,
        objective_trace=objective_trace,
        sum_rate=final_rate,
        crlb_trace=final_crlb,
        iterations=iterations,
        converged=converged,
        timings={"setup_s": t_setup, "per_iteration_s": t_iter / iterations},
        stationarity=float(residual),
    )


def solve(
    scene: Scene,
    weights: Weights,
    cfg: SolverConfig = SolverConfig(),
    n_sense: Optional[int] = None,
) -> SolveResult:
    """Front end for both power constraints: `run` from the default start P0
    of `start_coefficients`. Under the total-power constraint it is the same
    call as `lowdim.solve_ld`, on the frame coordinates Q; a per-antenna solve
    iterates on the antenna-domain beamformer, whose projection leaves
    span(V), on the product of row spheres.

    n_sense defaults to the structural stream count of `start_coefficients`.
    """
    p0 = start_coefficients(scene, n_sense)
    return run(solver_core(scene, weights), p0, cfg)
