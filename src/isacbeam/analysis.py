"""Structural verification: stationarity residuals, rank bounds, brute-force oracles.

Everything here is read-only over solver outputs; the finite-difference
routines are deliberately independent of the closed-form code paths they check:
`fd_fim` differentiates the echo built from the steering vectors alone (the
steering block of `scene._steering_columns`), never the derivative columns
or the Fisher operator.
`obs_residuals` reads the closed-form gradient (`sca.analytic_gradient`) at
the beamformer and measures one residual on column blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, sca
from .metrics import Beamformer, Weights
from .scene import Scene, SteeringSet, _steering_columns, check_real

__all__ = [
    "ObsReport",
    "CheckRecord",
    "recover_multiplier",
    "obs_residuals",
    "rank_check",
    "fd_gradient",
    "fd_fim",
]

# Sensing columns with a norm below this share of sqrt(power budget) count as
# zero in `obs_residuals`' eigen residual.
ZERO_COLUMN_TOL = 1e-2
# `rank_check` counts singular values above this share of the largest.
RANK_RATIO = 1e-6
# Central-difference steps of `fd_gradient` (beamformer entries) and `fd_fim`
# (target parameters).
GRADIENT_STEP = 1e-5
FIM_STEP = 1e-6


@dataclass(frozen=True)
class ObsReport:
    """Residuals of the stationary-point beamforming structure at a solution."""

    multiplier: float
    stationarity_residual: float
    comm_structure_residual: float
    sense_eigen_residual: float
    sense_rank: int

    def __post_init__(self):
        for name in ("stationarity_residual", "comm_structure_residual", "sense_eigen_residual"):
            check_real(name, getattr(self, name), 0.0)


@dataclass(frozen=True)
class CheckRecord:
    """One verification result: a named value against its threshold."""

    name: str
    value: float
    threshold: float
    passed: bool


def recover_multiplier(w: Beamformer, gradient: np.ndarray) -> float:
    """Least-squares power-constraint multiplier: the mu making grad ~ 2 mu W."""
    return float(np.real(np.vdot(w.matrix, gradient)) / (2.0 * w.power_budget))


def obs_residuals(
    scene: Scene,
    steering: SteeringSet,
    w: Beamformer,
    weights: Weights,
) -> ObsReport:
    """Evaluate how closely a beamformer matches the stationary-point structure.

    One residual r = grad - 2 mu W, grad the closed-form objective gradient
    (`sca.analytic_gradient`) and mu its multiplier (`recover_multiplier`),
    is measured on three column sets, each relative to the gradient on the
    same columns (0 where that is 0), so every figure is scale-free in the
    weights. With grad / 2 = V E - V D V^H W:
    - stationarity_residual: all columns;
    - comm_structure_residual: the K user columns, where r is
      -2 [(mu I + V D V^H) W_c - V E_c], the residual of the
      regularized-inverse form;
    - sense_eigen_residual: the active sensing columns, where r is
      -2 (V D V^H + mu) W_s, so the figure is the relative eigen-residual
      |(V D V^H + mu) W_s| / |V D V^H W_s|. Sensing columns whose norm is
      below ZERO_COLUMN_TOL times the power scale satisfy the structure
      through its zero-vector branch and are left out (at moderate tradeoff
      weights the sensing block typically vanishes); an empty set reads 0.
    The one multiplier certifies total-power beamformers only: per-antenna
    ones have one per row (`SolveResult.stationarity`).
    steering must equal scene.steering exactly (ValueError otherwise).
    """
    own = scene.steering
    if not all(np.array_equal(getattr(steering, k), getattr(own, k)) for k in ("tx", "rx", "rcs")):
        raise ValueError("steering set does not belong to the scene")
    grad = sca.analytic_gradient(scene, w, weights)
    mu = recover_multiplier(w, grad)
    r = grad - 2.0 * mu * w.matrix

    def relative(cols) -> float:
        scale = np.linalg.norm(grad[:, cols])
        return float(np.linalg.norm(r[:, cols]) / scale) if scale > 0 else 0.0

    active = np.linalg.norm(w.w_sense, axis=0) > ZERO_COLUMN_TOL * np.sqrt(w.power_budget)
    return ObsReport(
        multiplier=mu,
        stationarity_residual=relative(slice(None)),
        comm_structure_residual=relative(slice(scene.n_users)),
        sense_eigen_residual=relative(scene.n_users + np.flatnonzero(active)),
        sense_rank=rank_check(w.w_sense),
    )


def rank_check(w_sense: np.ndarray) -> int:
    """Numerical rank: singular values above RANK_RATIO times the largest
    (0 for an empty or zero matrix)."""
    s = np.linalg.svd(w_sense, compute_uv=False)
    return int(np.count_nonzero(s > RANK_RATIO * s.max(initial=0.0)))


def fd_gradient(scene: Scene, w: Beamformer, weights: Weights) -> np.ndarray:
    """Central-difference gradient of the tradeoff objective over every real and
    imaginary coordinate of the beamformer, packed as d/dRe + 1j d/dIm.

    The packing convention was calibrated once against the hand-derived
    single-user closed form (see tests); it matches the solver's ascent
    direction. Intended for small instances only.
    """
    base = w.matrix
    grad = np.zeros_like(base)

    def value(mat):
        return metrics.objective(scene, w.replace_matrix(mat), weights)

    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            for part in (1.0, 1j):
                bump = np.zeros_like(base)
                bump[i, j] = part * GRADIENT_STEP
                d = (value(base + bump) - value(base - bump)) / (2.0 * GRADIENT_STEP)
                grad[i, j] += d if part == 1.0 else 1j * d
    return grad


def _rebuild_forward(scene: Scene, params: np.ndarray) -> np.ndarray:
    """Noise-free echo map G = B U A^H assembled from a flat parameter vector
    (azimuths, elevations, Re rcs, Im rcs). A and B are the steering block of
    `scene._steering_columns`, one call per array; its derivative columns are
    never read. No angle is range-checked, so `fd_fim` may bump a target
    within FIM_STEP of an angle bound past it."""
    m = scene.n_targets
    az, el = params[:m], params[m : 2 * m]
    rcs = params[2 * m : 3 * m] + 1j * params[3 * m :]
    a = _steering_columns(scene.tx_geometry, az, el)[:, :m]
    b = _steering_columns(scene.rx_geometry, az, el)[:, :m]
    return (b * rcs[None, :]) @ a.conj().T


def fd_fim(scene: Scene, w: Beamformer) -> np.ndarray:
    """Fisher matrix oracle: numerical Jacobians of the noise-free echo,
    contracted with the analytic signal second moment R_x = W W^H."""
    m = scene.n_targets
    # azimuths, then elevations, Re rcs and Im rcs, the order of _rebuild_forward
    params = np.array([[t.azimuth, t.elevation, t.rcs.real, t.rcs.imag] for t in scene.targets]).T.ravel()
    jac = []
    for i in range(4 * m):
        bump = np.zeros_like(params)
        bump[i] = FIM_STEP
        jac.append((_rebuild_forward(scene, params + bump) - _rebuild_forward(scene, params - bump)) / (2.0 * FIM_STEP))

    r_x = w.covariance
    f = np.empty((4 * m, 4 * m))
    for i in range(4 * m):
        for j in range(4 * m):
            f[i, j] = np.real(np.trace(jac[i].conj().T @ jac[j] @ r_x))
    return 2.0 * scene.slots / scene.noise_radar * f
