"""Reduced-dimension front end built on the stationary-point beamforming structure.

Instead of the full n_tx x (K + n_sense) beamformer W, it iterates on the
coefficient matrix P with W = V P over the basis V = [channels, steering,
steering derivatives], whose row count K + 3M is independent of the antenna
count. The iteration is the shared core in `sca.run` in basis coordinates:
Z = G P with G = V^H V, lift is the identity, and the projection scales P
onto the ellipsoid tr(P^H G P) = power budget. The lifted beamformer stays in
span(V), so the per-antenna constraint cannot be honoured here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import metrics, sca
from .metrics import Weights
from .scene import Scene, SteeringSet
from .sca import SolveResult, SolverConfig

__all__ = [
    "BasisSet",
    "RankDeficientBasisError",
    "build_basis",
    "solve_ld",
]


class RankDeficientBasisError(RuntimeError):
    """Basis Gram matrix could not be factorized even with jitter."""


@dataclass(frozen=True)
class BasisSet:
    """Stacked basis [channels, steering, d/d_azimuth, d/d_elevation] with its
    Gram factorization."""

    basis: np.ndarray
    gram: np.ndarray
    gram_factor: tuple

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def gram_solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(self.gram_factor, rhs)


def build_basis(scene: Scene, steering: SteeringSet) -> BasisSet:
    """Concatenate the four basis blocks and factorize the Gram matrix.

    A jitter of 1e-10 tr(G)/dim is added if the plain factorization fails;
    persistent failure raises RankDeficientBasisError.
    """
    basis = np.concatenate([scene.channels, metrics.steering_basis(steering)], axis=1)
    if basis.shape[1] == 0:
        raise RankDeficientBasisError("empty basis (no channels and no targets)")
    gram = basis.conj().T @ basis
    try:
        factor = scipy.linalg.cho_factor(gram, lower=True)
    except scipy.linalg.LinAlgError:
        jitter = 1e-10 * np.real(np.trace(gram)) / gram.shape[0]
        try:
            factor = scipy.linalg.cho_factor(gram + jitter * np.eye(gram.shape[0]), lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise RankDeficientBasisError(
                "basis columns are numerically collinear; Gram matrix not factorizable"
            ) from exc
    return BasisSet(basis=basis, gram=gram, gram_factor=factor)


def solve_ld(
    scene: Scene,
    weights: Weights,
    cfg: SolverConfig = SolverConfig(),
    steering: Optional[SteeringSet] = None,
    n_sense: Optional[int] = None,
) -> SolveResult:
    """Reduced-dimension front end; the reported beamformer is lifted back to
    the antenna domain (on the power sphere there by construction).

    n_sense defaults to 3 * n_targets. The start is the matched-filter
    beamformer's Gram-solve projection onto span(V). Raises ValueError for
    power_constraint="per-antenna", whose projection leaves span(V).
    """
    t0 = time.perf_counter()
    if cfg.power_constraint != "total":
        raise ValueError("solve_ld honours only power_constraint='total'")
    core, w0 = sca.prepare(scene, weights, cfg, n_sense, steering)
    gram, budget = core.gram, scene.power_budget

    def ellipsoid(p: np.ndarray) -> np.ndarray:
        power = float(np.real(np.vdot(p, gram @ p)))
        if power <= 0.0:
            raise ValueError("coefficients carry no transmit power")
        return np.sqrt(budget / power) * p

    p0 = build_basis(scene, core.steering).gram_solve(core.coords(w0.matrix))
    return sca.run(
        core, ellipsoid(p0), cfg,
        coords=lambda p: gram @ p,
        lift=lambda y: y,
        project=ellipsoid,
        antenna=core.lift,
        t0=t0,
    )
