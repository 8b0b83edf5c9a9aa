"""Reduced-dimension front end built on the stationary-point beamforming structure.

Instead of the full n_tx x (K + n_sense) beamformer W, it iterates on the
coefficient matrix P with W = V P over the basis V = [channels, steering,
steering derivatives] of `sca.solver_core`, whose row count K + 3M is
independent of the antenna count. The start is the least-squares projection
of the configured start onto span(V). The iteration is the shared core in
`sca.run` in basis coordinates: Z = G P with G = V^H V, lift is the identity,
and the projection scales P onto the ellipsoid tr(P^H G P) = power budget.
The lifted beamformer stays in span(V), so the per-antenna constraint cannot
be honoured here.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from . import sca
from .metrics import Weights
from .scene import Scene
from .sca import SolveResult, SolverConfig

__all__ = ["solve_ld"]


def solve_ld(
    scene: Scene,
    weights: Weights,
    cfg: SolverConfig = SolverConfig(),
    n_sense: Optional[int] = None,
) -> SolveResult:
    """Reduced-dimension front end; the reported beamformer is lifted back to
    the antenna domain (on the power sphere there by construction).

    n_sense defaults to 3 * n_targets. The start is the least-squares
    coefficients of the configured start (matched filter, or the random start
    under init_mode="random"), which also covers a singular Gram matrix.
    Raises ValueError for power_constraint="per-antenna", whose projection
    leaves span(V).
    """
    t0 = time.perf_counter()
    if cfg.power_constraint != "total":
        raise ValueError("solve_ld honours only power_constraint='total'")
    core, w0 = sca.prepare(scene, weights, cfg, n_sense)
    gram, budget = core.gram, scene.power_budget

    def ellipsoid(p: np.ndarray) -> np.ndarray:
        power = float(np.real(np.vdot(p, gram @ p)))
        if power <= 0.0:
            raise ValueError("coefficients carry no transmit power")
        return np.sqrt(budget / power) * p

    p0 = np.linalg.lstsq(core.basis, w0.matrix, rcond=None)[0]
    return sca.run(
        core, ellipsoid(p0), cfg,
        coords=lambda p: gram @ p,
        lift=lambda y: y,
        project=ellipsoid,
        antenna=core.lift,
        t0=t0,
    )
