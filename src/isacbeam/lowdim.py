"""Reduced-dimension front end built on the stationary-point beamforming structure.

Instead of the full n_tx x (K + n_sense) beamformer W, it iterates on the
frame coordinates Q of `sca.solver_core`, W = V~ Q with V~ an orthonormal
basis of the span of V = [channels, steering, steering derivatives] (left
singular vectors of V), whose rank r <= K + 3M is independent of the antenna
count. The iteration is `sca.run` under the total-power constraint, which
reads Q through the one matrix A = B, the frame: Z = B Q, the start is the
projection of B^H P0 with P0 from `sca.start_coefficients` (regularized
zero-forcing, with the structural stream count there), the projection onto
the sphere |Q|^2 = power budget is also the retraction of the quasi-Newton
candidate, and W = V~ Q is formed once, at the end. Total-power `sca.solve`
makes the same call, so both return the same result bit for bit. Only the
one-group constraint of `sca.project_power` keeps span(V), so the
per-antenna one cannot be honoured here: `_check_config` refuses it.
"""
from __future__ import annotations

from typing import Optional

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
    """Reduced-dimension front end; the reported beamformer is W = V~ Q in
    the antenna domain (on the power sphere there by construction).

    n_sense defaults to the structural stream count of
    `sca.start_coefficients`. The start is B^H P0 scaled onto the sphere;
    the result equals that of total-power `sca.solve`, and its timings also
    start at `sca.run`'s entry. Another constraint is `_check_config`'s ValueError.
    """
    _check_config(cfg)
    p0 = sca.start_coefficients(scene, n_sense)
    return sca.run(sca.solver_core(scene, weights), p0, cfg)


def _check_config(cfg: SolverConfig) -> None:
    if cfg.power_constraint != "total":
        raise ValueError(f"the lowdim solver honours only power_constraint='total', got {cfg.power_constraint!r}")
