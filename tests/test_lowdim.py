"""Reduced-dimension solver: basis algebra and what it refuses. Its parity
with the full solver is part of the solve contract (`test_solve_contract.py`)."""

from dataclasses import replace

import numpy as np
import pytest

from isacbeam import (
    ArrayGeometry,
    SolverConfig,
    Weights,
    benchmark_targets,
    sample_scene,
    solve,
    solve_ld,
)
from isacbeam import sca

WTS = Weights(0.25, 1.0)


def test_basis_shape_and_gram(default_scene):
    core = sca.solver_core(default_scene, WTS)
    k, m = default_scene.n_users, default_scene.n_targets
    assert core.basis.shape == (default_scene.n_tx, k + 3 * m)
    gram = core.basis.conj().T @ core.basis
    assert np.allclose(core.frame @ core.frame.conj().T, gram)
    assert np.allclose(core.orthonormal.conj().T @ core.orthonormal, np.eye(core.frame.shape[1]))
    assert np.allclose(core.orthonormal @ core.frame.conj().T, core.basis)  # V~ B^H = V
    # two antennas for K + 3M = 8 basis columns: the frame keeps rank(G) = n_tx
    scene = sample_scene(
        0, tx_geometry=ArrayGeometry(2, 1), rx_geometry=ArrayGeometry(2, 2),
        n_users=2, n_targets=2, n_slots=8,
    )
    core = sca.solver_core(scene, WTS)
    assert core.basis.shape == (2, 8)
    assert core.frame.shape == (8, 2) and core.orthonormal.shape == (2, 2)


def test_orthonormal_basis_to_roundoff():
    # V~ must be orthonormal to roundoff however ill-conditioned G is
    # (cond(G) = 1.2e6 and 1.6e10 here): an error of order eps cond(G) moves
    # the iterates of both front ends apart and changes where solves stop
    scenes = (
        sample_scene(2, targets=benchmark_targets()),
        sample_scene(
            23, tx_geometry=ArrayGeometry(3, 3), rx_geometry=ArrayGeometry(2, 2),
            n_users=3, n_targets=1, n_slots=8,
        ),
    )
    for scene in scenes:
        core = sca.solver_core(scene, WTS)
        v = core.orthonormal
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) <= 1e-12
        assert np.allclose(core.frame, core.basis.conj().T @ v)  # Z = B Q from W = V~ Q


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_target_free_sensing_streams_raise(front_end):
    # without targets Sbar has no column to start a sensing stream on (3M = 0),
    # so a sensing stream there is a ValueError, not a zero column that never
    # moves; without sensing streams the scene still solves
    weights = Weights(1.0, 0.0)
    scene = sample_scene(0, n_targets=0)
    assert front_end(scene, weights, n_sense=0).converged
    with pytest.raises(ValueError, match="n_sense"):
        front_end(scene, weights, n_sense=1)
    with pytest.raises(ValueError, match="n_sense"):
        sca.start_beamformer(scene, 1)


def test_empty_basis_raises():
    # no users and no targets leave the basis, and the default beamformer,
    # without columns
    scene = sample_scene(0, n_users=0, n_targets=0)
    weights = Weights(1.0, 0.0)
    with pytest.raises(ValueError, match="no columns"):
        solve(scene, weights)
    with pytest.raises(ValueError, match="no columns"):
        solve_ld(scene, weights)


def test_per_antenna_constraint_rejected(small_scene):
    cfg = replace(SolverConfig(), power_constraint="per-antenna")
    with pytest.raises(ValueError):
        solve_ld(small_scene, WTS, cfg)
