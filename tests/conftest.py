"""Shared fixtures; the expensive 50-seed benchmark batch is session-scoped."""

import numpy as np
import pytest

from isacbeam import (
    ArrayGeometry,
    Weights,
    benchmark_targets,
    sample_scene,
    solve,
    solve_ld,
)

DEFAULT_WEIGHTS = Weights(0.25, 1.0)
BATCH_SEEDS = range(50)


@pytest.fixture(scope="session")
def default_scene():
    return sample_scene(0, targets=benchmark_targets())


@pytest.fixture(scope="session")
def small_scene():
    return sample_scene(
        7,
        tx_geometry=ArrayGeometry(3, 2),
        rx_geometry=ArrayGeometry(2, 2),
        n_users=2,
        n_targets=1,
        n_slots=8,
    )


@pytest.fixture(scope="session")
def benchmark_batch():
    """Fifty seeded default instances solved by both solvers."""
    results = {"full": [], "lowdim": []}
    for seed in BATCH_SEEDS:
        scene = sample_scene(seed, targets=benchmark_targets())
        results["full"].append(solve(scene, DEFAULT_WEIGHTS))
        results["lowdim"].append(solve_ld(scene, DEFAULT_WEIGHTS))
    return results


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=np.uint64(0xBEEF)))
