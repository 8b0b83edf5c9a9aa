"""What every solve must satisfy, checked over one grid of scenes.

Each case is a scene, a weight pair and a power constraint. The random
cells draw their targets from the seed: M = 0-3 targets, K = 0-4 users,
-10/10/30 dBm, seeds 0 and 1, weights 0.25/1 (1/0 without targets; K = M = 0
has no beamformer columns and raises). The pinned cells are scenes that once
broke a solve or pin a scale: the benchmark scene at 16, 144 and 1024
antennas, ill-conditioned scenes with fewer antennas than basis columns,
duplicated targets and a target near zero elevation, each under six weights
from CRLB-led to rate-led. Per solve the grid asserts

(a) an exactly monotone objective trace;
(b) a beamformer on its constraint set, to relative 1e-9;
(c) a sum rate, CRLB and objective that reproduce from the returned
    beamformer through `metrics`, to relative 1e-9, with a NaN CRLB exactly
    where the Fisher matrix is singular;
(d) the stationarity residual of an independent formula: `obs_residuals`
    under total power, the per-row residual of `analytic_gradient` under
    per-antenna;
(e) under total power `solve_ld` bit-identical to `solve`; under
    per-antenna a ValueError from `solve_ld`; where a solve raises, the same
    exception type from both front ends;
(f) converged=False exactly when one warning is logged on isacbeam.sca,
    only when the solve used all max_iters passes, and every benchmark-scene
    solve converged;
(g) read-only returned arrays and the four timing keys.
"""

import logging

import numpy as np
import pytest

from isacbeam import (
    ArrayGeometry,
    SingularFisherError,
    SolverConfig,
    Weights,
    benchmark_targets,
    sample_scene,
    solve,
    solve_ld,
)
from isacbeam import analysis, metrics, sca


def _small(seed, tx, n_users, n_targets):
    return sample_scene(
        seed,
        tx_geometry=ArrayGeometry(*tx),
        rx_geometry=ArrayGeometry(2, 2),
        n_users=n_users,
        n_targets=n_targets,
        n_slots=8,
    )


# name -> scene; the benchmark scenes must converge under every weight pair
PINNED = {
    "benchmark-4x4": lambda: sample_scene(0, targets=benchmark_targets()),
    "benchmark-12x12": lambda: sample_scene(
        0, tx_geometry=ArrayGeometry(12, 12), targets=benchmark_targets()
    ),
    # both front ends iterate on the frame, so 1024 antennas cost no iteration more
    "benchmark-32x32": lambda: sample_scene(
        0, tx_geometry=ArrayGeometry(32, 32), targets=benchmark_targets()
    ),
    # objective near -1.8e8 with cond(G) = 1.6e10
    "3x3-seed23": lambda: _small(23, (3, 3), 3, 1),
    # a singular Gram matrix and a nearly singular Fisher matrix, where plain
    # MM traces oscillated
    "3x1-seed223": lambda: _small(223, (3, 1), 3, 2),
    # fewer antennas than basis columns, whose Gram null space the iteration
    # once carried (unbounded coefficients, a zero-power raise)
    "1x1-seed0": lambda: _small(0, (1, 1), 1, 2),
    "1x1-seed3": lambda: _small(3, (1, 1), 2, 2),
    "1x1-seed44": lambda: _small(44, (1, 1), 2, 2),
    "1x1-seed55": lambda: _small(55, (1, 1), 2, 2),
    "1x1-seed7": lambda: _small(7, (1, 1), 3, 1),
    "2x1-seed15": lambda: _small(15, (2, 1), 2, 2),
    # an exactly singular Fisher matrix: a sensing weight raises, without one
    # the CRLB reads NaN
    "duplicated-targets": lambda: sample_scene(0, targets=(benchmark_targets()[0],) * 2),
    # a target at elevation 0.0075 rad, where azimuth is nearly unidentifiable
    "seed37-sensing-only": lambda: sample_scene(37, n_users=0, n_targets=2),
}

PINNED_WEIGHTS = (
    Weights(0.25, 1.0),
    Weights(1.0, 0.0),
    Weights(0.0, 1.0),
    Weights(1e-3, 1.0),
    Weights(1.0, 1e-7),
    Weights(1e-7, 1.0),
)


def _random(seed, n_users, n_targets, power_dbm):
    return lambda: sample_scene(seed, n_users=n_users, n_targets=n_targets, power_dbm=power_dbm)


CELLS = [
    pytest.param(
        _random(seed, k, m, power_dbm),
        Weights(0.25, 1.0) if m else Weights(1.0, 0.0),
        id=f"K{k}-M{m}-P{power_dbm}dBm-seed{seed}",
    )
    for m in range(4)
    for k in range(5)
    for power_dbm in (-10, 10, 30)
    for seed in (0, 1)
] + [
    pytest.param(make, weights, id=f"{name}-comm{weights.comm:g}-sense{weights.sense:g}")
    for name, make in PINNED.items()
    for weights in PINNED_WEIGHTS
]


def _outcome(front_end, scene, weights, cfg, caplog):
    """The front end's result, or the type of what it raised; a result comes
    with converged=False exactly when the solve logged one warning."""
    caplog.clear()
    try:
        result = front_end(scene, weights, cfg)
    except Exception as exc:  # the exception type is compared, not hidden
        return type(exc)
    warned = [r for r in caplog.records if r.name == "isacbeam.sca"]
    assert len(warned) == (0 if result.converged else 1), [r.getMessage() for r in warned]
    return result


def _reference_crlb(scene, w):
    """tr(F^-1) at w from `metrics`; NaN without targets or at a singular F."""
    if scene.n_targets == 0:
        return np.nan
    try:
        return metrics.crlb_trace(metrics.fim(scene, w))
    except SingularFisherError:
        return np.nan


def _reference_stationarity(scene, w, weights, power_constraint):
    """The residual from the antenna domain: one least-squares multiplier
    (`obs_residuals`) under total power, mu_i = Re<w_i, g_i> / |w_i|^2 per
    row under per-antenna."""
    if power_constraint == "total":
        return analysis.obs_residuals(scene, scene.steering, w, weights).stationarity_residual
    g = sca.analytic_gradient(scene, w, weights)
    rows = w.matrix
    mu = np.sum((rows.conj() * g).real, axis=1) / np.sum(np.abs(rows) ** 2, axis=1)
    norm = np.linalg.norm(g)
    return np.linalg.norm(g - mu[:, None] * rows) / norm if norm else 0.0


@pytest.mark.parametrize("power_constraint", ["total", "per-antenna"])
@pytest.mark.parametrize("make_scene, weights", CELLS)
def test_solve_contract(make_scene, weights, power_constraint, caplog):
    scene = make_scene()
    cfg = SolverConfig(power_constraint=power_constraint)
    caplog.set_level(logging.WARNING, logger="isacbeam.sca")
    result = _outcome(solve, scene, weights, cfg, caplog)
    ld = _outcome(solve_ld, scene, weights, cfg, caplog)
    raised = isinstance(result, type)
    # (e) solve_ld refuses per-antenna; a solve that raises raises the same
    # type in both front ends, and a scene without users and targets has no
    # beamformer columns
    if power_constraint == "per-antenna":
        assert ld is ValueError
    else:
        assert isinstance(ld, type) == raised
    if raised:
        assert result is ld
        return
    assert scene.n_users + scene.n_targets > 0

    # (a) every iteration keeps only an ascending candidate
    trace = result.objective_trace
    assert np.all(np.diff(trace) >= 0.0)

    # (b) on the constraint set
    w = result.beamformer
    if power_constraint == "total":
        assert w.total_power == pytest.approx(scene.power_budget, rel=1e-9, abs=0.0)
    else:
        rows = np.sum(np.abs(w.matrix) ** 2, axis=1)
        np.testing.assert_allclose(rows, scene.power_budget / scene.n_tx, rtol=1e-9, atol=0.0)

    # (c) the report is the beamformer's
    assert metrics.sum_rate(scene, w) == pytest.approx(result.sum_rate, rel=1e-9, abs=0.0)
    crlb = _reference_crlb(scene, w)
    assert result.crlb_trace == pytest.approx(crlb, rel=1e-9, abs=0.0, nan_ok=True)
    assert metrics.objective(scene, w, weights) == pytest.approx(result.objective, rel=1e-9, abs=0.0)

    # (d) the reported residual is the antenna-domain one. Under total power
    # it is formed in frame coordinates, and on ill-conditioned scenes the
    # two differ by up to 2.3e-11 in roundoff; per-antenna both read the
    # antenna-domain gradient, and the floor covers residuals that are
    # themselves roundoff
    expect = _reference_stationarity(scene, w, weights, power_constraint)
    if power_constraint == "total":
        assert result.stationarity == pytest.approx(expect, rel=1e-6, abs=1e-10)
    else:
        assert result.stationarity == pytest.approx(expect, rel=1e-9, abs=1e-14)

    # (e) one iteration behind both front ends under total power
    if power_constraint == "total":
        assert np.array_equal(ld.objective_trace, trace)
        assert np.array_equal(ld.beamformer.matrix, w.matrix)
        assert (ld.iterations, ld.converged, ld.stationarity) == (
            result.iterations, result.converged, result.stationarity
        )

    # (f) a solve ends unconverged only at its pass cap, and the benchmark
    # scenes converge under every weight pair
    if not result.converged:
        assert result.iterations == cfg.max_iters
    if scene.targets == benchmark_targets():
        assert result.converged

    # (g) a result cannot be changed under its reported metrics
    for array in (w.w_comm, w.w_sense, trace):
        assert not array.flags.writeable
    assert set(result.timings) == {"setup_s", "per_iteration_s"}
