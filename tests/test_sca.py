"""Solver core and front ends: projections, auxiliaries, shift, step, convergence."""

import logging

import numpy as np
import pytest

from isacbeam import (
    ArrayGeometry,
    Beamformer,
    SolverConfig,
    Target,
    Weights,
    build_steering_set,
    sample_scene,
    solve,
    solve_ld,
)
from isacbeam import metrics, sca
from isacbeam.scene import Scene

WTS = Weights(0.25, 1.0)


def test_project_total_power_known_case():
    out = sca.project_total_power(np.ones((2, 2)), 8.0)
    assert np.allclose(out, np.sqrt(2.0))
    assert np.allclose(sca.project_total_power(out, 8.0), out)  # idempotent


def test_project_total_power_rejects_zero():
    with pytest.raises(ValueError):
        sca.project_total_power(np.zeros((2, 2)), 1.0)


def test_project_per_antenna_rows(rng):
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    out = sca.project_per_antenna(x, 8.0, 4)
    assert np.allclose(np.sum(np.abs(out) ** 2, axis=1), 2.0)


def test_comm_aux_matches_direct_computation(rng):
    scene = sample_scene(0)
    shape = (scene.n_tx, scene.n_users + 2)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = sca.project_total_power(w, scene.power_budget)
    aux = sca.comm_aux_core(scene.channels.conj().T @ w, scene.noise_comm)
    for k in range(scene.n_users):
        h = scene.channels[:, k]
        gains = np.abs(h.conj() @ w) ** 2
        signal = np.abs(h.conj() @ w[:, k]) ** 2
        total = gains.sum() + scene.noise_comm[k]
        sinr = signal / (total - signal)
        assert aux.sinr[k] == pytest.approx(sinr, rel=1e-12)
        assert aux.power_coeff[k] == pytest.approx(sinr / total, rel=1e-12)
        assert aux.signal_coeff[k] * (h.conj() @ w[:, k]) == pytest.approx(sinr, rel=1e-12)


def test_matched_filter_single_channel_rate_maximizer():
    h = np.zeros((4, 1), complex)
    h[1, 0] = 2.0
    scene = Scene(
        tx_geometry=ArrayGeometry(2, 2),
        rx_geometry=ArrayGeometry(2, 2),
        channels=h,
        targets=(Target(0.3, 0.4, 0.1),),
        noise_comm=np.array([1.0]),
        noise_radar=1.0,
        slots=8,
        power_budget=10.0,
    )
    steering = build_steering_set(scene)
    w = sca.matched_filter_init(scene, steering, 0, SolverConfig())
    expect = np.sqrt(10.0) * h / np.linalg.norm(h)
    assert np.allclose(w.w_comm, expect)


def test_adjoint_identity_between_fim_and_quad(default_scene, default_steering, rng):
    scene, steering = default_scene, default_steering
    m = scene.n_targets
    for _ in range(10):
        shape = (scene.n_tx, 6)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = sca.project_total_power(w, scene.power_budget)
        bf = Beamformer(w[:, :4], w[:, 4:], scene.power_budget)
        phi = rng.standard_normal((4 * m, 4 * m))
        phi = 0.5 * (phi + phi.T)
        f = metrics.fim(scene, steering, bf).matrix
        q = sca.quad_matrix(steering, phi, scene.noise_radar, scene.slots)
        lhs = np.trace(phi.T @ f)
        rhs = np.real(np.trace(bf.covariance @ q))
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def _curvature_at(scene, steering, w):
    core = sca.solver_core(scene, steering, WTS)
    z = core.coords(w.matrix)
    point = sca.evaluate(core, z)
    return core, z, point, sca.curvature(core, point)


def test_shift_makes_curvature_positive_semidefinite(default_scene, default_steering):
    scene, steering = default_scene, default_steering
    w = sca.matched_filter_init(scene, steering, 6, SolverConfig())
    core, _, _, d = _curvature_at(scene, steering, w)
    shift = sca.shift_parameter(core, d)
    c2 = shift * np.eye(scene.n_tx) - core.basis @ d @ core.basis.conj().T
    eigs = np.linalg.eigvalsh(0.5 * (c2 + c2.conj().T))
    assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)


def test_step_equals_projected_gradient_ascent(default_scene, default_steering):
    scene, steering = default_scene, default_steering
    w = sca.matched_filter_init(scene, steering, 6, SolverConfig())
    core, z, point, _ = _curvature_at(scene, steering, w)
    project = lambda x: sca.project_total_power(x, scene.power_budget)
    nxt, shift = sca.sca_step(core, w.matrix, z, point, core.lift, project)
    grad = sca.analytic_gradient(scene, steering, w, WTS)
    pga = sca.project_total_power(w.matrix + grad / (2.0 * shift), scene.power_budget)
    assert np.linalg.norm(nxt - pga) <= 1e-10 * np.linalg.norm(pga)


def test_analytic_gradient_matches_finite_differences(small_scene, small_steering):
    from isacbeam.analysis import fd_gradient

    cfg = SolverConfig()
    w = sca.matched_filter_init(small_scene, small_steering, 2, cfg)
    grad = sca.analytic_gradient(small_scene, small_steering, w, WTS)
    oracle = fd_gradient(small_scene, small_steering, w, WTS)
    assert np.linalg.norm(grad - oracle) / np.linalg.norm(oracle) < 1e-5


def test_solve_monotone_and_on_sphere(default_scene):
    result = solve(default_scene, WTS)
    assert result.converged
    diffs = np.diff(result.objective_trace)
    slack = 1e-9 * max(1.0, np.max(np.abs(result.objective_trace)))
    assert np.min(diffs) >= -slack
    assert result.beamformer.is_on_sphere(1e-9)
    assert result.iterations >= 1
    assert set(result.timings) == {"setup_s", "iterations_s", "metrics_s", "per_iteration_s"}


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_solve_reports_nonconvergence(default_scene, front_end, caplog):
    from dataclasses import replace

    cfg = replace(SolverConfig(), tol_objective=0.0, max_iters=4)
    with caplog.at_level(logging.WARNING, logger="isacbeam.sca"):
        result = front_end(default_scene, WTS, cfg)
    assert not result.converged
    assert result.iterations == 4
    assert [r.name for r in caplog.records] == ["isacbeam.sca"]
    assert "max_iters=4" in caplog.records[0].getMessage()


def test_solver_config_validation():
    for tol in (np.nan, np.inf, -1e-4):
        with pytest.raises(ValueError):
            SolverConfig(tol_objective=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(init_mode="zeros")
    with pytest.raises(ValueError):
        SolverConfig(power_constraint="per-user")
    assert SolverConfig(tol_objective=0.0).tol_objective == 0.0


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_sensing_weight_without_targets_raises(front_end):
    scene = sample_scene(0, n_targets=0)
    with pytest.raises(ValueError):
        front_end(scene, WTS)
    assert front_end(scene, Weights(1.0, 0.0)).converged


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_negative_n_sense_raises(front_end, small_scene):
    with pytest.raises(ValueError, match="n_sense"):
        front_end(small_scene, WTS, n_sense=-1)


def test_solve_random_init_mode(small_scene):
    from dataclasses import replace

    cfg = replace(SolverConfig(), init_mode="random", init_seed=1)
    result = solve(small_scene, WTS, cfg)
    assert result.beamformer.is_on_sphere(1e-9)
    assert np.all(np.isfinite(result.objective_trace))


def test_solve_per_antenna_constraint(small_scene):
    from dataclasses import replace

    cfg = replace(SolverConfig(), power_constraint="per-antenna")
    result = solve(small_scene, WTS, cfg)
    rows = np.sum(np.abs(result.beamformer.matrix) ** 2, axis=1)
    assert np.allclose(rows, small_scene.power_budget / small_scene.n_tx, rtol=1e-9)


def test_solve_without_sensing_streams(default_scene):
    result = solve(default_scene, WTS, n_sense=0)
    assert result.beamformer.n_sense == 0
    assert result.converged


def test_solve_sensing_only(default_scene):
    result = solve(default_scene, Weights(0.0, 1.0))
    assert result.converged
    assert result.crlb_trace < metrics.crlb_trace(
        metrics.fim(
            default_scene,
            build_steering_set(default_scene),
            result.beamformer.replace_matrix(
                sca.project_total_power(np.ones_like(result.beamformer.matrix), 10.0)
            ),
        )
    )


def test_comm_weight_zero_keeps_rate_out_of_objective(default_scene):
    r = solve(default_scene, Weights(0.0, 1.0))
    steering = build_steering_set(default_scene)
    crlb = metrics.crlb_trace(metrics.fim(default_scene, steering, r.beamformer))
    assert r.objective_trace[-1] == pytest.approx(-crlb, rel=1e-9)
