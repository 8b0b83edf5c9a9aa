"""Verification helpers: multiplier recovery, rank, FD oracles, structure residuals."""

import numpy as np
import pytest

from isacbeam import (
    Beamformer,
    Weights,
    benchmark_targets,
    build_steering_set,
    sample_scene,
    solve,
    solve_ld,
)
from isacbeam import analysis, sca

WTS = Weights(0.25, 1.0)


def test_recover_multiplier_trivial_cases(rng):
    w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    w = sca.project_power(w, 5.0, 1)
    bf = Beamformer(w[:, :2], w[:, 2:], 5.0)
    # gradient exactly 2 W -> mu = 1
    assert analysis.recover_multiplier(bf, 2.0 * w) == pytest.approx(1.0, abs=1e-12)
    # gradient orthogonal to W -> mu = 0
    g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    g -= w * np.vdot(w, g) / np.vdot(w, w)
    assert analysis.recover_multiplier(bf, g) == pytest.approx(0.0, abs=1e-12)


def test_rank_check():
    assert analysis.rank_check(np.zeros((4, 2))) == 0
    assert analysis.rank_check(np.zeros((4, 0))) == 0
    one = np.outer(np.arange(1.0, 5.0), [1.0, 2.0])
    assert analysis.rank_check(one) == 1
    assert analysis.rank_check(np.eye(4)) == 4


def test_fd_gradient_single_user_closed_form():
    # delta_s = 0, one user: objective = log(1 + |h^H w|^2 / sigma^2),
    # gradient = 2 h h^H w / (sigma^2 + |h^H w|^2)
    from isacbeam.scene import ArrayGeometry, Scene, Target

    h = np.array([[1.0 + 0.5j], [0.3 - 0.2j]])
    scene = Scene(
        tx_geometry=ArrayGeometry(2, 1),
        rx_geometry=ArrayGeometry(2, 1),
        channels=h,
        targets=(Target(0.2, 0.3, 0.1),),
        noise_comm=np.array([1.0]),
        noise_radar=1.0,
        slots=4,
        power_budget=4.0,
    )
    wc = np.array([[1.2 - 0.4j], [0.5 + 0.9j]])
    bf = Beamformer(wc, np.zeros((2, 0)), 4.0)
    weights = Weights(1.0, 0.0)
    got = analysis.fd_gradient(scene, bf, weights)
    inner = (h.conj().T @ wc)[0, 0]
    expect = 2.0 * h * inner / (1.0 + abs(inner) ** 2)
    assert np.linalg.norm(got - expect) / np.linalg.norm(expect) < 1e-7


def test_fd_fim_zero_beamformer_is_zero():
    scene = sample_scene(0, n_targets=1)
    bf = Beamformer(np.zeros((16, 2), complex), np.zeros((16, 1), complex), 10.0)
    assert np.allclose(analysis.fd_fim(scene, bf), 0.0)


def test_fd_fim_scales_with_slots(rng):
    scene = sample_scene(1, n_targets=1)
    doubled = sample_scene(1, n_targets=1, n_slots=2 * scene.slots)
    w = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    bf = Beamformer(w[:, :2], w[:, 2:], 10.0)
    f1 = analysis.fd_fim(scene, bf)
    f2 = analysis.fd_fim(doubled, bf)
    assert np.allclose(f2, 2.0 * f1, rtol=1e-10)


def test_obs_residuals_converged_versus_random(default_scene, rng):
    from dataclasses import replace

    cfg = replace(sca.SolverConfig(), tol_objective=1e-8)
    result = solve(default_scene, WTS, cfg)
    report = analysis.obs_residuals(default_scene, default_scene.steering, result.beamformer, WTS)
    assert report.stationarity_residual <= 1e-2
    assert report.comm_structure_residual <= 1e-2
    # with users the default solve has no sensing columns; the eigenvector
    # condition is checked where the sensing block carries power
    radar = sample_scene(0, n_users=0)
    sensing = solve(radar, WTS, cfg).beamformer
    assert _active_sense_columns(sensing) > 0
    assert analysis.obs_residuals(radar, radar.steering, sensing, WTS).sense_eigen_residual <= 1e-2

    shape = result.beamformer.matrix.shape
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = sca.project_power(w, default_scene.power_budget, 1)
    random_bf = Beamformer(w[:, :4], w[:, 4:], default_scene.power_budget)
    random_report = analysis.obs_residuals(default_scene, default_scene.steering, random_bf, WTS)
    assert random_report.stationarity_residual > 10 * max(report.stationarity_residual, 1e-4)
    assert random_report.comm_structure_residual > 10 * max(report.comm_structure_residual, 1e-4)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_obs_residuals_are_scale_free_in_the_weights(default_scene, scale):
    # scaling both weights scales the gradient and the multiplier alike,
    # which every residual, taken relative to the gradient, divides out
    w = sca.start_beamformer(default_scene, 2)
    base = analysis.obs_residuals(default_scene, default_scene.steering, w, WTS)
    scaled_weights = Weights(scale * WTS.comm, scale * WTS.sense)
    scaled = analysis.obs_residuals(default_scene, default_scene.steering, w, scaled_weights)
    assert base.sense_eigen_residual > 0.0
    for name in ("stationarity_residual", "comm_structure_residual", "sense_eigen_residual"):
        assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-9), name
    assert scaled.multiplier == pytest.approx(scale * base.multiplier, rel=1e-9)


def test_obs_residuals_sensing_only(default_scene):
    from dataclasses import replace

    weights = Weights(0.0, 1.0)
    cfg = replace(sca.SolverConfig(), tol_objective=1e-8)
    result = solve(default_scene, weights, cfg)
    report = analysis.obs_residuals(default_scene, default_scene.steering, result.beamformer, weights)
    # without a rate term the user columns carry only the sensing curvature
    assert report.comm_structure_residual <= 1e-2
    assert report.stationarity_residual <= 1e-2
    # the sensing block is active without users, where the default keeps M streams
    radar = sample_scene(0, targets=benchmark_targets(), n_users=0)
    sensing = solve(radar, weights, cfg).beamformer
    assert sensing.n_sense > 0 and _active_sense_columns(sensing) > 0
    report = analysis.obs_residuals(radar, radar.steering, sensing, weights)
    assert report.sense_eigen_residual <= 1e-2
    assert 0 < report.sense_rank <= 3 * radar.n_targets


def _active_sense_columns(w: Beamformer) -> int:
    """Sensing columns above obs_residuals' zero-column tolerance."""
    norms = np.linalg.norm(w.w_sense, axis=0)
    return int(np.count_nonzero(norms > analysis.ZERO_COLUMN_TOL * np.sqrt(w.power_budget)))


def test_obs_residuals_no_sensing_block(default_scene):
    result = solve(default_scene, WTS, n_sense=0)
    report = analysis.obs_residuals(default_scene, default_scene.steering, result.beamformer, WTS)
    assert report.sense_eigen_residual == 0.0
    assert report.sense_rank == 0


def test_obs_residuals_checks_steering_set(default_scene):
    w = solve(default_scene, WTS).beamformer
    own = analysis.obs_residuals(default_scene, default_scene.steering, w, WTS)
    # a freshly built set of the same scene is accepted and changes nothing
    assert analysis.obs_residuals(default_scene, build_steering_set(default_scene), w, WTS) == own
    other = build_steering_set(sample_scene(0))
    with pytest.raises(ValueError, match="does not belong"):
        analysis.obs_residuals(default_scene, other, w, WTS)


def test_obs_report_rejects_negative_residuals():
    with pytest.raises(ValueError):
        analysis.ObsReport(
            multiplier=0.0,
            stationarity_residual=-1.0,
            comm_structure_residual=0.0,
            sense_eigen_residual=0.0,
            sense_rank=0,
        )
    # a NaN residual used to pass, since min() with NaN is not below 0
    for name in ("stationarity_residual", "comm_structure_residual", "sense_eigen_residual"):
        residuals = dict(stationarity_residual=0.0, comm_structure_residual=0.0, sense_eigen_residual=0.0)
        with pytest.raises(ValueError, match=name):
            analysis.ObsReport(multiplier=0.0, sense_rank=0, **{**residuals, name: float("nan")})


def test_check_record_fields():
    rec = analysis.CheckRecord(name="x", value=0.5, threshold=1.0, passed=True)
    assert rec.passed and rec.value < rec.threshold


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_solve_result_stationarity_matches_obs_residuals(front_end):
    # at the default stop `test_solve_contract.py` checks this on every
    # total-power solve of its grid; a tight solve: tol_objective=0 stops
    # once every change is within the objective's rounding, here after 286
    # iterations at residual 1.7e-7
    scene = sample_scene(0, targets=benchmark_targets(), power_dbm=-10)
    result = front_end(scene, WTS, sca.SolverConfig(tol_objective=0.0, max_iters=3000))
    report = analysis.obs_residuals(scene, scene.steering, result.beamformer, WTS)
    assert result.stationarity == pytest.approx(report.stationarity_residual, rel=1e-2)
