"""Rates, Fisher information, CRLB trace: closed-form cases and oracles."""

import numpy as np
import pytest

from isacbeam import (
    ArrayGeometry,
    Beamformer,
    FisherInfo,
    SingularFisherError,
    Target,
    Weights,
    build_steering_set,
    sample_scene,
)
from isacbeam import metrics
from isacbeam.analysis import fd_fim
from isacbeam.scene import Scene


def make_beamformer(scene, rng, n_sense=2):
    shape = (scene.n_tx, scene.n_users + n_sense)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w *= np.sqrt(scene.power_budget) / np.linalg.norm(w)
    return Beamformer(w[:, : scene.n_users], w[:, scene.n_users :], scene.power_budget)


def single_user_scene():
    h = np.zeros((4, 1), complex)
    h[0, 0] = 1.0
    return Scene(
        tx_geometry=ArrayGeometry(2, 2),
        rx_geometry=ArrayGeometry(2, 2),
        channels=h,
        targets=(Target(0.3, 0.4, 0.1),),
        noise_comm=np.array([1.0]),
        noise_radar=1.0,
        slots=8,
        power_budget=10.0,
    )


def test_single_user_rate_closed_form():
    scene = single_user_scene()
    wc = np.zeros((4, 1), complex)
    wc[0, 0] = np.sqrt(10.0)
    w = Beamformer(wc, np.zeros((4, 0)), 10.0)
    assert metrics.user_rate(scene, w, 0) == pytest.approx(np.log(11.0), abs=1e-12)
    assert metrics.sum_rate(scene, w) == pytest.approx(np.log(11.0), abs=1e-12)


def test_sensing_beams_count_as_interference():
    scene = single_user_scene()
    wc = np.zeros((4, 1), complex)
    wc[0, 0] = np.sqrt(5.0)
    ws = np.zeros((4, 1), complex)
    ws[0, 0] = np.sqrt(5.0)  # aligned with the user channel: pure interference
    w = Beamformer(wc, ws, 10.0)
    assert metrics.user_rate(scene, w, 0) == pytest.approx(np.log(1 + 5.0 / 6.0), abs=1e-12)


def test_user_rate_index_validation():
    scene = single_user_scene()
    w = Beamformer(np.ones((4, 1)), np.zeros((4, 0)), 10.0)
    with pytest.raises(ValueError):
        metrics.user_rate(scene, w, 1)


def test_beamformer_validation():
    with pytest.raises(ValueError):
        Beamformer(np.ones((4, 1)), np.ones((3, 1)), 1.0)
    with pytest.raises(ValueError):
        Beamformer(np.full((2, 1), np.nan), np.zeros((2, 0)), 1.0)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            Beamformer(np.ones((2, 1)), np.zeros((2, 0)), bad)


def test_beamformer_properties(rng):
    scene = sample_scene(0)
    w = make_beamformer(scene, rng)
    assert w.matrix.shape == (16, 6)
    assert w.total_power == pytest.approx(10.0)
    assert w.is_on_sphere()
    assert w.is_feasible()
    r = w.replace_matrix(0.5 * w.matrix)
    assert r.total_power == pytest.approx(2.5)
    assert not r.is_on_sphere()
    assert np.allclose(w.covariance, w.matrix @ w.matrix.conj().T)


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(-0.1, 1.0)
    with pytest.raises(ValueError):
        Weights(0.0, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            Weights(bad, 1.0)
        with pytest.raises(ValueError):
            Weights(0.25, bad)


def test_fisher_info_validation():
    with pytest.raises(ValueError):
        FisherInfo(np.eye(3))
    assert FisherInfo(np.eye(8)).n_targets == 2


def test_fim_symmetric_and_psd(rng):
    scene = sample_scene(1)
    steering = build_steering_set(scene)
    w = make_beamformer(scene, rng)
    f = metrics.fim(scene, steering, w).matrix
    assert np.allclose(f, f.T, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(f)) > -1e-9 * np.max(np.abs(f))


def test_fim_matches_jacobian_oracle(rng):
    scene = sample_scene(2)
    steering = build_steering_set(scene)
    w = make_beamformer(scene, rng)
    f = metrics.fim(scene, steering, w).matrix
    oracle = fd_fim(scene, w)
    assert np.linalg.norm(f - oracle) / np.linalg.norm(oracle) < 1e-5


def test_fim_linear_in_covariance(rng):
    scene = sample_scene(3)
    steering = build_steering_set(scene)
    w = make_beamformer(scene, rng)
    c = 2.7
    f1 = metrics.fim(scene, steering, w).matrix
    f2 = metrics.fim(scene, steering, w.replace_matrix(np.sqrt(c) * w.matrix)).matrix
    assert np.linalg.norm(f2 - c * f1) <= 1e-9 * c * np.linalg.norm(f1)


def test_crlb_scales_inversely_with_power(rng):
    scene = sample_scene(4)
    steering = build_steering_set(scene)
    w = make_beamformer(scene, rng)
    c = 3.0
    base = metrics.crlb_trace(metrics.fim(scene, steering, w))
    boosted = metrics.crlb_trace(
        metrics.fim(scene, steering, w.replace_matrix(np.sqrt(c) * w.matrix))
    )
    assert boosted == pytest.approx(base / c, rel=1e-9)


def test_crlb_trace_diagonal_case():
    f = FisherInfo(np.diag([1.0, 2.0, 4.0, 8.0]))
    assert metrics.crlb_trace(f) == pytest.approx(1.0 + 0.5 + 0.25 + 0.125)


def test_singular_fisher_raises():
    with pytest.raises(SingularFisherError):
        metrics.crlb_trace(FisherInfo(np.zeros((4, 4))))


def test_fim_requires_targets():
    scene = sample_scene(0, n_targets=0)
    steering = build_steering_set(scene)
    w = Beamformer(np.ones((16, 4)), np.zeros((16, 0)), 10.0)
    with pytest.raises(ValueError):
        metrics.fim(scene, steering, w)


def test_objective_combines_terms(rng):
    scene = sample_scene(5)
    steering = build_steering_set(scene)
    w = make_beamformer(scene, rng)
    sr = metrics.sum_rate(scene, w)
    cr = metrics.crlb_trace(metrics.fim(scene, steering, w))
    got = metrics.objective(scene, steering, w, Weights(0.25, 1.0))
    assert got == pytest.approx(0.25 * sr - cr, rel=1e-12)
    assert metrics.objective(scene, steering, w, Weights(1.0, 0.0)) == pytest.approx(sr)


def test_dimension_mismatch_rejected(rng):
    scene = sample_scene(0)
    w = Beamformer(np.ones((8, 4)), np.zeros((8, 0)), 10.0)
    with pytest.raises(ValueError):
        metrics.sum_rate(scene, w)
