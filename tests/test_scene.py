"""Scene construction: steering vectors, derivatives, random sampling, serialization."""

import json

import numpy as np
import pytest

from isacbeam import ArrayGeometry, Target, benchmark_targets, build_steering_set, sample_scene
from isacbeam.scene import (
    dbm_to_linear,
    scene_config_to_json,
    scene_from_config,
    steering_derivatives,
    steering_vector,
)


def test_dbm_conversion():
    assert dbm_to_linear(10.0) == pytest.approx(10.0)
    assert dbm_to_linear(0.0) == pytest.approx(1.0)
    assert dbm_to_linear(-30.0) == pytest.approx(1e-3)


def test_single_element_steering_is_one():
    geom = ArrayGeometry(1, 1)
    assert np.allclose(steering_vector(geom, 0.4, -0.2), [1.0])


def test_steering_unit_norm(rng):
    geom = ArrayGeometry(4, 4)
    for _ in range(100):
        az = rng.uniform(-np.pi, np.pi)
        el = rng.uniform(-np.pi / 2, np.pi / 2)
        assert abs(np.linalg.norm(steering_vector(geom, az, el)) - 1.0) < 1e-12


def test_steering_derivatives_match_finite_differences(rng):
    geom = ArrayGeometry(4, 4)
    step = 1e-6
    for _ in range(100):
        az = rng.uniform(-np.pi + 0.01, np.pi - 0.01)
        el = rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01)
        d_az, d_el = steering_derivatives(geom, az, el)
        fd_az = (steering_vector(geom, az + step, el) - steering_vector(geom, az - step, el)) / (
            2 * step
        )
        fd_el = (steering_vector(geom, az, el + step) - steering_vector(geom, az, el - step)) / (
            2 * step
        )
        scale = max(np.linalg.norm(fd_az), np.linalg.norm(fd_el), 1.0)
        assert np.linalg.norm(d_az - fd_az) / scale < 1e-6
        assert np.linalg.norm(d_el - fd_el) / scale < 1e-6


def test_azimuth_derivative_vanishes_at_zero_elevation():
    d_az, _ = steering_derivatives(ArrayGeometry(4, 4), 0.7, 0.0)
    assert np.allclose(d_az, 0.0)


@pytest.mark.parametrize("n_targets", [0, 1, 3])
def test_steering_set_column_layout(n_targets):
    # column m of each block belongs to target m: tx = [A, A_dtheta, A_dphi],
    # rx = [B, B_dtheta, B_dphi], the order jacobian_table indexes
    scene = sample_scene(4, tx_geometry=ArrayGeometry(4, 3), n_targets=n_targets)
    steering = build_steering_set(scene)
    m = n_targets
    assert steering.n_targets == m
    assert steering.tx.shape == (scene.n_tx, 3 * m)
    assert steering.rx.shape == (scene.n_rx, 3 * m)
    for i, t in enumerate(scene.targets):
        assert steering.rcs[i] == t.rcs
        for geom, stack in ((scene.tx_geometry, steering.tx), (scene.rx_geometry, steering.rx)):
            d_az, d_el = steering_derivatives(geom, t.azimuth, t.elevation)
            assert np.array_equal(stack[:, i], steering_vector(geom, t.azimuth, t.elevation))
            assert np.array_equal(stack[:, m + i], d_az)
            assert np.array_equal(stack[:, 2 * m + i], d_el)


def test_angle_validation():
    geom = ArrayGeometry(2, 2)
    with pytest.raises(ValueError):
        steering_vector(geom, 4.0, 0.0)
    with pytest.raises(ValueError):
        steering_vector(geom, 0.0, 2.0)
    with pytest.raises(ValueError):
        Target(azimuth=0.0, elevation=1.8, rcs=0.1)
    with pytest.raises(ValueError):
        Target(azimuth=0.0, elevation=0.0, rcs=0.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 3)
    assert ArrayGeometry(5, 4).n_elements == 20


def test_same_seed_identical_scenes():
    a = sample_scene(42)
    b = sample_scene(42)
    assert np.array_equal(a.channels, b.channels)
    assert a.targets == b.targets


def test_different_seeds_differ():
    assert not np.array_equal(sample_scene(1).channels, sample_scene(2).channels)


def test_channel_second_moment():
    scene = sample_scene(3, tx_geometry=ArrayGeometry(100, 10), n_users=100)
    mean_sq = np.mean(np.abs(scene.channels) ** 2)
    assert mean_sq == pytest.approx(2.0, rel=0.02)
    unit = sample_scene(3, tx_geometry=ArrayGeometry(100, 10), n_users=100, channel_variance=1.0)
    assert np.mean(np.abs(unit.channels) ** 2) == pytest.approx(1.0, rel=0.02)


def test_rcs_magnitude_range():
    for seed in range(20):
        for t in sample_scene(seed, n_targets=3).targets:
            assert 0.1 <= abs(t.rcs) <= 0.12


def test_angle_sampling_ranges():
    for seed in range(20):
        for mode in ("domain", "wide-clipped"):
            for t in sample_scene(seed, n_targets=4, elevation_mode=mode).targets:
                assert -2 * np.pi / 3 <= t.azimuth <= 2 * np.pi / 3
                assert -np.pi / 2 <= t.elevation <= np.pi / 2


def test_invalid_sampling_inputs():
    with pytest.raises(ValueError):
        sample_scene(0, n_slots=0)
    with pytest.raises(ValueError):
        sample_scene(0, elevation_mode="bogus")
    for bad in (np.nan, np.inf):
        for key in ("power_dbm", "noise_radar_dbm", "noise_comm_dbm", "channel_variance"):
            with pytest.raises(ValueError):
                sample_scene(0, **{key: bad})
    with pytest.raises(ValueError):
        sample_scene(0, channel_variance=0.0)


def test_targets_override_keeps_channels():
    base = sample_scene(5)
    override = sample_scene(5, targets=benchmark_targets())
    assert np.array_equal(base.channels, override.channels)
    assert override.targets == benchmark_targets()


def test_scene_arrays_are_write_protected():
    scene = sample_scene(0)
    with pytest.raises(ValueError):
        scene.channels[0, 0] = 0.0


def test_scene_properties():
    scene = sample_scene(0)
    assert scene.n_tx == 16
    assert scene.n_rx == 20
    assert scene.n_users == 4
    assert scene.n_targets == 2
    assert scene.power_budget == pytest.approx(10.0)
    assert scene.noise_radar == pytest.approx(1.0)


def test_scene_from_config_round_trip():
    config = {
        "seed": 9,
        "tx_geometry": [2, 2],
        "rx_geometry": [2, 2],
        "n_users": 2,
        "n_targets": 1,
        "n_slots": 8,
        "power_dbm": 3.0,
        "channel_variance": 1.0,
    }
    scene = scene_from_config(config)
    assert scene.n_tx == 4
    assert scene.power_budget == pytest.approx(dbm_to_linear(3.0))
    # canonical JSON round-trips through json.loads
    parsed = json.loads(scene_config_to_json(config))
    again = scene_from_config(parsed)
    assert np.array_equal(scene.channels, again.channels)


def test_scene_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        scene_from_config({"seed": 0, "bogus": 1})


def test_scene_from_config_explicit_targets():
    config = {
        "seed": 0,
        "targets": [{"azimuth": 0.2, "elevation": 0.3, "rcs_real": 0.1, "rcs_imag": 0.02}],
    }
    scene = scene_from_config(config)
    assert scene.n_targets == 1
    assert scene.targets[0].rcs == pytest.approx(0.1 + 0.02j)


def test_benchmark_targets_are_valid():
    targets = benchmark_targets()
    assert len(targets) == 2
    for t in targets:
        assert 0.1 <= abs(t.rcs) <= 0.12
        # both well away from the unidentifiable region cos(az) sin(el) = 0
        assert abs(np.cos(t.azimuth) * np.sin(t.elevation)) > 0.2
