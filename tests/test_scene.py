"""Scene construction: steering vectors, derivatives, random sampling, serialization."""

import json

import numpy as np
import pytest

from dataclasses import replace

from isacbeam import (
    ArrayGeometry,
    SteeringSet,
    Target,
    Weights,
    benchmark_targets,
    build_steering_set,
    sample_scene,
    solve,
)
from isacbeam.scene import (
    dbm_to_linear,
    scene_from_config,
    steering_vector,
    target_geometry,
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


def _derivative_error(geom, az, el, d_az, d_el, step=1e-6):
    """Largest error of the columns d_az, d_el against central differences of
    `steering_vector`, relative to the larger difference (at least 1)."""
    fd_az = (steering_vector(geom, az + step, el) - steering_vector(geom, az - step, el)) / (2 * step)
    fd_el = (steering_vector(geom, az, el + step) - steering_vector(geom, az, el - step)) / (2 * step)
    scale = max(np.linalg.norm(fd_az), np.linalg.norm(fd_el), 1.0)
    return max(np.linalg.norm(d_az - fd_az), np.linalg.norm(d_el - fd_el)) / scale


def test_steering_derivatives_match_finite_differences(rng):
    # the derivative columns of the steering set the solver reads (its basis
    # is [H, scene.steering.tx])
    geom = ArrayGeometry(4, 4)
    for _ in range(100):
        az = rng.uniform(-np.pi + 0.01, np.pi - 0.01)
        el = rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01)
        scene = sample_scene(0, tx_geometry=geom, targets=(Target(az, el, 0.1),))
        for g, stack in ((geom, scene.steering.tx), (scene.rx_geometry, scene.steering.rx)):
            assert _derivative_error(g, az, el, stack[:, 1], stack[:, 2]) < 1e-6


def test_azimuth_derivative_vanishes_at_zero_elevation():
    scene = sample_scene(0, tx_geometry=ArrayGeometry(4, 4), targets=(Target(0.7, 0.0, 0.1),))
    assert np.allclose(scene.steering.tx[:, 1], 0.0)


@pytest.mark.parametrize("n_targets", [0, 1, 3])
def test_steering_set_column_layout(n_targets):
    # column m of each block belongs to target m: tx = [A, A_dtheta, A_dphi],
    # rx = [B, B_dtheta, B_dphi], the order the Fisher operator indexes
    scene = sample_scene(4, tx_geometry=ArrayGeometry(4, 3), n_targets=n_targets)
    steering = build_steering_set(scene)
    m = n_targets
    assert steering.n_targets == m
    assert steering.tx.shape == (scene.n_tx, 3 * m)
    assert steering.rx.shape == (scene.n_rx, 3 * m)
    for i, t in enumerate(scene.targets):
        assert steering.rcs[i] == t.rcs
        for geom, stack in ((scene.tx_geometry, steering.tx), (scene.rx_geometry, steering.rx)):
            assert np.array_equal(stack[:, i], steering_vector(geom, t.azimuth, t.elevation))
            d_az, d_el = stack[:, m + i], stack[:, 2 * m + i]
            assert _derivative_error(geom, t.azimuth, t.elevation, d_az, d_el) < 1e-6
    # the scene carries the same set, built once
    assert scene.steering is scene.steering
    for name in ("tx", "rx", "rcs"):
        assert np.array_equal(getattr(scene.steering, name), getattr(steering, name))


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
    # elevation=True used to place a target at 1 rad
    for bad in (np.nan, np.inf, -np.inf, True, "0.1"):
        with pytest.raises(ValueError, match="azimuth"):
            Target(azimuth=bad, elevation=0.0, rcs=0.1)
        with pytest.raises(ValueError, match="elevation"):
            Target(azimuth=0.0, elevation=bad, rcs=0.1)
        with pytest.raises(ValueError, match="reflection coefficient"):
            Target(azimuth=0.0, elevation=0.0, rcs=bad)
    for bad in (complex(np.nan, 0.1), complex(0.1, np.inf)):
        with pytest.raises(ValueError, match="reflection coefficient"):
            Target(azimuth=0.0, elevation=0.0, rcs=bad)
    Target(azimuth=np.float32(0.5), elevation=np.int64(0), rcs=np.complex64(0.1j))
    Target(azimuth=1, elevation=0, rcs=-0.1)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 3)
    # fractional dimensions used to fail with TypeError deep inside numpy,
    # and True passed as 1
    for bad in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="n_horizontal"):
            ArrayGeometry(bad, 2)
        with pytest.raises(ValueError, match="n_vertical"):
            ArrayGeometry(2, bad)
    assert ArrayGeometry(5, 4).n_elements == 20
    assert ArrayGeometry(np.int64(5), 4).n_elements == 20


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
        for t in sample_scene(seed, n_targets=4).targets:
            assert -2 * np.pi / 3 <= t.azimuth <= 2 * np.pi / 3
            assert -np.pi / 2 <= t.elevation <= np.pi / 2


def test_invalid_sampling_inputs():
    with pytest.raises(ValueError):
        sample_scene(0, n_slots=0)
    # a bool or a string used to pass: power_dbm=True built a 1 dBm scene,
    # and a config's "20" a 20 dBm one
    scene = sample_scene(0)
    for bad in (np.nan, np.inf, -np.inf, True, "1.0"):
        for key in ("power_dbm", "noise_radar_dbm", "noise_comm_dbm", "channel_variance"):
            with pytest.raises(ValueError, match=key):
                sample_scene(0, **{key: bad})
            with pytest.raises(ValueError, match=key):
                scene_from_config({"seed": 0, key: bad})
        for key in ("power_budget", "noise_radar"):
            with pytest.raises(ValueError, match=key.replace("_", ".")):
                replace(scene, **{key: bad})
    # fields of a type the scene cannot use: targets="ab" built a 2-target
    # scene and rx_geometry=(5, 4) a scene, each failing later inside a solve
    # with AttributeError, and tx_geometry=(4, 4) raised AttributeError
    for key, bad in (("targets", "ab"), ("targets", (benchmark_targets()[0], (0.1, 0.2, 0.1))),
                     ("targets", 2), ("rx_geometry", (5, 4)), ("tx_geometry", (4, 4))):
        with pytest.raises(ValueError, match=key):
            replace(scene, **{key: bad})
    with pytest.raises(ValueError, match="targets"):
        sample_scene(0, targets="ab")
    # sample_scene read tx_geometry.n_elements first, so a tuple raised
    # AttributeError before Scene could name the field
    for key, bad in (("tx_geometry", (4, 4)), ("rx_geometry", (5, 4))):
        with pytest.raises(ValueError, match=key):
            sample_scene(0, **{key: bad})
    # noise_comm takes one entry per user, never a scalar for all of them
    # and its entries, like the channels, are numbers: ["2.0"] * 4 used to
    # build a scene with noise 2.0, and [True] * 4 one with noise 1.0
    for noise in (1.0, np.ones(1), np.ones(5), np.array(["2.0"] * 4), [True] * 4,
                  np.ones(4, dtype=object), np.ones(4, dtype=complex)):
        with pytest.raises(ValueError, match="noise_comm"):
            replace(scene, noise_comm=noise)

    def poisoned(a, value):
        a = a.copy()
        a.flat[-1] = value
        return a

    # channels are finite numbers, with one row per transmit antenna
    for channels in (scene.channels.astype(str), scene.channels != 0, scene.channels.astype(object),
                     poisoned(scene.channels, np.nan), poisoned(scene.channels, np.inf),
                     poisoned(scene.channels, -np.inf), scene.channels[:-1], scene.channels.T):
        with pytest.raises(ValueError, match="channels"):
            replace(scene, channels=channels)
    # a steering set follows the same rule: it used to take NaN, bool,
    # string and object arrays
    steering = scene.steering
    for name in ("tx", "rx", "rcs"):
        a = getattr(steering, name)
        for bad in (np.full_like(a, np.nan), poisoned(a, np.inf), poisoned(a, -np.inf), a != 0,
                    a.astype(str), a.astype(object)):
            with pytest.raises(ValueError, match=name):
                replace(steering, **{name: bad})
    assert replace(steering, rcs=steering.rcs.real).rcs.dtype == complex
    assert replace(scene, noise_comm=[1, 1, 1, 1]).noise_comm.dtype == float
    assert np.array_equal(replace(scene, channels=scene.channels.real).channels, scene.channels.real)
    for key in ("power_dbm", "noise_radar_dbm", "noise_comm_dbm"):
        with pytest.raises(ValueError):  # 10^400 overflows a float
            sample_scene(0, **{key: 4000.0})
    with pytest.raises(ValueError):
        sample_scene(0, channel_variance=0.0)
    # counts are integers: n_slots=2.5 used to build a scene with 2.5 slots,
    # n_users=1.5 to fail with TypeError inside numpy, and True to pass as 1
    for key in ("n_users", "n_targets", "n_slots"):
        for bad in (1.5, 2.0, "2", True):
            with pytest.raises(ValueError, match=key):
                sample_scene(0, **{key: bad})
    assert sample_scene(0, n_users=np.int64(2), n_slots=np.int64(8)).slots == 8
    ints = sample_scene(0, power_dbm=np.int64(10), noise_comm_dbm=0, channel_variance=np.float32(2.0))
    assert np.array_equal(ints.channels, sample_scene(0).channels)
    assert ints.power_budget == sample_scene(0).power_budget


def test_seed_must_be_a_64_bit_key():
    for bad in (-1, 1.5, 2**64, True):
        with pytest.raises(ValueError, match="seed"):
            sample_scene(bad)
    top = sample_scene(2**64 - 1)
    assert np.array_equal(top.channels, sample_scene(np.uint64(2**64 - 1)).channels)


def test_benchmark_targets_follow_the_reflection_model():
    # sample_scene draws its coefficients from the same model, 0.1 (1 + 0.2 nu) exp(2j pi nu)
    for target, nu in zip(benchmark_targets(), (0.3, 0.7)):
        assert target.rcs == complex(0.1 * (1.0 + 0.2 * nu) * np.exp(2j * np.pi * nu))


def test_targets_override_keeps_channels():
    base = sample_scene(5)
    override = sample_scene(5, targets=benchmark_targets())
    assert np.array_equal(base.channels, override.channels)
    assert override.targets == benchmark_targets()


def test_explicit_targets_fix_the_target_count():
    # n_targets=3 with two explicit targets used to return a two-target scene
    assert sample_scene(0, targets=benchmark_targets()).n_targets == 2
    assert sample_scene(0, n_targets=2, targets=benchmark_targets()).n_targets == 2
    assert sample_scene(0, n_targets=0, targets=()).n_targets == 0
    for n_targets in (0, 1, 3):
        with pytest.raises(ValueError, match="n_targets"):
            sample_scene(0, n_targets=n_targets, targets=benchmark_targets())


def test_scene_slots_must_be_an_integer():
    # slots=2.5 used to scale the Fisher operator by 2.5, and True passed as 1
    scene = sample_scene(0)
    for bad in (2.5, 2.0, "2", True, 0):
        with pytest.raises(ValueError, match="slots"):
            replace(scene, slots=bad)
    assert replace(scene, slots=np.int64(8)).slots == 8


def test_scene_arrays_are_write_protected():
    scene = sample_scene(0)
    with pytest.raises(ValueError):
        scene.channels[0, 0] = 0.0
    # a value copies what it keeps: replace(scene, channels=h) used to turn
    # the caller's own h read-only, and a SteeringSet its arrays likewise
    h, noise = scene.channels.copy(), scene.noise_comm.copy()
    kept = replace(scene, channels=h, noise_comm=noise)
    steering = scene.steering
    tx, rx, rcs = steering.tx.copy(), steering.rx.copy(), steering.rcs.copy()
    held = SteeringSet(tx, rx, rcs)
    for mine, theirs in ((h, kept.channels), (noise, kept.noise_comm), (tx, held.tx),
                         (rx, held.rx), (rcs, held.rcs)):
        assert mine.flags.writeable and not theirs.flags.writeable
        assert not np.shares_memory(mine, theirs)
        assert theirs.flags.c_contiguous
    h[0, 0] = 99.0
    assert kept.channels[0, 0] == scene.channels[0, 0]


def test_channel_draws_share_one_read_only_target_geometry():
    # the statistical protocol redraws channels under fixed targets: the
    # steering set and Fisher operator are built once and shared read-only
    a = sample_scene(0, targets=benchmark_targets())
    b = sample_scene(1, targets=benchmark_targets())
    assert not np.array_equal(a.channels, b.channels)
    assert a.steering is b.steering and build_steering_set(b) is a.steering
    assert a.geometry.operator is b.geometry.operator
    for array in (a.steering.tx, b.steering.rx, a.steering.rcs, b.geometry.operator):
        with pytest.raises(ValueError):
            array[0] = 0.0


# `solve` objectives (weights 0.25/1) on random-target scenes, computed
# before target geometries were memoized
RANDOM_TARGET_OBJECTIVES = {
    0: 2.4178208287969634,
    1: -0.32477209916663874,
    2: 4.182613822350555,
    4: 2.2632579768958703,
}


def test_random_target_scenes_build_their_own_geometry():
    target_geometry.cache_clear()
    for seed, expected in RANDOM_TARGET_OBJECTIVES.items():
        misses = target_geometry.cache_info().misses
        result = solve(sample_scene(seed), Weights(0.25, 1.0))
        assert target_geometry.cache_info().misses == misses + 1
        assert result.objective == pytest.approx(expected, rel=1e-9, abs=0.0)


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
    # a config read back from JSON, as the CLI loads it, builds the same scene
    parsed = json.loads(json.dumps(config))
    again = scene_from_config(parsed)
    assert np.array_equal(scene.channels, again.channels)


def test_scene_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        scene_from_config({"seed": 0, "bogus": 1})
    with pytest.raises(ValueError, match="elevation_mode"):  # a deleted key
        scene_from_config({"seed": 0, "elevation_mode": "domain"})
    # a missing seed or target field used to raise KeyError
    with pytest.raises(ValueError, match="seed"):
        scene_from_config({})
    target = {"azimuth": 0.2, "elevation": 0.3, "rcs_real": 0.1, "rcs_imag": 0.02}
    for key in target:
        partial = {k: v for k, v in target.items() if k != key}
        with pytest.raises(ValueError, match=key):
            scene_from_config({"seed": 0, "targets": [partial]})
    with pytest.raises(ValueError, match="bogus"):
        scene_from_config({"seed": 0, "targets": [{**target, "bogus": 1}]})


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.5), ("seed", "3"), ("n_users", 2.7), ("n_targets", 1.0), ("n_slots", 8.5),
     ("tx_geometry", [2.5, 2]), ("rx_geometry", [2, 2.0]),
     ("seed", True), ("n_users", True), ("n_slots", True), ("rx_geometry", [2, True])],
)
def test_scene_from_config_rejects_fractional_integers(key, value):
    # these used to be truncated by int(): seed 1.5 built the scene of seed 1
    with pytest.raises(ValueError):
        scene_from_config({"seed": 0, key: value})


@pytest.mark.parametrize("key", ["tx_geometry", "rx_geometry"])
@pytest.mark.parametrize(
    "value", [[2, 2.5], [2.5, 2], [0, 2], [2, True], ["2", 2], [2]],
    ids=["fractional-vertical", "fractional-horizontal", "zero", "bool", "string", "one-entry"],
)
def test_scene_from_config_names_the_bad_geometry(key, value):
    # both geometries used to print the same "n_vertical must be ..." alone
    with pytest.raises(ValueError, match=f"^{key}"):
        scene_from_config({"seed": 0, key: value})


@pytest.mark.parametrize(
    "bad",
    [{"azimuth": 9}, {"elevation": -2.0}, {"rcs_real": float("nan")}, {"rcs_imag": True},
     {"rcs_real": 0.0, "rcs_imag": 0.0}, {"bogus": 1}],
    ids=["azimuth", "elevation", "rcs-real", "rcs-imag", "zero-rcs", "unknown-key"],
)
def test_scene_from_config_names_the_bad_target(bad):
    good = {"azimuth": 0.2, "elevation": 0.3, "rcs_real": 0.1, "rcs_imag": 0.02}
    for index in range(3):
        targets = [good] * 3
        targets[index] = {**good, **bad}
        with pytest.raises(ValueError, match=rf"^targets\[{index}\]: "):
            scene_from_config({"seed": 0, "targets": targets})
    with pytest.raises(ValueError, match=r"^targets\[1\]: .*azimuth"):
        scene_from_config({"seed": 0, "targets": [good, {k: v for k, v in good.items() if k != "azimuth"}]})


def test_scene_from_config_explicit_targets():
    config = {
        "seed": 0,
        "targets": [{"azimuth": 0.2, "elevation": 0.3, "rcs_real": 0.1, "rcs_imag": 0.02}],
    }
    scene = scene_from_config(config)
    assert scene.n_targets == 1
    assert scene.targets[0].rcs == pytest.approx(0.1 + 0.02j)
    # an n_targets that disagrees with the explicit targets used to be dropped
    with pytest.raises(ValueError, match="n_targets"):
        scene_from_config({**config, "n_targets": 5})


def test_benchmark_targets_are_valid():
    targets = benchmark_targets()
    assert len(targets) == 2
    for t in targets:
        assert 0.1 <= abs(t.rcs) <= 0.12
        # both well away from the unidentifiable region cos(az) sin(el) = 0
        assert abs(np.cos(t.azimuth) * np.sin(t.elevation)) > 0.2
