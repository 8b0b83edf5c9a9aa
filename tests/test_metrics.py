"""Rates, Fisher information, CRLB trace: closed-form cases and oracles."""

from dataclasses import replace

import numpy as np
import pytest

from isacbeam import (
    ArrayGeometry,
    Beamformer,
    SingularFisherError,
    Target,
    Weights,
    benchmark_targets,
    sample_scene,
)
from isacbeam import metrics
from isacbeam import scene as scene_module
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
    assert metrics.sum_rate(scene, w) == pytest.approx(np.log(11.0), abs=1e-12)


def test_sensing_beams_count_as_interference():
    scene = single_user_scene()
    wc = np.zeros((4, 1), complex)
    wc[0, 0] = np.sqrt(5.0)
    ws = np.zeros((4, 1), complex)
    ws[0, 0] = np.sqrt(5.0)  # aligned with the user channel: pure interference
    w = Beamformer(wc, ws, 10.0)
    assert metrics.sum_rate(scene, w) == pytest.approx(np.log(1 + 5.0 / 6.0), abs=1e-12)


def test_sinr_floor_keeps_the_noise_at_high_snr():
    # desired power 1e20 over unit noise and no interference: a noise added
    # before the desired power is subtracted rounds away, leaving a floor of 0
    gains = np.array([[1e10, 0.0], [0.0, 1e10]], complex)
    sinr, floor = metrics.sinr(gains, np.ones(2))
    assert np.array_equal(sinr, [1e20, 1e20])
    assert np.array_equal(floor, [1.0, 1.0])


def test_sinr_floor_keeps_interference_far_below_the_signal():
    # a sensing stream leaves 1e-26 of the desired power as interference,
    # which a row power sum rounds away
    sinr, floor = metrics.sinr(np.array([[1e10, 1e-3]], complex), np.array([1e-12]))
    assert floor == pytest.approx([1e-6 + 1e-12], rel=1e-15)
    assert sinr == pytest.approx([1e20 / (1e-6 + 1e-12)], rel=1e-15)


def test_beamformer_validation():
    with pytest.raises(ValueError):
        Beamformer(np.ones((4, 1)), np.ones((3, 1)), 1.0)
    with pytest.raises(ValueError):
        Beamformer(np.full((2, 1), np.nan), np.zeros((2, 0)), 1.0)
    for bad in (0.0, np.nan, np.inf, -np.inf, True, "1.0"):
        with pytest.raises(ValueError, match="power budget"):
            Beamformer(np.ones((2, 1)), np.zeros((2, 0)), bad)
    assert Beamformer(np.ones((2, 1)), np.zeros((2, 0)), np.int64(2)).power_budget == 2
    # both blocks follow the array rule: [[True], [False]] and [["1"], ["2"]]
    # used to build beamformers, and a non-finite entry did not name its block
    columns = np.array([[1.0], [2.0]])
    for bad in ([[True], [False]], [["1"], ["2"]], columns.astype(object),
                np.where([[True], [False]], np.nan, columns), np.where([[False], [True]], np.inf, columns),
                np.where([[True], [True]], -np.inf, columns)):
        with pytest.raises(ValueError, match="w_comm"):
            Beamformer(bad, np.zeros((2, 0)), 1.0)
        with pytest.raises(ValueError, match="w_sense"):
            Beamformer(columns, bad, 1.0)
    assert Beamformer([[1], [2]], np.zeros((2, 0), dtype=int), 1.0).w_comm.dtype == complex
    # a beamformer keeps its own read-only copy: changing the caller's array
    # used to change w.w_comm, which was writeable
    a = np.ones((2, 1), dtype=complex)
    w = Beamformer(a, np.zeros((2, 0), dtype=complex), 1.0)
    a[0, 0] = 99
    assert np.array_equal(w.w_comm, np.ones((2, 1))) and a.flags.writeable
    for block in (w.w_comm, w.w_sense, w.replace_matrix(2.0 * w.matrix).w_comm):
        assert not block.flags.writeable
    with pytest.raises(ValueError):
        w.w_comm[0, 0] = 0.0


def test_beamformer_properties(rng):
    scene = sample_scene(0)
    w = make_beamformer(scene, rng)
    assert w.matrix.shape == (16, 6)
    assert w.total_power == pytest.approx(10.0)
    assert w.total_power == pytest.approx(w.power_budget, rel=1e-9)
    r = w.replace_matrix(0.5 * w.matrix)
    assert r.total_power == pytest.approx(2.5)
    assert r.total_power != pytest.approx(r.power_budget, rel=1e-9)
    assert np.allclose(w.covariance, w.matrix @ w.matrix.conj().T)


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(-0.1, 1.0)
    with pytest.raises(ValueError):
        Weights(0.0, 0.0)
    # a bool or a string used to pass as a weight: Weights(True, 1.0) weighed
    # the sum rate by 1
    for bad in (np.nan, np.inf, -np.inf, True, "1.0"):
        with pytest.raises(ValueError, match="comm weight"):
            Weights(bad, 1.0)
        with pytest.raises(ValueError, match="sense weight"):
            Weights(0.25, bad)
    assert Weights(np.float32(0.5), np.int64(1)) == Weights(0.5, 1.0)


def test_fisher_info_validation():
    """A Fisher matrix must be a square array with side 4M."""
    for bad in (np.eye(3), np.ones((4, 8)), np.ones(4), np.ones((2, 4, 4))):
        with pytest.raises(ValueError):
            metrics.spd_inverse(bad)
        with pytest.raises(ValueError):
            metrics.crlb_trace(bad)
    assert metrics.crlb_trace(np.eye(8)) == 8.0


def test_fim_symmetric_and_psd(rng):
    scene = sample_scene(1)
    w = make_beamformer(scene, rng)
    f = metrics.fim(scene, w)
    assert np.allclose(f, f.T, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(f)) > -1e-9 * np.max(np.abs(f))


def test_fim_linear_in_covariance(rng):
    scene = sample_scene(3)
    w = make_beamformer(scene, rng)
    c = 2.7
    f1 = metrics.fim(scene, w)
    f2 = metrics.fim(scene, w.replace_matrix(np.sqrt(c) * w.matrix))
    assert np.linalg.norm(f2 - c * f1) <= 1e-9 * c * np.linalg.norm(f1)


def test_crlb_scales_inversely_with_power(rng):
    scene = sample_scene(4)
    w = make_beamformer(scene, rng)
    c = 3.0
    base = metrics.crlb_trace(metrics.fim(scene, w))
    boosted = metrics.crlb_trace(metrics.fim(scene, w.replace_matrix(np.sqrt(c) * w.matrix)))
    assert boosted == pytest.approx(base / c, rel=1e-9)


def test_crlb_trace_diagonal_case():
    f = np.diag([1.0, 2.0, 4.0, 8.0])
    assert metrics.crlb_trace(f) == pytest.approx(1.0 + 0.5 + 0.25 + 0.125)


def test_singular_fisher_raises():
    with pytest.raises(SingularFisherError):
        metrics.crlb_trace(np.zeros((4, 4)))


def test_spd_inverse_contract(rng):
    """SingularFisherError unless positive definite, ValueError on NaN or
    infinite entries (wherever they sit), otherwise the symmetric inverse."""
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    singular = (np.diag([1.0, 2.0, 3.0, 0.0]), np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]))
    indefinite = (np.diag([1.0, -2.0, 3.0, 4.0]), (q * [1.0, 2.0, 0.5, 1e-3, 3.0, 1.0, 2.0, -0.5]) @ q.T)
    for f in singular + indefinite:
        with pytest.raises(SingularFisherError):
            metrics.spd_inverse(f)
    for bad in (np.nan, np.inf, -np.inf):
        for pos in ((0, 0), (1, 6), (6, 1)):
            f = np.eye(8)
            f[pos] = bad
            with pytest.raises(ValueError, match="Fisher matrix"):
                metrics.spd_inverse(f)
    # a Fisher matrix is real numbers: np.eye(4, dtype=bool), its string and
    # object forms used to be inverted, and a complex one lost its imaginary part
    for f in (np.eye(4, dtype=bool), np.eye(4).astype(str), np.eye(4).astype(object), np.eye(4) + 0j):
        with pytest.raises(ValueError, match="Fisher matrix"):
            metrics.spd_inverse(f)
    assert np.allclose(metrics.spd_inverse(np.eye(4, dtype=int) * 2), np.eye(4) / 2)
    for n in (4, 8, 12):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            f = a @ a.T + n * np.eye(n)
            inv = metrics.spd_inverse(f)
            assert np.array_equal(inv, inv.T)
            expect = np.linalg.inv(f)
            assert np.linalg.norm(inv - expect) <= 1e-12 * np.linalg.norm(expect)


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"the oracle called metrics.{name}")

    return call


# 30 fixed (seed, n_targets) pairs, seeds in [0, 10000] and 1-3 targets,
# drawn once by a derandomized property-based run of this test
FISHER_OPERATOR_CASES = [
    (0, 1), (819, 1), (1003, 1), (137, 1), (137, 2), (539, 2), (5064, 1), (880, 3),
    (2024, 2), (4706, 3), (256, 1), (1, 1), (0, 3), (3, 3), (903, 3), (10000, 2),
    (2, 2), (382, 3), (2280, 3), (298, 2), (298, 1), (140, 1), (1982, 1), (317, 3),
    (166, 3), (166, 1), (4225, 2), (4225, 1), (1187, 2), (1187, 1),
]


@pytest.mark.parametrize("seed, n_targets", FISHER_OPERATOR_CASES)
def test_fisher_operator_properties(seed, n_targets):
    """For random PSD R_s and symmetric phi: F(R_s) is exactly symmetric,
    K(phi) exactly Hermitian, tr(phi F(R_s)) = Re tr(K(phi) R_s), and the
    Fisher matrix of a beamformer matches the finite-difference oracle, which
    runs without the operator."""
    scene = sample_scene(seed, n_targets=n_targets)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    op = scene.geometry.operator
    m3, m4 = 3 * n_targets, 4 * n_targets
    x = rng.standard_normal((m3, m3 + 1)) + 1j * rng.standard_normal((m3, m3 + 1))
    r_s = x @ x.conj().T
    phi = rng.standard_normal((m4, m4))
    phi = phi + phi.T
    f = metrics.fim_matrix(op, r_s)
    k = metrics.table_adjoint(op, phi)
    assert np.array_equal(f, f.T)
    assert np.array_equal(k, k.conj().T)
    lhs = np.sum(phi * f)
    rhs = np.real(np.trace(k @ r_s))
    assert abs(lhs - rhs) <= 1e-10 * np.sum(np.abs(phi * f))

    w = make_beamformer(scene, rng, n_sense=n_targets)
    forbidden = {name: _forbidden(name) for name in ("_fisher_operator", "fim_matrix", "fim")}
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in forbidden.items():
            mp.setattr(metrics, name, fn)
        oracle = fd_fim(scene, w)
    f = metrics.fim(scene, w)
    assert np.linalg.norm(f - oracle) / np.linalg.norm(oracle) < 1e-5


@pytest.mark.parametrize(
    "angles",
    [{"elevation": np.pi / 2 - 1e-7}, {"elevation": -(np.pi / 2 - 1e-7)}, {"azimuth": np.pi - 1e-7},
     {"elevation": np.pi / 2}, {"azimuth": -np.pi}],
    ids=["elevation-top", "elevation-bottom", "azimuth-edge", "elevation-at-top", "azimuth-at-edge"],
)
def test_fd_fim_at_the_angle_bounds(angles, rng):
    # the oracle's central differences step past the bound of a target that
    # sits within FIM_STEP of it; those angles used to fail the range check
    # of `steering_vector` and reject a valid scene
    first, second = benchmark_targets()
    scene = sample_scene(0, targets=(replace(first, **angles), second))
    w = make_beamformer(scene, rng)
    oracle = fd_fim(scene, w)
    assert np.linalg.norm(metrics.fim(scene, w) - oracle) / np.linalg.norm(oracle) < 1e-5


def test_target_geometry_key_is_complete():
    # a scene that differs from a memoized one in a single key field gets a
    # steering set and Fisher operator equal to an uncached build
    targets = benchmark_targets()
    base = sample_scene(0, targets=targets)
    base.geometry.operator
    build = scene_module.target_geometry.__wrapped__
    variants = (
        sample_scene(0, targets=targets, n_slots=32),
        sample_scene(0, targets=targets, noise_radar_dbm=3.0),
        sample_scene(0, targets=targets, rx_geometry=ArrayGeometry(4, 5)),
        sample_scene(0, targets=targets, tx_geometry=ArrayGeometry(4, 5)),
        sample_scene(0, targets=(replace(targets[0], rcs=1.5 * targets[0].rcs), targets[1])),
    )

    def arrays(operator, steering):
        return [operator, steering.tx, steering.rx, steering.rcs]

    def equal(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    for scene in variants:
        fresh = build(scene.tx_geometry, scene.rx_geometry, scene.targets, scene.slots, scene.noise_radar)
        got = arrays(scene.geometry.operator, scene.steering)
        assert equal(got, arrays(fresh.operator, fresh.steering))
        assert not equal(got, arrays(base.geometry.operator, base.steering))  # a new geometry


def test_fd_fim_builds_no_target_geometry(rng):
    # the finite-difference oracle stays independent of the memoized operator
    scene = sample_scene(0, targets=benchmark_targets(), n_slots=16)
    w = make_beamformer(scene, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scene_module, "target_geometry", _forbidden("target_geometry"))
        mp.setattr(metrics, "_fisher_operator", _forbidden("_fisher_operator"))
        oracle = fd_fim(scene, w)
    f = metrics.fim(scene, w)
    assert np.linalg.norm(f - oracle) / np.linalg.norm(oracle) < 1e-5


def test_fim_requires_targets():
    scene = sample_scene(0, n_targets=0)
    w = Beamformer(np.ones((16, 4)), np.zeros((16, 0)), 10.0)
    with pytest.raises(ValueError):
        metrics.fim(scene, w)


def test_objective_combines_terms(rng):
    scene = sample_scene(5)
    w = make_beamformer(scene, rng)
    sr = metrics.sum_rate(scene, w)
    cr = metrics.crlb_trace(metrics.fim(scene, w))
    got = metrics.objective(scene, w, Weights(0.25, 1.0))
    assert got == pytest.approx(0.25 * sr - cr, rel=1e-12)
    assert metrics.objective(scene, w, Weights(1.0, 0.0)) == pytest.approx(sr)


def test_dimension_mismatch_rejected(rng):
    scene = sample_scene(0)
    w = Beamformer(np.ones((8, 4)), np.zeros((8, 0)), 10.0)
    with pytest.raises(ValueError):
        metrics.sum_rate(scene, w)
