"""Solver core and front ends: projections, auxiliaries, shift, step, convergence."""

import itertools
import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isacbeam import (
    ArrayGeometry,
    Beamformer,
    SolverConfig,
    Target,
    Weights,
    benchmark_targets,
    sample_scene,
    solve,
    solve_ld,
)
from isacbeam import metrics, sca, scene as scene_module
from isacbeam.scene import Scene, philox

WTS = Weights(0.25, 1.0)


def test_project_total_power_known_case():
    out = sca.project_power(np.ones((2, 2)), 8.0, 1)
    assert np.allclose(out, np.sqrt(2.0))
    assert np.allclose(sca.project_power(out, 8.0, 1), out)  # idempotent


def test_project_total_power_rejects_zero():
    with pytest.raises(ValueError):
        sca.project_power(np.zeros((2, 2)), 1.0, 1)


@pytest.mark.parametrize("groups", [1, 4], ids=["total", "rows"])
def test_project_power(rng, groups):
    # one group is the total-power sphere, one per row the per-antenna
    # spheres: each group is scaled, not turned, onto its budget share
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    out = sca.project_power(x, 8.0, groups)
    assert np.allclose(np.sum(np.abs(out.reshape(groups, -1)) ** 2, axis=1), 8.0 / groups)
    ratio = (out / x).reshape(groups, -1)
    assert np.allclose(ratio, ratio[:, :1].real)
    assert np.allclose(sca.project_power(out, 8.0, groups), out)  # idempotent
    x.reshape(groups, -1)[-1] = 0.0  # a zero group has no direction to scale
    with pytest.raises(ValueError, match="zero group"):
        sca.project_power(x, 8.0, groups)


@pytest.mark.parametrize("shape", [(10, 4), (1, 1), (16, 3)])
def test_project_power_one_group_is_the_row_wise_form(rng, shape):
    # one group runs whole-array arithmetic, and its bits are those of the
    # row-wise form with a single row, at any scale of the entries
    for scale in (1e-100, 1e-50, 1.0, 1e50, 1e100):
        x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for budget in (8.0, 1e-3):
            r = x.reshape(1, -1)
            expect = math.sqrt(budget) / np.sqrt(np.vecdot(r, r, keepdims=True).real) * x
            assert np.array_equal(sca.project_power(x, budget, 1), expect)
    for groups in (1, shape[0]):
        with pytest.raises(ValueError, match="zero group"):
            sca.project_power(np.zeros(shape, dtype=complex), 8.0, groups)


def test_comm_aux_matches_direct_computation(rng):
    # at weights 1/0 the point's objective is the sum rate, the user block of
    # its curvature is diag(sinr_k / total_k) and the user diagonal of
    # E = g + D Z times the conjugate desired gains is the SINRs; user 1's
    # beam column is zero, so its entry of E, SINR and curvature are exactly 0
    scene = sample_scene(0)
    shape = (scene.n_tx, scene.n_users + 2)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = sca.project_power(w, scene.power_budget, 1)
    w[:, 1] = 0.0
    core = sca.solver_core(scene, Weights(1.0, 0.0))
    z = core.basis.conj().T @ w
    point = sca.evaluate(core, z)
    linear = (point.gradient + point.curvature @ z).diagonal()
    assert linear[1] == 0.0 and point.curvature[1, 1] == 0.0
    assert metrics.sinr(z[: scene.n_users], scene.noise_comm)[0][1] == 0.0
    rate = 0.0
    for k in range(scene.n_users):
        h = scene.channels[:, k]
        gains = np.abs(h.conj() @ w) ** 2
        signal = np.abs(h.conj() @ w[:, k]) ** 2
        total = gains.sum() + scene.noise_comm[k]
        sinr = signal / (total - signal)
        rate += np.log1p(sinr)
        assert point.curvature[k, k] == pytest.approx(sinr / total, rel=1e-12)
        assert linear[k] * (h.conj() @ w[:, k]).conj() == pytest.approx(sinr, rel=1e-12)
    assert point.objective == pytest.approx(rate, rel=1e-12)


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
    w = sca.start_beamformer(scene, 0)  # RZF of one user
    expect = np.sqrt(10.0) * h / np.linalg.norm(h)
    assert np.allclose(w.w_comm, expect)


def _rzf_oracle(scene):
    """Projection of H (H^H H + alpha I)^-1, alpha = sum sigma2 / P, formed in
    the antenna domain from the channels alone."""
    h = scene.channels
    alpha = scene.noise_comm.sum() / scene.power_budget
    w = h @ np.linalg.inv(h.conj().T @ h + alpha * np.eye(scene.n_users))
    return np.sqrt(scene.power_budget) / np.linalg.norm(w) * w


def _collinear_users(scene):
    channels = scene.channels.copy()
    channels[:, 1] = channels[:, 0]
    return replace(scene, channels=channels)


@pytest.mark.parametrize(
    "make_scene",
    [
        pytest.param(lambda: sample_scene(0, targets=benchmark_targets()), id="default"),
        pytest.param(lambda: _collinear_users(sample_scene(0, targets=benchmark_targets())), id="collinear"),
        pytest.param(
            lambda: sample_scene(
                7, tx_geometry=ArrayGeometry(1, 1), rx_geometry=ArrayGeometry(2, 2),
                n_users=3, n_targets=1, n_slots=8,
            ),
            id="more-users-than-antennas",
        ),
    ],
)
def test_start_is_regularized_zero_forcing(make_scene):
    # the default start's communication columns are RZF: on the default
    # scene, with two identical user channels (H^H H singular) and with three
    # users on one antenna (K > n_tx); it is finite, on the sphere, and both
    # front ends take the same iterates from it
    scene = make_scene()
    w = sca.start_beamformer(scene, 0)
    assert np.all(np.isfinite(w.matrix))
    assert w.total_power == pytest.approx(scene.power_budget, rel=1e-12)
    expect = _rzf_oracle(scene)
    assert np.linalg.norm(w.w_comm - expect) <= 1e-10 * np.linalg.norm(expect)
    full, ld = solve(scene, WTS), solve_ld(scene, WTS)
    assert ld.iterations == full.iterations
    np.testing.assert_allclose(ld.objective_trace, full.objective_trace, rtol=1e-8)


def test_start_gives_every_column_the_same_power(default_scene):
    # sensing column j starts on column j of Sbar = [A, A_dtheta, A_dphi] with
    # the RMS coefficient of the RZF columns; up to M streams those are the
    # unit-norm steering vectors, so with K = 4 users and M = 2 sensing streams
    # the sensing share of the start's power is 2/6
    w = sca.start_beamformer(default_scene, 2)
    share = np.linalg.norm(w.w_sense) ** 2 / w.total_power
    assert share == pytest.approx(2 / 6, rel=1e-12)
    # beyond M the derivative columns, longer than unit vectors, get the same
    # coefficient, one on each column of Sbar
    k = default_scene.n_users
    p0 = sca.start_coefficients(default_scene, 6)
    rms = np.linalg.norm(default_scene.channels @ p0[:k, :k]) / np.sqrt(k)
    assert np.array_equal(p0[k:, k:], rms * np.eye(6))
    # without users the sensing columns keep coefficient 1
    p0 = sca.start_coefficients(sample_scene(0, n_users=0, targets=benchmark_targets()), 3)
    assert np.array_equal(p0, np.eye(6, 3))


def test_high_power_solves_never_stop_on_the_first_pass():
    # the first pass has only the MM candidate, whose step comes from the
    # global curvature bound; stopping there at 30 dBm ends most RZF solves
    # after one pass at a mean objective of 34.804 (weights 1/0), below the
    # matched filter's 34.894; the means below are the matched filter's
    for weights, floor in ((Weights(1.0, 0.0), 34.894), (Weights(0.25, 1.0), 8.541)):
        results = [
            solve(sample_scene(seed, targets=benchmark_targets(), power_dbm=30), weights)
            for seed in range(12)
        ]
        assert all(r.converged and r.iterations >= 2 for r in results)
        assert np.mean([r.objective for r in results]) >= floor


def _point_at(scene, w):
    core = sca.solver_core(scene, WTS)
    return core, sca.evaluate(core, core.basis.conj().T @ w.matrix)


def test_step_equals_projected_gradient_ascent(default_scene):
    scene = default_scene
    w = sca.start_beamformer(scene, 6)
    core, point = _point_at(scene, w)
    shift = sca.shift_parameter(core, point)
    # the MM candidate in antenna coordinates: Pi(lambda W + V g)
    nxt = sca.project_power(shift * w.matrix + core.basis @ point.gradient, scene.power_budget, 1)
    grad = sca.analytic_gradient(scene, w, WTS)
    pga = sca.project_power(w.matrix + grad / (2.0 * shift), scene.power_budget, 1)
    assert np.linalg.norm(nxt - pga) <= 1e-10 * np.linalg.norm(pga)


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_solve_reports_nonconvergence(default_scene, front_end, caplog):
    cfg = replace(SolverConfig(), tol_objective=0.0, max_iters=4)
    with caplog.at_level(logging.WARNING, logger="isacbeam.sca"):
        result = front_end(default_scene, WTS, cfg)
    assert not result.converged
    assert result.iterations == 4
    assert [r.name for r in caplog.records] == ["isacbeam.sca"]
    assert "max_iters=4" in caplog.records[0].getMessage()


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_mm_candidate_only_when_quasi_newton_stalls(default_scene, front_end, monkeypatch):
    # an iteration forms the MM candidate (a shift and a step) only when the
    # quasi-Newton gain is at most tol_objective, so the candidate that
    # certifies the stop is an MM one, evaluated after the quasi-Newton one;
    # without the trust radius about four in ten iterations overshoot with the
    # quasi-Newton step and pay for the MM candidate as well
    events = []

    def counted(name, function):
        def wrapper(*args):
            events.append(name)
            return function(*args)

        return wrapper

    for name in ("shift_parameter", "evaluate"):
        monkeypatch.setattr(sca, name, counted(name, getattr(sca, name)))
    # calibrated on 3M sensing streams: 12 MM candidates in 45 iterations
    # there, 4 in 20 at the default stream count
    result = front_end(default_scene, WTS, n_sense=3 * default_scene.n_targets)
    assert result.converged
    assert 0 < events.count("shift_parameter") < 0.3 * result.iterations
    # the MM candidate is the one evaluation after a shift (this scene's
    # stopping pass needs no doublings), so the solve ends on it: one more
    # pass, quasi-Newton or MM, would evaluate again after it
    last_shift = len(events) - 1 - events[::-1].index("shift_parameter")
    assert events[last_shift + 1 :] == ["evaluate"]
    # per-antenna solves run the same loop on the row spheres: 3 MM
    # candidates in 21 iterations at the default stream count
    events.clear()
    per_antenna = solve(default_scene, WTS, SolverConfig(power_constraint="per-antenna"))
    assert per_antenna.converged
    assert 0 < events.count("shift_parameter") < 0.3 * per_antenna.iterations


def test_trust_radius_leaves_mm_only_paths_alone(default_scene, monkeypatch):
    # first iterations have no quasi-Newton direction yet, so the radius
    # constants cannot move them; under both power constraints they do move
    # the later iterates
    configs = [
        SolverConfig(power_constraint=constraint, max_iters=max_iters)
        for constraint in ("total", "per-antenna")
        for max_iters in (1, 40)
    ]
    shipped = [solve(default_scene, WTS, cfg) for cfg in configs]
    monkeypatch.setattr(sca, "GROW", 0.0)
    monkeypatch.setattr(sca, "SHRINK", 0.0)
    frozen = [solve(default_scene, WTS, cfg) for cfg in configs]
    for first, later in ((0, 1), (2, 3)):
        assert np.array_equal(shipped[first].beamformer.matrix, frozen[first].beamformer.matrix)
        assert np.array_equal(shipped[first].objective_trace, frozen[first].objective_trace)
        assert np.array_equal(shipped[later].objective_trace[:2], frozen[later].objective_trace[:2])
        assert not np.array_equal(shipped[later].objective_trace, frozen[later].objective_trace)


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_trust_radius_recovers_from_short_steps(front_end, monkeypatch):
    # after a run of failed quasi-Newton steps the radius can be too short for
    # any step to gain tol_objective; had it grown only after such gains, this
    # solve would have crawled at the MM pace for about 1970 iterations. The
    # random start keeps it far from the optimum (from the RZF start it ends
    # in 11 iterations), and the capped steps show the radius at work
    capped = []
    direction = sca._History.direction

    def measured_direction(history, radius):
        step = direction(history, radius)
        if step is not None:
            capped.append(step[1] == radius)
        return step

    start_coefficients = sca.start_coefficients

    def random_start(scene, n_sense):
        rng = philox(0xA11)
        shape = start_coefficients(scene, n_sense).shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    monkeypatch.setattr(sca._History, "direction", measured_direction)
    monkeypatch.setattr(sca, "start_coefficients", random_start)
    scene = sample_scene(19, targets=benchmark_targets(), power_dbm=30)
    result = front_end(scene, WTS)
    assert result.converged
    assert result.iterations <= 200
    assert any(capped)


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_singular_quasi_newton_candidate_shrinks_the_radius(default_scene, front_end, monkeypatch):
    # a quasi-Newton candidate at an unidentifiable point is a failed step:
    # the next quasi-Newton step is at most SHRINK times as long
    lengths, pending = [], []
    direction, evaluate = sca._History.direction, sca.evaluate

    def measured_direction(history, radius):
        step = direction(history, radius)
        if step is not None:  # the capped step and its length, evaluated next
            lengths.append(step[1])
            pending.append(len(lengths) == 3)  # the third candidate is the singular one
        return step

    def singular_once(core, z):
        if pending and pending.pop():
            raise metrics.SingularFisherError("injected at a quasi-Newton candidate")
        return evaluate(core, z)

    monkeypatch.setattr(sca._History, "direction", measured_direction)
    monkeypatch.setattr(sca, "evaluate", singular_once)
    result = front_end(default_scene, WTS)
    assert result.converged
    assert np.all(np.diff(result.objective_trace) >= 0.0)
    assert len(lengths) > 3
    assert lengths[3] <= sca.SHRINK * lengths[2] * (1.0 + 1e-12)


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_trust_radius_survives_a_rank_deficient_gram(front_end):
    # one to three transmit antennas for six to nine basis columns: a
    # singular Gram matrix, on which a step length measured in the Gram
    # metric went roundoff-negative and turned the radius into NaN; the
    # frame keeps only range(G), so every trace stays finite and monotone
    for seed, tx, n_users, n_targets in ((7, (1, 1), 3, 1), (6, (1, 1), 3, 2),
                                         (11, (3, 1), 1, 2), (26, (1, 1), 3, 2)):
        scene = sample_scene(
            seed,
            tx_geometry=ArrayGeometry(*tx),
            rx_geometry=ArrayGeometry(2, 2),
            n_users=n_users,
            n_targets=n_targets,
            n_slots=8,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = front_end(scene, WTS)
        assert np.all(np.diff(result.objective_trace) >= 0.0), seed


def _two_loop_step(pairs, v):
    """Nocedal & Wright Alg. 7.4 with <a, b> = Re vdot(a, b) on the pairs
    (s, y), oldest first."""
    alphas = []
    for s, y in reversed(pairs):
        alpha = np.vdot(s, v).real / np.vdot(s, y).real
        v = v - alpha * y
        alphas.append(alpha)
    s, y = pairs[-1]
    r = (np.vdot(s, y).real / np.vdot(y, y).real) * v
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        r = r + (alpha - np.vdot(y, r).real / np.vdot(s, y).real) * s
    return r


def _row_tangent(point, g):
    """g minus, row by row, its component along that row of point."""
    mu = np.sum((point.conj() * g).real, axis=1) / np.sum(np.abs(point) ** 2, axis=1)
    return g - mu[:, None] * point


def test_history_step_matches_two_loop_recursion():
    # an independent oracle for the compact representation and the inverse
    # of R = triu(S^T Y) that the history keeps up to date: ten times as many
    # observations as the memory holds, so the oldest pair drops out many
    # times, under a well-conditioned Hessian and one whose eigenvalues span
    # 1e-5 to 1e5; at random points, some with negative curvature, which the
    # memory skips, and along an ascent trajectory, whose nearly parallel
    # steps make R far from diagonal; on the power sphere and on the row
    # spheres, with the oracle's final projection onto the tangent space done
    # in complex arithmetic, over the whole matrix or row by row
    rng = np.random.default_rng(5)
    budget, shape = 10.0, (6, 4)
    a = rng.standard_normal((6, 6))
    rotation = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    hessians = (a @ a.T + np.eye(6), (rotation * np.logspace(-5, 5, 6)) @ rotation.T)
    cases = (
        (
            lambda x, g: g - (x.dot(g) / budget) * x,
            lambda q: q * np.sqrt(budget) / np.linalg.norm(q),
            lambda point, g: g - (np.vdot(point, g).real / budget) * point,
        ),
        (
            lambda x, g: _row_tangent(x.reshape(shape[0], -1), g.reshape(shape[0], -1)).reshape(-1),
            lambda q: sca.project_power(q, budget, shape[0]),
            _row_tangent,
        ),
    )
    for hessian in hessians:
        rate = 0.5 / np.linalg.norm(hessian, 2)
        for (tangent, retract, oracle_tangent), ascent in itertools.product(cases, (False, True)):
            history = sca._History(tangent)
            assert history.direction(np.inf) is None
            pairs, previous, accepted, rejected, parallel = [], None, 0, 0, 0.0
            for _ in range(10 * sca.MEMORY):
                if ascent and previous is not None:
                    q = retract(previous[0] + rate * previous[1])
                else:
                    q = retract(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                h = -hessian @ q
                history.observe(q, h)
                grad = oracle_tangent(q, h)
                if previous is not None:
                    s, y = q - previous[0], previous[1] - grad
                    if np.vdot(s, y).real > sca.CURVATURE_FLOOR * np.linalg.norm(s) * np.linalg.norm(y):
                        pairs = (pairs + [(s, y)])[-sca.MEMORY:]
                        accepted += 1
                    else:
                        rejected += 1
                previous = q, grad
                step = history.direction(np.inf)
                if not pairs:
                    assert step is None
                    continue
                r, length = step
                expect = oracle_tangent(q, _two_loop_step(pairs, grad))
                assert np.linalg.norm(r - expect) <= 1e-12 * np.linalg.norm(expect)
                assert length == pytest.approx(np.linalg.norm(r), rel=1e-12)
                assert np.linalg.norm(oracle_tangent(q, r) - r) <= 1e-12 * np.linalg.norm(r)
                capped, capped_length = history.direction(0.5 * length)
                assert capped_length <= 0.5 * length
                assert np.linalg.norm(capped) <= 0.5 * length * (1.0 + 1e-12)
                if len(pairs) > 1:  # the cosine of the two newest steps
                    (s0, _), (s1, _) = pairs[-2:]
                    parallel = max(parallel, np.vdot(s0, s1).real / (np.linalg.norm(s0) * np.linalg.norm(s1)))
            assert accepted > 2 * sca.MEMORY
            assert rejected > 0 or ascent
            assert parallel > 0.99 or not ascent


@pytest.mark.parametrize("constraint", ["total", "per-antenna"])
def test_a_pass_inverts_only_the_fisher_matrix(default_scene, constraint, monkeypatch):
    # the history keeps R^-1 up to date, so an L-BFGS step calls no
    # numpy.linalg function, and an evaluation with a sensing term factors
    # and inverts its Fisher matrix once each: a count that no host changes
    calls, windows = [], {"direction": [], "evaluate": []}

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    def window(fn, name):
        def wrapper(*args):
            start = len(calls)
            out = fn(*args)
            windows[name].append(calls[start:])
            return out

        return wrapper

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # every function but LinAlgError
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), name))
    monkeypatch.setattr(sca._History, "direction", window(sca._History.direction, "direction"))
    monkeypatch.setattr(sca, "evaluate", window(sca.evaluate, "evaluate"))
    result = solve(default_scene, WTS, SolverConfig(power_constraint=constraint))
    assert result.converged and result.iterations > sca.MEMORY
    assert len(windows["direction"]) == result.iterations
    assert all(made == [] for made in windows["direction"])
    assert windows["evaluate"] and all(made == ["cholesky", "inv"] for made in windows["evaluate"])


@pytest.mark.parametrize(
    "front_end, constraint",
    [(solve, "total"), (solve_ld, "total"), (solve, "per-antenna")],
    ids=["solve", "solve_ld", "solve-per-antenna"],
)
def test_one_group_takes_no_row_wise_calls(default_scene, front_end, constraint, monkeypatch):
    # a total-power solve projects and takes tangents in whole-array
    # arithmetic: the row-wise np.vecdot and np.count_nonzero are left to
    # the per-antenna solve, which calls them on every pass
    calls = []

    class Counting:
        def __getattr__(self, name):
            fn = getattr(np, name)
            if name not in ("vecdot", "count_nonzero"):
                return fn

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

    monkeypatch.setattr(sca, "np", Counting())
    result = front_end(default_scene, WTS, SolverConfig(power_constraint=constraint))
    assert result.converged
    if constraint == "total":
        assert calls == []
    else:
        assert calls.count("vecdot") >= result.iterations
        assert calls.count("count_nonzero") >= result.iterations


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_history_never_sees_antenna_rows(front_end, monkeypatch):
    # the quasi-Newton model runs on frame coordinates alone, so its cost
    # does not grow with the antenna count
    scene = sample_scene(0, tx_geometry=ArrayGeometry(32, 32), targets=benchmark_targets())
    shapes = []

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                yield from arrays(item)

    def recorded(method):
        def wrapper(*args):
            out = method(*args)
            shapes.extend(a.shape for a in arrays(args + (out,)))
            return out

        return wrapper

    for name, method in list(vars(sca._History).items()):
        if callable(method):
            monkeypatch.setattr(sca._History, name, recorded(method))
    assert front_end(scene, WTS).converged
    assert shapes and all(shape[0] != scene.n_tx for shape in shapes if shape)


def test_solver_config_validation():
    # tol_objective=True used to stop at a gain of 1
    for tol in (np.nan, np.inf, -np.inf, -1e-4, True, "1e-4"):
        with pytest.raises(ValueError, match="tol_objective"):
            SolverConfig(tol_objective=tol)
    assert SolverConfig(tol_objective=np.float64(1e-6)).tol_objective == 1e-6
    assert SolverConfig(tol_objective=0).tol_objective == 0
    # a fractional count used to fail inside `run`, and True passed as 1
    for max_iters in (0, 2.5, 3.0, "5", True):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=max_iters)
    with pytest.raises(ValueError):
        SolverConfig(power_constraint="per-user")
    assert SolverConfig(tol_objective=0.0).tol_objective == 0.0
    assert SolverConfig(max_iters=np.int64(7)).max_iters == 7


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_sensing_weight_without_targets_raises(front_end):
    scene = sample_scene(0, n_targets=0)
    with pytest.raises(ValueError):
        front_end(scene, WTS)
    assert front_end(scene, Weights(1.0, 0.0)).converged


def test_front_ends_build_steering_set_once(monkeypatch):
    # the steering set is built with the scene's target geometry, one call
    # for the transmit and one for the receive columns, and both front ends
    # read it from there
    calls = []
    columns = scene_module._steering_columns

    def counted(geom, azimuth, elevation):
        calls.append(geom)
        return columns(geom, azimuth, elevation)

    monkeypatch.setattr(scene_module, "_steering_columns", counted)
    scene_module.target_geometry.cache_clear()
    scene = sample_scene(2, n_targets=1)
    solve(scene, WTS)
    solve_ld(scene, WTS)
    assert calls == [scene.tx_geometry, scene.rx_geometry]
    assert scene.steering is scene.geometry.steering is scene_module.build_steering_set(scene)


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_negative_n_sense_raises(front_end, small_scene):
    with pytest.raises(ValueError, match="n_sense"):
        front_end(small_scene, WTS, n_sense=-1)
    with pytest.raises(ValueError, match="n_sense"):
        front_end(small_scene, WTS, n_sense=2.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda scene, n: solve(scene, WTS, n_sense=n).beamformer,
        lambda scene, n: solve_ld(scene, WTS, n_sense=n).beamformer,
        sca.start_beamformer,
    ],
    ids=["solve", "solve_ld", "start_beamformer"],
)
def test_n_sense_beyond_3m_raises(build):
    # each sensing stream starts on its own column of Sbar, which has 3M
    scene = sample_scene(0, n_targets=1)
    assert build(scene, 3).n_sense == 3
    with pytest.raises(ValueError, match="n_sense"):
        build(scene, 4)


@pytest.mark.parametrize("power_constraint", ["total", "per-antenna"])
def test_run_from_any_start(small_scene, power_constraint):
    # a start is its basis coefficients alone: `run` takes any P0 of the
    # default's shape and climbs from V P0 projected onto the constraint set
    cfg = SolverConfig(power_constraint=power_constraint)
    groups = 1 if power_constraint == "total" else small_scene.n_tx
    core = sca.solver_core(small_scene, WTS)
    k, budget = small_scene.n_users, small_scene.power_budget
    shape = sca.start_coefficients(small_scene, None).shape
    rng = philox(0xA11)
    for _ in range(3):
        p0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w0 = sca.project_power(core.basis @ p0, budget, groups)
        start = metrics.objective(small_scene, Beamformer(w0[:, :k], w0[:, k:], budget), WTS)
        result = sca.run(core, p0, cfg, 0.0)
        assert result.objective_trace[0] == pytest.approx(start, rel=1e-9)
        assert result.converged
        assert np.all(np.diff(result.objective_trace) >= 0.0)
        assert result.objective > start
        w = result.beamformer.matrix
        assert np.allclose(sca.project_power(w, budget, groups), w, rtol=1e-9)  # on the constraint set


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_users, n_targets", [(1, 0), (2, 1), (0, 1), (3, 2)])
def test_one_antenna_constraints_agree(seed, n_users, n_targets):
    # on one transmit antenna the per-antenna constraint is the total one,
    # so both solves take the one-group projection and tangent, one on W and
    # one on the frame coordinates Q, and reach the same objective on the
    # same pass
    scene = sample_scene(seed, tx_geometry=ArrayGeometry(1, 1), n_users=n_users, n_targets=n_targets)
    weights = WTS if n_targets else Weights(1.0, 0.0)
    total = solve(scene, weights, SolverConfig(tol_objective=0.0))
    per_antenna = solve(scene, weights, SolverConfig(tol_objective=0.0, power_constraint="per-antenna"))
    assert total.converged and per_antenna.converged
    assert total.iterations == per_antenna.iterations
    assert per_antenna.objective == pytest.approx(total.objective, rel=1e-12, abs=0.0)


HIGH_SNR_SCENES = [(seed, 40, -120) for seed in range(3)] + [(0, p, 0) for p in (200, -200, -300)]


@pytest.mark.parametrize(
    "front_end, cfg",
    [
        pytest.param(solve, SolverConfig(), id="full"),
        pytest.param(solve, SolverConfig(power_constraint="per-antenna"), id="full-per-antenna"),
        pytest.param(solve_ld, SolverConfig(), id="lowdim"),
    ],
)
@pytest.mark.parametrize(
    "seed, power_dbm, noise_comm_dbm",
    HIGH_SNR_SCENES,
    ids=[f"P{p}dBm-noise{n}dBm-seed{s}" for s, p, n in HIGH_SNR_SCENES],
)
def test_high_transmit_snr_solves_stay_finite(front_end, cfg, seed, power_dbm, noise_comm_dbm):
    # 160 and 200 dB transmit SNR: zero-forcing beams leave a user almost no
    # interference, so its SINR floor is the noise, more than 1e16 times
    # below its received power. At -200 and -300 dBm the objective reaches
    # about -7e20 and -7e30, whose rounding dwarfs tol_objective, so the
    # solve stops on changes within roundoff
    scene = sample_scene(
        seed, power_dbm=power_dbm, noise_comm_dbm=noise_comm_dbm, targets=benchmark_targets()
    )
    result = front_end(scene, WTS, cfg)
    assert result.converged
    assert np.isfinite([result.objective, result.sum_rate, result.crlb_trace]).all()
    assert np.all(np.diff(result.objective_trace) >= 0.0)
    groups = 1 if cfg.power_constraint == "total" else scene.n_tx
    w = result.beamformer.matrix
    assert np.allclose(sca.project_power(w, scene.power_budget, groups), w, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("power_dbm, noise_comm_dbm", [(60, 0), (-10, -120)])
def test_gradient_is_the_objectives_near_zero_forcing(seed, power_dbm, noise_comm_dbm):
    # at 60 and 110 dB transmit SNR the returned beams leave each user
    # interference far below its desired power; the objective must still see
    # it, since the gradient reads the interference gains themselves. The
    # step is this small because the objective curves on the scale of the
    # noise amplitude
    scene = sample_scene(
        seed, power_dbm=power_dbm, noise_comm_dbm=noise_comm_dbm, targets=benchmark_targets()
    )
    w = solve(scene, WTS).beamformer
    g = sca.analytic_gradient(scene, w, WTS)
    slope = np.linalg.norm(g)
    h = 1e-10 * np.linalg.norm(w.matrix)

    def value(m):
        return metrics.objective(scene, w.replace_matrix(m), WTS)

    quotient = (value(w.matrix + h * g / slope) - value(w.matrix - h * g / slope)) / (2.0 * h)
    assert quotient == pytest.approx(slope, rel=1e-4)


@pytest.mark.parametrize(
    "n_users, n_targets, n_sense",
    [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 2), (2, 2, 1), (1, 1, 1), (3, 2, 0), (4, 2, 0), (2, 0, 0)],
)
def test_default_stream_count(n_users, n_targets, n_sense):
    # the reduced dedicated sensing stream count: M without users,
    # max(0, M + 1 - K) with them
    scene = sample_scene(0, n_users=n_users, n_targets=n_targets)
    p0 = sca.start_coefficients(scene, None)
    assert p0.shape == (n_users + 3 * n_targets, n_users + n_sense)


def test_default_streams_lose_nothing_against_3m():
    # tight solves over users K = 0..4 with M = 2 targets, a sensing-led and a
    # rate-led weight: on every scene the default stream count reaches the
    # objective of 3M = 6 streams, one on each column of Sbar (worst relative
    # shortfall 2.9e-5, at K = 3; 1.4e-8 where 0 < K <= M), and both solves
    # stop converged (at K = 2, seed 1, sensing-led, the objective is -1.4e5
    # and evaluates with noise near 4e-7, far above the tolerance 1e-9)
    cfg = SolverConfig(tol_objective=1e-9)
    for n_users in range(5):
        expected = 2 if n_users == 0 else max(0, 3 - n_users)
        for weights in (Weights(0.25, 1.0), Weights(1.0, 0.01)):
            for seed in range(3):
                scene = sample_scene(seed, n_users=n_users, n_targets=2)
                case = (n_users, weights, seed)
                result = solve(scene, weights, cfg)
                assert result.beamformer.n_sense == expected
                wide = solve(scene, weights, cfg, n_sense=6)
                assert result.converged and wide.converged, case
                assert result.objective >= wide.objective - 1e-4 * abs(wide.objective), case


def _sensing_gap(scene, w):
    """Relative duality gap of a sensing-only total-power beamformer:
    (P lambda_max(G) - <G, R>) / tr(F^-1) with G = Sbar K Sbar^H the gradient
    of -tr(F^-1) in R = W W^H and K the adjoint of F^-2."""
    f_inv = metrics.spd_inverse(metrics.fim(scene, w))
    s_bar = scene.steering.tx
    g = s_bar @ metrics.table_adjoint(scene.geometry.operator, f_inv @ f_inv) @ s_bar.conj().T
    inner = np.real(np.vdot(g, w.matrix @ w.matrix.conj().T))
    return (scene.power_budget * np.linalg.eigvalsh(g)[-1] - inner) / np.trace(f_inv)


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_extra_sensing_streams_reach_the_global_optimum(front_end):
    # without users -tr(F^-1) is concave in R, so a zero duality gap certifies
    # the global optimum. Every update multiplies the sensing block on the
    # left, so its rank never exceeds the start's: M = 2 streams stop at a
    # rank-2 point with gaps 0.17 / 0.10 on these scenes, while 3 and 6
    # streams, started on distinct columns of Sbar, reach the rank-3 optimum
    cfg = SolverConfig(tol_objective=1e-12, max_iters=5000)
    for seed, stuck, optimum in ((3, 5.918619, 5.893061), (9, 3.041492, 3.027182)):
        scene = sample_scene(seed, n_users=0)
        reduced = front_end(scene, Weights(0.0, 1.0), cfg, n_sense=2)
        assert reduced.crlb_trace == pytest.approx(stuck, abs=1e-6)
        for n_sense in (3, 6):
            result = front_end(scene, Weights(0.0, 1.0), cfg, n_sense=n_sense)
            assert result.crlb_trace == pytest.approx(optimum, abs=1e-6), (seed, n_sense)
            assert _sensing_gap(scene, result.beamformer) <= 1e-5, (seed, n_sense)


def test_solve_sensing_only(default_scene):
    result = solve(default_scene, Weights(0.0, 1.0))
    assert result.converged
    assert result.crlb_trace < metrics.crlb_trace(
        metrics.fim(
            default_scene,
            result.beamformer.replace_matrix(
                sca.project_power(np.ones_like(result.beamformer.matrix), 10.0, 1)
            ),
        )
    )


@pytest.mark.parametrize("power_constraint", ["total", "per-antenna"])
def test_weight_scale_changes_no_step(default_scene, power_constraint):
    # the shift scales with the weights, so scaling both by a scales every
    # objective by a and changes no step: a floor of 1e-8 under the shift
    # ended the a = 1e-12 solves after 89 passes, not 103 and 106
    cfg = SolverConfig(tol_objective=0.0, power_constraint=power_constraint)
    scales = (1e-12, 1.0, 1e12)
    results = [solve(default_scene, Weights(0.25 * a, a), cfg) for a in scales]
    for a, result in zip(scales, results):
        assert result.iterations == results[1].iterations, a
        assert result.objective / a == pytest.approx(results[1].objective, rel=1e-9), a


def test_radar_noise_scale_changes_no_step():
    # the CRLB, and with it the sensing-only objective and its curvature,
    # scales with the radar noise: at -250 dBm the curvature radius is about
    # 5e-25, and a floor of 1e-8 under the shift kept the MM candidate at the
    # iterate, which ended the solve after 2 passes, not 13
    results = []
    for noise_radar_dbm in (0.0, -100.0, -250.0):
        scene = sample_scene(0, n_users=0, noise_radar_dbm=noise_radar_dbm, targets=benchmark_targets())
        result = solve(scene, WTS, SolverConfig(tol_objective=0.0))
        results.append((result.iterations, result.objective / scene.noise_radar))
    for iterations, objective in results:
        assert iterations == results[0][0] == 13
        assert objective == pytest.approx(results[0][1], rel=1e-9)


@pytest.mark.parametrize("power_constraint", ["total", "per-antenna"])
def test_zero_curvature_keeps_the_iterate(power_constraint):
    # all-zero channels and no sensing term: the curvature, the shift and the
    # half gradient are all 0, so the iterate is its own MM candidate
    scene = sample_scene(0, n_users=1, targets=benchmark_targets())
    scene = replace(scene, channels=np.zeros_like(scene.channels))
    result = solve(scene, Weights(1.0, 0.0), SolverConfig(power_constraint=power_constraint))
    assert result.converged and result.iterations == 2
    assert np.array_equal(result.objective_trace, np.zeros(3))


def _ill_conditioned(seed, n_users):
    # three transmit antennas for eight or nine basis columns: a singular Gram matrix
    # and a nearly singular Fisher matrix, where the linearized sensing term
    # does not minorize the objective and a plain MM step can descend
    return sample_scene(
        seed,
        tx_geometry=ArrayGeometry(3, 1),
        rx_geometry=ArrayGeometry(2, 2),
        n_users=n_users,
        n_targets=2,
        n_slots=8,
    )


ILL_CONDITIONED = [(seed, 2) for seed in range(20)] + [(223, 3)]


@pytest.mark.parametrize("front_end", [solve, solve_ld], ids=["solve", "solve_ld"])
def test_ascent_check_keeps_traces_monotone(front_end):
    # the trust radius keeps the quasi-Newton step out of the unidentifiable
    # region: without it these solves took up to 448 iterations
    for seed, n_users in ILL_CONDITIONED:
        result = front_end(_ill_conditioned(seed, n_users), WTS)
        assert result.converged, seed
        assert np.all(np.diff(result.objective_trace) >= 0.0), seed
        assert result.iterations <= 150, seed


@pytest.mark.parametrize("power_constraint", ["total", "per-antenna"])
def test_ascent_check_that_runs_out_is_no_change(monkeypatch, caplog, power_constraint):
    # with no shift doublings allowed, the first step that finds no ascent
    # keeps the iterate and records its objective again, which ends the
    # solve converged like any other pass without change
    monkeypatch.setattr(sca, "MAX_RETRIES", 0)
    seed, n_users = (223, 3) if power_constraint == "total" else (47, 2)
    cfg = SolverConfig(power_constraint=power_constraint)
    with caplog.at_level(logging.WARNING, logger="isacbeam.sca"):
        result = solve(_ill_conditioned(seed, n_users), WTS, cfg)
    assert result.converged
    assert not caplog.records
    trace = result.objective_trace
    assert np.all(np.diff(trace) >= 0.0)
    assert trace[-1] == trace[-2]
    # every pass appends one objective, so it counts once in the timing
    timings = result.timings
    assert timings["per_iteration_s"] * result.iterations == pytest.approx(timings["iterations_s"])
