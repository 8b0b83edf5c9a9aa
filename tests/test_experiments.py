"""Sweep harness: config validation, record ordering, CSV determinism, verify."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from isacbeam import ArrayGeometry, ExperimentConfig, run_experiment
from isacbeam import experiments, sca
from isacbeam.experiments import CSV_HEADER, config_from_dict, front_ends, records_to_csv, verify
from isacbeam.sca import SolverConfig

TINY_SCENE = {
    "tx_geometry": [3, 2],
    "rx_geometry": [2, 2],
    "n_users": 2,
    "n_targets": 1,
    "n_slots": 8,
}


def tiny_config(**overrides):
    base = dict(
        sweep_axis="comm_weight",
        sweep_values=(0.1, 1.0),
        trials=2,
        solver="both",
        scene=TINY_SCENE,
        solver_config=SolverConfig(max_iters=300),
        measure_time=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_axis="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_values=(2.0, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(solver="newton")
    with pytest.raises(ValueError):
        ExperimentConfig(workers=0)
    per_antenna = SolverConfig(power_constraint="per-antenna")
    for solver in ("lowdim", "both"):
        with pytest.raises(ValueError, match="the lowdim solver honours only power_constraint='total'"):
            ExperimentConfig(solver=solver, solver_config=per_antenna)
    ExperimentConfig(solver="full", solver_config=per_antenna)
    # weights and the values of a real axis are checked here, as counts are:
    # a power_dbm sweep over [false, true] or ["10"] used to be accepted
    for bad in (np.nan, np.inf, -np.inf, True, "1.0"):
        with pytest.raises(ValueError, match="comm weight"):
            ExperimentConfig(comm_weight=bad)
        with pytest.raises(ValueError, match="sense weight"):
            ExperimentConfig(sense_weight=bad)
        for axis in ("comm_weight", "power_dbm"):
            with pytest.raises(ValueError, match=axis.replace("_", ".")):
                ExperimentConfig(sweep_axis=axis, sweep_values=(bad,))
    for values in ((False, True), ("10",), ("10", "20")):
        with pytest.raises(ValueError, match="power_dbm"):
            config_from_dict({"sweep_axis": "power_dbm", "sweep_values": list(values)})
    with pytest.raises(ValueError, match="comm weight"):
        ExperimentConfig(sweep_axis="comm_weight", sweep_values=(-0.5, 0.5))
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(sweep_axis="comm_weight", sweep_values=(0, 1), sense_weight=0)
    assert ExperimentConfig(sweep_axis="power_dbm", sweep_values=(np.int64(-10), 10, 20.5)).sweep_values[0] == -10
    # a comm_weight sweep sets the weight of each trial: a comm_weight key
    # there used to be accepted and used by no trial
    for raw in ({"sweep_axis": "comm_weight", "sweep_values": [0.1, 0.5], "comm_weight": 0.9},
                {"comm_weight": 0.9}):
        with pytest.raises(ValueError, match="comm_weight"):
            config_from_dict(raw)
    assert config_from_dict({"sweep_axis": "power_dbm", "sweep_values": [10], "comm_weight": 0.9}).comm_weight == 0.9


@pytest.mark.parametrize(
    "axis, values",
    [("comm_weight", (0.25, 0.25)), ("power_dbm", (10.0, 10.0)), ("power_dbm", (-10, 10, 10.0, 20)),
     ("n_tx", (16, 16))],
)
def test_sweep_values_must_be_strictly_ascending(axis, values):
    # a repeated value solved the same trials twice, and its summary bucket
    # counted each trial twice
    with pytest.raises(ValueError, match="strictly ascending"):
        ExperimentConfig(sweep_axis=axis, sweep_values=values)
    with pytest.raises(ValueError, match="strictly ascending"):
        config_from_dict({"sweep_axis": axis, "sweep_values": list(values)})
    assert ExperimentConfig(sweep_axis="power_dbm", sweep_values=(-10, 10, 20)).sweep_values == (-10, 10, 20)


def test_trial_record_validation():
    # iterations=True or 2.5 and a NaN or infinite wall_ms used to pass
    row = ("full", "ok", 1.0, 1.0, -1.0)
    for bad in (-1, True, 2.5, "3"):
        with pytest.raises(ValueError, match="iterations"):
            experiments.TrialRecord(0.25, 0, *row, bad, 1.0)
    for bad in (-1.0, np.nan, np.inf, -np.inf, True, "1"):
        with pytest.raises(ValueError, match="wall_ms"):
            experiments.TrialRecord(0.25, 0, *row, 3, bad)
    failed = experiments.TrialRecord(0.25, 0, "full", "failed:ValueError", np.nan, np.nan, np.nan, 0, 0.0)
    assert np.isnan(failed.sum_rate) and np.isnan(failed.stationarity)


def test_counts_must_be_integers():
    # a fractional trial count used to pass validation and fail in the sweep,
    # and True passed as 1
    for name in ("trials", "workers"):
        for count in (1.5, 2.0, "2", True):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(**{name: count})
    with pytest.raises(ValueError, match="trials"):
        config_from_dict({"trials": 1.5})
    with pytest.raises(ValueError, match="max_iters"):
        config_from_dict({"solver_config": {"max_iters": 2.5}})
    assert ExperimentConfig(trials=np.int64(3), workers=np.int64(2)).trials == 3


def test_base_seed_must_be_an_integer():
    # a fractional base seed used to run, writing seed 1.5 rows for scenes
    # built from seed 1
    for seed in (1.5, 2.0, "3", -1):
        with pytest.raises(ValueError, match="base_seed"):
            ExperimentConfig(base_seed=seed)
    with pytest.raises(ValueError, match="base_seed"):
        config_from_dict({"base_seed": 1.5})
    assert ExperimentConfig(base_seed=np.uint64(7)).base_seed == 7


@pytest.mark.parametrize("axis, bad", [("n_users", 1.5), ("n_sense", 2.0), ("n_tx", "16"), ("n_tx", 0)])
def test_count_axes_take_integer_values(axis, bad):
    # an n_users sweep over 1.5 used to solve one-user scenes and write 1.5 rows
    with pytest.raises(ValueError, match=axis):
        ExperimentConfig(sweep_axis=axis, sweep_values=(bad,))
    with pytest.raises(ValueError, match=axis):
        config_from_dict({"sweep_axis": axis, "sweep_values": [bad]})
    assert ExperimentConfig(sweep_axis=axis, sweep_values=(np.int64(1), 2)).sweep_values == (1, 2)


# (sweep axis, the scene key its trials set, a value for that key)
TRIAL_SCENE_KEYS = [
    ("comm_weight", "seed", 1),
    ("power_dbm", "power_dbm", 30.0),
    ("n_users", "n_users", 2),
    ("n_tx", "tx_geometry", [4, 4]),
]


@pytest.mark.parametrize("axis, key, value", TRIAL_SCENE_KEYS)
def test_scene_must_not_hold_what_each_trial_sets(axis, key, value):
    # each trial overwrote these without a word: power_dbm 30 under a
    # power_dbm sweep over (10,) solved 10 dBm scenes
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(sweep_axis=axis, sweep_values=(10,), scene={key: value})
    with pytest.raises(ValueError, match=key):
        config_from_dict({"sweep_axis": axis, "sweep_values": [10], "scene": {key: value}})
    if key != "seed":  # a key that another axis sweeps is the scene's to set
        ExperimentConfig(sweep_axis="comm_weight", scene={key: value})


def test_near_square_factorization():
    assert experiments._near_square(16) == [4, 4]
    assert experiments._near_square(12) == [4, 3]
    assert experiments._near_square(7) == [7, 1]


@pytest.mark.parametrize("axis, value, tx, n_users", [("n_tx", 12, (4, 3), 4), ("n_users", 3, (4, 4), 3)])
def test_count_sweeps_build_their_scenes(axis, value, tx, n_users, monkeypatch):
    # a trial along n_tx lays its antennas out by `_near_square`, one along
    # n_users draws that many users; the other count keeps its default
    scenes = []
    solve = sca.solve

    def recorded(scene, *args, **kwargs):
        scenes.append(scene)
        return solve(scene, *args, **kwargs)

    monkeypatch.setattr(sca, "solve", recorded)
    cfg = ExperimentConfig(sweep_axis=axis, sweep_values=(value,), trials=1, measure_time=False)
    [record] = run_experiment(cfg).records
    [scene] = scenes
    assert record.sweep_value == value and record.status in ("ok", "nonconverged")
    assert scene.tx_geometry == ArrayGeometry(*tx)
    assert scene.n_users == n_users


def test_run_experiment_counts_and_order():
    result = run_experiment(tiny_config())
    # 2 values x 2 trials x 2 solvers
    assert len(result.records) == 8
    keys = [(r.sweep_value, r.seed, r.solver) for r in result.records]
    assert keys == sorted(keys)
    assert all(r.status in ("ok", "nonconverged") for r in result.records)
    assert all(np.isfinite(r.objective) for r in result.records)


def test_summary_structure():
    result = run_experiment(tiny_config())
    assert set(result.summary) == {"full", "lowdim"}
    bucket = result.summary["full"][repr(0.1)]
    assert bucket["n"] == 2
    assert bucket["n_failed"] == 0
    for key in ("sum_rate_nats", "crlb_trace", "objective"):
        assert set(bucket[key]) == {"mean", "stderr"}
        assert np.isfinite(bucket[key]["mean"])
    rows = [r for r in result.records if r.solver == "full" and r.sweep_value == 0.1]
    assert bucket["iterations"] == {
        "mean": pytest.approx(np.mean([r.iterations for r in rows])),
        "max": max(r.iterations for r in rows),
    }
    assert bucket["n_nonconverged"] == sum(r.status == "nonconverged" for r in rows)
    assert all(0.0 <= r.stationarity < 1.0 for r in rows)
    assert bucket["stationarity"] == {
        "median": pytest.approx(np.median([r.stationarity for r in rows])),
        "max": max(r.stationarity for r in rows),
    }
    assert bucket["n_ok"] + bucket["n_nonconverged"] + bucket["n_failed"] == bucket["n"]
    capped = run_experiment(tiny_config(solver_config=SolverConfig(max_iters=2, tol_objective=0.0)))
    for per_value in capped.summary.values():
        for capped_bucket in per_value.values():
            assert capped_bucket["n_nonconverged"] == capped_bucket["n"] == 2
            assert capped_bucket["iterations"] == {"mean": 2.0, "max": 2}


def test_csv_header_and_determinism():
    cfg = tiny_config()
    a = records_to_csv(run_experiment(cfg).records, cfg.sweep_axis)
    b = records_to_csv(run_experiment(cfg).records, cfg.sweep_axis)
    assert a.splitlines()[0] == CSV_HEADER
    assert a == b  # byte-identical with measure_time=False
    assert len(a.splitlines()) == 9


def test_process_pool_returns_the_same_records():
    # the pool path of run_experiment, as the power sweep of the benchmark
    # runs it: two workers give the serial records, in the serial order
    cfg = ExperimentConfig(
        sweep_axis="power_dbm", sweep_values=(-10.0, 10.0, 20.0), trials=1,
        solver="both", measure_time=False,
    )
    serial = run_experiment(cfg)
    pooled = run_experiment(replace(cfg, workers=2))
    assert len(serial.records) == 6
    assert pooled.records == serial.records
    assert pooled.summary == serial.summary



def test_process_pool_runs_what_is_bound_at_each_call(monkeypatch):
    # forked workers run the functions of the moment they were forked, so a
    # rebinding made after a pooled call must get a new pool, and so must
    # the undoing of it
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("only forked workers inherit a rebinding")
    cfg = tiny_config(sweep_values=(1.0,), trials=1, solver="full", workers=2)
    first = run_experiment(cfg).records
    assert [r.status for r in first] == ["ok"]

    def rejecting(*args, **kwargs):
        raise ValueError("rebound")

    monkeypatch.setattr(sca, "solve", rejecting)
    assert [r.status for r in run_experiment(cfg).records] == ["failed:ValueError"]
    monkeypatch.undo()
    assert run_experiment(cfg).records == first


POOL_LIFE_CYCLE = """
import json, multiprocessing, os, signal, sys, time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from isacbeam import ExperimentConfig, SolverConfig, run_experiment

multiprocessing.set_start_method(sys.argv[1])
cfg = ExperimentConfig(sweep_axis="comm_weight", sweep_values=(0.1, 1.0), trials=2, solver="both",
                       scene={scene!r}, solver_config=SolverConfig(max_iters=300), measure_time=False)

def pids():
    return sorted(p.pid for p in multiprocessing.active_children())

def gone(pid):
    deadline = time.monotonic() + 30
    while pid in pids() and time.monotonic() < deadline:
        time.sleep(0.01)
    return pid not in pids()

serial = run_experiment(cfg).records
out = {{"same_records": []}}
for workers in (2, 2, 3):
    out["same_records"].append(run_experiment(replace(cfg, workers=workers)).records == serial)
    out.setdefault("pids", []).append(pids())
victim = out["pids"][-1][0]
os.kill(victim, signal.SIGKILL)
out["victim_gone"] = gone(victim)
try:
    run_experiment(replace(cfg, workers=3))
    out["broken"] = False
except BrokenProcessPool:
    out["broken"] = True
out["same_records"].append(run_experiment(replace(cfg, workers=3)).records == serial)
out["pids"].append(pids())
print(json.dumps(out), flush=True)
if sys.argv[2] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("ending", ["exit", "kill"])
@pytest.mark.parametrize("start_method", ["fork", "forkserver", "spawn"])
def test_process_pool_lives_across_calls(start_method, ending, tmp_path):
    # in a process of its own, so that the pool of this one plays no part:
    # pooled calls with one worker count share their workers, another count
    # replaces them, a dead worker breaks one call only, and no worker
    # outlives the process, whether it exits or is killed, under each start
    # method (a forkserver's workers are children of the server, not of the
    # caller, and a spawned one has none of its state). Output goes to
    # files: a surviving worker would hold a pipe open, and the run with it.
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    stdout, stderr = tmp_path / "stdout", tmp_path / "stderr"
    with open(stdout, "w") as out_file, open(stderr, "w") as err_file:
        done = subprocess.run([sys.executable, "-c", POOL_LIFE_CYCLE.format(scene=TINY_SCENE),
                               start_method, ending],
                              env=env, stdout=out_file, stderr=err_file, timeout=120)
    assert done.returncode == (0 if ending == "exit" else -signal.SIGKILL), stderr.read_text()
    out = json.loads(stdout.read_text())
    two, again, three, fresh = out["pids"]
    workers = two + three + fresh
    try:
        assert out["same_records"] == [True] * 4
        assert len(two) == 2 and again == two
        assert len(three) == 3 and not set(three) & set(two)
        assert out["victim_gone"] and out["broken"]
        assert len(fresh) == 3 and not set(fresh) & set(three)
        # an exiting process joins its workers before it ends; those of a
        # killed one end once their watcher sees their parent gone
        deadline = time.monotonic() + (0 if ending == "exit" else 10)
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("solver", ["Full", "", ["full"]])
def test_front_ends_reject_an_unknown_choice(solver):
    # "Full" used to run sca.solve under that name
    with pytest.raises(ValueError, match="solver must be one of"):
        front_ends(solver)


def test_n_sense_sweep_front_ends_agree():
    cfg = ExperimentConfig(
        sweep_axis="n_sense", sweep_values=(0, 6, 7), trials=1, solver="both", measure_time=False
    )
    records = run_experiment(cfg).records
    for value in (0, 6):
        full, ld = (r for r in records if r.sweep_value == value)
        assert (full.solver, ld.solver) == ("full", "lowdim")
        assert ld.iterations == full.iterations
        assert ld.objective == pytest.approx(full.objective, rel=1e-6)
    # 7 streams exceed 3M = 6 start columns: both rows fail with the ValueError
    assert [r.status for r in records if r.sweep_value == 7] == ["failed:ValueError"] * 2


def test_failed_trials_become_rows():
    # sensing objective with zero targets cannot be evaluated
    cfg = tiny_config(
        scene={**TINY_SCENE, "n_targets": 0},
        sweep_values=(0.25,),
        solver="full",
        trials=1,
    )
    result = run_experiment(cfg)
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.status.startswith("failed:")
    assert np.isnan(rec.objective) and np.isnan(rec.stationarity)
    bucket = result.summary["full"][repr(0.25)]
    assert bucket["n_failed"] == 1
    assert np.isnan(bucket["stationarity"]["median"]) and np.isnan(bucket["stationarity"]["max"])


@pytest.mark.parametrize("solver", ["full", "lowdim"])
def test_solver_config_must_be_a_solver_config(solver):
    # a dict used to pass here under the full solver and fail every trial
    # with AttributeError; config_from_dict converts the JSON form
    with pytest.raises(ValueError, match="solver_config"):
        ExperimentConfig(solver=solver, solver_config={"max_iters": 5})


def test_config_from_dict_round_trip():
    cfg = config_from_dict(
        {
            "sweep_axis": "n_users",
            "sweep_values": [1, 2],
            "trials": 3,
            "solver": "full",
            "solver_config": {"max_iters": 10},
        }
    )
    assert cfg.sweep_values == (1, 2)
    assert cfg.solver_config.max_iters == 10
    # an unknown key is a ValueError naming it, as in a scene config
    with pytest.raises(ValueError, match="bogus_key"):
        config_from_dict({"bogus_key": 1})
    # strict is the CLI's, which checks the records run_experiment returns
    with pytest.raises(ValueError, match="strict"):
        config_from_dict({"strict": True})
    with pytest.raises(ValueError, match="init_mode"):
        config_from_dict({"solver_config": {"init_mode": "random"}})


@pytest.mark.parametrize("bad", ["false", 0, 1, None])
def test_measure_time_must_be_a_bool(bad):
    # the JSON string "false" is truthy, so a sweep meant to be
    # byte-identical used to record wall time
    with pytest.raises(ValueError, match="measure_time"):
        ExperimentConfig(measure_time=bad)
    with pytest.raises(ValueError, match="measure_time"):
        config_from_dict({"measure_time": bad})


def test_verify_passes_on_small_scene():
    checks = verify(scene_config=TINY_SCENE)
    assert {c.name: c.threshold for c in checks} == {
        "gradient_fd_relative_error": 1e-5,
        "fim_fd_relative_error": 1e-5,
        "adjoint_identity_relative_error": 1e-8,
        "full_power_relative_error": 1e-9,
        "inward_scaling_gain": 0.0,
        "stationarity_report_error": 1e-6,
        "obs_stationarity_residual": 1e-2,
        "obs_comm_structure_residual": 1e-2,
        "obs_sense_eigen_residual": 1e-2,
    }
    failed = [c for c in checks if not c.passed]
    assert not failed, failed


def test_verify_has_one_seed():
    # the scene config's seed builds the main scene and seeds the oracle
    # scene and the adjoint draws; there is no second seed argument
    with pytest.raises(TypeError):
        verify(TINY_SCENE, seed=3)
    seeded = verify({**TINY_SCENE, "seed": 3})
    assert seeded == verify({**TINY_SCENE, "seed": 3})
    oracles = ("gradient_fd_relative_error", "fim_fd_relative_error", "adjoint_identity_relative_error")
    values = {c.name: c.value for c in verify(TINY_SCENE)}
    for c in seeded:
        if c.name in oracles:
            assert c.value != values[c.name], c.name


def test_verify_checks_an_active_sensing_block():
    # the sensing eigen residual is taken where the sensing streams carry
    # power; on the scene with users every sensing column falls below the
    # zero-column tolerance and the residual reads exactly 0
    [check] = [c for c in verify({"seed": 0}) if c.name == "obs_sense_eigen_residual"]
    assert check.passed and check.threshold == 1e-2
    assert check.value > 0.0


@pytest.mark.parametrize("power_dbm", [-100, -20, 30, 40])
def test_verify_passes_across_powers(power_dbm):
    # every residual is relative to the gradient, so a stationary solve
    # passes whatever the power: at -100 dBm the multiplier is ~1e21
    failed = [c for c in verify({"power_dbm": power_dbm}) if not c.passed]
    assert not failed, failed


@pytest.mark.parametrize(
    "scene_config",
    [{"noise_radar_dbm": -100}, {"noise_radar_dbm": -250}, {"noise_comm_dbm": -60}],
    ids=["radar-100", "radar-250", "comm-60"],
)
def test_verify_passes_across_noise_powers(scene_config):
    # neither the solver's shift nor the tight solves' stop has an absolute
    # scale, so a stationary solve passes however the noise scales the objective
    failed = [c for c in verify(scene_config) if not c.passed]
    assert not failed, failed
