"""CLI subcommands and exit codes, driven through main() with temp files."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isacbeam
from isacbeam import cli
from isacbeam.experiments import CSV_HEADER

TINY_SCENE = {
    "tx_geometry": [3, 2],
    "rx_geometry": [2, 2],
    "n_users": 2,
    "n_targets": 1,
    "n_slots": 8,
}


@pytest.fixture
def scene_config(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(TINY_SCENE))
    return path


def test_solve_writes_json_report(scene_config, tmp_path):
    out = tmp_path / "metrics.json"
    code = cli.main(
        ["solve", "--config", str(scene_config), "--solver", "both", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert set(report) == {"full", "lowdim"}
    for entry in report.values():
        assert entry["converged"] is True
        assert entry["total_power"] == pytest.approx(10.0, rel=1e-9)
        assert entry["sum_rate_nats"] > 0.0
        assert 0.0 <= entry["stationarity"] < 1.0


def test_solve_prints_to_stdout(scene_config, capsys):
    assert cli.main(["solve", "--config", str(scene_config)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "full" in report


def test_sweep_writes_csv_and_summary(tmp_path):
    cfg = {
        "sweep_axis": "comm_weight",
        "sweep_values": [0.1, 1.0],
        "trials": 1,
        "scene": TINY_SCENE,
        "solver_config": {"max_iters": 300},
        "measure_time": False,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "records.csv"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    summary = json.loads((tmp_path / "records.summary.json").read_text())
    assert "full" in summary


def _strict_json(text):
    """text parsed by a JSON parser that rejects NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


# a sensing stream count above 3M fails its one trial, whose NaN metrics
# reach the summary
FAILED_SWEEP = {"sweep_axis": "n_sense", "sweep_values": [7], "trials": 1, "scene": TINY_SCENE}


def test_json_reports_are_standard_json(tmp_path, monkeypatch):
    # a solve without targets has no CRLB trace, a failed sweep trial no
    # metrics, a check no value: each is null, not a NaN token
    out = tmp_path / "metrics.json"
    no_targets = {**TINY_SCENE, "n_targets": 0}
    (tmp_path / "scene.json").write_text(json.dumps(no_targets))
    argv = ["solve", "--config", str(tmp_path / "scene.json"), "--comm-weight", "1", "--sense-weight", "0"]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    assert _strict_json(out.read_text())["full"]["crlb_trace"] is None

    (tmp_path / "sweep.json").write_text(json.dumps(FAILED_SWEEP))
    argv = ["sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "records.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    [bucket] = _strict_json((tmp_path / "records.summary.json").read_text())["full"].values()
    assert bucket["n_failed"] == 1 and bucket["objective"]["mean"] is None

    from isacbeam.analysis import CheckRecord

    nan = CheckRecord(name="undefined", value=float("nan"), threshold=0.0, passed=False)
    monkeypatch.setattr(cli.experiments, "verify", lambda *a, **k: [nan])
    assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_VERIFY_FAILED
    assert _strict_json(out.read_text())[0]["value"] is None


def test_sweep_without_out_prints_csv_then_summary(tmp_path, capsys):
    (tmp_path / "sweep.json").write_text(json.dumps(FAILED_SWEEP))
    assert cli.main(["sweep", "--config", str(tmp_path / "sweep.json")]) == cli.EXIT_OK
    text = capsys.readouterr().out
    header, row, rest = text.split("\n", 2)
    assert header == CSV_HEADER and row.startswith("n_sense,7.0,0,full,failed:ValueError,")
    assert _strict_json(rest)["full"]["7.0"]["n"] == 1
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_to_the_null_device_writes_no_summary_beside_it(tmp_path):
    # `--out /dev/null` discards the CSV; its summary used to land in a new
    # regular file /dev/null.summary.json beside the device
    companion = Path(os.devnull).with_suffix(".summary.json")
    existed = companion.exists()
    stamp = companion.stat().st_mtime_ns if existed else None
    cfg = {"sweep_axis": "comm_weight", "sweep_values": [1.0], "trials": 1, "scene": TINY_SCENE, "measure_time": False}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    try:
        code = cli.main(["sweep", "--config", str(cfg_path), "--out", os.devnull])
    finally:
        created = not existed and companion.exists()
        if created:
            companion.unlink()
    assert code == cli.EXIT_OK
    assert not created
    assert not existed or companion.stat().st_mtime_ns == stamp


def test_sweep_strict_flags_nonconvergence(tmp_path):
    cfg = {
        "sweep_axis": "comm_weight",
        "sweep_values": [0.25],
        "trials": 1,
        "scene": TINY_SCENE,
        "solver_config": {"max_iters": 2, "tol_objective": 0.0},
        "measure_time": False,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "records.csv"
    code = cli.main(["sweep", "--config", str(cfg_path), "--strict", "--out", str(out)])
    assert code == cli.EXIT_NONCONVERGED
    assert "nonconverged" in out.read_text()


def _sweep(tmp_path, config, *flags):
    """Exit code and CSV rows of `sweep` on a one-trial tiny-scene config
    updated by `config`, with the given flags."""
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"trials": 1, "scene": TINY_SCENE, "measure_time": False, **config}))
    out = tmp_path / "sweep.csv"
    out.unlink(missing_ok=True)
    code = cli.main(["sweep", "--config", str(cfg_path), *flags, "--out", str(out)])
    return code, list(csv.DictReader(io.StringIO(out.read_text()))) if out.exists() else []


@pytest.mark.parametrize(
    "config, flags, expected",
    [
        ({"base_seed": 0}, ["--seed", "7"], [("7", "full")]),
        ({"solver": "full"}, ["--solver", "lowdim"], [("0", "lowdim")]),
        ({"trials": 1}, ["--trials", "2"], [("0", "full"), ("1", "full")]),
        # used to write full rows for seeds 0 and 1
        ({"solver": "full", "base_seed": 0}, ["--solver", "lowdim", "--seed", "7", "--trials", "2"],
         [("7", "lowdim"), ("8", "lowdim")]),
        # an absent flag leaves the file's value
        ({"solver": "lowdim", "base_seed": 3, "trials": 2}, [], [("3", "lowdim"), ("4", "lowdim")]),
    ],
    ids=["seed", "solver", "trials", "all", "absent"],
)
def test_sweep_flags_override_the_config_file(config, flags, expected, tmp_path):
    code, rows = _sweep(tmp_path, config, *flags)
    assert code == cli.EXIT_OK
    assert [(row["seed"], row["solver"]) for row in rows] == expected


def test_sweep_power_constraint_flag_overrides_the_config_file(tmp_path):
    def objectives(constraint, *flags):
        code, rows = _sweep(tmp_path, {"solver_config": {"power_constraint": constraint}}, *flags)
        assert code == cli.EXIT_OK
        return [row["objective"] for row in rows]

    per_antenna = objectives("per-antenna")  # no flag: the file's value
    assert per_antenna != objectives("total")
    assert objectives("total", "--power-constraint", "per-antenna") == per_antenna
    assert objectives("per-antenna", "--power-constraint", "total") == objectives("total")


def test_solve_seed_flag_overrides_the_config_file(tmp_path, capsys):
    def report(seed, *flags):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({**TINY_SCENE, "seed": seed}))
        assert cli.main(["solve", "--config", str(path), *flags]) == cli.EXIT_OK
        return json.loads(capsys.readouterr().out)

    assert report(5) != report(7)
    assert report(5, "--seed", "7") == report(7)


def test_verify_seed_flag_overrides_the_config_file(scene_config, tmp_path, monkeypatch):
    from isacbeam.analysis import CheckRecord

    def seeds(scene_config):
        return [CheckRecord(name="seed", value=scene_config["seed"], threshold=2.0**64, passed=True)]

    monkeypatch.setattr(cli.experiments, "verify", seeds)
    scene_config.write_text(json.dumps({**TINY_SCENE, "seed": 5}))
    out = tmp_path / "report.json"
    # the scene config's seed seeds everything verify draws
    for flags, expected in ((["--seed", "7"], 7), ([], 5)):
        argv = ["verify", "--config", str(scene_config), *flags, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert [entry["value"] for entry in json.loads(out.read_text())] == [expected]


@pytest.mark.parametrize(
    "config",
    [{"scene": {**TINY_SCENE, "seed": 1}},
     {"sweep_axis": "power_dbm", "sweep_values": [10], "scene": {**TINY_SCENE, "power_dbm": 30}},
     {"sweep_axis": "n_users", "sweep_values": [1]},
     {"sweep_axis": "n_tx", "sweep_values": [4], "scene": {**TINY_SCENE, "tx_geometry": [4, 4]}},
     {"strict": True}],
    ids=["scene-seed", "power-dbm", "n-users", "tx-geometry", "strict"],
)
def test_sweep_rejects_settings_it_would_drop(config, tmp_path, capsys):
    # each trial overwrote these scene keys without a word, and a config's
    # strict was copied into a field that nothing read; --strict is the flag
    code, rows = _sweep(tmp_path, config)
    assert code == cli.EXIT_BAD_CONFIG and rows == []
    assert "invalid configuration" in capsys.readouterr().err


def test_a_key_error_from_a_solve_propagates(scene_config, monkeypatch):
    # no configuration raises KeyError, so one raised inside a solve is a
    # defect, which the CLI used to print as an invalid configuration
    def broken(*args, **kwargs):
        raise KeyError("defect")

    monkeypatch.setattr(cli.experiments.sca, "solve", broken)
    with pytest.raises(KeyError, match="defect"):
        cli.main(["solve", "--config", str(scene_config)])


def test_a_type_error_from_a_solve_propagates(scene_config, monkeypatch):
    # every configuration of a wrong JSON type is a ValueError, so the CLI
    # no longer catches TypeError, which used to hide this defect too
    def broken(*args, **kwargs):
        raise TypeError("defect")

    monkeypatch.setattr(cli.experiments.sca, "solve", broken)
    with pytest.raises(TypeError, match="defect"):
        cli.main(["solve"])


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("solve", {"tx_geometry": 4}, "tx_geometry"),
        ("solve", {"rx_geometry": 4}, "rx_geometry"),
        ("sweep", {"trials": 1, "scene": {"tx_geometry": 4}}, "tx_geometry"),
        ("solve", {"targets": 5}, "targets"),
        ("sweep", {"scene": 5}, "scene"),
        ("sweep", {"sweep_values": 3}, "sweep_values"),
        ("sweep", {"sweep_axis": ["power_dbm"]}, "sweep_axis"),
        ("sweep", {"solver_config": 5}, "solver_config"),
        ("solve", [TINY_SCENE], "config.json"),
        ("sweep", [], "config.json"),
    ],
    ids=["tx-geometry", "rx-geometry", "sweep-tx-geometry", "targets", "sweep-scene", "sweep-values",
         "sweep-axis", "solver-config", "solve-list", "sweep-list"],
)
def test_a_config_value_of_the_wrong_json_type_is_named(command, config, named, tmp_path, capsys):
    # each used to escape as a bare TypeError, printed without the key
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "invalid configuration" in err and named in err


def test_invalid_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_BAD_CONFIG
    assert "invalid configuration" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert cli.main(["solve", "--config", str(missing)]) == cli.EXIT_BAD_CONFIG

    assert cli.main(["solve", "--comm-weight", "nan"]) == cli.EXIT_BAD_CONFIG

    nan_power = tmp_path / "nan_power.json"
    nan_power.write_text(json.dumps({**TINY_SCENE, "power_dbm": float("nan")}))
    assert cli.main(["solve", "--config", str(nan_power)]) == cli.EXIT_BAD_CONFIG
    assert "power_dbm" in capsys.readouterr().err

    huge_power = tmp_path / "huge_power.json"
    huge_power.write_text(json.dumps({**TINY_SCENE, "power_dbm": 4000}))
    assert cli.main(["solve", "--config", str(huge_power)]) == cli.EXIT_BAD_CONFIG
    assert "overflows" in capsys.readouterr().err

    ignored_weight = tmp_path / "ignored_weight.json"
    ignored_weight.write_text(json.dumps({"sweep_axis": "comm_weight", "sweep_values": [0.1, 0.5],
                                          "comm_weight": 0.9, "trials": 1, "scene": TINY_SCENE}))
    assert cli.main(["sweep", "--config", str(ignored_weight)]) == cli.EXIT_BAD_CONFIG
    assert "comm_weight" in capsys.readouterr().err

    # a real value must be a JSON number wherever a config file holds one:
    # {"power_dbm": true} used to solve and verify a 1 dBm scene
    target = {"azimuth": 0.2, "elevation": 0.3, "rcs_real": 0.1, "rcs_imag": 0.0}
    for bad in (True, "1.0", float("nan"), float("inf"), -float("inf")):
        scenes = [{**TINY_SCENE, key: bad}
                  for key in ("power_dbm", "noise_radar_dbm", "noise_comm_dbm", "channel_variance")]
        scenes += [{**TINY_SCENE, "targets": [{**target, key: bad}]} for key in target]
        sweeps = [{"comm_weight": bad}, {"sense_weight": bad}, {"solver_config": {"tol_objective": bad}},
                  {"sweep_axis": "comm_weight", "sweep_values": [bad]},
                  {"sweep_axis": "power_dbm", "sweep_values": [bad]},
                  {"scene": {**TINY_SCENE, "power_dbm": bad}}]
        runs = [(command, scene) for command in ("solve", "verify") for scene in scenes]
        runs += [("sweep", {"trials": 1, "scene": TINY_SCENE, **sweep}) for sweep in sweeps]
        for command, config in runs:
            path = tmp_path / "real.json"
            path.write_text(json.dumps(config))
            assert cli.main([command, "--config", str(path)]) == cli.EXIT_BAD_CONFIG, (command, config)
            assert "invalid configuration" in capsys.readouterr().err


def _fail_if_called(*args, **kwargs):
    pytest.fail("a solve ran")


@pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_one_before_any_solve(command, where, tmp_path, capsys, monkeypatch):
    # an --out that cannot be written used to end in a traceback, and for
    # sweep only after every trial had been solved
    out = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
    monkeypatch.setattr(cli.experiments.sca, "solve", _fail_if_called)
    monkeypatch.setattr(cli.experiments.lowdim, "solve_ld", _fail_if_called)
    monkeypatch.setattr(cli.experiments, "verify", _fail_if_called)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"trials": 1, "scene": TINY_SCENE} if command == "sweep" else TINY_SCENE))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid configuration: cannot write")


def test_sweep_with_an_unwritable_summary_exits_one_before_any_solve(tmp_path, capsys, monkeypatch):
    # the summary JSON is written beside a CSV that is a regular file
    (tmp_path / "records.summary.json").mkdir()
    monkeypatch.setattr(cli.experiments.sca, "solve", _fail_if_called)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"trials": 1, "scene": TINY_SCENE}))
    argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "records.csv")]
    assert cli.main(argv) == cli.EXIT_BAD_CONFIG
    assert "cannot write" in capsys.readouterr().err


def test_solve_to_the_null_device(scene_config, capsys):
    assert cli.main(["solve", "--config", str(scene_config), "--out", os.devnull]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
def test_negative_seed_exits_one(command, capsys):
    assert cli.main([command, "--seed", "-1"]) == cli.EXIT_BAD_CONFIG
    assert "invalid configuration" in capsys.readouterr().err


def test_lowdim_per_antenna_exits_one(scene_config, capsys):
    argv = ["solve", "--config", str(scene_config), "--solver", "lowdim",
            "--power-constraint", "per-antenna"]
    assert cli.main(argv) == cli.EXIT_BAD_CONFIG
    assert "invalid configuration" in capsys.readouterr().err


def test_verify_exit_codes(scene_config, tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", str(scene_config), "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert all(entry["passed"] for entry in report)
    [agreement] = [e for e in report if e["name"] == "stationarity_report_error"]
    assert agreement["threshold"] == 1e-6 and 0.0 <= agreement["value"] <= 1e-6

    from isacbeam.analysis import CheckRecord

    monkeypatch.setattr(
        cli.experiments,
        "verify",
        lambda *a, **k: [CheckRecord(name="forced", value=1.0, threshold=0.0, passed=False)],
    )
    assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAILED
    assert "FAILED: forced" in capsys.readouterr().err


def test_verify_passes_at_the_top_seed(tmp_path):
    # its oracle scene and adjoint draws are keyed by offsets of the seed,
    # which used to leave [0, 2^64) here and exit 1
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--seed", str(2**64 - 1), "--out", str(out)]) == cli.EXIT_OK
    assert all(entry["passed"] for entry in json.loads(out.read_text()))


def test_passing_verify_writes_nothing_to_stderr(tmp_path):
    # no solve of the suite may log a warning, such as the solver's
    # max_iters one; a separate process, because pytest routes logging itself
    src = str(Path(isacbeam.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "isacbeam.cli", "verify", "--out", str(tmp_path / "v.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=False,
    )
    assert done.returncode == cli.EXIT_OK
    assert done.stderr == ""


@pytest.mark.parametrize(
    "solver_config",
    [{"init_mode": "random"}, {"init_seed": 3}, {"max_iters": 2.5}],
    ids=["init-mode", "init-seed", "fractional-max-iters"],
)
def test_sweep_rejects_unknown_or_fractional_solver_options(solver_config, tmp_path, capsys):
    # the random start and its seed are gone from SolverConfig: a custom
    # start is passed to `sca.run` as coefficients, never through a sweep
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"trials": 1, "scene": TINY_SCENE, "solver_config": solver_config}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == cli.EXIT_BAD_CONFIG
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [{"base_seed": 1.5}, {"scene": {**TINY_SCENE, "n_users": 1.5}},
     {"scene": {**TINY_SCENE, "tx_geometry": [2.5, 2]}}],
    ids=["base-seed", "n-users", "tx-geometry"],
)
def test_sweep_rejects_fractional_integers(config, tmp_path, capsys):
    # a fractional base seed used to exit 0 with seed 1.5 rows
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"trials": 1, "scene": TINY_SCENE, **config}))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_BAD_CONFIG
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--bogus"],
        ["solve", "--seed", "abc"],
        ["sweep", "--trials", "x"],
        ["verify", "extra"],
        # verify runs its own suite, so it takes no solver choice
        ["verify", "--solver", "lowdim"],
        ["verify", "--power-constraint", "per-antenna"],
        ["verify", "--solver", "lowdim", "--power-constraint", "per-antenna"],
        [],
    ],
    ids=["unknown-flag", "bad-int", "sweep-bad-int", "verify-positional", "verify-solver",
         "verify-power-constraint", "verify-both", "no-command"],
)
def test_usage_errors_exit_one(argv, capsys):
    # argparse's own exit code, 2, is the CLI's verification-failure code
    assert cli.main(argv) == cli.EXIT_BAD_CONFIG
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("command", [[], ["solve"], ["sweep"], ["verify"]])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
