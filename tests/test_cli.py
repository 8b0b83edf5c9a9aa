"""CLI subcommands and exit codes, driven through main() with temp files."""

import json

import pytest

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
    assert "power budget" in capsys.readouterr().err


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

    from isacbeam.analysis import CheckRecord

    monkeypatch.setattr(
        cli.experiments,
        "verify",
        lambda *a, **k: [CheckRecord(name="forced", value=1.0, threshold=0.0, passed=False)],
    )
    assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAILED
    assert "FAILED: forced" in capsys.readouterr().err
