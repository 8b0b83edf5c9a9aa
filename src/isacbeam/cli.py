"""Command-line interface: single solves, sweeps, and the verification suite.

A flag given on the command line overrides the config file's value; an absent
flag leaves the file's value, or the default: seed 0, and otherwise the
`ExperimentConfig` and `SolverConfig` field defaults.

Exit codes: 0 success, 1 invalid configuration (usage errors included),
2 verification failure, 3 nonconvergence in strict mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import experiments
from .metrics import Weights
from .sca import _POWER_CONSTRAINTS, SolverConfig
from .scene import scene_from_config

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_VERIFY_FAILED = 2
EXIT_NONCONVERGED = 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an invalid configuration (exit 1), not with
    argparse's exit 2, which the CLI reserves for verification failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isacbeam",
        description="Joint communication/sensing transmit beamforming optimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON configuration file")
    common.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    solvers = argparse.ArgumentParser(add_help=False)
    solvers.add_argument(
        "--solver", choices=experiments._SOLVERS,
        help=f"which solver(s) to run (default {experiments.ExperimentConfig.solver})",
    )
    solvers.add_argument(
        "--power-constraint", choices=_POWER_CONSTRAINTS,
        help=f"transmit power constraint handled by the projection step (default {SolverConfig.power_constraint})",
    )

    p_solve = sub.add_parser("solve", parents=[common, solvers], help="solve one instance")
    p_solve.add_argument("--comm-weight", type=float, help=f"default {experiments.ExperimentConfig.comm_weight}")
    p_solve.add_argument("--sense-weight", type=float, help=f"default {experiments.ExperimentConfig.sense_weight}")
    p_solve.add_argument("--out", type=Path, help="write metrics JSON here instead of stdout")

    p_sweep = sub.add_parser("sweep", parents=[common, solvers], help="run a configured sweep")
    p_sweep.add_argument("--trials", type=int, help="trial count per sweep value")
    p_sweep.add_argument("--out", type=Path, help="CSV output path (summary JSON alongside)")
    p_sweep.add_argument("--strict", action="store_true",
                         help="exit nonzero if any trial fails to converge")

    p_verify = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    p_verify.add_argument("--out", type=Path, help="write the report JSON here")
    return parser


def _load_json(path: Optional[Path]) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object, not {type(config).__name__}")
    return config


def _check_out(path: Optional[Path]) -> None:
    """ValueError unless path is None, a file this process may write, or a
    new name in a directory it may write: checked before any solve runs."""
    if path is None:
        return
    if path.exists():
        writable = not path.is_dir() and os.access(path, os.W_OK)
    else:
        writable = path.parent.is_dir() and os.access(path.parent, os.W_OK | os.X_OK)
    if not writable:
        raise ValueError(f"cannot write {path}")


def _json_text(data) -> str:
    """data as standard JSON, indented with sorted keys: a non-finite float
    becomes null, since strict parsers reject NaN and Infinity."""
    plain = json.loads(json.dumps(data), parse_constant=lambda token: None)
    return json.dumps(plain, indent=2, sort_keys=True, allow_nan=False)


def _given(config: dict, **flags) -> dict:
    """config with each flag given on the command line (not None) written
    over it: the one precedence of every setting the CLI merges."""
    return {**config, **{key: value for key, value in flags.items() if value is not None}}


def _scene_config(args) -> dict:
    return _given({"seed": 0, **_load_json(args.config)}, seed=args.seed)


def _cmd_solve(args) -> int:
    scene = scene_from_config(_scene_config(args))
    cfg = experiments.ExperimentConfig(  # one trial's settings: the flags given, else the field defaults
        **_given({}, solver=args.solver, comm_weight=args.comm_weight, sense_weight=args.sense_weight),
        solver_config=SolverConfig(**_given({}, power_constraint=args.power_constraint)))
    weights = Weights(cfg.comm_weight, cfg.sense_weight)
    report = {}
    for name, runner in experiments.front_ends(cfg.solver):
        result = runner(scene, weights, cfg.solver_config)
        report[name] = {
            "sum_rate_nats": result.sum_rate,
            "crlb_trace": result.crlb_trace,
            "objective": result.objective,
            "iterations": result.iterations,
            "converged": result.converged,
            "stationarity": result.stationarity,
            "total_power": result.beamformer.total_power,
        }
    text = _json_text(report)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    raw = _given(_load_json(args.config), base_seed=args.seed, solver=args.solver, trials=args.trials)
    solver_config = raw.get("solver_config", {})
    if not isinstance(solver_config, dict):
        raise ValueError(f"solver_config must be a JSON object, got {solver_config!r}")
    raw["solver_config"] = _given(solver_config, power_constraint=args.power_constraint)
    cfg = experiments.config_from_dict(raw)
    if args.out and (args.out.is_file() or not args.out.exists()):  # the summary goes beside it
        _check_out(args.out.with_suffix(".summary.json"))
    result = experiments.run_experiment(cfg)
    csv_text = experiments.records_to_csv(result.records, cfg.sweep_axis)
    summary_text = _json_text(result.summary)
    if args.out:
        args.out.write_text(csv_text)
        if args.out.is_file():  # not beside a device such as /dev/null, or a pipe
            args.out.with_suffix(".summary.json").write_text(summary_text + "\n")
    else:
        sys.stdout.write(csv_text)
        print(summary_text)
    if args.strict and any(r.status != "ok" for r in result.records):
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = experiments.verify(_scene_config(args))
    text = _json_text([dataclasses.asdict(c) for c in checks])
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    failures = [c for c in checks if not c.passed]
    for c in failures:
        print(f"FAILED: {c.name} value={c.value:g} threshold={c.threshold:g}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
