"""Command-line interface.

Subcommands: run-full, run-reduced, steady, sweep-d, sweep-kappa,
converge-eq.  Exit codes: 0 success, 2 configuration error, 3 solver
failure.  Every run writes a diagnostics series (series.csv), a final
snapshot, and optional periodic checkpoints into the output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..steady import NonConvergenceError, solve_stationary_phi, steady_residual
from ..stepper import DtUnderflowError, NewtonDivergenceError, run
from .config import ConfigError, parse_config, serialize_config
from .experiments import (
    experiment_absorbing,
    experiment_equilibrium_convergence,
    experiment_kappa_refinement,
    experiment_large_d,
)
from .io import (CorruptSnapshotError, SnapshotMismatchError, param_hash,
                 read_snapshot, write_series, write_snapshot)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="raftsim",
        description="bulk-surface coupled phase-separation simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run-full", "advance the bulk-surface coupled system"),
        ("run-reduced", "advance the reduced nonlocal surface system"),
        ("steady", "solve the constrained stationary problem"),
        ("sweep-d", "large-diffusion ladder vs. the reduced system"),
        ("sweep-kappa", "regularization refinement sweep"),
        ("converge-eq", "equilibrium-case convergence experiment"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="config file path")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="override a config entry, e.g. stepper.dt=1e-3")
        if name in ("run-full", "run-reduced"):
            cmd.add_argument("--resume", default=None,
                             help="resume from a snapshot file")
    return parser


def _load_config(args, forced_system=None):
    text = Path(args.config).read_text(encoding="utf-8")
    overrides = []
    for item in args.override:
        if "=" not in item:
            raise ConfigError([(None, f"override {item!r} is not KEY=VALUE")])
        key, value = item.split("=", 1)
        overrides.append((key.strip(), value.strip()))
    if forced_system is not None:
        overrides.append(("run.system", forced_system))
    return parse_config(text, overrides)


def _out_dir(args, cfg):
    out = args.out or cfg.output_dir or "raftsim_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args, system):
    cfg = _load_config(args, forced_system=system)
    out = _out_dir(args, cfg)
    params = cfg.build_params()
    digest = param_hash(cfg)

    if args.resume:
        state, _ = read_snapshot(args.resume, expect_param_hash=digest)
        remaining = cfg.schedule.t_final - state.t
        if remaining < -1e-12:
            raise ConfigError([(None,
                                f"snapshot time {state.t} is past t_final")])
        schedule = replace(cfg.schedule, t_final=max(remaining, 0.0))
    else:
        state = cfg.build_initial_state()
        schedule = cfg.schedule

    # name checkpoints by the step counted from t = 0, so a resumed run
    # does not overwrite the checkpoint it started from
    first_step = round(state.t / cfg.stepper.dt)

    def checkpoint(snap_state, step_index):
        write_snapshot(snap_state,
                       out / f"checkpoint_{first_step + step_index:08d}.snap",
                       digest)

    try:
        traj = run(state, params, cfg.stepper, schedule,
                   on_checkpoint=checkpoint)
    except DtUnderflowError as exc:
        crash = out / "failed.snap"
        write_snapshot(exc.state, crash, digest)
        print(f"solver failure at t={exc.t:g} (step {exc.step_index}): {exc}\n"
              f"state written to {crash}", file=sys.stderr)
        return EXIT_SOLVER

    write_series(traj.records, out / "series.csv")
    write_snapshot(traj.final_state, out / "final.snap", digest)
    (out / "resolved_config.ini").write_text(serialize_config(cfg),
                                             encoding="utf-8")
    print(f"wrote {out / 'series.csv'} ({len(traj.records)} samples) "
          f"and {out / 'final.snap'}")
    return EXIT_OK


def _cmd_steady(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    grid = cfg.build_surface_grid()
    state = cfg.build_initial_state()
    m = grid.mean(state.phi.values)
    try:
        phi = solve_stationary_phi(grid, cfg.potential, m, state.phi,
                                   tol=cfg.stepper.newton_tol)
    except NonConvergenceError as exc:
        print(f"stationary solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    report = {
        "residual": steady_residual(phi, cfg.potential),
        "mean": grid.mean(phi.values),
        "max_abs": float(np.max(np.abs(phi.values))),
        "config": serialize_config(cfg),
    }
    np.savetxt(out / "stationary_phi.csv", phi.values.reshape(-1, 1),
               fmt="%.17g", header="phi", comments="")
    (out / "stationary.json").write_text(json.dumps(report, indent=2),
                                         encoding="utf-8")
    print(f"wrote {out / 'stationary.json'} (residual {report['residual']:.3e})")
    return EXIT_OK


def _cmd_experiment(args, kind):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    if cfg.experiment.kind == "absorbing":
        # the absorbing-set sweep is selected by the config, not a subcommand
        kind = "absorbing"
    if kind == "large_d":
        d_list = cfg.experiment.d_list or (10.0, 100.0, 1000.0, 10000.0)
        report = experiment_large_d(cfg, d_list)
        name = "large_d.json"
    elif kind == "kappa":
        kappa_list = cfg.experiment.kappa_list or (1e-2, 1e-3, 1e-4)
        report = experiment_kappa_refinement(cfg, kappa_list)
        name = "kappa.json"
    elif kind == "equilibrium_convergence":
        report = experiment_equilibrium_convergence(cfg)
        name = "equilibrium.json"
    elif kind == "absorbing":
        scales = cfg.experiment.scales or (1.0, 3.0)
        t_star = cfg.experiment.t_star
        if t_star is None:
            t_star = 0.5 * cfg.schedule.t_final
        report = experiment_absorbing(cfg, scales, t_star)
        name = "absorbing.json"
    else:
        raise AssertionError(kind)
    (out / name).write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(f"wrote {out / name}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run-full":
            return _cmd_run(args, "full")
        if args.command == "run-reduced":
            return _cmd_run(args, "reduced")
        if args.command == "steady":
            return _cmd_steady(args)
        if args.command == "sweep-d":
            return _cmd_experiment(args, "large_d")
        if args.command == "sweep-kappa":
            return _cmd_experiment(args, "kappa")
        if args.command == "converge-eq":
            return _cmd_experiment(args, "equilibrium_convergence")
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SnapshotMismatchError, CorruptSnapshotError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (DtUnderflowError, NewtonDivergenceError, NonConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
