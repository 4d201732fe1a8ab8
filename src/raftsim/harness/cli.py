"""Command-line interface.

`_COMMANDS` names the subcommands, with their help and handlers.  Exit
codes: 0 success, 2 configuration error, 3 solver failure.  Every run
writes a diagnostics series (series.csv), a final snapshot, and optional
periodic checkpoints into the output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from ..potentials import LOGARITHMIC
from ..steady import (NonConvergenceError, StartStateError,
                      solve_stationary_phi, steady_residual)
from ..stepper import DtUnderflowError, NewtonDivergenceError, run, whole_steps
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
        if whole_steps(remaining, cfg.stepper.dt) is None:
            # a failed.snap written after a dt halving lies between steps
            raise ConfigError([(None,
                                f"snapshot time {state.t} leaves {remaining:g} "
                                f"to t_final, not a whole number of steps of "
                                f"dt = {cfg.stepper.dt:g}")])
        schedule = replace(cfg.schedule, t_final=max(remaining, 0.0))
    else:
        state = cfg.build_initial_state()
        schedule = cfg.schedule
    max_abs_phi = float(np.max(np.abs(state.phi.values)))
    if cfg.potential.kind == LOGARITHMIC and max_abs_phi >= 1.0:
        raise ConfigError([(None, f"start state has max|phi| = {max_abs_phi!r}; "
                                  "the logarithmic well needs |phi| < 1")])

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
    except StartStateError as exc:
        raise ConfigError([(None, f"start state refused by the stationary "
                                  f"solve: {exc}")]) from exc
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


def _large_d(cfg):
    return experiment_large_d(
        cfg, cfg.experiment.d_list or (10.0, 100.0, 1000.0, 10000.0))


def _kappa(cfg):
    return experiment_kappa_refinement(
        cfg, cfg.experiment.kappa_list or (1e-2, 1e-3, 1e-4))


def _absorbing(cfg):
    t_star = cfg.experiment.t_star
    if t_star is None:
        t_star = 0.5 * cfg.schedule.t_final
    return experiment_absorbing(cfg, cfg.experiment.scales or (1.0, 3.0),
                                t_star)


# experiment kind: (report file, report of a config)
_EXPERIMENTS = {
    "large_d": ("large_d.json", _large_d),
    "kappa": ("kappa.json", _kappa),
    "equilibrium_convergence": ("equilibrium.json",
                                experiment_equilibrium_convergence),
    "absorbing": ("absorbing.json", _absorbing),
}


def _cmd_experiment(args, kind):
    cfg = _load_config(args)
    chosen = cfg.experiment.kind
    if chosen == "absorbing":
        # the absorbing-set sweep is selected by the config, not a subcommand
        kind = "absorbing"
    elif chosen not in (None, kind):
        raise ConfigError([(None, f"[experiment] kind = {chosen} names another "
                                  f"experiment than {args.command}, which "
                                  f"runs {kind}")])
    out = _out_dir(args, cfg)
    name, experiment = _EXPERIMENTS[kind]
    report = experiment(cfg)
    (out / name).write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(f"wrote {out / name}")
    return EXIT_OK


# subcommand: (help, handler, takes --resume)
_COMMANDS = {
    "run-full": ("advance the bulk-surface coupled system",
                 partial(_cmd_run, system="full"), True),
    "run-reduced": ("advance the reduced nonlocal surface system",
                    partial(_cmd_run, system="reduced"), True),
    "steady": ("solve the constrained stationary problem", _cmd_steady, False),
    "sweep-d": ("large-diffusion ladder vs. the reduced system",
                partial(_cmd_experiment, kind="large_d"), False),
    "sweep-kappa": ("regularization refinement sweep",
                    partial(_cmd_experiment, kind="kappa"), False),
    "converge-eq": ("equilibrium-case convergence experiment",
                    partial(_cmd_experiment, kind="equilibrium_convergence"),
                    False),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="raftsim",
        description="bulk-surface coupled phase-separation simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, resumable) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--config", required=True, help="config file path")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="override a config entry, e.g. stepper.dt=1e-3")
        if resumable:
            cmd.add_argument("--resume", default=None,
                             help="resume from a snapshot file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
