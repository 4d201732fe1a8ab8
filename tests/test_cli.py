import json

import numpy as np
import pytest

import raftsim.harness as h
import test_experiments
import test_stepper
from raftsim.harness.cli import main

REDUCED = """
[run]
system = reduced

[geometry]
kind = circle
n = 32

[potential]
kind = logarithmic
theta = 1.0
theta0 = 2.5

[exchange]
kind = reaction

[stepper]
dt = 1e-3

[initial]
kind = random
seed = 7
amplitude = 0.1

[schedule]
t_final = 0.02
sample_stride = 5
checkpoint_stride = 10
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(REDUCED)
    return path


def test_run_reduced(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run-reduced", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    assert (out / "series.csv").exists()
    assert (out / "final.snap").exists()
    assert (out / "checkpoint_00000010.snap").exists()
    assert (out / "resolved_config.ini").exists()


def test_config_error_exit_code(config_file, tmp_path, capsys):
    code = main(["run-reduced", "--config", str(config_file),
                 "--out", str(tmp_path / "o"), "--override", "params.delta=-1"])
    assert code == 2
    assert "delta" in capsys.readouterr().err


TORUS = "[geometry]\nkind = torus\nnx = 16\nny = 16\n"


@pytest.mark.parametrize("extra, message", [
    # non-finite numbers
    ("[schedule]\nt_final = nan", "bad value for schedule.t_final: 'nan'"),
    ("[schedule]\nt_final = inf", "bad value for schedule.t_final: 'inf'"),
    ("[stepper]\ndt = inf", "bad value for stepper.dt: 'inf'"),
    ("[stepper]\nkappa_fallback = nan",
     "bad value for stepper.kappa_fallback: 'nan'"),
    ("[params]\ndelta = nan", "bad value for params.delta: 'nan'"),
    ("[params]\ndiffusion = nan", "bad value for params.diffusion: 'nan'"),
    ("[params]\nomega_measure = inf",
     "bad value for params.omega_measure: 'inf'"),
    ("[initial]\nphi_mean = nan", "bad value for initial.phi_mean: 'nan'"),
    ("[initial]\namplitude = nan", "bad value for initial.amplitude: 'nan'"),
    ("[initial]\nu0 = inf", "bad value for initial.u0: 'inf'"),
    ("[initial]\nv0 = nan", "bad value for initial.v0: 'nan'"),
    ("[exchange]\nb1 = nan", "bad value for exchange.b1: 'nan'"),
    ("[experiment]\nd_list = 10, nan",
     "bad value for experiment.d_list: '10, nan'"),
    ("[stepper]\nnewton_max_iters = -1",
     "stepper.newton_max_iters must be >= 0"),
    # a key retired from [stepper]: documents that still set it are refused
    ("[stepper]\ndealias = false", "unknown key 'dealias' in [stepper]"),
    # dt halving never reaches a floor of 0 or below
    ("[stepper]\ndt_min = 0", "invalid stepper config: dt_min must be positive"),
    ("[stepper]\ndt_min = -1",
     "invalid stepper config: dt_min must be positive"),
    # the regularized fallback well needs 0 < kappa < r0
    ("[stepper]\nkappa_fallback = 0.9",
     "stepper.kappa_fallback must lie in (0, potential.r0 = 0.5), got 0.9"),
    ("[stepper]\nkappa_fallback = -1",
     "stepper.kappa_fallback must lie in (0, potential.r0 = 0.5), got -1.0"),
    # geometry sizes
    ("[geometry]\nnr = 2", "geometry.nr must be >= 4"),
    (TORUS + "lx = 0", "geometry.lx must be positive"),
    (TORUS + "ly = -2", "geometry.ly must be positive"),
    (TORUS + "ly = nan", "bad value for geometry.ly: 'nan'"),
    # random initial data
    ("[initial]\nseed = -1", "initial.seed must be >= 0"),
    ("[initial]\ncutoff = 0", "initial.cutoff must be >= 1"),
])
def test_rejects_values_that_cannot_run(tmp_path, capsys, extra, message):
    # each value once ended in a traceback or ran a meaningless simulation
    text = REDUCED + extra + "\n"
    path = tmp_path / "run.ini"
    path.write_text(text)
    code = main(["run-reduced", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    line = len(text.splitlines())  # the offending key is the last line
    # a section constructor's errors carry no line
    where = "" if message.startswith("invalid ") else f"line {line}: "
    assert where + message in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    code = main(["run-reduced", "--config", str(tmp_path / "nope.ini")])
    assert code == 2


def test_resume_matches_straight_run(config_file, tmp_path):
    full_out = tmp_path / "full"
    assert main(["run-reduced", "--config", str(config_file),
                 "--out", str(full_out),
                 "--override", "schedule.t_final=0.04"]) == 0
    half_out = tmp_path / "half"
    assert main(["run-reduced", "--config", str(config_file),
                 "--out", str(half_out)]) == 0
    resumed_out = tmp_path / "resumed"
    assert main(["run-reduced", "--config", str(config_file),
                 "--out", str(resumed_out),
                 "--override", "schedule.t_final=0.04",
                 "--resume", str(half_out / "final.snap")]) == 0
    a, _ = h.read_snapshot(full_out / "final.snap")
    b, _ = h.read_snapshot(resumed_out / "final.snap")
    assert a.t == b.t
    assert np.array_equal(a.phi.values, b.phi.values)
    assert np.array_equal(a.v.values, b.v.values)
    assert a.u == b.u


def test_resume_keeps_its_own_checkpoint(config_file, tmp_path):
    # resuming into the run's own directory names checkpoints by the global
    # step: the t = 0.01 checkpoint it starts from stays as it was
    out = tmp_path / "out"
    assert main(["run-reduced", "--config", str(config_file),
                 "--out", str(out)]) == 0
    start = out / "checkpoint_00000010.snap"
    before = start.read_bytes()
    longer = ["--override", "schedule.t_final=0.04"]
    assert main(["run-reduced", "--config", str(config_file),
                 "--out", str(out), "--resume", str(start)] + longer) == 0
    assert start.read_bytes() == before
    straight = tmp_path / "straight"
    assert main(["run-reduced", "--config", str(config_file),
                 "--out", str(straight)] + longer) == 0
    names = sorted(p.name for p in straight.glob("checkpoint_*"))
    assert names == [f"checkpoint_000000{i}0.snap" for i in (1, 2, 3, 4)]
    assert sorted(p.name for p in out.glob("checkpoint_*")) == names
    for name in names:
        a, _ = h.read_snapshot(straight / name)
        b, _ = h.read_snapshot(out / name)
        assert a.t == b.t
        assert np.array_equal(a.phi.values, b.phi.values)


def test_resume_refuses_other_physics(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run-reduced", "--config", str(config_file),
                 "--out", str(out)]) == 0
    code = main(["run-reduced", "--config", str(config_file),
                 "--out", str(tmp_path / "o2"),
                 "--override", "params.delta=2.0",
                 "--resume", str(out / "final.snap")])
    assert code == 2
    assert "different configuration" in capsys.readouterr().err


def _truncate(header, values):
    return header, values[:-1]


def _set_phi_node(value):
    def edit(header, values):
        values[3] = value    # phi is the first field of a reduced snapshot
        return header, values
    return edit


def _break_mass_relation(header, values):
    values[-1] += 1.0        # v no longer matches u and the total mass
    return header, values


def _resize_grid(header, values):
    header["grid"]["n"] = 31
    return header, values


@pytest.mark.parametrize("edit, message", [
    pytest.param(_truncate, "payload", id="truncated"),
    pytest.param(_set_phi_node(np.nan), "non-finite", id="nan"),
    pytest.param(_break_mass_relation, "mass relation", id="mass"),
    pytest.param(_resize_grid, "node counts", id="grid"),
    pytest.param(_set_phi_node(1.0), "|phi| < 1", id="phi_at_pure_state"),
])
def test_resume_rejects_truncated_snapshot(config_file, tmp_path, capsys, edit,
                                           message):
    # a snapshot that cannot be resumed exits 2 with the reason, never with
    # a traceback
    out = tmp_path / "out"
    assert main(["run-reduced", "--config", str(config_file),
                 "--out", str(out)]) == 0
    snap = out / "final.snap"
    line, _, blob = snap.read_bytes().partition(b"\n")
    header, values = edit(json.loads(line), np.frombuffer(blob, "<f8").copy())
    snap.write_bytes(json.dumps(header).encode() + b"\n" + values.tobytes())
    code = main(["run-reduced", "--config", str(config_file),
                 "--out", str(tmp_path / "o2"), "--resume", str(snap)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_resume_rejects_garbage_header(config_file, tmp_path, capsys):
    snap = tmp_path / "bad.snap"
    snap.write_bytes(b"{not json\n" + bytes(512))
    code = main(["run-reduced", "--config", str(config_file),
                 "--out", str(tmp_path / "o"), "--resume", str(snap)])
    assert code == 2
    assert "snapshot header" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solver_failure_exit_code(config_file, tmp_path, capsys):
    # an impossible iteration budget forces the fallback chain to bottom out
    out = tmp_path / "out"
    code = main(["run-reduced", "--config", str(config_file),
                 "--out", str(out),
                 "--override", "stepper.newton_max_iters=0",
                 "--override", "stepper.dt_min=1e-3"])
    assert code == 3
    assert (out / "failed.snap").exists()
    assert "solver failure" in capsys.readouterr().err



@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fallback_step_leaving_interval_exit_code(tmp_path, capsys):
    # once ended in a PotentialSingularityError traceback with no failed.snap
    path = tmp_path / "run.ini"
    path.write_text(test_stepper.FALLBACK_ESCAPE_CFG)
    out = tmp_path / "out"
    code = main(["run-reduced", "--config", str(path), "--out", str(out)])
    assert code == 3
    assert "left (-1, 1)" in capsys.readouterr().err
    state, _ = h.read_snapshot(out / "failed.snap")
    assert state.t == pytest.approx(1.47)
    assert np.abs(state.phi.values).max() < 1.0
    # it stopped between two steps of dt: a resume under the same config is
    # refused as a configuration error, not a traceback
    code = main(["run-reduced", "--config", str(path), "--out", str(out),
                 "--resume", str(out / "failed.snap")])
    assert code == 2
    assert "not a whole number of steps" in capsys.readouterr().err

def test_steady_command(tmp_path):
    cfg = tmp_path / "steady.ini"
    cfg.write_text(REDUCED.replace("amplitude = 0.1", "amplitude = 0.3"))
    out = tmp_path / "out"
    assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "stationary.json").read_text())
    assert report["residual"] <= 1e-9
    assert (out / "stationary_phi.csv").exists()


@pytest.mark.parametrize("amplitude, seed", [(0.1, 1), (0.1, 2), (0.3, 3)])
def test_steady_command_finds_pattern(tmp_path, amplitude, seed):
    # the guesses have mean 0 and W''(0) + 1 < 0: the flat state is a saddle,
    # and the solve must follow the k = 1 mode of the guess to a pattern
    cfg = tmp_path / "steady.ini"
    cfg.write_text(REDUCED.replace("amplitude = 0.1", f"amplitude = {amplitude}")
                   .replace("seed = 7", f"seed = {seed}"))
    out = tmp_path / "out"
    assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "stationary.json").read_text())
    assert report["residual"] <= 1e-9
    phi = np.loadtxt(out / "stationary_phi.csv", skiprows=1)
    assert np.ptp(phi) > 1.0


def test_sweep_kappa_command(tmp_path):
    cfg = tmp_path / "kappa.ini"
    cfg.write_text(REDUCED + "\n[experiment]\nkappa_list = 1e-2, 1e-3\n")
    out = tmp_path / "out"
    assert main(["sweep-kappa", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "kappa.json").read_text())
    assert [row["kappa"] for row in report["rows"]] == [1e-2, 1e-3]


def test_absorbing_selected_by_config(tmp_path):
    cfg = tmp_path / "abs.ini"
    cfg.write_text(REDUCED
                   + "\n[experiment]\nkind = absorbing\nscales = 1, 3\n"
                   + "t_star = 0.01\n")
    out = tmp_path / "out"
    assert main(["sweep-d", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "absorbing.json").read_text())
    assert report["experiment"] == "absorbing"
    assert len(report["rows"]) == 2


@pytest.mark.parametrize("command, text, message", [
    ("sweep-d", test_experiments.TINY_FULL + "[experiment]\nd_list = 0, 10\n",
     "diffusivity D must be positive"),
    ("sweep-d", REDUCED, "the large-D experiment needs the full system"),
    ("sweep-kappa", REDUCED + "\n[experiment]\nkappa_list = 0.9\n",
     "regularized well needs 0 < kappa < r0"),
    ("sweep-d", REDUCED + "\n[experiment]\nkind = absorbing\nt_star = -1\n",
     "experiment.t_star must lie in [0, t_final]"),
], ids=["d_list_zero", "reduced_config", "kappa_above_r0", "negative_t_star"])
def test_experiment_rejects_unsuitable_config(tmp_path, capsys, command, text,
                                              message):
    # each once ended in a traceback (exit 1) or, for t_star, exit 0
    path = tmp_path / "exp.ini"
    path.write_text(text)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
