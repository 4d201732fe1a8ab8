import threading

import pytest

import raftsim as rs
import raftsim.harness as h
from raftsim.harness import experiments
from raftsim.harness.experiments import (
    experiment_absorbing,
    experiment_equilibrium_convergence,
    experiment_kappa_refinement,
    experiment_large_d,
)
TINY_FULL = """
[run]
system = full
[geometry]
kind = disk
nr = 12
ntheta = 32
[exchange]
kind = cutoff_reaction
b1 = 1.0
b2 = 1.0
h0 = 4.0
[stepper]
dt = 5e-3
[initial]
kind = random
seed = 2
amplitude = 0.1
v0 = 0.5
u0 = 1.0
[schedule]
t_final = 0.05
sample_stride = 1
"""

TINY_REDUCED = """
[run]
system = reduced
[geometry]
kind = circle
n = 32
[exchange]
kind = reaction
[stepper]
dt = 5e-3
[initial]
kind = random
seed = 2
amplitude = 0.1
v0 = 0.5
u0 = 1.0
[schedule]
t_final = 0.05
sample_stride = 1
"""


def test_large_d_validations():
    cfg = h.parse_config(TINY_FULL)
    with pytest.raises(ValueError, match="empty"):
        experiment_large_d(cfg, [])
    bad_law = h.parse_config(TINY_FULL.replace("kind = cutoff_reaction",
                                               "kind = reaction")
                             .replace("h0 = 4.0", ""))
    with pytest.raises(ValueError, match="cutoff"):
        experiment_large_d(bad_law, [10.0])
    bad_h0 = h.parse_config(TINY_FULL, overrides=[("exchange.h0", "1.0")])
    with pytest.raises(ValueError, match="2M"):
        experiment_large_d(bad_h0, [10.0])
    reduced = h.parse_config(TINY_REDUCED)
    with pytest.raises(ValueError, match="full system"):
        experiment_large_d(reduced, [10.0])


def test_large_d_single_element():
    cfg = h.parse_config(TINY_FULL)
    rep = experiment_large_d(cfg, [50.0])
    assert len(rep["rows"]) == 1
    assert rep["rows"][0]["d"] == 50.0
    assert rep["rows"][0]["mean_error"] >= 0.0
    assert "config" in rep


def test_kappa_validations():
    cfg = h.parse_config(TINY_REDUCED)
    with pytest.raises(ValueError, match="empty"):
        experiment_kappa_refinement(cfg, [])
    poly = h.parse_config(TINY_REDUCED + "\n[potential]\nkind = polynomial\n")
    with pytest.raises(ValueError, match="logarithmic"):
        experiment_kappa_refinement(poly, [1e-2])


def test_kappa_inactive_regularization_is_exact():
    # a shallow run never leaves |phi| <= 1 - kappa, so the regularized and
    # singular trajectories coincide bitwise
    cfg = h.parse_config(TINY_REDUCED)
    rep = experiment_kappa_refinement(cfg, [0.2])
    assert rep["max_abs_phi_singular"] < 0.8
    assert rep["rows"][0]["l2_diff_singular"] == 0.0


def test_equilibrium_convergence_validation():
    cfg = h.parse_config(TINY_FULL)  # cutoff reaction, not equilibrium
    with pytest.raises(ValueError, match="alpha"):
        experiment_equilibrium_convergence(cfg)
    slow = h.parse_config(
        TINY_FULL.replace("kind = cutoff_reaction", "kind = equilibrium")
        .replace("b1 = 1.0", "a0 = 1.0").replace("b2 = 1.0", "alpha = 0.5")
        .replace("h0 = 4.0", ""))
    with pytest.raises(ValueError, match="alpha"):
        experiment_equilibrium_convergence(slow)


def test_absorbing_validation():
    cfg = h.parse_config(TINY_REDUCED)
    with pytest.raises(ValueError, match="empty"):
        experiment_absorbing(cfg, [], t_star=0.0)
    full = h.parse_config(TINY_FULL)
    with pytest.raises(ValueError, match="reduced"):
        experiment_absorbing(full, [1.0], t_star=0.0)


TINY_EQUILIBRIUM = (TINY_FULL.replace("kind = cutoff_reaction", "kind = equilibrium")
                    .replace("b1 = 1.0", "a0 = 1.0").replace("b2 = 1.0", "alpha = 2.0")
                    .replace("h0 = 4.0", ""))


def _absorbing_members(report):
    rows = report["rows"]
    assert [row["scale"] for row in rows] == [3.0, 1.0, 2.0]
    return [row["initial_norm_sq"] for row in rows]


@pytest.mark.parametrize("experiment, member, expected", [
    pytest.param(
        lambda: experiment_large_d(h.parse_config(TINY_FULL), [50.0, 20.0]),
        lambda state, params, traj: (params.D if isinstance(state, rs.FullState)
                                     else "reduced"),
        lambda report: [20.0, 50.0, "reduced"], id="large_d"),
    pytest.param(
        lambda: experiment_kappa_refinement(h.parse_config(TINY_REDUCED),
                                            [1e-3, 1e-2]),
        lambda state, params, traj: params.potential.kappa,
        lambda report: [0.0, 1e-3, 1e-2], id="kappa"),
    pytest.param(
        lambda: experiment_equilibrium_convergence(h.parse_config(TINY_EQUILIBRIUM)),
        lambda state, params, traj: type(state).__name__,
        lambda report: ["FullState"], id="equilibrium"),
    pytest.param(
        lambda: experiment_absorbing(h.parse_config(TINY_REDUCED), [3.0, 1.0, 2.0],
                                     t_star=0.0),
        lambda state, params, traj: (traj.records[0].phi_h1_sq
                                     + traj.records[0].v_l2_sq),
        _absorbing_members, id="absorbing"),
])
def test_sweep_members_run_in_order_on_calling_thread(monkeypatch, experiment,
                                                      member, expected):
    # every member goes through the module binding experiments.run (which
    # the benchmark replaces to count members), in parameter order, on the
    # caller's thread
    calls = []

    def recorder(state, params, stepper, schedule, **kwargs):
        traj = rs.run(state, params, stepper, schedule, **kwargs)
        calls.append((member(state, params, traj), threading.get_ident()))
        return traj

    monkeypatch.setattr(experiments, "run", recorder)
    report = experiment()
    assert [label for label, _ in calls] == expected(report)
    assert [thread for _, thread in calls] == [threading.get_ident()] * len(calls)


def test_experiments_deterministic():
    cfg = h.parse_config(TINY_REDUCED)
    a = experiment_kappa_refinement(cfg, [1e-2])
    b = experiment_kappa_refinement(cfg, [1e-2])
    assert a["rows"] == b["rows"]


def test_equilibrium_rate_fit():
    # the fit reads phi at t = 0 and at every sample, leaving out the final
    # state; pinned, so a change in how the states are collected shows
    rate = experiment_equilibrium_convergence(
        h.parse_config(TINY_EQUILIBRIUM))["rate"]
    assert rate["points"] == 10
    assert rate["lambda_fit"] == pytest.approx(67.36513027140931, rel=1e-12)
