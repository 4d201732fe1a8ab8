"""Tests for the benchmark's own code: span arithmetic, the percentile rule,
the steady panel's seeding and the correctness gates.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import raftsim as rs  # noqa: E402

import gates  # noqa: E402
import layers  # noqa: E402
from run import highest_percentile, percentile, samples_beyond, unit_of  # noqa: E402
from spans import Span, Tracer, ancestors, self_times  # noqa: E402


# -- spans ----------------------------------------------------------------------

class _Layered:
    def outer(self, pause):
        time.sleep(pause)
        self.inner(pause)
        self.inner(pause)
        return "done"

    def inner(self, pause):
        time.sleep(pause)


def test_self_time_nested_spans_in_two_threads():
    tracer = Tracer([(_Layered, "outer", "outer", None),
                     (_Layered, "inner", "inner", None)])
    obj = _Layered()
    with tracer:
        workers = [threading.Thread(target=obj.outer, args=(0.02,))
                   for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    assert vars(_Layered)["outer"].__name__ == "outer"  # uninstalled

    spans = tracer.spans
    own = self_times(spans)
    anc = ancestors(spans)
    outers = [s for s in spans if s.name == "outer"]
    inners = [s for s in spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 4
    assert len({s.thread for s in outers}) == 2
    for outer in outers:
        kids = [s for s in inners if s.parent == outer.sid]
        assert len(kids) == 2 and all(k.thread == outer.thread for k in kids)
        covered = sum(k.end - k.start for k in kids)
        assert own[outer.sid] == pytest.approx(outer.end - outer.start - covered,
                                               abs=1e-12)
        # the other thread's inner spans overlap in time but are not children
        assert own[outer.sid] == pytest.approx(0.02, abs=0.015)
    for inner in inners:
        assert own[inner.sid] == inner.end - inner.start
        assert anc[inner.sid] == ("outer",)


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "op", 0.0, 10.0, None, 1),
             Span(1, "member", 1.0, 5.0, 0, 2),
             Span(2, "member", 3.0, 7.0, 0, 3),
             Span(3, "fft", 3.5, 4.0, 1, 2)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0)   # union [1, 7]
    assert own[1] == pytest.approx(4.0 - 0.5)
    assert own[2] == pytest.approx(4.0)
    assert ancestors(spans)[3] == ("member", "op")


def test_tracer_records_bytes_and_restores_on_error():
    class Box:
        def work(self, arr):
            if arr is None:
                raise ValueError("no input")
            return arr * 2

    original = vars(Box)["work"]
    tracer = Tracer([(Box, "work", "box.work",
                      lambda a, k, r: a[1].nbytes + r.nbytes)])
    with pytest.raises(ValueError):
        with tracer:
            Box().work(np.zeros(4))
            Box().work(None)
    assert vars(Box)["work"] is original
    assert [(s.name, s.nbytes) for s in tracer.spans] == [("box.work", 64)]


def test_layer_counts_follow_the_calling_layer():
    # step: two Newton iterations (convex_second) and three residuals
    # (convex_deriv); diagnose: one deriv, whose convex_deriv is not a
    # stepper residual; steady: one Newton (second -> convex_second) and
    # one flow iteration (convex_second) with a Krylov call
    spans = [Span(0, "stepper.step_reduced", 0.0, 1.0, None, 1),
             Span(1, "potentials.convex_deriv", 0.1, 0.2, 0, 1),
             Span(2, "potentials.convex_second", 0.2, 0.3, 0, 1),
             Span(3, "potentials.convex_deriv", 0.3, 0.4, 0, 1),
             Span(4, "stepper.gmres", 0.4, 0.6, 0, 1),
             Span(5, "surface.fft", 0.45, 0.5, 4, 1, 1000),
             Span(6, "potentials.convex_second", 0.6, 0.7, 0, 1),
             Span(7, "potentials.convex_deriv", 0.7, 0.8, 0, 1),
             Span(8, "stepper.diagnose", 1.0, 2.0, None, 1),
             Span(9, "potentials.deriv", 1.1, 1.3, 8, 1),
             Span(10, "potentials.convex_deriv", 1.1, 1.2, 9, 1),
             Span(11, "steady.solve", 3.0, 5.0, None, 1),
             Span(12, "potentials.second", 3.1, 3.3, 11, 1),
             Span(13, "potentials.convex_second", 3.1, 3.2, 12, 1),
             Span(14, "potentials.convex_second", 3.4, 3.5, 11, 1),
             Span(15, "steady.gmres", 3.6, 3.8, 11, 1)]
    m, member_s, workers = layers.span_metrics(spans, n_ops=1, accepted_steps=1)
    assert m["stepper.newton_iters"] == 2 and m["stepper.residual_evals"] == 3
    assert m["stepper.krylov_calls"] == 1
    assert m["stepper.krylov_s"] == pytest.approx(0.2 - 0.05)
    assert m["stepper.step_self_s"] == pytest.approx(1.0 - 0.7)
    assert m["surface.fft_calls"] == 1 and m["surface.fft_bytes_computed"] == 1000
    assert m["stepper.diagnose_calls"] == 1
    assert m["steady.newton_iters"] == 1 and m["steady.flow_newton_iters"] == 1
    assert m["steady.krylov_calls"] == 1
    assert m["potentials.eval_calls"] == 8   # nested convex_* not counted
    assert m["stepper.substep_ratio"] == 1.0
    assert (member_s, workers) == (0.0, 0)


def test_sweep_members_in_two_threads():
    spans = [Span(0, "experiments.run", 0.0, 2.0, None, 1),
             Span(1, "experiments.run", 0.0, 3.0, None, 2),
             Span(2, "experiments.run", 2.0, 3.0, None, 1),
             Span(3, "stepper.step_reduced", 2.0, 2.5, 2, 1)]
    m, member_s, workers = layers.span_metrics(spans, n_ops=1, accepted_steps=1)
    assert m["experiments.members"] == 3   # the step span is no member
    assert (member_s, workers) == (6.0, 2)
    assert m["experiments.member_s"] == 6.0


def test_steady_panel_seed_rotates_and_flips_the_guesses():
    import workloads
    base = workloads.SteadyCircle(0, None)
    moved = workloads.SteadyCircle(33, None)   # shift 1, second sign block
    assert len(base.guesses) == len(workloads.SteadyCircle.PANEL)
    for a, b in zip(base.guesses, moved.guesses):
        assert np.array_equal(b.values, -np.roll(a.values, 1))


def test_benchmark_json_units_match_the_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit_of(metric["name"]) == metric["unit"], metric["name"]


# -- percentile rule --------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert samples_beyond(1000, 0.99) == 10
    assert percentile(samples, 0.99) == 990
    assert percentile(samples, 0.5) == 500
    with pytest.raises(ValueError):
        percentile(samples[:999], 0.99)
    with pytest.raises(ValueError):
        percentile(samples, 0.999)
    assert highest_percentile(999) == 0.9
    assert highest_percentile(1000) == 0.99
    assert highest_percentile(10000) == 0.999
    assert highest_percentile(19) is None


# -- gates --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_run():
    grid = rs.SurfaceGrid.circle(32)
    theta = grid.nodes()
    phi = rs.SurfaceField(grid, 0.3 * np.cos(2 * theta))
    v = rs.SurfaceField.constant(grid, 0.5)
    state = rs.ReducedState.from_mass(0.0, phi, v, np.pi + rs.surface_integral(v))
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    traj = rs.run(state, params, rs.StepperConfig(dt=1e-3),
                  rs.Schedule(t_final=0.01, sample_stride=2))
    return grid, params, traj


def _with(records, index, **changes):
    out = list(records)
    out[index] = SimpleNamespace(**{**vars(out[index]), **changes})
    return out


def test_gates_pass_a_real_trajectory(short_run):
    grid, params, traj = short_run
    assert gates.mass_drift(traj.records, grid.total_measure) == []
    assert gates.separation(traj.records) == []


def test_mass_gate_flags_perturbed_state(short_run):
    grid, params, traj = short_run
    last = traj.records[-1]
    bumped = _with(traj.records, -1, phi_mass=last.phi_mass + 1e-8)
    assert "phi_mass" in gates.mass_drift(bumped, grid.total_measure)[0]
    bumped = _with(traj.records, 2,
                   combined_mass=traj.records[2].combined_mass * (1 + 1e-9))
    assert "combined_mass" in gates.mass_drift(bumped, grid.total_measure)[0]


def test_separation_gate_flags_pure_state(short_run):
    grid, params, traj = short_run
    state = traj.final_state
    phi = state.phi.values.copy()
    phi[3] = 1.0  # |phi| = 1 at one node
    pure = rs.SurfaceField(grid, phi)
    bad = _with(traj.records, -1, separation_margin=rs.separation_margin(pure))
    assert gates.separation(bad)


def test_energy_gate_flags_increase(short_run):
    grid, params, traj = short_run
    assert gates.energy_nonincreasing(traj.records) == []
    first = traj.records[0].total_energy
    flat = _with(traj.records, 1, total_energy=first)
    assert gates.energy_nonincreasing(flat) == []
    bad = _with(traj.records, 1, total_energy=first + 1e-9 * abs(first))
    assert "rose" in gates.energy_nonincreasing(bad)[0]


def test_decreasing_gate():
    assert gates.strictly_decreasing([3.0, 2.0, 1.0], "rows") == []
    assert gates.strictly_decreasing([3.0, 2.0, 2.0], "rows")


def test_stationary_gate_flags_unstable_constant():
    grid = rs.SurfaceGrid.circle(32)
    pot = rs.DoubleWell(theta=1.0, theta0=2.5)   # W''(0) = -1.5, k_min^2 = 1
    constant = np.zeros(grid.shape)
    residual = rs.steady_residual(rs.SurfaceField(grid, constant), pot)
    problems = gates.stationary(constant, grid, pot, 0.0, 1e-10, residual)
    assert problems and "unstable constant" in problems[0]
    stable = rs.DoubleWell(theta=1.0, theta0=1.5)  # W''(0) = -0.5
    assert gates.stationary(constant, grid, stable, 0.0, 1e-10, residual) == []


def test_stationary_gate_flags_residual_and_mean():
    grid = rs.SurfaceGrid.circle(32)
    pot = rs.DoubleWell(theta=1.0, theta0=1.5)
    phi = np.full(grid.shape, 0.1)
    problems = gates.stationary(phi, grid, pot, 0.0, 1e-10, 1e-6)
    assert len(problems) == 2
    assert "residual" in problems[0] and "mean" in problems[1]


def test_state_digest_sees_one_ulp(short_run):
    grid, params, traj = short_run
    state = traj.final_state
    phi = state.phi.values.copy()
    phi[0] = np.nextafter(phi[0], 1.0)
    moved = rs.ReducedState(state.t, state.u, rs.SurfaceField(grid, phi),
                            state.v, state.total_mass, state.omega_measure)
    assert gates.state_digest(state) == gates.state_digest(state.copy())
    assert gates.state_digest(moved) != gates.state_digest(state)
