"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL verdict line (run with `pytest -s tests/test_acceptance.py` to see
them).  Tolerances are fixed here, not tuned at runtime."""

import math

import numpy as np
import pytest

import raftsim as rs
import raftsim.harness as h
from raftsim.harness.experiments import (
    experiment_absorbing,
    experiment_equilibrium_convergence,
    experiment_kappa_refinement,
    experiment_large_d,
)
from raftsim.model import energy_identity_residual
from conftest import lowpass_field
from test_bulk import mms_space_error, mms_time_error


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# -- criterion 1: operator oracles ---------------------------------------------

def test_criterion_1_operator_oracles():
    circle = rs.SurfaceGrid.circle(64)
    th = circle.nodes()
    err_circle = float(np.max(np.abs(circle.laplacian(np.cos(th)) + np.cos(th))))
    torus = rs.SurfaceGrid.torus(64, 64)
    x, _ = torus.nodes()
    f = np.sin(2.0 * x)
    err_torus = float(np.max(np.abs(torus.laplacian(f) + 4.0 * f)))

    e_t1 = mms_time_error(32, 64, 2e-2, 0.4)
    e_t2 = mms_time_error(32, 64, 1e-2, 0.4)
    ratio_dt = e_t1 / e_t2
    e_s1 = mms_space_error(16)
    e_s2 = mms_space_error(32)
    ratio_dr = e_s1 / e_s2

    ok = (err_circle <= 1e-12 and err_torus <= 1e-12
          and 1.6 <= ratio_dt <= 2.4 and 3.2 <= ratio_dr <= 4.8)
    report("1 (operator oracles)", ok,
           f"eig errors {err_circle:.2e}/{err_torus:.2e}, "
           f"MMS ratios dt {ratio_dt:.3f} (target 2±20%), "
           f"dr {ratio_dr:.3f} (target 4±20%)")
    assert err_circle <= 1e-12 and err_torus <= 1e-12
    assert ratio_dt == pytest.approx(2.0, rel=0.2)
    assert ratio_dr == pytest.approx(4.0, rel=0.2)


# -- criterion 2: mass conservation over a long spinodal run --------------------

def test_criterion_2_mass_conservation():
    grid = rs.SurfaceGrid.torus(128, 128)
    phi0 = lowpass_field(grid, 11, 1e-2, cutoff=32)
    v0 = rs.SurfaceField.constant(grid, 0.5)
    total = math.pi * 1.0 + rs.surface_integral(v0)
    state = rs.ReducedState.from_mass(0.0, phi0, v0, total)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=3.0),
                       exchange=rs.ReactionExchange(1.0, 1.0))
    traj = rs.run(state, params, rs.StepperConfig(dt=1e-3),
                  rs.Schedule(t_final=10.0, sample_stride=500))
    first, last = traj.records[0], traj.records[-1]
    phi_drift = abs(last.phi_mass - first.phi_mass) / grid.total_measure
    mass_drift = abs(last.combined_mass - first.combined_mass) / total
    ok = phi_drift <= 1e-10 and mass_drift <= 1e-10
    report("2 (mass conservation, 1e4 steps)", ok,
           f"|d int(phi)|/|Gamma| = {phi_drift:.2e}, "
           f"|d(|Omega|u + int v)|/M = {mass_drift:.2e} (tol 1e-10)")
    assert phi_drift <= 1e-10
    assert mass_drift <= 1e-10


# -- criteria 3 and 4: energy law and separation --------------------------------

ENERGY_CFG = """
[run]
system = full
[geometry]
kind = disk
nr = 32
ntheta = 64
[potential]
kind = logarithmic
theta = 1.0
theta0 = 2.5
[exchange]
kind = equilibrium
a0 = 1.0
[params]
diffusion = 1.0
delta = 1.0
[stepper]
dt = 2e-3
[initial]
kind = random
seed = 3
amplitude = 0.3
cutoff = 6
v0 = 0.5
u0 = 1.0
[schedule]
t_final = 2.0
sample_stride = 1
"""


@pytest.fixture(scope="module")
def energy_run():
    cfg = h.parse_config(ENERGY_CFG)
    traj = rs.run(cfg.build_initial_state(), cfg.build_params(), cfg.stepper,
                  cfg.schedule)
    return cfg, traj


def test_criterion_3_energy_law(energy_run):
    cfg, traj = energy_run
    energies = np.array([r.total_energy for r in traj.records])
    increases = np.diff(energies)
    worst = float(increases.max())
    bound = 1e-10 * float(np.max(np.abs(energies)))
    monotone = worst <= bound

    residuals = {}
    for dt in (2e-3, 1e-3):
        c = h.parse_config(ENERGY_CFG, overrides=[("stepper.dt", str(dt)),
                                                  ("schedule.t_final", "0.5")])
        tr = rs.run(c.build_initial_state(), c.build_params(), c.stepper,
                    c.schedule)
        residuals[dt] = energy_identity_residual(tr.records)
    ratio = residuals[2e-3] / residuals[1e-3]
    ratio_ok = 1.7 <= ratio <= 2.3
    ok = monotone and ratio_ok
    report("3 (energy law, equilibrium case)", ok,
           f"max per-step energy increase {worst:.2e} (tol {bound:.2e}), "
           f"residual ratio {ratio:.3f} (target 2±0.3)")
    assert monotone
    assert ratio_ok


def test_criterion_4_separation(energy_run):
    cfg, traj = energy_run
    g = cfg.build_surface_grid()
    mean_phi0 = g.mean(cfg.build_initial_state().phi.values)
    margins = np.array([r.separation_margin for r in traj.records])
    ok = abs(mean_phi0) <= 1e-13 and margins.min() >= 1e-3 and np.all(margins > 0)
    report("4 (separation from pure states)", ok,
           f"min margin {margins.min():.3e} (tol 1e-3), all positive: "
           f"{bool(np.all(margins > 0))}")
    assert margins.min() >= 1e-3
    assert np.all(margins > 0)


# -- criterion 5: large cytosolic diffusion limit --------------------------------

LARGE_D_CFG = """
[run]
system = full
[geometry]
kind = disk
nr = 32
ntheta = 64
[potential]
kind = logarithmic
theta = 1.0
theta0 = 2.0
[exchange]
kind = cutoff_reaction
b1 = 1.0
b2 = 1.0
h0 = 4.0
[params]
diffusion = 1.0
delta = 1.0
[stepper]
dt = 2e-3
[initial]
kind = random
seed = 5
amplitude = 0.2
cutoff = 6
v0 = 0.5
u0 = 1.0
[schedule]
t_final = 0.5
sample_stride = 1
"""


@pytest.fixture(scope="module")
def large_d_report():
    cfg = h.parse_config(LARGE_D_CFG)
    return experiment_large_d(cfg, [10.0, 100.0, 1000.0, 10000.0])


def test_criterion_5_mean_error_decay(large_d_report):
    errors = [row["mean_error"] for row in large_d_report["rows"]]
    decreasing = all(a > b for a, b in zip(errors[:-1], errors[1:]))
    end_ratio = errors[-1] / errors[0]
    ok = decreasing and end_ratio <= 0.1
    report("5a (large-D limit: mean error)", ok,
           f"e(D) = {['%.3e' % e for e in errors]}, strictly decreasing: "
           f"{decreasing}, e(1e4)/e(10) = {end_ratio:.2e} (tol 0.1)")
    assert decreasing
    assert end_ratio <= 0.1


def test_criterion_5_heterogeneity_window(large_d_report):
    # The integral of ||grad u_D||^2 must fall like 1/D^2, by a factor in
    # [50, 200] per decade of D.  With the constant bulk initial data that
    # experiment_large_d requires, the flux condition D du/dn = -q pins
    # grad(u) = O(1/D) pointwise (test_bulk's flux oracle checks the
    # discretization against pi T q^2/(2 D^2)).  The band has the same
    # factor-4 width as the 1/D window [5, 20]: a factor 2 either side of
    # the rate's 100 per decade.  The energy bound
    # D*integral(||grad u||^2) <= C (a 1/D rate, reached only by rough bulk
    # data) is implied: the D-weighted factors then lie in [5, 20].
    het = [row["heterogeneity"] for row in large_d_report["rows"]]
    ratios = [a / b for a, b in zip(het[:-1], het[1:])]
    in_window = all(50.0 <= r <= 200.0 for r in ratios)
    weighted = [hh * row["d"] for hh, row in zip(het, large_d_report["rows"])]
    weighted_ratios = [a / b for a, b in zip(weighted[:-1], weighted[1:])]
    report("5b (large-D limit: heterogeneity window)", in_window,
           f"per-decade factors {['%.1f' % r for r in ratios]} "
           f"(1/D^2 rate for constant bulk data, window [50, 200]); "
           f"D-weighted factors {['%.1f' % r for r in weighted_ratios]} "
           f"(1/D bound implied, [5, 20])")
    assert in_window, (
        f"heterogeneity per-decade factors {ratios} leave the [50, 200] "
        "window of the 1/D^2 rate that constant bulk data gives")


# -- criterion 6: reduced-system bounds and the absorbing set --------------------

def test_criterion_6_reduced_u_bounds():
    grid = rs.SurfaceGrid.circle(64)
    phi0 = lowpass_field(grid, 4, 0.3)
    v0 = rs.SurfaceField.constant(grid, 0.4)
    u0 = 0.8
    total = math.pi * u0 + rs.surface_integral(v0)
    state = rs.ReducedState.from_mass(0.0, phi0, v0, total)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange(1.0, 1.0))
    traj = rs.run(state, params, rs.StepperConfig(dt=1e-3),
                  rs.Schedule(t_final=10.0, sample_stride=10))
    us = np.array([r.u_scalar for r in traj.records])
    cap = total / math.pi
    ok = us.min() >= -1e-10 and us.max() <= cap + 1e-10
    report("6a (reduced bounds, 1e4 steps)", ok,
           f"u range [{us.min():.6f}, {us.max():.6f}] inside "
           f"[-1e-10, {cap:.6f}+1e-10]")
    assert us.min() >= -1e-10
    assert us.max() <= cap + 1e-10


ABSORBING_CFG = """
[run]
system = reduced
[geometry]
kind = circle
n = 64
[potential]
kind = logarithmic
theta = 1.0
theta0 = 2.5
[exchange]
kind = reaction
b1 = 1.0
b2 = 1.0
[params]
delta = 1.0
[stepper]
dt = 2e-3
[initial]
kind = random
seed = 9
amplitude = 0.25
v_amplitude = 0.1
cutoff = 6
v0 = 0.5
u0 = 1.0
[schedule]
t_final = 40.0
sample_stride = 20
"""


def test_criterion_6_absorbing_set():
    cfg = h.parse_config(ABSORBING_CFG)
    rep = experiment_absorbing(cfg, scales=[1.0, 3.0], t_star=25.0)
    sups = [row["sup_tail_norm_sq"] for row in rep["rows"]]
    inits = [row["initial_norm_sq"] for row in rep["rows"]]
    gap = abs(sups[0] - sups[1]) / max(sups)
    ok = gap <= 0.10 and inits[1] > 2.0 * inits[0]
    report("6b (absorbing set)", ok,
           f"initial norms^2 {inits[0]:.2f} vs {inits[1]:.2f}, "
           f"tail sup norms^2 {sups[0]:.4f} vs {sups[1]:.4f}, "
           f"relative gap {gap:.2e} (tol 0.10)")
    assert gap <= 0.10


# -- criterion 7: convergence to equilibrium --------------------------------------

CONVERGE_CFG = """
[run]
system = full
[geometry]
kind = disk
nr = 32
ntheta = 64
[potential]
kind = logarithmic
theta = 1.0
theta0 = 1.6
[exchange]
kind = equilibrium
a0 = 1.0
alpha = 2.0
[params]
diffusion = 1.0
delta = 1.0
[stepper]
dt = 5e-3
[initial]
kind = random
seed = 12
amplitude = 0.2
cutoff = 6
v0 = 0.5
u0 = 0.0
[schedule]
t_final = 60.0
sample_stride = 60
"""


def test_criterion_7_equilibrium_convergence():
    cfg = h.parse_config(CONVERGE_CFG)
    rep = experiment_equilibrium_convergence(cfg)
    res = rep["steady_residual"]
    match = rep["match"]
    remark = rep["constants_remark_branch"]
    dyn = rep["dynamic"]

    # relations among the post-processed constants (postprocess_constants
    # computes each from its defining relation; re-derive the identities)
    cdyn = rep["constants_from_dynamic_v"]
    sta2 = abs(math.pi * cdyn["u_inf"] + cdyn["v_total"] - math.pi)
    matches = (match["u_vs_constant"], match["eta_l2_vs_constant"],
               match["mu_l2_vs_constant"], match["v_l2_vs_constant"],
               abs(dyn["u"] - remark["u_inf"]))
    reference_ok = (abs(remark["v_total"] - math.pi) <= 1e-10
                    and abs(remark["u_inf"]) <= 1e-10
                    and abs(remark["eta_inf"]) <= 1e-10)
    ok = (res <= 1e-6 and sta2 <= 1e-8 and max(matches) <= 1e-6
          and reference_ok)
    report("7 (convergence to equilibrium)", ok,
           f"steady residual {res:.2e} (tol 1e-6), constants defect "
           f"{sta2:.2e} (tol 1e-8), dynamic match {max(matches):.2e} "
           f"(tol 1e-6), reference instance V={remark['v_total']:.12f} "
           f"(pi), u_inf={remark['u_inf']:.2e}, eta_inf={remark['eta_inf']:.2e}")
    assert res <= 1e-6
    assert sta2 <= 1e-8
    assert max(matches) <= 1e-6
    assert reference_ok


# -- criterion 8: regularization refinement ----------------------------------------

KAPPA_CFG = """
[run]
system = reduced
[geometry]
kind = circle
n = 128
[potential]
kind = logarithmic
theta = 1.0
theta0 = 4.5
[exchange]
kind = reaction
b1 = 0.2
b2 = 0.2
[params]
delta = 1.0
[stepper]
dt = 1e-3
[initial]
kind = random
seed = 21
amplitude = 0.5
cutoff = 4
v0 = 0.5
u0 = 1.0
[schedule]
t_final = 4.0
sample_stride = 400
"""


def test_criterion_8_kappa_refinement():
    cfg = h.parse_config(KAPPA_CFG)
    rep = experiment_kappa_refinement(cfg, [1e-2, 1e-3, 1e-4])
    diffs = [row["l2_diff_singular"] for row in rep["rows"]]  # kappa descending
    monotone = all(a > b for a, b in zip(diffs[:-1], diffs[1:]))
    ok = monotone
    report("8 (kappa refinement)", ok,
           f"||phi_k - phi_sing|| over kappa {{1e-2, 1e-3, 1e-4}}: "
           f"{['%.3e' % d for d in diffs]}, strictly decreasing: {monotone} "
           f"(max|phi|_singular = {rep['max_abs_phi_singular']:.6f})")
    assert monotone


# -- criterion 9: variational derivatives ------------------------------------------

def test_criterion_9_variational_derivative():
    grid = rs.SurfaceGrid.circle(64)
    pot = rs.DoubleWell(theta=1.0, theta0=2.0)
    params = rs.Params(delta=0.8, potential=pot,
                       exchange=rs.ReactionExchange())
    eps = 1e-5
    worst = 0.0
    for seed in range(10):
        phi = lowpass_field(grid, 100 + seed, 0.5)
        v = lowpass_field(grid, 200 + seed, 0.3, mean=0.5)
        direction = lowpass_field(grid, 300 + seed, 1.0)
        eta = rs.chem_eta(phi, v, params.delta)
        mu = rs.chem_mu(phi, eta, pot)
        plus = rs.SurfaceField(grid, phi.values + eps * direction.values)
        minus = rs.SurfaceField(grid, phi.values - eps * direction.values)
        fd = (rs.surface_energy(plus, v, params)
              - rs.surface_energy(minus, v, params)) / (2 * eps)
        inner = grid.integral(mu.values * direction.values)
        worst = max(worst, abs(fd - inner) / max(1.0, abs(inner)))
        vp = rs.SurfaceField(grid, v.values + eps * direction.values)
        vm = rs.SurfaceField(grid, v.values - eps * direction.values)
        fd_v = (rs.surface_energy(phi, vp, params)
                - rs.surface_energy(phi, vm, params)) / (2 * eps)
        inner_v = grid.integral(eta.values * direction.values)
        worst = max(worst, abs(fd_v - inner_v) / max(1.0, abs(inner_v)))
    ok = worst <= 1e-6
    report("9 (variational derivatives)", ok,
           f"worst relative defect over 10 random states: {worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6


# -- criterion 10: continuous dependence --------------------------------------------

def test_criterion_10_continuous_dependence():
    grid = rs.SurfaceGrid.circle(64)
    disk = rs.DiskGrid(24, 64)
    th = grid.nodes()
    params = rs.Params(D=1.0, delta=1.0,
                       potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.EquilibriumExchange(a0=1.0))
    cfg = rs.StepperConfig(dt=2e-3)
    sched = rs.Schedule(t_final=1.0, sample_stride=500)

    def make_base():
        phi = lowpass_field(grid, 3, 0.3)
        v = rs.SurfaceField.constant(grid, 0.5)
        u = rs.BulkField.constant(disk, 1.0)
        return rs.FullState(0.0, u, phi, v)

    def distance(a, b):
        du = math.sqrt(rs.bulk_integral(
            rs.BulkField(disk, (a.u.values - b.u.values) ** 2)))
        dphi = a.phi.values - b.phi.values
        dphi = dphi - grid.mean(dphi)
        return (du + grid.hminus1_norm(dphi)
                + grid.l2_norm(a.v.values - b.v.values))

    base_final = rs.run(make_base(), params, cfg, sched).final_state
    ratios = []
    for d0 in (1e-2, 1e-3, 1e-4):
        pert = make_base()
        c = d0 / (3.0 * math.sqrt(math.pi))
        pert.u.values[:] += c
        pert.phi.values[:] += c * np.cos(th)
        pert.v.values[:] += c * np.cos(th)
        d_in = distance(pert, make_base())
        final = rs.run(pert, params, cfg, sched).final_state
        ratios.append(distance(final, base_final) / d_in)
    spread = max(ratios) / min(ratios)
    ok = spread <= 2.0
    report("10 (continuous dependence)", ok,
           f"output/input distance ratios {['%.4f' % r for r in ratios]} "
           f"across d0 in {{1e-2, 1e-3, 1e-4}}, spread {spread:.3f} (tol 2)")
    assert spread <= 2.0
