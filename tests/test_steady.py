from functools import partial

import numpy as np
import pytest
from scipy.linalg import null_space

import raftsim as rs
import raftsim.harness as h
import raftsim.steady as steady_mod
from conftest import lowpass_field
from raftsim.steady import _step_solver
from raftsim.surface import gmres

CIRCLE = rs.SurfaceGrid.circle(64)
POT = rs.DoubleWell(theta=1.0, theta0=2.5)

# random guess of the steady benchmark panel: circle 32, theta0 = 4.5
PANEL = """
[run]
system = reduced
[geometry]
kind = circle
n = 32
[potential]
theta = 1.0
theta0 = 4.5
[exchange]
kind = reaction
[stepper]
dt = 1e-3
[initial]
kind = random
seed = 4
amplitude = 0.3
[schedule]
t_final = 0.02
"""


def smallest_hessian_eigenvalue(phi, potential):
    """lambda_min of -lap + W''(phi) on the mean-free slice (circle grids)."""
    grid = phi.grid
    basis = null_space(np.ones((1, grid.node_count)))
    hess = grid.circulant(grid.ksq) + np.diag(potential.second(phi.values))
    return np.linalg.eigvalsh(basis.T @ hess @ basis)[0]


def projected_ptc_matrix(grid, wpp, dt):
    """P (K^-1/dt + K + diag W'') P + 11'/n with K = -lap and P the
    mean-free projector, formed by two dense products."""
    n = grid.node_count
    ksq = grid.ksq
    kinv = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
    avg = np.full((n, n), 1.0 / n)
    proj = np.eye(n) - avg
    jac = grid.circulant(kinv) / dt + grid.circulant(ksq) + np.diag(wpp)
    return proj @ jac @ proj + avg


@pytest.mark.parametrize("n", [32, 128, 512])
@pytest.mark.parametrize("sign", [1.0, -1.0])
# dt = 10 is past the k = 1 stability limit 1/(|W''| - 1) of W'' < -1.25
@pytest.mark.parametrize("dt", [0.1, 10.0])
def test_dense_step_matches_projected_matrix(n, sign, dt):
    grid = rs.SurfaceGrid.circle(n)
    rng = np.random.default_rng(n)
    wpp = sign * rng.uniform(1.25, 1.75, n)
    rhs = rng.standard_normal(n)
    rhs -= np.mean(rhs)
    got = _step_solver(grid, 1.0)(wpp, rhs, dt)
    mat = projected_ptc_matrix(grid, wpp, dt)
    # normwise backward error in the projected matrix; the forward gap to
    # np.linalg.solve(mat, rhs) is round-off times cond(mat), up to 1.6e5
    # at 512 nodes
    backward = (np.linalg.norm(mat @ got - rhs)
                / (np.linalg.norm(mat, 2) * np.linalg.norm(got)))
    assert backward <= 1e-13


def test_constant_guess_returns_constant():
    init = rs.SurfaceField.constant(CIRCLE, 0.2)
    sol = rs.solve_stationary_phi(CIRCLE, POT, 0.2, init, tol=1e-10)
    assert np.max(np.abs(sol.values - 0.2)) == 0.0
    assert rs.steady_residual(sol, POT) <= 1e-12


def test_unstable_constant_yields_pattern():
    # W''(0) = -1.5 < -1: the k = 1 mode destabilizes the flat state, so a
    # varying guess must not collapse onto it
    th = CIRCLE.nodes()
    init = rs.SurfaceField(CIRCLE, 0.3 * np.cos(th))
    sol = rs.solve_stationary_phi(CIRCLE, POT, 0.0, init, tol=1e-10)
    assert rs.steady_residual(sol, POT) <= 1e-10
    assert abs(CIRCLE.mean(sol.values)) <= 1e-12
    assert np.ptp(sol.values) > 0.5
    assert np.max(np.abs(sol.values)) < 1.0


@pytest.mark.parametrize("m", [0.0, 0.2])
def test_small_unstable_mode_grows(m):
    # the flat state m is a saddle (1 + W''(m) < 0); a guess that carries
    # the unstable k = 1 mode at amplitude 0.01 must grow it into a pattern
    grid = rs.SurfaceGrid.circle(32)
    init = rs.SurfaceField(grid, 0.01 * np.cos(grid.nodes()))
    sol = rs.solve_stationary_phi(grid, POT, m, init, tol=1e-10)
    assert rs.steady_residual(sol, POT) <= 1e-10
    assert abs(grid.mean(sol.values) - m) <= 1e-12
    assert np.ptp(sol.values) > 1.0


def test_symmetric_guess_names_the_saddle():
    # cos 2 theta lacks the unstable k = 1 mode, so the flow ends on the flat
    # saddle; the solver must refuse it rather than return it
    init = rs.SurfaceField(CIRCLE, 0.3 * np.cos(2 * CIRCLE.nodes()))
    with pytest.raises(rs.NonConvergenceError, match="saddle"):
        rs.solve_stationary_phi(CIRCLE, POT, 0.0, init, tol=1e-10)


def test_panel_solve_is_linearly_stable():
    # the pattern sits at a lattice minimum, not at the pinned saddle half a
    # cell away whose Hessian has a negative eigenvalue
    cfg = h.parse_config(PANEL)
    grid = cfg.build_surface_grid()
    init = cfg.build_initial_state().phi
    sol = rs.solve_stationary_phi(grid, cfg.potential, 0.2, init, tol=1e-10)
    assert rs.steady_residual(sol, cfg.potential) <= 1e-10
    assert smallest_hessian_eigenvalue(sol, cfg.potential) > 1e-3


def test_stable_constant_attracts():
    pot = rs.DoubleWell(theta=1.0, theta0=1.5)  # W''(0) = -0.5 > -1
    th = CIRCLE.nodes()
    init = rs.SurfaceField(CIRCLE, 0.3 * np.cos(th))
    sol = rs.solve_stationary_phi(CIRCLE, pot, 0.0, init, tol=1e-10)
    assert np.ptp(sol.values) <= 1e-8
    assert rs.steady_residual(sol, pot) <= 1e-10


def test_stable_constant_attracts_on_torus(monkeypatch):
    # tori take the Krylov branch of _step_solver
    calls = []
    original = steady_mod.gmres

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(steady_mod, "gmres", counted)
    torus = rs.SurfaceGrid.torus(8, 8)
    pot = rs.DoubleWell(theta=1.0, theta0=1.5)  # W''(0) = -0.5 > -1
    init = lowpass_field(torus, 1, 0.3)
    sol = rs.solve_stationary_phi(torus, pot, 0.0, init, tol=1e-10)
    assert calls
    assert rs.steady_residual(sol, pot) <= 1e-10
    assert np.ptp(sol.values) <= 1e-8


@pytest.mark.parametrize("m", [0.0, 0.2])
def test_torus_pattern_converges(m, monkeypatch):
    # SciPy's GMRES took 47 s at m = 0 and did not finish at m = 0.2 here
    applications = []

    def counted(*args, **kwargs):
        out = gmres(*args, **kwargs)
        applications.append(out[1])
        return out

    monkeypatch.setattr(steady_mod, "gmres", counted)
    torus = rs.SurfaceGrid.torus(16, 16)
    init = lowpass_field(torus, 3, 0.3)
    sol = rs.solve_stationary_phi(torus, POT, m, init, tol=1e-10)
    assert rs.steady_residual(sol, POT) <= 1e-10
    assert np.ptp(sol.values) > 1.0  # a pattern, not the constant state
    assert len(applications) <= 60 and sum(applications) <= 2000


def test_capped_krylov_solve_cuts_dt(monkeypatch):
    monkeypatch.setattr(steady_mod, "gmres",
                        partial(gmres, restart=2, maxiter=1))
    torus = rs.SurfaceGrid.torus(16, 16)
    phi = lowpass_field(torus, 3, 0.3).values
    rhs = -steady_mod._residual_field(torus, POT, phi)
    # kmin^2 = 1 on 2 pi sides
    assert _step_solver(torus, 1.0)(POT.second(phi), rhs, 0.05) is None


def test_random_field_is_not_a_solution():
    phi = lowpass_field(CIRCLE, 77, 0.5)
    assert rs.steady_residual(phi, POT) > 1e-3


def test_solver_validation():
    init = rs.SurfaceField.constant(CIRCLE, 0.0)
    with pytest.raises(ValueError):
        rs.solve_stationary_phi(CIRCLE, POT, 1.0, init)
    with pytest.raises(ValueError):
        rs.solve_stationary_phi(CIRCLE, POT, 0.0,
                                rs.SurfaceField.constant(rs.SurfaceGrid.circle(32), 0.0))


def test_postprocess_reference_instance():
    # delta=1, |Omega|=pi, |Gamma|=2 pi, M=pi, zero phi mass: the limit with
    # active exchange has V = pi and u = eta = 0
    phi = rs.SurfaceField.constant(CIRCLE, 0.0)
    eq = rs.postprocess_constants(phi, total_mass=np.pi, phi0_mass=0.0,
                                  delta=1.0, omega_measure=np.pi,
                                  potential=POT, a_inf_positive=True)
    assert eq.v_total == pytest.approx(np.pi, rel=1e-14)
    assert eq.u_inf == pytest.approx(0.0, abs=1e-14)
    assert eq.eta_inf == pytest.approx(0.0, abs=1e-14)
    assert eq.u_inf == pytest.approx(eq.eta_inf, abs=1e-14)


def test_postprocess_constant_phi():
    m = 0.25
    phi = rs.SurfaceField.constant(CIRCLE, m)
    m_mass = m * CIRCLE.total_measure
    eq = rs.postprocess_constants(phi, total_mass=2.0, phi0_mass=m_mass,
                                  delta=0.7, omega_measure=np.pi,
                                  potential=POT, a_inf_positive=True)
    # v is constant, 2v - phi constant, and mu follows the W'(m) relation
    assert np.ptp(eq.v_inf.values) <= 1e-14
    assert eq.mu_inf == pytest.approx(POT.deriv(m) - 0.5 * eq.eta_inf, rel=1e-12)
    assert CIRCLE.integral(eq.v_inf.values) == pytest.approx(eq.v_total, rel=1e-13)


def test_postprocess_supplied_v_total():
    phi = rs.SurfaceField.constant(CIRCLE, 0.0)
    eq = rs.postprocess_constants(phi, total_mass=np.pi, phi0_mass=0.0,
                                  delta=1.0, omega_measure=np.pi,
                                  potential=POT, a_inf_positive=False,
                                  v_total=2.0)
    assert eq.v_total == 2.0
    assert eq.u_inf == pytest.approx((np.pi - 2.0) / np.pi, rel=1e-14)
    with pytest.raises(ValueError):
        rs.postprocess_constants(phi, total_mass=np.pi, phi0_mass=0.0,
                                 delta=1.0, omega_measure=np.pi,
                                 potential=POT, a_inf_positive=False)


def test_postprocess_validates_invariants():
    th = CIRCLE.nodes()
    init = rs.SurfaceField(CIRCLE, 0.3 * np.cos(th))
    sol = rs.solve_stationary_phi(CIRCLE, POT, 0.0, init, tol=1e-10)
    eq = rs.postprocess_constants(sol, total_mass=np.pi, phi0_mass=0.0,
                                  delta=1.0, omega_measure=np.pi,
                                  potential=POT, a_inf_positive=True)
    comb = 2.0 * eq.v_inf.values - eq.phi_inf.values
    assert np.ptp(comb) <= 1e-10
    mass = np.pi * eq.u_inf + CIRCLE.integral(eq.v_inf.values)
    assert mass == pytest.approx(np.pi, rel=1e-12)
    wp_mean = CIRCLE.mean(np.asarray(POT.deriv(sol.values)))
    assert 0.5 * eq.eta_inf + eq.mu_inf == pytest.approx(wp_mean, rel=1e-10)
    assert np.max(np.abs(eq.phi_inf.values)) < 1.0


def test_postprocess_small_delta():
    # at delta = 1e-7, eta_inf ~ 1e7 and the relation eta/2 + mu = <W'>
    # holds to round-off of eta_inf, far above 1e-10 * |<W'>|
    grid = rs.SurfaceGrid.circle(32)
    phi = rs.SurfaceField(grid, 0.3 * np.cos(grid.nodes()) + 0.1)
    m_mass = grid.integral(phi.values)
    post = partial(rs.postprocess_constants, total_mass=7.3, delta=1e-7,
                   omega_measure=np.pi, potential=POT, a_inf_positive=False,
                   v_total=5.0)
    eq = post(phi, phi0_mass=m_mass)
    wp_mean = grid.mean(POT.deriv(phi.values))
    defect = 0.5 * eq.eta_inf + eq.mu_inf - wp_mean
    assert abs(defect) <= 4.0 * np.spacing(abs(eq.eta_inf))
    # the one check is on the input: phi's mean against phi0_mass
    with pytest.raises(ValueError, match="phi mass constraint"):
        post(phi, phi0_mass=m_mass + 1e-6)


def test_dynamics_consistency():
    # after a long dissipative run the stationarity defect of phi is
    # controlled by the run's own residual gradients (Poincare with C = 1 on
    # the unit circle), since -lap(phi) + W' - <W'> = (mu - <mu>) + (eta - <eta>)/2
    grid = rs.SurfaceGrid.circle(64)
    phi0 = lowpass_field(grid, 19, 0.2)
    v0 = rs.SurfaceField.constant(grid, 0.5)
    st = rs.ReducedState.from_mass(0.0, phi0, v0,
                                   np.pi * 0.0 + rs.surface_integral(v0))
    params = rs.Params(delta=1.0,
                       potential=rs.DoubleWell(theta=1.0, theta0=1.6),
                       exchange=rs.EquilibriumExchange(a0=1.0, alpha=2.0))
    traj = rs.run(st, params, rs.StepperConfig(dt=5e-3),
                  rs.Schedule(t_final=30.0, sample_stride=1000))
    final_res = rs.steady_residual(traj.final_state.phi, params.potential)
    last = traj.records[-1]
    own_measure = np.sqrt(last.mu_grad_sq) + 0.5 * np.sqrt(last.eta_grad_sq)
    assert final_res <= 10.0 * own_measure
    assert final_res <= 1e-4  # and the run did get close to stationarity
