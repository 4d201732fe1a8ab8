import sys
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import raftsim as rs
import raftsim.stepper as stepper_mod
from raftsim.harness.config import parse_config
from raftsim.surface import gmres
from conftest import full_state, lowpass_field, reduced_state

CIRCLE = rs.SurfaceGrid.circle(64)


def test_homogeneous_fixed_point():
    phi = rs.SurfaceField.constant(CIRCLE, 0.0)
    v = rs.SurfaceField.constant(CIRCLE, 0.5)
    st = rs.ReducedState.from_mass(0.0, phi, v, total_mass=np.pi)
    params = rs.Params(exchange=rs.EquilibriumExchange(a0=1.0))
    out = rs.step_reduced(st, params, rs.StepperConfig(dt=1e-2))
    assert np.max(np.abs(out.phi.values)) <= 1e-10
    assert np.max(np.abs(out.v.values - 0.5)) <= 1e-10
    assert out.u == pytest.approx(0.0, abs=1e-12)
    assert out.t == pytest.approx(1e-2)


def test_phi_mass_per_step():
    st = reduced_state(CIRCLE, seed=3, amplitude=0.3)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    cfg = rs.StepperConfig(dt=2e-3)
    cur = st
    for _ in range(20):
        new = rs.step_reduced(cur, params, cfg)
        drift = abs(rs.surface_integral(new.phi) - rs.surface_integral(cur.phi))
        assert drift <= 1e-12 * CIRCLE.total_measure
        cur = new


def test_full_step_mass_conservation():
    disk = rs.DiskGrid(24, 64)
    st = full_state(disk, seed=5, amplitude=0.3)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.EquilibriumExchange(a0=1.0))
    cfg = rs.StepperConfig(dt=2e-3)
    cur = st
    for _ in range(20):
        new = rs.step_full(cur, params, cfg)
        c_new, _ = rs.masses(new)
        c_old, _ = rs.masses(cur)
        assert abs(c_new - c_old) <= 1e-12 * max(1.0, abs(c_old))
        cur = new


def test_reduced_mass_relation_enforced():
    st = reduced_state(CIRCLE, seed=8, amplitude=0.2, u0=0.7)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    cfg = rs.StepperConfig(dt=1e-3)
    cur = st
    for _ in range(50):
        cur = rs.step_reduced(cur, params, cfg)
        lhs = np.pi * cur.u + rs.surface_integral(cur.v)
        assert abs(lhs - cur.total_mass) <= 1e-12 * cur.total_mass


def test_reduced_stationary_construction():
    # with b1 = b2 = 1 and M = |Omega| + |Gamma|/2 the flat state is steady
    phi = rs.SurfaceField.constant(CIRCLE, 0.0)
    v = rs.SurfaceField.constant(CIRCLE, 0.5)
    M = np.pi + 0.5 * CIRCLE.total_measure
    st = rs.ReducedState.from_mass(0.0, phi, v, M)
    assert st.u == pytest.approx(1.0, rel=1e-14)
    params = rs.Params(exchange=rs.ReactionExchange(b1=1.0, b2=1.0))
    out = rs.step_reduced(st, params, rs.StepperConfig(dt=1e-2))
    assert np.max(np.abs(out.phi.values)) <= 1e-10
    assert np.max(np.abs(out.v.values - 0.5)) <= 1e-10
    assert out.u == pytest.approx(1.0, rel=1e-12)


def test_spinodal_energy_decrease_no_exchange():
    torus = rs.SurfaceGrid.torus(32, 32)
    phi = lowpass_field(torus, 17, 1e-2, cutoff=8)
    v = rs.SurfaceField.constant(torus, 0.5)
    st = rs.ReducedState.from_mass(0.0, phi, v, np.pi * 0.0 + rs.surface_integral(v))
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=3.0),
                       exchange=rs.EquilibriumExchange(a0=0.0))
    traj = rs.run(st, params, rs.StepperConfig(dt=2e-3),
                  rs.Schedule(t_final=0.5, sample_stride=1))
    energies = np.array([r.total_energy for r in traj.records])
    assert np.all(np.diff(energies) <= 1e-10 * np.abs(energies[:-1]))


def test_separation_kept_strict():
    st = reduced_state(CIRCLE, seed=6, amplitude=0.6)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=4.0),
                       exchange=rs.ReactionExchange())
    traj = rs.run(st, params, rs.StepperConfig(dt=1e-3),
                  rs.Schedule(t_final=1.0, sample_stride=10))
    for rec in traj.records:
        assert rec.separation_margin > 0.0


def test_run_zero_duration():
    st = reduced_state(CIRCLE)
    params = rs.Params(exchange=rs.ReactionExchange())
    traj = rs.run(st, params, rs.StepperConfig(dt=1e-3), rs.Schedule(t_final=0.0))
    assert len(traj.records) == 1
    assert traj.final_state is st


def test_run_determinism():
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    cfg = rs.StepperConfig(dt=2e-3)
    sched = rs.Schedule(t_final=0.1, sample_stride=10)
    a = rs.run(reduced_state(CIRCLE, seed=9), params, cfg, sched)
    b = rs.run(reduced_state(CIRCLE, seed=9), params, cfg, sched)
    assert np.array_equal(a.final_state.phi.values, b.final_state.phi.values)
    assert np.array_equal(a.final_state.v.values, b.final_state.v.values)
    assert a.final_state.u == b.final_state.u


def test_restart_equals_straight_run():
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    cfg = rs.StepperConfig(dt=2e-3)
    st = reduced_state(CIRCLE, seed=10)
    straight = rs.run(st.copy(), params, cfg, rs.Schedule(t_final=0.2))
    first = rs.run(st.copy(), params, cfg, rs.Schedule(t_final=0.1))
    second = rs.run(first.final_state, params, cfg, rs.Schedule(t_final=0.1))
    assert np.array_equal(straight.final_state.phi.values,
                          second.final_state.phi.values)
    assert np.array_equal(straight.final_state.v.values,
                          second.final_state.v.values)
    assert straight.final_state.u == second.final_state.u
    assert straight.final_state.t == second.final_state.t


def test_temporal_first_order():
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    st = reduced_state(CIRCLE, seed=12, amplitude=0.3)
    t_final = 0.08
    ref = rs.run(st.copy(), params, rs.StepperConfig(dt=t_final / 512),
                 rs.Schedule(t_final=t_final, sample_stride=512))
    errs = []
    for dt in (t_final / 8, t_final / 16):
        traj = rs.run(st.copy(), params, rs.StepperConfig(dt=dt),
                      rs.Schedule(t_final=t_final, sample_stride=10**6))
        errs.append(CIRCLE.l2_norm(traj.final_state.phi.values
                                   - ref.final_state.phi.values))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)


def _dense_multiplier(grid, symbol):
    """Physical-space matrix of the Fourier multiplier `symbol` (rfft
    layout) on any grid, acting on fields flattened in C order."""
    n = grid.node_count
    basis = np.eye(n).reshape((n,) + grid.shape)
    return grid.ifft(symbol * grid.fft(basis)).reshape(n, n).T


def _block_newton_reference(grid, potential, delta, dt, phi_n, v_n, q_vals,
                            cfg):
    """Damped Newton on the full 2n x 2n block Jacobian in physical space
    (dense Laplacian, no Schur elimination), as (phi, v, iters).  As in the
    stepper, halving keeps only the singular well's iterates inside
    (-1, 1)."""
    n = grid.node_count
    lap = _dense_multiplier(grid, grid.lap_symbol)
    eye = np.eye(n)
    theta0 = potential.split_coefficient
    j11 = eye + dt * (lap @ lap) - (dt / delta) * lap
    j12 = (2.0 * dt / delta) * lap
    j22 = eye - (4.0 * dt / delta) * lap
    singular = potential.kind == "logarithmic"
    phi_n, v_n, q_vals = phi_n.ravel(), v_n.ravel(), q_vals.ravel()
    phi, v = phi_n.copy(), v_n.copy()
    for iteration in range(cfg.newton_max_iters + 1):
        eta = (2.0 / delta) * (2.0 * v - 1.0 - phi)
        mu = (-lap @ phi + potential.convex_deriv(phi)
              - theta0 * phi_n - 0.5 * eta)
        r1 = phi - phi_n - dt * (lap @ mu)
        r2 = v - v_n - dt * (lap @ eta) - dt * q_vals
        if max(np.max(np.abs(r1)), np.max(np.abs(r2))) <= cfg.newton_tol:
            return phi.reshape(grid.shape), v.reshape(grid.shape), iteration
        jac = np.block([
            [j11 - dt * lap * potential.convex_second(phi), j12],
            [j12, j22]])
        step = np.linalg.solve(jac, -np.concatenate([r1, r2]))
        alpha = 1.0
        limit = max(1.0 - stepper_mod.SEPARATION_MARGIN, np.max(np.abs(phi)))
        while singular and np.max(np.abs(phi + alpha * step[:n])) > limit:
            alpha *= 0.5
        phi = phi + alpha * step[:n]
        v = v + alpha * step[n:]
    raise AssertionError("reference Newton did not converge")


def _kappa_circle_case(n=128, kappa=0.0):
    # the kappa-sweep setup run to t = 2, where phi presses against +-1
    grid = rs.SurfaceGrid.circle(n)
    potential = rs.DoubleWell(theta=1.0, theta0=4.5)
    if kappa:
        potential = potential.regularized(kappa)
    params = rs.Params(potential=potential,
                       exchange=rs.ReactionExchange(b1=0.2, b2=0.2))
    cfg = rs.StepperConfig(dt=1e-2)
    st = reduced_state(grid, seed=21, amplitude=0.5, cutoff=4)
    st = rs.run(st, params, cfg, rs.Schedule(t_final=2.0,
                                             sample_stride=10**6)).final_state
    assert np.max(np.abs(st.phi.values)) >= (1.0 if kappa else 0.999)
    eta = rs.chem_eta(st.phi, st.v, params.delta)
    q = rs.exchange_q(params.exchange, st.u, eta, st.v, st.t)
    return st, params, cfg, q


def _regularized_circle_case():
    # the sweep's kappa = 1e-2 member: phi leaves [-1, 1], where F'' is
    # clamped to its value at 1 - kappa
    return _kappa_circle_case(kappa=1e-2)


def _circle512_case():
    # the largest circle that takes the dense branch.  There the reference's
    # nodal residual stalls near 2e-9 (dt k^4 ~ 4e7 times round-off), so
    # both solves stop at 2e-8: after two iterations, from 8e-6 and 2e-7
    st, params, cfg, q = _kappa_circle_case(n=512)
    return st, params, replace(cfg, newton_tol=2e-8), q


def _full_disk_case():
    st = full_state(rs.DiskGrid(24, 64), seed=5, amplitude=0.3)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.EquilibriumExchange(a0=1.0))
    eta = rs.chem_eta(st.phi, st.v, params.delta)
    q = rs.exchange_q(params.exchange, rs.trace_boundary(st.u), eta,
                      st.v, st.t)
    return st, params, rs.StepperConfig(dt=2e-3), q


def _krylov_case(grid):
    # v reaches the highest modes, so q excites every mode of the solve
    st = reduced_state(grid, seed=4, amplitude=0.6, cutoff=4)
    st.v.values += lowpass_field(grid, 5, 0.2, cutoff=grid.shape[-1]).values
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=3.0),
                       exchange=rs.ReactionExchange(b1=0.5, b2=0.5))
    eta = rs.chem_eta(st.phi, st.v, params.delta)
    q = rs.exchange_q(params.exchange, st.u, eta, st.v, st.t)
    return st, params, rs.StepperConfig(dt=1e-2), q


def _assert_matches_block_reference(st, params, cfg, q):
    # newton_tol 1e-3 stops both solves after one or two steps, which
    # compares the Newton directions themselves rather than only the root
    for solve_cfg in (cfg, replace(cfg, newton_tol=1e-3)):
        args = (st.phi.grid, params.potential, params.delta, cfg.dt,
                st.phi.values, st.v.values, q.values, solve_cfg)
        phi, v, iters = stepper_mod._solve_surface(*args)
        phi_ref, v_ref, iters_ref = _block_newton_reference(*args)
        assert iters == iters_ref
        assert np.max(np.abs(phi - phi_ref)) <= 1e-12
        assert np.max(np.abs(v - v_ref)) <= 1e-12


@pytest.mark.parametrize("case", [_kappa_circle_case, _regularized_circle_case,
                                  _circle512_case, _full_disk_case])
def test_dense_schur_newton_matches_block_reference(case):
    _assert_matches_block_reference(*case())


@pytest.mark.parametrize("grid, newton_tol", [
    (rs.SurfaceGrid.torus(16, 16), 1e-10),
    # the smallest circle past the dense branch stops at 2e-8, for the
    # reason _circle512_case gives
    (rs.SurfaceGrid.circle(520), 2e-8),
], ids=["torus16", "circle520"])
def test_krylov_schur_newton_matches_block_reference(grid, newton_tol):
    assert not grid.solves_densely
    st, params, cfg, q = _krylov_case(grid)
    _assert_matches_block_reference(st, params,
                                    replace(cfg, newton_tol=newton_tol), q)


@pytest.mark.parametrize("grid", [rs.SurfaceGrid.torus(16, 16),
                                  rs.SurfaceGrid.circle(128)],
                         ids=["torus16", "circle128"])
def test_converging_solve_transforms_directions_only(grid, monkeypatch):
    # the residual test reads the residual's coefficients, so outside
    # GMRES's matvecs ifft runs once per Newton direction and once for the
    # returned v; the transform test added two a residual
    st, params, cfg, q = _krylov_case(grid)
    calls, in_gmres = [0], [False]
    ifft, gmres = rs.SurfaceGrid.ifft, stepper_mod.gmres

    def counted_ifft(self, coeffs):
        calls[0] += not in_gmres[0]
        return ifft(self, coeffs)

    def flagged_gmres(*args, **kwargs):
        in_gmres[0] = True
        try:
            return gmres(*args, **kwargs)
        finally:
            in_gmres[0] = False

    monkeypatch.setattr(rs.SurfaceGrid, "ifft", counted_ifft)
    monkeypatch.setattr(stepper_mod, "gmres", flagged_gmres)
    _, _, iters = stepper_mod._solve_surface(
        grid, params.potential, params.delta, cfg.dt, st.phi.values,
        st.v.values, q.values, cfg)
    assert iters >= 2
    assert calls[0] == iters + 1


def test_krylov_directions_meet_tolerance(monkeypatch):
    # right preconditioning keeps the Arnoldi residual, on which the kernel
    # stops at rtol 1e-12, equal to the true one up to round-off
    st, params, cfg, q = _krylov_case(rs.SurfaceGrid.torus(16, 16))
    ratios = []

    def checked(matvec, b, *args, **kwargs):
        x, applications, converged = gmres(matvec, b, *args, **kwargs)
        ratios.append(np.linalg.norm(b - matvec(x)) / np.linalg.norm(b))
        return x, applications, converged

    monkeypatch.setattr(stepper_mod, "gmres", checked)
    stepper_mod._solve_surface(st.phi.grid, params.potential, params.delta,
                               cfg.dt, st.phi.values, st.v.values, q.values,
                               cfg)
    assert ratios and max(ratios) <= 2e-12


def test_capped_krylov_solve_fails_the_step(monkeypatch):
    # an unconverged direction raises, so dt halving takes over
    st, params, cfg, q = _krylov_case(rs.SurfaceGrid.torus(16, 16))
    monkeypatch.setattr(stepper_mod, "gmres",
                        partial(gmres, restart=2, maxiter=1))
    with pytest.raises(rs.NewtonDivergenceError, match="GMRES"):
        stepper_mod._solve_surface(st.phi.grid, params.potential,
                                   params.delta, cfg.dt, st.phi.values,
                                   st.v.values, q.values, cfg)


def test_near_separation_torus_krylov_work(monkeypatch):
    # the 32^2 logarithmic torus separates to max|phi| 0.998 by t = 1.5:
    # F'' then spans four decades, and SciPy's GMRES, with a complex inner
    # product and a left preconditioner, took 34 432 applications here
    grid = rs.SurfaceGrid.torus(32, 32)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=4.5),
                       exchange=rs.ReactionExchange(b1=0.2, b2=0.2))
    st = reduced_state(grid, seed=21, amplitude=0.5, cutoff=6)
    applications = []

    def counted(*args, **kwargs):
        out = gmres(*args, **kwargs)
        applications.append(out[1])
        return out

    monkeypatch.setattr(stepper_mod, "gmres", counted)
    traj = rs.run(st, params, rs.StepperConfig(dt=1e-2),
                  rs.Schedule(t_final=1.5, sample_stride=150))
    assert np.abs(traj.final_state.phi.values).max() > 0.998
    assert sum(applications) <= 5000


def test_nonfinite_residual_fails_at_once(monkeypatch):
    # one NaN in F'(phi) used to run GMRES to its iteration cap in every
    # attempt (36 606 transforms and 12 s on this torus); now an attempt
    # stops at its first residual, and dt halving proceeds as before
    torus = rs.SurfaceGrid.torus(16, 16)
    params = rs.Params(potential=rs.DoubleWell(kind="polynomial"),
                       exchange=rs.ReactionExchange())
    st = reduced_state(torus, seed=6, amplitude=0.3)
    cfg = rs.StepperConfig(dt=1e-3, dt_min=2.5e-4)
    eta = rs.chem_eta(st.phi, st.v, params.delta)
    q = rs.exchange_q(params.exchange, st.u, eta, st.v, st.t)
    for dt in (cfg.dt, cfg.dt / 2, cfg.dt / 4):
        stepper_mod._step_operators(torus, params.delta, dt)  # fft(1) too
    convex_deriv = rs.DoubleWell.convex_deriv
    fft, ifft = rs.SurfaceGrid.fft, rs.SurfaceGrid.ifft
    calls = [0]

    def one_nan(self, r):
        out = np.array(convex_deriv(self, r), dtype=float)
        out.flat[5] = np.nan
        return out

    def counted(transform):
        def wrapper(self, x):
            calls[0] += 1
            if calls[0] > 100:
                raise AssertionError("runaway solve")
            return transform(self, x)
        return wrapper

    monkeypatch.setattr(rs.DoubleWell, "convex_deriv", one_nan)
    monkeypatch.setattr(rs.SurfaceGrid, "fft", counted(fft))
    monkeypatch.setattr(rs.SurfaceGrid, "ifft", counted(ifft))
    with pytest.raises(rs.NewtonDivergenceError, match="not finite"):
        stepper_mod._solve_surface(torus, params.potential, params.delta,
                                   cfg.dt, st.phi.values, st.v.values,
                                   q.values, cfg)
    assert calls[0] == 4                  # phi_n, v_n, q and F'(phi)

    calls[0] = 0
    counters = {"substeps": 0, "fallback_steps": 0, "newton_iters": 0}
    with pytest.raises(rs.DtUnderflowError):
        stepper_mod._advance(st, params, cfg, cfg.dt, counters, None)
    assert calls[0] == 3 * 4              # at dt, dt/2 and dt/4


def test_step_operator_cache_shared_by_threads():
    # 8 threads (more than cores) race to build and read the operators of
    # three step sizes from an empty cache; every solve must equal the
    # sequential one bit for bit
    st = reduced_state(CIRCLE, seed=15, amplitude=0.5)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    cfg = rs.StepperConfig(dt=4e-3)
    eta = rs.chem_eta(st.phi, st.v, params.delta)
    q = rs.exchange_q(params.exchange, st.u, eta, st.v, st.t)
    dts = (cfg.dt, cfg.dt / 2, cfg.dt / 4)

    def solve(dt):
        return stepper_mod._solve_surface(CIRCLE, params.potential,
                                          params.delta, dt, st.phi.values,
                                          st.v.values, q.values, cfg)

    expected = [solve(dt) for dt in dts]
    cache = stepper_mod._step_operators
    cache.cache_clear()
    results = [None] * 8

    def worker(k):
        results[k] = [solve(dts[(k + j) % 3]) for j in range(6)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for k, got in enumerate(results):
        for j, (phi, v, iters) in enumerate(got):
            phi_ref, v_ref, iters_ref = expected[(k + j) % 3]
            assert iters == iters_ref
            assert np.array_equal(phi, phi_ref)
            assert np.array_equal(v, v_ref)

    info = cache.cache_info()
    assert info.maxsize is not None and info.currsize == len(dts)
    for dt in dts:
        ops = cache(CIRCLE, params.delta, dt)
        arrays = [a for a in ops if a is not None]
        assert len(arrays) == len(ops)           # the dense path's too
        assert not any(a.flags.writeable for a in arrays)


def standalone_record(st, params):
    """The diagnostics record assembled from the standalone functionals,
    each evaluating its own transforms and well."""
    grid = st.phi.grid
    eta = rs.chem_eta(st.phi, st.v, params.delta)
    mu = rs.chem_mu(st.phi, eta, params.potential)
    assert np.array_equal(mu.values, -grid.laplacian(st.phi.values)
                          + params.potential.deriv(st.phi.values)
                          - 0.5 * eta.values)
    if isinstance(st, rs.FullState):
        u_on_gamma = rs.trace_boundary(st.u)
        u_for_rate = u_on_gamma.values
        bulk_diss = params.D * rs.bulk_grad_norm_sq(st.u)
        u_scalar = rs.bulk_mean(st.u)
    else:
        u_on_gamma = u_for_rate = u_scalar = st.u
        bulk_diss = 0.0
    q = rs.exchange_q(params.exchange, u_on_gamma, eta, st.v, st.t)
    combined, phi_mass = rs.masses(st)
    return rs.DiagnosticsRecord(
        t=st.t,
        total_energy=rs.total_energy(st, params),
        surface_energy=rs.surface_energy(st.phi, st.v, params),
        lyapunov=rs.lyapunov_functional(st.phi, st.v, params),
        combined_mass=combined,
        phi_mass=phi_mass,
        separation_margin=rs.separation_margin(st.phi),
        bulk_dissipation=bulk_diss,
        mu_grad_sq=grid.h1_seminorm_sq(mu.values),
        eta_grad_sq=grid.h1_seminorm_sq(eta.values),
        exchange_integral=rs.surface_integral(q),
        exchange_energy_rate=grid.integral(q.values * (eta.values - u_for_rate)),
        phi_h1_sq=grid.l2_norm(st.phi.values) ** 2
        + grid.h1_seminorm_sq(st.phi.values),
        v_l2_sq=grid.l2_norm(st.v.values) ** 2,
        u_scalar=u_scalar,
        newton_iters=0,
        substeps=0,
        fallback_steps=0,
    )


def contract_states():
    """A reduced circle, a reduced torus and a disk state, with v (and u)
    varying in space so that no term vanishes."""
    torus = rs.SurfaceGrid.torus(16, 16)
    out = []
    for grid, seed in ((CIRCLE, 3), (torus, 4)):
        phi = lowpass_field(grid, seed, 0.3, mean=0.1)
        v = lowpass_field(grid, seed + 10, 0.2, mean=0.5)
        out.append(rs.ReducedState.from_mass(0.25, phi, v, 5.0))
    disk = rs.DiskGrid(24, 64)
    st = full_state(disk, seed=5, amplitude=0.3)
    st.v = lowpass_field(disk.boundary, 15, 0.2, mean=0.5)
    r = disk.radii[:, None]
    st.u = rs.BulkField(disk, 1.0 + 0.2 * r**2 * st.v.values[None, :])
    out.append(st)
    return out


def test_diagnose_equals_standalone_functionals(monkeypatch):
    params = rs.Params(D=3.0, delta=0.8,
                       potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.EquilibriumExchange(a0=1.0))
    states = contract_states()
    for st in states:
        assert rs.diagnose(st, params) == standalone_record(st, params)

    # one diagnose evaluates the well once and transforms phi once (plus
    # mu, eta and the mean-free phi of the H^-1 norm)
    calls = {"value": 0, "fft": 0}
    value, fft = rs.DoubleWell.value, rs.SurfaceGrid.fft

    def counted_value(self, r):
        calls["value"] += 1
        return value(self, r)

    def counted_fft(self, values):
        calls["fft"] += 1
        return fft(self, values)

    monkeypatch.setattr(rs.DoubleWell, "value", counted_value)
    monkeypatch.setattr(rs.SurfaceGrid, "fft", counted_fft)
    rs.diagnose(states[-1], params)
    assert calls == {"value": 1, "fft": 4}



@pytest.mark.parametrize("kind", ["full", "reduced"])
def test_frozen_inputs_evaluated_once_per_state(monkeypatch, kind):
    # run hands each diagnosed state's eta, u on Gamma and q to diagnose and
    # to the next step, so with sample_stride 1 every state evaluates them
    # once (the steps used to evaluate them a second time)
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.EquilibriumExchange(a0=1.0))
    if kind == "full":
        st = full_state(rs.DiskGrid(8, 32), seed=3)
    else:
        st = reduced_state(CIRCLE, seed=3)
    calls = {"chem_eta": 0, "trace_boundary": 0, "exchange_q": 0}

    def counted(name):
        original = getattr(stepper_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(stepper_mod, name, counted(name))
    cfg = rs.StepperConfig(dt=1e-3)
    traj = rs.run(st, params, cfg, rs.Schedule(t_final=5e-3, sample_stride=1))
    states = len(traj.records)
    assert states == 6
    assert calls == {"chem_eta": states, "exchange_q": states,
                     "trace_boundary": states if kind == "full" else 0}


def test_diagnose_with_shared_inputs_equals_without():
    params = rs.Params(D=3.0, delta=0.8,
                       potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.EquilibriumExchange(a0=1.0))
    for st in contract_states():
        frozen = stepper_mod._frozen_inputs(st, params)
        assert rs.diagnose(st, params, frozen=frozen) == rs.diagnose(st, params)

def _fallback(params, cfg):
    # the regularized-well params that run hands to _advance
    return replace(params,
                   potential=params.potential.regularized(cfg.kappa_fallback))


def test_dt_halving_retry(monkeypatch):
    # force failures for dt above a threshold; _advance must bisect far
    # enough and assemble the macro step from the pieces
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    st = reduced_state(CIRCLE, seed=13, amplitude=0.2)
    cfg = rs.StepperConfig(dt=4e-3)
    original = stepper_mod._solve_surface

    def flaky(grid, potential, delta, dt, phi_n, v_n, q_vals, cfg_inner):
        if dt > 1.1e-3:
            raise rs.NewtonDivergenceError("synthetic stiffness")
        return original(grid, potential, delta, dt, phi_n, v_n, q_vals, cfg_inner)

    monkeypatch.setattr(stepper_mod, "_solve_surface", flaky)
    counters = {"substeps": 0, "fallback_steps": 0, "newton_iters": 0}
    out = stepper_mod._advance(st, params, cfg, cfg.dt, counters,
                               _fallback(params, cfg))
    assert counters["substeps"] == 4           # 4 quarter-steps
    assert counters["fallback_steps"] == 0
    assert out.t == pytest.approx(4e-3)


def test_dt_underflow_and_fallback(monkeypatch):
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    st = reduced_state(CIRCLE, seed=13, amplitude=0.2)
    cfg = rs.StepperConfig(dt=4e-3, dt_min=4e-3)  # no halving room

    def always_fail(*args, **kwargs):
        raise rs.NewtonDivergenceError("synthetic")

    monkeypatch.setattr(stepper_mod, "_solve_surface", always_fail)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(rs.DtUnderflowError) as info:
            stepper_mod._advance(st, params, cfg, cfg.dt,
                                 {"substeps": 0, "fallback_steps": 0,
                                  "newton_iters": 0}, _fallback(params, cfg))
    assert info.value.t == st.t
    assert info.value.state is st


def test_indefinite_newton_matrix_halves_dt(monkeypatch):
    # F'' < 0 makes the dense Newton matrix indefinite: the Cholesky solve
    # must fail as a NewtonDivergenceError, which dt halving and then the
    # regularized fallback handle before the run ends in DtUnderflowError
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    st = reduced_state(CIRCLE, seed=13, amplitude=0.2)
    cfg = rs.StepperConfig(dt=4e-3, dt_min=1e-3)
    eta = rs.chem_eta(st.phi, st.v, params.delta)
    q = rs.exchange_q(params.exchange, st.u, eta, st.v, st.t)
    monkeypatch.setattr(rs.DoubleWell, "convex_second",
                        lambda self, r: np.full(np.shape(r), -1e8))
    with pytest.raises(rs.NewtonDivergenceError, match="positive definite"):
        stepper_mod._solve_surface(CIRCLE, params.potential, params.delta,
                                   cfg.dt, st.phi.values, st.v.values,
                                   q.values, cfg)

    original = stepper_mod._solve_surface
    dts = []

    def recorded(grid, potential, delta, dt, *rest):
        dts.append(dt)
        return original(grid, potential, delta, dt, *rest)

    monkeypatch.setattr(stepper_mod, "_solve_surface", recorded)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(rs.DtUnderflowError) as info:
            rs.run(st, params, cfg, rs.Schedule(t_final=cfg.dt))
    assert dts == [4e-3, 2e-3, 1e-3, 1e-3]   # two halvings, then the fallback
    assert info.value.step_index == 1


def test_kappa_fallback_used(monkeypatch):
    # singular solves fail, regularized succeeds: step goes through with a
    # warning and the fallback counter set
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    st = reduced_state(CIRCLE, seed=14, amplitude=0.2)
    cfg = rs.StepperConfig(dt=2e-3, dt_min=2e-3)
    original = stepper_mod._solve_surface

    def singular_fails(grid, potential, delta, dt, phi_n, v_n, q_vals, cfg_inner):
        if potential.kind == "logarithmic":
            raise rs.NewtonDivergenceError("synthetic")
        return original(grid, potential, delta, dt, phi_n, v_n, q_vals, cfg_inner)

    monkeypatch.setattr(stepper_mod, "_solve_surface", singular_fails)
    counters = {"substeps": 0, "fallback_steps": 0, "newton_iters": 0}
    with pytest.warns(RuntimeWarning):
        out = stepper_mod._advance(st, params, cfg, cfg.dt, counters,
                                   _fallback(params, cfg))
    assert counters["fallback_steps"] == 1
    assert out.t == pytest.approx(st.t + 2e-3)



# The logarithmic well fails at dt_min from the state at t = 1.47, and the
# regularized well's step from it reaches max|phi| = 1.0042.
FALLBACK_ESCAPE_CFG = """
[run]
system = reduced
[geometry]
kind = circle
n = 32
[potential]
kind = logarithmic
theta = 1.0
theta0 = 4.5
[exchange]
kind = reaction
b1 = 0.2
b2 = 0.2
[stepper]
dt = 0.12
dt_min = 0.03
newton_max_iters = 5
kappa_fallback = 0.01
[initial]
kind = random
seed = 21
amplitude = 0.5
cutoff = 4
v0 = 0.5
u0 = 1.0
[schedule]
t_final = 3.6
"""


def test_fallback_step_leaving_interval_ends_run():
    # a step that leaves (-1, 1) cannot be taken further (or diagnosed) on
    # the logarithmic well; the run must end as a solver failure that
    # carries the state the step started from
    cfg = parse_config(FALLBACK_ESCAPE_CFG)
    with pytest.warns(RuntimeWarning, match="falling back"):
        with pytest.raises(rs.DtUnderflowError,
                           match=r"left \(-1, 1\)") as info:
            rs.run(cfg.build_initial_state(), cfg.build_params(),
                   cfg.stepper, cfg.schedule)
    exc = info.value
    assert exc.t == exc.state.t == pytest.approx(1.47)
    assert exc.step_index == 13
    assert np.abs(exc.state.phi.values).max() < 1.0

def test_unusable_kappa_fallback_refused_before_step_one(monkeypatch):
    # run builds the fallback well before step 1, so a kappa_fallback
    # outside (0, r0) fails even where the fallback would never fire
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    st = reduced_state(CIRCLE, seed=14, amplitude=0.2)
    cfg = rs.StepperConfig(dt=2e-3, kappa_fallback=0.9)
    original, steps = stepper_mod._step, []

    def counted(*args):
        steps.append(args[3])
        return original(*args)

    monkeypatch.setattr(stepper_mod, "_step", counted)
    with pytest.raises(ValueError, match="0 < kappa < r0"):
        rs.run(st, params, cfg, rs.Schedule(t_final=cfg.dt))
    assert steps == []
    # a well without a fallback does not read kappa_fallback
    smooth = replace(params, potential=rs.DoubleWell(kind="polynomial"))
    rs.run(st, smooth, cfg, rs.Schedule(t_final=cfg.dt))
    assert steps == [cfg.dt]


def test_torus_run_conserves():
    torus = rs.SurfaceGrid.torus(32, 32)
    phi = lowpass_field(torus, 23, 0.3, cutoff=5)
    v = rs.SurfaceField.constant(torus, 0.5)
    st = rs.ReducedState.from_mass(0.0, phi, v,
                                   np.pi + rs.surface_integral(v))
    params = rs.Params(potential=rs.DoubleWell(theta=1.0, theta0=2.5),
                       exchange=rs.ReactionExchange())
    traj = rs.run(st, params, rs.StepperConfig(dt=2e-3),
                  rs.Schedule(t_final=0.05, sample_stride=5))
    first, last = traj.records[0], traj.records[-1]
    assert abs(last.phi_mass - first.phi_mass) <= 1e-12 * torus.total_measure
    assert abs(last.combined_mass - first.combined_mass) <= 1e-12 * first.combined_mass
    assert last.separation_margin > 0.0


def test_run_requires_commensurate_t_final():
    st = reduced_state(CIRCLE)
    params = rs.Params(exchange=rs.ReactionExchange())
    with pytest.raises(ValueError):
        rs.run(st, params, rs.StepperConfig(dt=3e-3), rs.Schedule(t_final=1e-2))


def test_config_validation():
    with pytest.raises(ValueError):
        rs.StepperConfig(dt=0.0)
    with pytest.raises(ValueError, match="newton_tol must be positive"):
        rs.StepperConfig(dt=1e-3, newton_tol=0.0)
    with pytest.raises(ValueError):
        rs.StepperConfig(dt=1e-3, dt_min=2e-3)
    for dt_min in (0.0, -1.0):  # the halving would never reach the floor
        with pytest.raises(ValueError, match="dt_min must be positive"):
            rs.StepperConfig(dt=1e-3, dt_min=dt_min)
    with pytest.raises(ValueError):
        rs.Schedule(t_final=-1.0)
    cfg = rs.StepperConfig(dt=1.0)
    assert cfg.dt_floor == pytest.approx(1.0 / 1024)


@pytest.mark.parametrize("build", [
    # every Newton solve "converged" at iteration 0: phi never moved
    lambda: rs.StepperConfig(dt=1e-3, newton_tol=float("nan")),
    # dt halving switched off: one attempt before DtUnderflowError
    lambda: rs.StepperConfig(dt=1e-3, dt_min=float("nan")),
    lambda: rs.StepperConfig(dt=float("nan")),
    # run ended in a TypeError from the Newton loop
    lambda: rs.StepperConfig(dt=1e-3, newton_max_iters=-1),
    # run returned after zero steps
    lambda: rs.Schedule(t_final=float("nan")),
    # run raised OverflowError
    lambda: rs.Schedule(t_final=float("inf")),
    # run recorded 2 samples instead of one per step
    lambda: rs.Schedule(t_final=1.0, sample_stride=float("nan")),
    # run wrote no checkpoint
    lambda: rs.Schedule(t_final=1.0, checkpoint_stride=float("nan")),
    lambda: rs.StepperConfig(dt=float("inf")),
    # refused only by a logarithmic well's run, at its start
    lambda: rs.StepperConfig(dt=1e-3, kappa_fallback=float("nan")),
], ids=["newton_tol_nan", "dt_min_nan", "dt_nan", "newton_max_iters_negative",
        "t_final_nan", "t_final_inf", "sample_stride_nan",
        "checkpoint_stride_nan", "dt_inf", "kappa_fallback_nan"])
def test_config_refuses_meaningless_values(build):
    with pytest.raises(ValueError):
        build()


def test_whole_steps():
    assert stepper_mod.whole_steps(0.05, 5e-3) == 10
    assert stepper_mod.whole_steps(0.0, 5e-3) == 0
    assert stepper_mod.whole_steps(-1e-13, 5e-3) == 0  # round-off below 0
    assert stepper_mod.whole_steps(1e-2, 3e-3) is None
    for span in (float("nan"), float("inf")):
        assert stepper_mod.whole_steps(span, 1e-3) is None
