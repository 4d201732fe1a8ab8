"""Time integration of the coupled and reduced systems.

One step of the splitting scheme:

1. freeze the exchange rate q at the current time (using the bulk trace for
   the coupled system, the scalar bulk value for the reduced one),
2. advance the bulk by one conservative backward-Euler diffusion step with
   boundary flux -q,
3. solve the implicit surface system by Newton iteration in Fourier space,
   with the convex part of the well implicit and the concave quadratic
   explicit; damping keeps every iterate strictly inside (-1, 1).

Because the same frozen q feeds the bulk flux and the surface source, the
combined mass is conserved step by step; the zero modes of the surface solve
are pinned explicitly so the same holds for the surface masses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dposv

from .bulk import bulk_grad_norm_sq, bulk_mean, diffusion_step, trace_boundary
from .diagnostics import DiagnosticsRecord
from .model import (
    FullState,
    Params,
    ReducedState,
    _SurfaceTerms,
    bulk_energy,
    chem_eta,
    chem_mu,
    exchange_q,
    masses,
    reduced_u_from_mass,
    separation_margin,
)
from .potentials import LOGARITHMIC, SEPARATION_MARGIN
from .surface import SurfaceField, gmres, mean_free_matrix, surface_integral


class NewtonDivergenceError(RuntimeError):
    """Implicit surface solve failed to converge within the iteration cap."""


class DtUnderflowError(RuntimeError):
    """Step failed even at dt_min with the regularized fallback."""

    def __init__(self, message, t, state, step_index=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.step_index = step_index


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    newton_tol: float = 1e-10
    newton_max_iters: int = 50
    dt_min: float | None = None          # defaults to dt / 1024
    kappa_fallback: float = 1e-5

    def __post_init__(self):
        # `not x > 0` refuses NaN too, for which `x <= 0` is False
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not self.newton_tol > 0.0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max_iters < 0:
            raise ValueError("newton_max_iters must be >= 0")
        if self.dt_min is not None and not self.dt_min > 0.0:
            raise ValueError("dt_min must be positive")
        if self.dt_min is not None and self.dt_min > self.dt:
            raise ValueError("dt_min cannot exceed dt")
        # run checks 0 < kappa_fallback < r0 where a well needs the fallback
        if not np.isfinite(self.kappa_fallback):
            raise ValueError("kappa_fallback must be finite")

    @property
    def dt_floor(self) -> float:
        return self.dt / 1024.0 if self.dt_min is None else self.dt_min


@dataclass(frozen=True)
class Schedule:
    t_final: float
    sample_stride: int = 1
    checkpoint_stride: int = 0

    def __post_init__(self):
        if not 0.0 <= self.t_final < np.inf:
            raise ValueError("t_final must be finite and >= 0")
        if not self.sample_stride >= 1:
            raise ValueError("sample_stride must be >= 1")
        if not self.checkpoint_stride >= 0:
            raise ValueError("checkpoint_stride must be >= 0")


@dataclass
class Trajectory:
    records: list
    final_state: object


def whole_steps(span: float, dt: float) -> int | None:
    """The number of steps of dt that make up `span`, or None when span is
    not finite or not a whole number of steps (within 1e-9 max(1, |span|))."""
    steps = span / dt
    if not np.isfinite(steps):
        return None
    n = int(round(steps))
    return n if abs(n * dt - span) <= 1e-9 * max(1.0, abs(span)) else None


# -- implicit surface solve ---------------------------------------------------

@lru_cache(maxsize=16)
def _step_operators(grid, delta, dt):
    """The dt-dependent operators of one surface step, built once per
    (grid, delta, dt): the symbols k^2, dt k^2, b, c, the Schur symbol S and
    b/c, fft(1), and on grids that solve densely the circulant G of S/k^2
    (zero mode 1) and the symbol h = 1/k^2 (zero mode 0) of _solve_surface's
    symmetrized system (None elsewhere).  The symbols are stored complex
    (with zero imaginary parts), so they multiply Fourier coefficients
    exactly as the real values would after a cast, without a cast per call.

    The cache is bounded (dt halving adds a few keys per run).  Every run
    with the same key shares its arrays, including a library caller's runs
    on other threads, so they are read-only: no run can change another's.
    """
    ksq = grid.ksq
    c1 = 1.0 + dt * ksq**2 + (dt / delta) * ksq
    b_sym = -(2.0 * dt / delta) * ksq
    c_sym = 1.0 + (4.0 * dt / delta) * ksq
    schur_sym = c1 - b_sym**2 / c_sym
    symbols = [ksq, dt * ksq, b_sym, c_sym, schur_sym, b_sym / c_sym]
    g_mat = h_sym = None
    if grid.solves_densely:
        g_sym = schur_sym * grid.inv_ksq
        g_sym[0] = 1.0
        g_mat = grid.circulant(g_sym)
        h_sym = grid.inv_ksq.astype(complex)
    ops = (*(sym.astype(complex) for sym in symbols),
           grid.fft(np.ones(grid.shape)), g_mat, h_sym)
    for arr in ops:
        if arr is not None:
            arr.setflags(write=False)
    return ops


def _solve_surface(grid, potential, delta, dt, phi_n, v_n, q_vals, cfg):
    """Solve the implicit surface update; returns (phi', v', newton_iters).

    Unknowns are advanced from (phi_n, v_n) with the frozen source q_vals.
    Each Newton direction solves the Schur complement
    (S + dt K M) dphi = r in phi, with v eliminated mode by mode; K = -lap,
    M = diag(F''(phi)) of the convex part.  On grids that solve densely
    (every circle of up to 512 nodes) the zero mode is taken directly
    (dphi_0 = mean r, as S_0 = 1) and the mean-free rest d' from the
    symmetrized system (G + dt P M P) d' = K^+ r - dt dphi_0 P m, with
    G = K^+ S (zero mode 1) and P the mean-free projector
    (surface.mean_free_matrix), by dense Cholesky: F'' >= 0 makes it SPD,
    and a failed factorization raises NewtonDivergenceError.  Elsewhere
    surface.gmres solves the system to rtol 1e-12, right-preconditioned with
    the midpoint constant-coefficient symbol, and a direction it does not
    converge raises NewtonDivergenceError.  Near the pure states F'' spans
    orders of magnitude and GMRES takes tens of operator applications a
    direction, which is why circles solve densely (see
    SurfaceGrid.solves_densely).  The iterate is carried in Fourier space
    (phi also at the nodes, for F' and the damping by halving), so a
    residual transforms only F'(phi).

    Newton stops once max|r1| and max|r2| at the nodes are <= newton_tol.
    SurfaceGrid.ifft_within decides that from the residual's coefficients,
    by Parseval bounds, and transforms a residual only where they leave it
    open, with every decision the transform's; the exact max is evaluated
    only for the message of a stalled solve.  A residual that is not finite
    raises NewtonDivergenceError at once, so dt halving takes over.
    """
    fft, ifft = grid.fft, grid.ifft
    theta0 = potential.split_coefficient
    singular = potential.kind == LOGARITHMIC
    (ksq, dt_ksq, b_sym, c_sym, schur_sym, b_over_c, one_h, g_mat,
     h_sym) = _step_operators(grid, delta, dt)

    phin_h = fft(phi_n)
    vn_h = fft(v_n)
    theta_phin_h = theta0 * phin_h
    dt_q_h = dt * fft(q_vals)

    two_d = 2.0 / delta
    phi = phi_n.copy()
    phi_h = phin_h
    v_h = vn_h

    def residual(phi, phi_h, v_h):
        # in place, in the order of operations of
        #   eta = 2/delta (2 v - 1 - phi)
        #   mu = k^2 phi + F'(phi) - theta0 phi_n - eta/2
        #   r1 = phi - phi_n + dt k^2 mu,  r2 = v - v_n + dt k^2 eta - dt q
        fp_h = fft(potential.convex_deriv(phi))
        eta_h = 2.0 * v_h
        eta_h -= one_h
        eta_h -= phi_h
        np.multiply(two_d, eta_h, out=eta_h)
        mu_h = ksq * phi_h
        mu_h += fp_h
        mu_h -= theta_phin_h
        mu_h -= np.multiply(0.5, eta_h, out=fp_h)
        r1_h = phi_h - phin_h
        r1_h += np.multiply(dt_ksq, mu_h, out=mu_h)
        r2_h = v_h - vn_h
        r2_h += np.multiply(dt_ksq, eta_h, out=eta_h)
        r2_h -= dt_q_h
        return r1_h, r2_h

    for iteration in range(cfg.newton_max_iters + 1):
        r1_h, r2_h = residual(phi, phi_h, v_h)
        converged = grid.ifft_within(cfg.newton_tol, r1_h, r2_h)
        if converged is None:
            raise NewtonDivergenceError(
                f"surface Newton residual not finite at iteration "
                f"{iteration} (dt={dt:g})"
            )
        if converged:
            # transform only the increment, so round-off scales with it
            return phi, v_n + ifft(v_h - vn_h), iteration
        if iteration == cfg.newton_max_iters:
            res = max(np.abs(ifft(r1_h)).max(), np.abs(ifft(r2_h)).max())
            raise NewtonDivergenceError(
                f"surface Newton stalled at residual {res:.3e} "
                f"after {iteration} iterations (dt={dt:g})"
            )

        fpp = potential.convex_second(phi)
        rhs_h = -r1_h + b_over_c * r2_h
        if g_mat is not None:
            mat = mean_free_matrix(g_mat, fpp, dt)
            d0 = rhs_h[0].real / fpp.size
            rhs = ifft(h_sym * rhs_h) - (dt * d0) * (fpp - fpp.sum() / fpp.size)
            # mat is symmetric (dposv reads one triangle), so its transpose
            # is an F-ordered matrix that LAPACK factors without a copy
            _, dphi, info = dposv(mat.T, rhs, overwrite_a=True,
                                  overwrite_b=True)
            if info != 0:
                raise NewtonDivergenceError(
                    f"Newton matrix not positive definite (info={info}, "
                    f"dt={dt:g})"
                )
            dphi += d0
            dphi_h = fft(dphi)
        else:
            cmid = 0.5 * (float(fpp.min()) + float(fpp.max()))
            inv_precond = 1.0 / (schur_sym + dt_ksq * cmid)

            def matvec(xh):
                prod_h = fft(fpp * ifft(xh))
                out = schur_sym * xh
                out += np.multiply(dt_ksq, prod_h, out=prod_h)
                return out

            dphi_h, applications, ok = gmres(matvec, rhs_h, inv_precond,
                                             rtol=1e-12)
            if not ok:
                raise NewtonDivergenceError(
                    f"GMRES failed to reach tolerance after {applications} "
                    f"operator applications (dt={dt:g})"
                )
            dphi = ifft(dphi_h)
        dv_h = (-r2_h - b_sym * dphi_h) / c_sym

        alpha = 1.0
        if singular:
            # never tighter than the incoming iterate's own margin (which the
            # zero-mode pinning may have nudged by one ulp)
            limit = max(1.0 - SEPARATION_MARGIN, float(np.abs(phi).max()))
            while np.abs(phi + alpha * dphi).max() > limit:
                alpha *= 0.5
                if alpha < 1e-12:
                    raise NewtonDivergenceError(
                        f"Newton damping underflow at dt={dt:g} "
                        f"(iterate pressed against the pure states)"
                    )
        phi = phi + alpha * dphi
        phi_h = phi_h + alpha * dphi_h
        v_h = v_h + alpha * dv_h


def _pin_zero_modes(grid, phi, v, phi_n, v_n, q_vals, dt):
    """Make the surface masses exact: mean(phi') = mean(phi_n) and
    mean(v') = mean(v_n) + dt*mean(q)."""
    phi += grid.mean(phi_n) - grid.mean(phi)
    v += grid.mean(v_n) + dt * grid.mean(q_vals) - grid.mean(v)


# -- single steps --------------------------------------------------------------

def _frozen_inputs(state, params):
    """(eta, u on Gamma, q) at `state`: the inputs a step from it freezes and
    diagnose reads.  u on Gamma is the bulk trace (SurfaceField) of a full
    state and the scalar u of a reduced one.  None of them depends on dt or
    on the well, so one evaluation serves every attempt from `state` (dt
    halving and the regularized fallback included) and its diagnostics."""
    eta = chem_eta(state.phi, state.v, params.delta)
    u_gamma = (trace_boundary(state.u) if isinstance(state, FullState)
               else state.u)
    q = exchange_q(params.exchange, u_gamma, eta, state.v, state.t)
    return eta, u_gamma, q


def _surface_half(state, params, cfg, dt, counters, frozen):
    """The half of a step that both systems share: freeze q at `state`
    (from frozen, when the caller holds it), solve the implicit surface
    update and pin its zero modes.  Returns (dt, q, phi', v'), with dt
    defaulted to cfg.dt and phi', v' as SurfaceFields."""
    dt = cfg.dt if dt is None else dt
    grid = state.phi.grid
    q0 = (_frozen_inputs(state, params) if frozen is None else frozen)[2]
    phi, v, iters = _solve_surface(grid, params.potential, params.delta, dt,
                                   state.phi.values, state.v.values,
                                   q0.values, cfg)
    if counters is not None:
        counters["newton_iters"] += iters
    _pin_zero_modes(grid, phi, v, state.phi.values, state.v.values,
                    q0.values, dt)
    return dt, q0, SurfaceField(grid, phi), SurfaceField(grid, v)


def step_full(state: FullState, params: Params, cfg: StepperConfig,
              dt: float | None = None, counters: dict | None = None,
              frozen=None) -> FullState:
    """One splitting step of the bulk-surface coupled system: the surface
    half, then one diffusion step of the bulk with the same frozen q.

    frozen, when the caller holds it, is _frozen_inputs(state, params)."""
    dt, q0, phi, v = _surface_half(state, params, cfg, dt, counters, frozen)
    return FullState(state.t + dt, diffusion_step(state.u, params.D, dt, q0),
                     phi, v)


def step_reduced(state: ReducedState, params: Params, cfg: StepperConfig,
                 dt: float | None = None, counters: dict | None = None,
                 frozen=None) -> ReducedState:
    """One step of the reduced nonlocal surface system.

    The scalar bulk value is reconstructed from the conserved total mass
    after the surface half, so the mass relation is exact by construction.
    frozen, when the caller holds it, is _frozen_inputs(state, params).
    """
    dt, _, phi, v = _surface_half(state, params, cfg, dt, counters, frozen)
    u_new = reduced_u_from_mass(state.total_mass, v, state.omega_measure)
    return ReducedState(state.t + dt, u_new, phi, v, state.total_mass,
                        state.omega_measure)


def _step(state, params, cfg, dt, counters, frozen):
    if isinstance(state, FullState):
        return step_full(state, params, cfg, dt, counters, frozen=frozen)
    return step_reduced(state, params, cfg, dt, counters, frozen=frozen)


def _advance(state, params, cfg, dt, counters, fallback, frozen=None):
    """Advance by dt, halving on Newton failure down to dt_floor, then once
    more with the regularized `fallback` params (if any) before giving up.

    frozen is _frozen_inputs(state, params), evaluated here unless the
    caller holds it; the first attempt, the first half-step after a halving
    and the fallback step share it.  A fallback step whose phi leaves
    (-1, 1) raises DtUnderflowError with `state`, as the logarithmic well
    can neither step from nor diagnose such a phi.
    """
    if frozen is None:
        frozen = _frozen_inputs(state, params)
    try:
        new_state = _step(state, params, cfg, dt, counters, frozen)
        counters["substeps"] += 1
        return new_state
    except NewtonDivergenceError as exc:
        half = 0.5 * dt
        if half >= cfg.dt_floor * (1.0 - 1e-12):
            mid = _advance(state, params, cfg, half, counters, fallback, frozen)
            return _advance(mid, params, cfg, half, counters, fallback)
        if fallback is not None:
            warnings.warn(
                f"falling back to the kappa-regularized well at t={state.t:g} "
                f"(dt={dt:g})", RuntimeWarning, stacklevel=2)
            try:
                new_state = _step(state, fallback, cfg, dt, counters, frozen)
            except NewtonDivergenceError as exc2:
                raise DtUnderflowError(
                    f"step failed at dt_min={cfg.dt_floor:g} even with the "
                    f"regularized well: {exc2}", state.t, state) from exc2
            max_abs_phi = float(np.abs(new_state.phi.values).max())
            if max_abs_phi >= 1.0:
                raise DtUnderflowError(
                    f"step failed at dt_min={cfg.dt_floor:g}, and the "
                    f"regularized well's step left (-1, 1) "
                    f"(max|phi| = {max_abs_phi:.6g})", state.t, state) from exc
            counters["substeps"] += 1
            counters["fallback_steps"] += 1
            return new_state
        raise DtUnderflowError(
            f"step failed at dt_min={cfg.dt_floor:g}: {exc}", state.t, state
        ) from exc


# -- diagnostics ---------------------------------------------------------------

def diagnose(state, params: Params, newton_iters=0, substeps=0,
             fallback_steps=0, frozen=None) -> DiagnosticsRecord:
    """Evaluate the full diagnostics column set at one state.

    fft(phi), ||grad phi||^2, the well integral and the L2 norms are
    evaluated once (model._SurfaceTerms) and shared by the energies, the
    Lyapunov functional, -lap(phi) in mu and phi_h1_sq, so a call transforms
    phi, mu, eta and the mean-free phi once each and evaluates W(phi) once.
    frozen, when the caller holds it, is _frozen_inputs(state, params), which
    run shares with the next step.  Every column equals its standalone
    functional (total_energy, surface_energy, lyapunov_functional, masses,
    the grid's norms) exactly, with or without frozen.
    """
    grid = state.phi.grid
    terms = _SurfaceTerms(state.phi, state.v, params)
    if frozen is None:
        frozen = _frozen_inputs(state, params)
    eta, u_on_gamma, q = frozen
    mu = chem_mu(state.phi, eta, params.potential, phi_h=terms.phi_h)
    if isinstance(state, FullState):
        u_for_rate = u_on_gamma.values
        bulk_diss = params.D * bulk_grad_norm_sq(state.u)
        u_scalar = bulk_mean(state.u)
    else:
        u_for_rate = state.u
        bulk_diss = 0.0
        u_scalar = state.u
    combined, phi_mass = masses(state)
    surface = terms.surface_energy()
    return DiagnosticsRecord(
        t=state.t,
        total_energy=bulk_energy(state) + surface,  # as model.total_energy
        surface_energy=surface,
        lyapunov=terms.lyapunov(),
        combined_mass=combined,
        phi_mass=phi_mass,
        separation_margin=separation_margin(state.phi),
        bulk_dissipation=bulk_diss,
        mu_grad_sq=grid.h1_seminorm_sq(mu.values),
        eta_grad_sq=grid.h1_seminorm_sq(eta.values),
        exchange_integral=surface_integral(q),
        exchange_energy_rate=grid.integral(q.values * (eta.values - u_for_rate)),
        phi_h1_sq=terms.phi_l2_sq + terms.grad_sq,
        v_l2_sq=terms.v_l2_sq,
        u_scalar=u_scalar,
        newton_iters=newton_iters,
        substeps=substeps,
        fallback_steps=fallback_steps,
    )


# -- trajectory driver ----------------------------------------------------------

def run(initial, params: Params, cfg: StepperConfig, schedule: Schedule,
        on_checkpoint=None) -> Trajectory:
    """Advance `initial` to t_final, sampling diagnostics every
    sample_stride steps (plus the initial and final states).  The returned
    Trajectory holds those records and the final state.

    t_final must be a whole number of steps of dt (see whole_steps), else
    ValueError.  States along the way are observed through
    on_checkpoint(state, step_index), invoked every checkpoint_stride steps
    with the run's own state, which it must not modify.  Runs are
    deterministic: identical inputs give bit-identical trajectories, and a
    resumed run continues exactly where it left off.

    Each diagnosed state's frozen inputs (eta, u on Gamma, q; see
    _frozen_inputs) are evaluated once and shared by its diagnose and the
    _advance from it; _advance evaluates those of the other states.
    """
    dt = cfg.dt
    n_steps = whole_steps(schedule.t_final, dt)
    if n_steps is None:
        raise ValueError(
            f"t_final={schedule.t_final!r} is not an integer multiple of dt={dt!r}"
        )

    fallback = (replace(params, potential=params.potential.regularized(
        cfg.kappa_fallback)) if params.potential.kind == LOGARITHMIC else None)
    frozen = _frozen_inputs(initial, params)
    records = [diagnose(initial, params, frozen=frozen)]
    state = initial
    for i in range(1, n_steps + 1):
        counters = {"substeps": 0, "fallback_steps": 0, "newton_iters": 0}
        try:
            state = _advance(state, params, cfg, dt, counters, fallback,
                             frozen)
        except DtUnderflowError as exc:
            exc.step_index = i
            raise
        frozen = None
        if i % schedule.sample_stride == 0 or i == n_steps:
            frozen = _frozen_inputs(state, params)
            records.append(diagnose(state, params,
                                    newton_iters=counters["newton_iters"],
                                    substeps=counters["substeps"],
                                    fallback_steps=counters["fallback_steps"],
                                    frozen=frozen))
        if (schedule.checkpoint_stride and on_checkpoint is not None
                and i % schedule.checkpoint_stride == 0):
            on_checkpoint(state, i)
    return Trajectory(records=records, final_state=state)
