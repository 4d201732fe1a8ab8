"""Stationary states of the surface phase-separation problem.

The limiting order parameter solves the nonlocal elliptic problem

    -lap(phi) + W'(phi) = <W'(phi)>,    <phi> = m,

and the remaining equilibrium constants (u, mu, eta and the total of v)
follow from linear relations: the conserved bulk+surface mass, the constancy
of the chemical potentials, and 2 v - phi being constant on a connected
closed surface.  When the exchange coefficient has a positive limit the
additional constraint u = eta pins the total of v uniquely; otherwise the
caller must supply it (e.g. from a dynamic run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import DoubleWell, LOGARITHMIC, SEPARATION_MARGIN
from .surface import SurfaceField, SurfaceGrid, gmres, mean_free_matrix

_MAX_STEPS = 500  # linear solves a stationary solve may take


class StartStateError(ValueError):
    """The stationary solve refuses its mean value or initial guess."""


class NonConvergenceError(RuntimeError):
    """Stationary solve missed the residual target; carries the best value."""

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = best_residual


def _residual_field(grid, potential, phi):
    """-lap(phi) + W'(phi) - <W'(phi)>, the L2 gradient of the energy on
    the mean-m slice."""
    wp = potential.deriv(phi)
    return -grid.laplacian(phi) + wp - grid.mean(wp)


def steady_residual(phi: SurfaceField, potential: DoubleWell) -> float:
    """L2 norm of -lap(phi) + W'(phi) - <W'(phi)>."""
    return phi.grid.l2_norm(_residual_field(phi.grid, potential, phi.values))


def _step_solver(grid, kmin_sq):
    """Return solve(wpp, rhs, dt), the mean-free delta with
    (K^-1/dt + J) delta = rhs on the mean-free slice, where K = -lap and
    J = -lap + W''(phi) with wpp = W''(phi); None if GMRES does not
    converge.  kmin_sq is the grid's smallest nonzero |k|^2."""
    ksq = grid.ksq

    if grid.solves_densely:
        # ksq_mat's zero mode 1 keeps the system nonsingular; W'' is
        # indefinite, so LU, not Cholesky
        kinv_mat = grid.circulant(grid.inv_ksq)
        ksq_mat = grid.circulant(np.where(ksq > 0, ksq, 1.0))

        def solve(wpp, rhs, dt):
            return np.linalg.solve(mean_free_matrix(kinv_mat / dt + ksq_mat, wpp),
                                   rhs)
        return solve

    fft, ifft = grid.fft, grid.ifft
    zero = (0,) * ksq.ndim

    def solve(wpp, rhs, dt):
        sym = grid.inv_ksq / dt + ksq
        shift = max(0.5 * (float(wpp.min()) + float(wpp.max())), -0.9 * kmin_sq)
        prec_sym = sym + shift
        prec_sym[zero] = 1.0

        # every Krylov vector has a zero mode of 0, as rhs_h has
        def matvec(xh):
            out = sym * xh + fft(wpp * ifft(xh))
            out[zero] = 0.0
            return out

        rhs_h = fft(rhs)
        rhs_h[zero] = 0.0
        sol, _, ok = gmres(matvec, rhs_h, 1.0 / prec_sym, rtol=1e-12)
        return ifft(sol) if ok else None
    return solve


def _unstable_constant(grid, potential, phi, init_vals, kmin_sq):
    """True when the solve collapsed a genuinely varying guess onto a
    constant state that is linearly unstable (kmin_sq + W''(m) < 0, with
    kmin_sq the smallest nonzero |k|^2), i.e. onto a saddle the conservative
    flow would leave."""
    if np.ptp(phi) > 1e-8 or np.ptp(init_vals) < 1e-6:
        return False
    return kmin_sq + float(potential.second(grid.mean(phi))) < 0.0


def solve_stationary_phi(grid: SurfaceGrid, potential: DoubleWell, m: float,
                         init: SurfaceField, tol: float = 1e-10) -> SurfaceField:
    """Solve the constrained stationary problem with mean value m.

    Pseudo-transient continuation (Kelley & Keyes 1998) along the
    conservative H^-1 gradient flow of the energy: each step solves
    (K^-1/dt + J) delta = -F once on the mean-m slice, with K = -lap,
    J = -lap + W''(phi) and F the steady residual field; by a dense LU of
    the stepper's mean-free assembly (surface.mean_free_matrix) where the
    grid solves densely, by surface.gmres otherwise.  dt starts at 0.05 and
    follows switched evolution relaxation, dt <- dt ||F_old|| / ||F_new||,
    with the factor clamped to [1.2, 10], so the loop turns into Newton's
    method near a root.  A step is taken only if it descends the energy
    (<F, delta> < 0), else dt is halved; a non-finite candidate, one that
    raises ||F|| more than tenfold, or a failed Krylov solve cuts dt by 4.
    Iterates are damped to stay inside |phi| < 1 on the logarithmic well.
    Raises NonConvergenceError with the best residual if the target is not
    met within _MAX_STEPS (500) linear solves, or if a varying guess ends on a
    linearly unstable constant state (a saddle), and StartStateError if it
    refuses m or the guess.
    """
    if not -1.0 < m < 1.0:
        raise StartStateError(f"mean value must lie in (-1, 1), got {m}")
    if init.grid != grid:
        raise StartStateError("initial guess lives on a different grid")
    phi = init.values - grid.mean(init.values) + m
    singular = potential.kind == LOGARITHMIC
    if singular and np.max(np.abs(phi)) > 1.0 - SEPARATION_MARGIN:
        raise StartStateError("initial guess must satisfy max|phi| < 1")

    init_vals = phi.copy()
    kmin_sq = float(grid.ksq[grid.ksq > 0].min())
    solve = _step_solver(grid, kmin_sq)
    res_field = _residual_field(grid, potential, phi)
    res = best = grid.l2_norm(res_field)
    dt = 0.05
    for _ in range(_MAX_STEPS):
        if res <= tol:
            break
        dphi = solve(potential.second(phi), -res_field, dt)
        if dphi is not None:
            dphi -= grid.mean(dphi)
            if grid.integral(res_field * dphi) >= 0.0:
                dt *= 0.5  # not a descent direction of the energy
                continue
            alpha = 1.0
            while (singular and np.max(np.abs(phi + alpha * dphi))
                   > 1.0 - SEPARATION_MARGIN):
                alpha *= 0.5
            cand = phi + alpha * dphi
            cand_field = _residual_field(grid, potential, cand)
            cand_res = grid.l2_norm(cand_field)
        if dphi is None or not cand_res <= 10.0 * res:
            dt *= 0.25
            continue
        # Unclamped, the factor shrinks dt while the flow leaves a saddle,
        # where ||F|| rightly grows, and lets dt jump past the stability
        # limit of a negative-curvature mode the descent test cannot see.
        dt *= min(max(res / cand_res, 1.2), 10.0) if cand_res > 0.0 else 10.0
        phi, res_field, res = cand, cand_field, cand_res
        best = min(best, res)
    if res > tol:
        raise NonConvergenceError(
            f"stationary solve stalled at residual {best:.3e} (target {tol:g}) "
            f"after {_MAX_STEPS} steps", best)
    if _unstable_constant(grid, potential, phi, init_vals, kmin_sq):
        raise NonConvergenceError(
            f"the varying guess converged onto the constant state {m:g}, a "
            "linearly unstable saddle of the energy; the guess lacks the "
            "unstable mode the flow would follow", res)
    return SurfaceField(grid, phi)


@dataclass
class EquilibriumSolution:
    """Stationary state with its post-processed constants.

    v_total is the surface integral of v_inf; u_inf, mu_inf and eta_inf are
    the constant limits of the bulk value and the chemical potentials, each
    defined by one linear relation (see postprocess_constants).
    """

    phi_inf: SurfaceField
    v_inf: SurfaceField
    u_inf: float
    mu_inf: float
    eta_inf: float
    v_total: float


def postprocess_constants(phi_inf: SurfaceField, total_mass: float,
                          phi0_mass: float, delta: float,
                          omega_measure: float, potential: DoubleWell,
                          a_inf_positive: bool = True,
                          v_total: float | None = None) -> EquilibriumSolution:
    """Determine (v_inf, u_inf, mu_inf, eta_inf) from a stationary phi.

    Each constant comes from its defining relation, with V = v_total and
    m = phi0_mass: u_inf from the mass |Omega| u + V = total_mass, eta_inf
    from delta |Gamma| eta = 4 V - 2 (|Gamma| + m), v_inf from 2 v - phi
    being constant with total V, and mu_inf from eta/2 + mu = <W'(phi)>.
    With a_inf_positive the limit satisfies u = eta, which pins V by a
    linear relation with strictly positive coefficients; otherwise the
    limit theory leaves V free and it must be given.  The one check is on
    the input: ValueError unless <phi_inf> = m/|Gamma| to 1e-12.
    """
    g = phi_inf.grid
    gamma = g.total_measure
    if abs(g.mean(phi_inf.values) - phi0_mass / gamma) > 1e-12:
        raise ValueError("equilibrium violates the phi mass constraint")
    if a_inf_positive:
        # u = eta combined with the mass and eta relations:
        #   (M - V)/|Omega| = 4 V/(delta |Gamma|) - 2/delta - 2 m/(delta |Gamma|)
        num = total_mass / omega_measure + 2.0 / delta \
            + 2.0 * phi0_mass / (delta * gamma)
        den = 1.0 / omega_measure + 4.0 / (delta * gamma)
        v_total = num / den
    elif v_total is None:
        raise ValueError(
            "with a vanishing exchange coefficient the total of v is not "
            "determined by the limit equations; pass v_total explicitly")

    u_inf = (total_mass - v_total) / omega_measure
    eta_inf = (4.0 * v_total - 2.0 * (gamma + phi0_mass)) / (delta * gamma)
    # 2 v - phi is constant; fix the constant from the prescribed total of v.
    const = (2.0 * v_total - phi0_mass) / gamma
    v_inf = SurfaceField(g, 0.5 * (phi_inf.values + const))
    mu_inf = g.mean(potential.deriv(phi_inf.values)) - 0.5 * eta_inf
    return EquilibriumSolution(phi_inf=phi_inf, v_inf=v_inf, u_inf=u_inf,
                               mu_inf=mu_inf, eta_inf=eta_inf, v_total=v_total)
