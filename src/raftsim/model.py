"""States, parameters, exchange laws, energies and diagnostic functionals.

The coupled model evolves a bulk concentration u on the disk, an order
parameter phi (lipid composition) and a concentration v (membrane-bound
species) on the boundary surface.  The chemical potentials are

    mu  = -lap(phi) + W'(phi) - eta/2,
    eta = (2/delta) * (2 v - 1 - phi),

and the mass exchange q couples bulk and surface through the boundary flux.
Both are always recomputed from (phi, v); they are never stored as state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bulk import BulkField, bulk_integral
from .potentials import DoubleWell
from .surface import SurfaceField, surface_integral


def _require_finite(**values):
    """Refuse NaN and infinite coefficients, which no run can use; the sign
    tests that follow then need no care for NaN."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_measure(omega_measure):
    """Refuse a bulk measure that is not finite and positive."""
    _require_finite(omega_measure=omega_measure)
    if omega_measure <= 0.0:
        raise ValueError(f"omega_measure must be positive, got {omega_measure!r}")


# -- exchange laws -----------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumExchange:
    """q = -A(t) (eta - u) with A(t) = a0 * (1 + t)^(-alpha).

    alpha = 0 gives a constant coefficient; alpha > 1 is the decay regime
    required by the convergence-to-equilibrium experiment.  The exchange
    energy rate is then -A(t) * ||eta - u||^2 <= 0, so the total free energy
    is non-increasing.
    """

    a0: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        _require_finite(a0=self.a0, alpha=self.alpha)
        if self.a0 < 0.0:
            raise ValueError(f"equilibrium coefficient must be >= 0, got {self.a0}")
        if self.alpha < 0.0:
            raise ValueError(f"decay exponent must be >= 0, got {self.alpha}")

    def coefficient(self, t: float) -> float:
        if self.alpha == 0.0:
            return self.a0
        return self.a0 * (1.0 + t) ** (-self.alpha)


@dataclass(frozen=True)
class ReactionExchange:
    """q = b1 * u * (1 - v) - b2 * v (attachment/detachment kinetics)."""

    b1: float = 1.0
    b2: float = 1.0

    def __post_init__(self):
        _require_finite(b1=self.b1, b2=self.b2)
        if self.b1 <= 0.0 or self.b2 <= 0.0:
            raise ValueError("reaction rates b1, b2 must be positive")


@dataclass(frozen=True)
class CutoffReactionExchange:
    """Reaction law with the u*v product tamed by a bounded C^1 cutoff.

    cutoff(r) = r on [-h0, h0], blends to the constant +-(h0 + 1/2) with a
    C^1 quadratic ramp on h0 < |r| <= h0 + 1, and is constant beyond.
    """

    b1: float = 1.0
    b2: float = 1.0
    h0: float = 1.0

    def __post_init__(self):
        _require_finite(b1=self.b1, b2=self.b2, h0=self.h0)
        if self.b1 <= 0.0 or self.b2 <= 0.0 or self.h0 <= 0.0:
            raise ValueError("cutoff reaction needs b1, b2, h0 all positive")

    def cutoff(self, r):
        a = np.abs(r)
        s = np.clip(a - self.h0, 0.0, 1.0)     # 0 on [-h0, h0], 1 beyond h0 + 1
        return np.sign(r) * (np.minimum(a, self.h0) + s - 0.5 * s**2)


ExchangeLaw = EquilibriumExchange | ReactionExchange | CutoffReactionExchange


# -- parameters ---------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """Structural coefficients of the coupled system.

    The interface width is fixed at 1.  The bulk volume of the reduced
    model's mass relation is carried by ReducedState.omega_measure.
    """

    D: float = 1.0
    delta: float = 1.0
    potential: DoubleWell = field(default_factory=DoubleWell)
    exchange: ExchangeLaw = field(default_factory=ReactionExchange)

    def __post_init__(self):
        _require_finite(D=self.D, delta=self.delta)
        if self.D <= 0.0:
            raise ValueError(f"diffusivity D must be positive, got {self.D}")
        if self.delta <= 0.0:
            raise ValueError(f"affinity delta must be positive, got {self.delta}")


# -- states -------------------------------------------------------------------

@dataclass
class FullState:
    """Unknowns of the bulk-surface coupled system at one instant."""

    t: float
    u: BulkField
    phi: SurfaceField
    v: SurfaceField

    def __post_init__(self):
        if self.phi.grid != self.v.grid:
            raise ValueError("phi and v must share one surface grid")
        if self.u.grid.boundary != self.phi.grid:
            raise ValueError("bulk boundary circle must match the surface grid")

    def copy(self):
        return FullState(self.t, self.u.copy(), self.phi.copy(), self.v.copy())


@dataclass
class ReducedState:
    """Unknowns of the large-diffusion (nonlocal surface) model.

    The bulk concentration collapses to the scalar u tied to v through the
    conserved total mass: omega_measure * u + integral(v) = total_mass.
    """

    t: float
    u: float
    phi: SurfaceField
    v: SurfaceField
    total_mass: float
    omega_measure: float = math.pi

    def __post_init__(self):
        if self.phi.grid != self.v.grid:
            raise ValueError("phi and v must share one surface grid")
        _require_finite(u=self.u, total_mass=self.total_mass)
        _require_measure(self.omega_measure)
        lhs = self.omega_measure * self.u + surface_integral(self.v)
        if abs(lhs - self.total_mass) > 1e-10 * max(1.0, abs(self.total_mass)):
            raise ValueError(
                f"mass relation violated: |Omega| u + int(v) = {lhs!r}, "
                f"expected {self.total_mass!r}"
            )

    @classmethod
    def from_mass(cls, t, phi, v, total_mass, omega_measure=math.pi):
        _require_measure(omega_measure)  # before u divides by it
        u = reduced_u_from_mass(total_mass, v, omega_measure)
        return cls(t, u, phi, v, total_mass, omega_measure)

    def copy(self):
        return ReducedState(self.t, self.u, self.phi.copy(), self.v.copy(),
                            self.total_mass, self.omega_measure)


State = FullState | ReducedState


# -- chemical potentials and exchange ----------------------------------------

def chem_eta(phi: SurfaceField, v: SurfaceField, delta: float) -> SurfaceField:
    """eta = (2/delta) (2 v - 1 - phi)."""
    return SurfaceField(phi.grid, (2.0 / delta) * (2.0 * v.values - 1.0 - phi.values))


def chem_mu(phi: SurfaceField, eta: SurfaceField, potential: DoubleWell,
            phi_h=None) -> SurfaceField:
    """mu = -lap(phi) + W'(phi) - eta/2.

    phi_h, when the caller already holds it, is grid.fft(phi.values).
    """
    grid = phi.grid
    if phi_h is None:
        phi_h = grid.fft(phi.values)
    vals = (-grid.ifft(grid.lap_symbol * phi_h)
            + potential.deriv(phi.values)
            - 0.5 * eta.values)
    return SurfaceField(grid, vals)


def exchange_q(law: ExchangeLaw, u_on_gamma, eta: SurfaceField,
               phi: SurfaceField, v: SurfaceField, t: float) -> SurfaceField:
    """Mass exchange rate on the surface.

    u_on_gamma is the bulk trace (SurfaceField) for the coupled system or the
    scalar bulk value for the reduced one.
    """
    grid = v.grid
    u_vals = u_on_gamma.values if isinstance(u_on_gamma, SurfaceField) else float(u_on_gamma)
    if isinstance(law, EquilibriumExchange):
        q = -law.coefficient(t) * (eta.values - u_vals)
        return SurfaceField(grid, q)
    if isinstance(law, ReactionExchange):
        q = law.b1 * u_vals * (1.0 - v.values) - law.b2 * v.values
        return SurfaceField(grid, q)
    if isinstance(law, CutoffReactionExchange):
        q = (law.b1 * u_vals - law.b1 * law.cutoff(u_vals) * v.values
             - law.b2 * v.values)
        return SurfaceField(grid, q)
    raise TypeError(f"unknown exchange law {law!r}")


def reduced_u_from_mass(total_mass: float, v: SurfaceField,
                        omega_measure: float = math.pi) -> float:
    """Scalar bulk value enforcing omega_measure*u + integral(v) = total_mass."""
    return (total_mass - surface_integral(v)) / omega_measure


# -- energies and masses -------------------------------------------------------

def affinity_deviation(phi: SurfaceField, v: SurfaceField) -> np.ndarray:
    """Pointwise v - (1 + phi)/2, the binding mismatch."""
    return v.values - 0.5 * (1.0 + phi.values)


class _SurfaceTerms:
    """fft(phi) and the terms of (phi, v) that the surface energy, the
    Lyapunov functional and the diagnostics share, each evaluated once:
    ||grad phi||^2, the well integral and the squared L2 norms."""

    def __init__(self, phi: SurfaceField, v: SurfaceField, params: Params):
        grid = phi.grid
        self.phi, self.v, self.delta = phi, v, params.delta
        self.phi_h = grid.fft(phi.values)
        self.grad_sq = grid.h1_seminorm_sq_of_coeffs(self.phi_h)
        self.well = grid.integral(params.potential.value(phi.values))
        self.phi_l2_sq = grid.l2_norm(phi.values) ** 2
        self.v_l2_sq = grid.l2_norm(v.values) ** 2

    def surface_energy(self) -> float:
        grid = self.phi.grid
        affinity = (2.0 / self.delta) * grid.integral(
            affinity_deviation(self.phi, self.v) ** 2)
        return 0.5 * self.grad_sq + self.well + affinity

    def lyapunov(self) -> float:
        grid = self.phi.grid
        d = self.delta
        pv = grid.integral(self.phi.values * self.v.values)
        phi_dev = self.phi.values - grid.mean(self.phi.values)
        return (0.5 * self.grad_sq
                + self.well
                + (2.0 / d) * self.v_l2_sq
                - (2.0 / d) * pv
                + (0.5 / d) * self.phi_l2_sq
                + 0.5 * grid.hminus1_norm(phi_dev) ** 2)


def surface_energy(phi: SurfaceField, v: SurfaceField, params: Params) -> float:
    """Surface free energy: gradient + well + binding affinity terms."""
    return _SurfaceTerms(phi, v, params).surface_energy()


def bulk_energy(state: State) -> float:
    """Bulk quadratic part of the total free energy."""
    if isinstance(state, FullState):
        # bulk_integral of u**2, without a checked BulkField around it
        u = state.u
        return 0.5 * float((u.values**2 * u.grid.cell_weight[:, None]).sum())
    return 0.5 * state.omega_measure * state.u**2


def total_energy(state: State, params: Params) -> float:
    """Total free energy: bulk quadratic part plus the surface energy."""
    return bulk_energy(state) + surface_energy(state.phi, state.v, params)


def masses(state: State) -> tuple[float, float]:
    """(combined bulk+surface mass, surface mass of phi)."""
    if isinstance(state, FullState):
        combined = bulk_integral(state.u) + surface_integral(state.v)
    else:
        combined = state.omega_measure * state.u + surface_integral(state.v)
    return combined, surface_integral(state.phi)


def lyapunov_functional(phi: SurfaceField, v: SurfaceField,
                        params: Params) -> float:
    """Dissipative Lyapunov functional of the reduced reaction model.

    Bounded below by c (||phi||_H1^2 + ||v||^2) - C on admissible states and
    decaying exponentially (up to a constant) along reduced trajectories.
    """
    return _SurfaceTerms(phi, v, params).lyapunov()


def separation_margin(phi: SurfaceField) -> float:
    """Distance 1 - max|phi| from the pure states."""
    return 1.0 - float(np.abs(phi.values).max())


def energy_identity_residual(records, params: Params) -> float:
    """Defect of the discrete energy balance over a recorded segment.

    Expects per-step records (sample stride 1) carrying total_energy, the
    dissipation columns and the exchange energy rate; time integrals use
    left-endpoint quadrature, matching the first-order stepper.
    """
    if len(records) < 2:
        return 0.0
    dissipated = 0.0
    exchanged = 0.0
    for rec, nxt in zip(records[:-1], records[1:]):
        dt = nxt.t - rec.t
        dissipated += dt * (rec.bulk_dissipation + rec.mu_grad_sq + rec.eta_grad_sq)
        exchanged += dt * rec.exchange_energy_rate
    return float(abs(records[-1].total_energy - records[0].total_energy
                     + dissipated - exchanged))
