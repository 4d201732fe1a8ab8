"""Correctness gates applied to every benchmark operation.

Each gate returns a list of violations; an empty list means the output
passed.  The tolerances are the model's invariants as the acceptance suite
states them, and are fixed here.
"""

from __future__ import annotations

import hashlib

import numpy as np

MASS_TOL = 1e-10          # relative drift of phi_mass and combined_mass
ENERGY_REL_TOL = 1e-10    # per-step energy increase / max|E| (criterion 3)
MEAN_TOL = 1e-12          # |mean(phi) - m| of a stationary solution


def mass_drift(records, surface_measure):
    """phi_mass drift over |Gamma| and combined_mass drift over its initial
    value, at every sample against the first."""
    phi = np.array([r.phi_mass for r in records])
    comb = np.array([r.combined_mass for r in records])
    phi_drift = float(np.max(np.abs(phi - phi[0]))) / surface_measure
    comb_drift = float(np.max(np.abs(comb - comb[0]))) / abs(comb[0])
    out = []
    if not phi_drift <= MASS_TOL:
        out.append(f"phi_mass drift {phi_drift:.3e} > {MASS_TOL:g}")
    if not comb_drift <= MASS_TOL:
        out.append(f"combined_mass drift {comb_drift:.3e} > {MASS_TOL:g}")
    return out


def separation(records):
    """max|phi| < 1 at every sample (separation_margin = 1 - max|phi|)."""
    margins = np.array([r.separation_margin for r in records])
    if np.all(margins > 0.0):
        return []
    worst = int(np.argmin(margins))
    return [f"max|phi| = {1.0 - margins[worst]!r} >= 1 at t={records[worst].t:g}"]


def energy_nonincreasing(records):
    """Total energy never rises by more than 1e-10 of its largest magnitude."""
    energies = np.array([r.total_energy for r in records])
    rise = float(np.max(np.diff(energies))) if len(energies) > 1 else 0.0
    bound = ENERGY_REL_TOL * float(np.max(np.abs(energies)))
    if rise <= bound:
        return []
    return [f"total energy rose by {rise:.3e} (tolerance {bound:.3e})"]


def strictly_decreasing(values, label):
    if all(a > b for a, b in zip(values[:-1], values[1:])):
        return []
    return [f"{label} not strictly decreasing: {list(values)}"]


def stationary(phi, grid, potential, m, tol, residual):
    """A steady result meets the residual target and the mean constraint,
    and is not a linearly unstable constant (k_min^2 + W''(m) < 0)."""
    out = []
    if not residual <= tol:
        out.append(f"steady residual {residual:.3e} > tol {tol:g}")
    mean = grid.mean(phi)
    if not abs(mean - m) <= MEAN_TOL:
        out.append(f"mean {mean!r} differs from m = {m!r}")
    ksq = -grid.lap_symbol
    kmin_sq = float(np.min(ksq[ksq > 0]))
    if np.ptp(phi) <= 1e-8 and kmin_sq + float(potential.second(mean)) < 0.0:
        out.append(f"linearly unstable constant state at m = {mean:.6g}")
    return out


def state_digest(state):
    """SHA-256 of a state's time and fields (bulk u, phi, v; reduced scalars)."""
    h = hashlib.sha256()
    h.update(float(state.t).hex().encode())
    u = state.u
    if hasattr(u, "values"):
        h.update(np.ascontiguousarray(u.values, dtype="<f8").tobytes())
    else:
        for scalar in (u, state.total_mass, state.omega_measure):
            h.update(float(scalar).hex().encode())
    for field in (state.phi, state.v):
        h.update(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    return h.hexdigest()
