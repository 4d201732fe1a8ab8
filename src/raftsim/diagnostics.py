"""Per-sample diagnostics emitted by simulation runs.

The scalar columns mirror the terms of the discrete energy balance (bulk
dissipation, surface potential gradients, exchange work) plus the conserved
masses and the separation margin, so every analytic property checked by the
test-suite can be read off a series file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints


@dataclass
class DiagnosticsRecord:
    t: float
    total_energy: float
    surface_energy: float
    lyapunov: float
    combined_mass: float
    phi_mass: float
    separation_margin: float
    bulk_dissipation: float      # D * ||grad u||^2 (0 for reduced runs)
    mu_grad_sq: float            # ||grad mu||^2
    eta_grad_sq: float           # ||grad eta||^2
    exchange_integral: float     # integral of q
    exchange_energy_rate: float  # integral of q (eta - u)
    phi_h1_sq: float             # ||phi||_L2^2 + ||grad phi||^2
    v_l2_sq: float               # ||v||_L2^2
    u_scalar: float              # reduced u, or the bulk mean for full runs
    newton_iters: int
    substeps: int                # dt-halving sub-steps taken for this sample
    fallback_steps: int          # sub-steps that needed the regularized well


COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))
INT_COLUMNS = tuple(name for name, kind in get_type_hints(DiagnosticsRecord).items()
                    if kind is int)
