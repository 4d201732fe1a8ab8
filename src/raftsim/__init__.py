"""raftsim: bulk-surface coupled phase-separation simulator.

Simulates a conserved order parameter and a bound-species concentration on a
closed surface (circle or flat torus), coupled through mass exchange to a
diffusing bulk species on the unit disk, with equilibrium and reaction-type
exchange laws, a singular logarithmic well, stationary-state solvers and a
diagnostics layer for the model's conservation and dissipation structure.
"""

from .bulk import BulkField, DiskGrid, bulk_grad_norm_sq, bulk_integral, bulk_mean, diffusion_step, trace_boundary
from .diagnostics import COLUMNS, DiagnosticsRecord
from .model import (
    CutoffReactionExchange,
    EquilibriumExchange,
    FullState,
    Params,
    ReactionExchange,
    ReducedState,
    chem_eta,
    chem_mu,
    energy_identity_residual,
    exchange_q,
    lyapunov_functional,
    masses,
    reduced_u_from_mass,
    separation_margin,
    surface_energy,
    total_energy,
)
from .potentials import (
    LOGARITHMIC,
    POLYNOMIAL,
    REGULARIZED,
    DoubleWell,
    PotentialDomainError,
    PotentialSingularityError,
)
from .steady import (
    EquilibriumSolution,
    NonConvergenceError,
    StartStateError,
    postprocess_constants,
    solve_stationary_phi,
    steady_residual,
)
from .stepper import (
    DtUnderflowError,
    NewtonDivergenceError,
    Schedule,
    StepperConfig,
    Trajectory,
    diagnose,
    run,
    step_full,
    step_reduced,
)
from .surface import (
    MeanFreeError,
    SurfaceField,
    SurfaceGrid,
    surface_integral,
)

__version__ = "0.1.0"
