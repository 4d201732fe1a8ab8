"""Configuration, persistence, experiments and the command-line interface."""

from .config import (
    ConfigError,
    ExperimentConfig,
    GeometryConfig,
    InitialConfig,
    RunConfig,
    parse_config,
    serialize_config,
)
from .experiments import (
    experiment_absorbing,
    experiment_equilibrium_convergence,
    experiment_kappa_refinement,
    experiment_large_d,
)
from .io import (
    CorruptSnapshotError,
    SnapshotMismatchError,
    param_hash,
    read_series,
    read_snapshot,
    write_series,
    write_snapshot,
)
