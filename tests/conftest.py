"""Shared builders for the test suite."""

import warnings

import numpy as np

import raftsim as rs

# Hypothesis reports a failing example through hypothesis.extra._patching,
# whose libcst import subclasses the deprecated mypy_extensions.TypedDict.
# Under -W error::DeprecationWarning that import raised inside the plugin and
# aborted the session; imported once here, with only that warning ignored,
# the report finds it loaded.  Without libcst the plugin skips the report.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def lowpass_field(grid, seed, amplitude, cutoff=6, mean=0.0):
    """Deterministic smooth random surface field with exact mean."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape)
    coeffs = grid.fft(noise)
    if grid.kind == "circle":
        n = grid.shape[0]
        k = np.arange(n // 2 + 1)
        mask = (k >= 1) & (k <= cutoff)
    else:
        nx, ny = grid.shape
        kx = np.abs(np.fft.fftfreq(nx, d=1.0 / nx))
        ky = np.abs(np.fft.rfftfreq(ny, d=1.0 / ny))
        mask = (kx[:, None] <= cutoff) & (ky[None, :] <= cutoff)
        mask[0, 0] = False
    vals = grid.ifft(coeffs * mask)
    vals *= amplitude / np.max(np.abs(vals))
    vals -= grid.mean(vals)
    return rs.SurfaceField(grid, vals + mean)


def reduced_state(grid, seed=7, amplitude=0.2, v0=0.5, u0=1.0,
                  omega=np.pi, cutoff=6):
    phi = lowpass_field(grid, seed, amplitude, cutoff)
    v = rs.SurfaceField.constant(grid, v0)
    total = omega * u0 + rs.surface_integral(v)
    return rs.ReducedState(0.0, u0, phi, v, total, omega)


def full_state(disk, seed=7, amplitude=0.2, v0=0.5, u0=1.0, cutoff=6):
    grid = disk.boundary
    phi = lowpass_field(grid, seed, amplitude, cutoff)
    v = rs.SurfaceField.constant(grid, v0)
    u = rs.BulkField.constant(disk, u0)
    return rs.FullState(0.0, u, phi, v)
