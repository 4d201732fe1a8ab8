"""Finite-volume/Fourier discretization of the unit disk.

The radial direction uses cell-centered finite volumes (no node at the
coordinate singularity r = 0), the angular direction is spectral and matches
a circle SurfaceGrid node-for-node on the boundary.  The implicit diffusion
step applies the prescribed boundary flux to the outermost cell balance, so
the discrete bulk mass changes by exactly -dt * (integral of the flux).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as _fft

from .surface import SurfaceField, SurfaceGrid


class DiskGrid:
    """Polar grid on the unit disk: nr radial cells x ntheta angular nodes.

    ``boundary`` is the circle grid the disk couples to; ntheta must equal
    its node count.
    """

    def __init__(self, nr: int, ntheta: int):
        if nr < 4:
            raise ValueError(f"need at least 4 radial cells, got {nr}")
        self.nr = int(nr)
        self.ntheta = int(ntheta)
        self.boundary = SurfaceGrid.circle(ntheta)
        self.dr = 1.0 / self.nr
        self.dtheta = 2.0 * np.pi / self.ntheta
        self.radii = (np.arange(self.nr) + 0.5) * self.dr
        self.faces = np.arange(self.nr + 1) * self.dr
        self.total_measure = np.pi
        # cell measure r_i * dr * dtheta; summing gives pi exactly
        self.cell_weight = self.radii * self.dr * self.dtheta
        self.modes = np.arange(self.ntheta // 2 + 1, dtype=float)
        for arr in (self.radii, self.faces, self.cell_weight, self.modes):
            arr.setflags(write=False)

    def __eq__(self, other):
        return (isinstance(other, DiskGrid) and self.nr == other.nr
                and self.ntheta == other.ntheta)

    def __hash__(self):
        return hash((self.nr, self.ntheta))

    def __repr__(self):
        return f"DiskGrid(nr={self.nr}, ntheta={self.ntheta})"


@dataclass
class BulkField:
    """Cell-centered scalar field on a DiskGrid, shape (nr, ntheta)."""

    grid: DiskGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nr, self.grid.ntheta):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.nr}, {self.grid.ntheta})"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("bulk field contains non-finite values")

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full((grid.nr, grid.ntheta), float(value)))

    def copy(self):
        return BulkField(self.grid, self.values.copy())


def bulk_integral(f: BulkField) -> float:
    return float((f.values * f.grid.cell_weight[:, None]).sum())


def bulk_mean(f: BulkField) -> float:
    return bulk_integral(f) / f.grid.total_measure


def trace_boundary(f: BulkField) -> SurfaceField:
    """Boundary values at r = 1 by linear extrapolation from the two
    outermost cell rings (second-order accurate)."""
    vals = 1.5 * f.values[-1, :] - 0.5 * f.values[-2, :]
    return SurfaceField(f.grid.boundary, vals)


def bulk_grad_norm_sq(f: BulkField) -> float:
    """Integral of |grad f|^2 over the disk.

    Radial derivative by centered differences (second-order one-sided at the
    innermost/outermost rings), angular derivative spectrally: its square
    summed over each ring comes from the forward transform by Parseval,
    sum_j (du/dtheta)_j^2 = (2/ntheta) sum_{0<k<ntheta/2} k^2 |u_k|^2.  The
    Nyquist mode carries no derivative (i k u_k is imaginary there, and a
    real field's inverse transform drops it).
    """
    g = f.grid
    u = f.values
    du_dr = np.empty_like(u)
    du_dr[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * g.dr)
    du_dr[0, :] = (-1.5 * u[0, :] + 2.0 * u[1, :] - 0.5 * u[2, :]) / g.dr
    du_dr[-1, :] = (1.5 * u[-1, :] - 2.0 * u[-2, :] + 0.5 * u[-3, :]) / g.dr
    uh = _fft.rfft(u, axis=1)[:, 1:-1]
    ring_sq = (2.0 / g.ntheta) * ((uh.real**2 + uh.imag**2) @ g.modes[1:-1]**2)
    return float((du_dr**2 * g.cell_weight[:, None]).sum()
                 + (ring_sq * g.cell_weight / g.radii**2).sum())


@lru_cache(maxsize=16)
def _diffusion_factors(grid: DiskGrid, D: float, dt: float):
    """The implicit diffusion operator of one (grid, D, dt), factored once:
    (cell, lower, cp, beta) for the Thomas substitution of diffusion_step.

    Cell balance for mode k:
      (u'_i - u_i) r_i dr = dt [ a_{i+1/2}(u'_{i+1}-u'_i)
                                 - a_{i-1/2}(u'_i-u'_{i-1}) ]
                             - dt D k^2 (dr/r_i) u'_i  + boundary/source terms
    with a_{i+1/2} = D r_{i+1/2}/dr; the inner face of cell 0 carries no
    flux (r=0) and the outer face of the last cell carries the prescribed -q.
    Only the diagonal depends on the mode.  cp and beta are the forward
    elimination's multipliers and pivots, shape (nr-1, nk) and (nr, nk);
    lower, cp and beta are stored complex (with zero imaginary parts) so the
    substitution multiplies and divides complex by complex, exactly as it
    would after casting the real values, without a cast per call.

    The cache is bounded (D ladders and dt halving add a few keys per run).
    Every run with the same key shares its arrays, including a library
    caller's runs on other threads, so they are read-only: no run can change
    another's.
    """
    r = grid.radii
    alpha = D * grid.faces / grid.dr    # (nr+1,), alpha[0] = 0
    cell = r * grid.dr                  # (nr,)
    a_in = alpha[:-1].copy()            # inner-face coefficient per cell
    a_out = alpha[1:].copy()            # outer-face coefficient per cell
    a_out[-1] = 0.0                     # outer flux prescribed, not solved
    ksq = grid.modes**2
    diag = (cell[:, None]
            + dt * (a_in + a_out)[:, None]
            + dt * D * ksq[None, :] * (grid.dr / r)[:, None])   # (nr, nk)
    lower = -dt * a_in
    upper = -dt * a_out
    cp = np.empty((grid.nr - 1, ksq.size))
    beta = np.empty_like(diag)
    beta[0] = diag[0]
    for i in range(1, grid.nr):
        cp[i - 1] = upper[i - 1] / beta[i - 1]
        beta[i] = diag[i] - lower[i] * cp[i - 1]
    factors = (cell, lower.astype(complex), cp.astype(complex),
               beta.astype(complex))
    for arr in factors:
        arr.setflags(write=False)
    return factors


def diffusion_step(u: BulkField, D: float, dt: float, q: SurfaceField,
                   source: BulkField | None = None) -> BulkField:
    """One backward-Euler step of du/dt = D*laplacian(u) + source with the
    prescribed outward flux q through the boundary (D*du/dn = -q).

    The flux enters the outermost cell balance directly, so
    bulk_integral(result) = bulk_integral(u) - dt*surface_integral(q)
    (+ dt*bulk_integral(source)) holds to roundoff.  q and source are frozen
    data for the step (explicit coupling).  The tridiagonal factorization of
    each angular mode is built once per (grid, D, dt) by _diffusion_factors;
    a call transforms u, q and the source, substitutes forward and back
    through the radial cells, and transforms back.
    """
    if dt <= 0.0 or D <= 0.0:
        raise ValueError("diffusion_step needs dt > 0 and D > 0")
    g = u.grid
    if q.grid != g.boundary:
        raise ValueError("flux field must live on the disk's boundary circle")
    cell, lower, cp, beta = _diffusion_factors(g, D, dt)

    x = _fft.rfft(u.values, axis=1) * cell[:, None]    # (nr, nk) right side
    x[-1] += dt * (-_fft.rfft(q.values))
    if source is not None:
        x += dt * (_fft.rfft(source.values, axis=1) * cell[:, None])

    rows = list(x)
    tmp = np.empty_like(rows[0])
    np.divide(rows[0], beta[0], out=rows[0])
    for i in range(1, g.nr):
        np.multiply(lower[i], rows[i - 1], out=tmp)
        np.subtract(rows[i], tmp, out=rows[i])
        np.divide(rows[i], beta[i], out=rows[i])
    for i in range(g.nr - 2, -1, -1):
        np.multiply(cp[i], rows[i + 1], out=tmp)
        np.subtract(rows[i], tmp, out=rows[i])
    return BulkField(g, _fft.irfft(x, n=g.ntheta, axis=1))
