"""Spectral calculus on closed flat surfaces: the unit circle and flat tori.

Fields live on uniform nodes; the Laplace-Beltrami operator, its inverse on
mean-free fields, integrals and Sobolev norms are all evaluated through real
FFTs, so trigonometric eigenfunctions are reproduced to machine precision and
every surface operator is exact below the Nyquist limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

CIRCLE = "circle"
TORUS = "torus"

# relative slack of the Parseval bounds in SurfaceGrid.ifft_within
_BOUND_SLACK = 1e-10


class MeanFreeError(ValueError):
    """Operation requires a mean-free field but received one with mass."""


class SurfaceGrid:
    """Uniform spectral grid on the unit circle or a flat periodic torus.

    Instances are immutable; all cached arrays are read-only.  Node layout:
    circle -> shape (n,) at angles 2*pi*j/n; torus -> shape (nx, ny) at
    (j*lx/nx, k*ly/ny).  inv_ksq is the symbol 1/|k|^2 in rfft layout, with
    zero mode 0: the inverse of -lap on mean-free fields.
    """

    def __init__(self, kind, shape, lengths):
        if kind not in (CIRCLE, TORUS):
            raise ValueError(f"unknown surface kind {kind!r}")
        for n in shape:
            if n < 8 or n % 2 != 0:
                raise ValueError(f"node counts must be even and >= 8, got {shape}")
        for L in lengths:
            if not L > 0.0:
                raise ValueError(f"side lengths must be positive, got {lengths}")
        self.kind = kind
        self.shape = tuple(shape)
        self.lengths = tuple(float(L) for L in lengths)
        self.node_count = int(np.prod(self.shape))
        self.total_measure = float(np.prod(self.lengths))
        self.node_weight = self.total_measure / self.node_count

        if kind == CIRCLE:
            n = self.shape[0]
            k = np.arange(n // 2 + 1, dtype=float)  # integer wavenumbers
            ksq = k**2
            dbl = np.ones(n // 2 + 1)
            dbl[1:] = 2.0
            if n % 2 == 0:
                dbl[-1] = 1.0
            self._neg_kx = None
        else:
            nx, ny = self.shape
            lx, ly = self.lengths
            kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=lx / nx)
            ky = 2.0 * np.pi * np.fft.rfftfreq(ny, d=ly / ny)
            ksq = kx[:, None] ** 2 + ky[None, :] ** 2
            dbl = np.ones((nx, ny // 2 + 1))
            dbl[:, 1:] = 2.0
            if ny % 2 == 0:
                dbl[:, -1] = 1.0
            self._neg_kx = -np.arange(nx) % nx   # row of mode -kx
        self._ksq = ksq
        # rfft halves the last axis; `dbl` restores the conjugate modes in
        # Parseval sums.
        self._dbl = dbl.ravel()
        self._parseval = dbl * (self.total_measure / self.node_count**2)
        inv = np.zeros_like(ksq)
        nonzero = ksq > 0
        inv[nonzero] = 1.0 / ksq[nonzero]
        self.inv_ksq = inv
        for arr in (self._ksq, self._dbl, self._parseval, self.inv_ksq):
            arr.setflags(write=False)

    @classmethod
    def circle(cls, n: int) -> "SurfaceGrid":
        """Unit circle with n uniformly spaced nodes (measure 2*pi)."""
        return cls(CIRCLE, (n,), (2.0 * np.pi,))

    @classmethod
    def torus(cls, nx: int, ny: int, lx: float = 2.0 * np.pi,
              ly: float = 2.0 * np.pi) -> "SurfaceGrid":
        """Flat torus of side lengths (lx, ly) with nx*ny nodes."""
        return cls(TORUS, (nx, ny), (lx, ly))

    def nodes(self):
        """Node coordinates: angles for the circle, (x, y) meshes for the torus."""
        if self.kind == CIRCLE:
            n = self.shape[0]
            return 2.0 * np.pi * np.arange(n) / n
        nx, ny = self.shape
        x = self.lengths[0] * np.arange(nx) / nx
        y = self.lengths[1] * np.arange(ny) / ny
        return np.meshgrid(x, y, indexing="ij")

    # -- transforms --------------------------------------------------------

    def fft(self, values):
        if self.kind == CIRCLE:
            return _fft.rfft(values)
        return _fft.rfft2(values)

    def ifft(self, coeffs):
        if self.kind == CIRCLE:
            return _fft.irfft(coeffs, n=self.shape[0])
        return _fft.irfft2(coeffs, s=self.shape)

    def ifft_within(self, tol, *coeffs):
        """Whether max|ifft(c)| <= tol for every c of `coeffs` (rfft layout):
        True or False, or None when a coefficient is not finite (where the
        answer is no as well).

        With N nodes and C the full spectrum that ifft reads from c,
        rms = sqrt(sum |C|^2)/N and l1 = sum |C|/N bound the max from both
        sides, so a c with rms > tol is out and one with l1 <= tol is in;
        only a c that neither bound settles is transformed.  Both bounds
        carry the relative slack _BOUND_SLACK, which on grids of up to a
        million nodes exceeds the rounding of the sums (n u) and of the
        transform (about log2(N) u ||ifft(c)||_2, Higham, Accuracy and
        Stability of Numerical Algorithms, 2002, sec. 24.1), so every answer
        is the transform's.
        """
        n = self.node_count
        sums = []
        for c in coeffs:
            a = np.abs(c)
            # irfft reads the zero and Nyquist lines of the last axis as
            # their own conjugates, i.e. only their Hermitian parts
            if self.kind == CIRCLE:
                a[0], a[-1] = abs(c[0].real), abs(c[-1].real)
            else:
                step = c.shape[1] - 1
                ends = c[:, ::step]
                # inf - inf makes NaN quietly: a non-finite c returns None
                with np.errstate(invalid="ignore"):
                    herm = ends + ends[self._neg_kx].conj()
                # modes kx = 0 and nx/2 are their own conjugates: real parts
                herm.imag[::self.shape[0] // 2] = 0.0
                np.multiply(np.abs(herm), 0.5, out=a[:, ::step])
            a = a.ravel()
            l1 = self._dbl @ a
            if not np.isfinite(l1):
                return None
            sums.append((l1, self._dbl @ (a * a)))
        bound = tol * n
        for c, (l1, l2) in zip(coeffs, sums):
            if l2 > (bound * (1.0 + _BOUND_SLACK)) ** 2:
                return False
            if (l1 * (1.0 + _BOUND_SLACK) > bound
                    and not np.abs(self.ifft(c)).max() <= tol):
                return False
        return True

    @property
    def lap_symbol(self):
        """Multiplier of the Laplace-Beltrami operator in rfft layout (-|k|^2)."""
        return -self._ksq

    def circulant(self, symbol):
        """Dense physical-space matrix of the Fourier multiplier `symbol`
        (rfft layout; circle grids only), built with one batched transform."""
        if self.kind != CIRCLE:
            raise ValueError("dense operators are only built for circle grids")
        n = self.shape[0]
        basis_h = _fft.rfft(np.eye(n), axis=0)
        return _fft.irfft(symbol[:, None] * basis_h, n=n, axis=0)

    @property
    def solves_densely(self):
        """True on circles of up to 512 nodes, which always solve densely;
        every other grid takes GMRES, which near the pure states fails on
        such circles (32, 64 nodes) or needs thousands of iterations (128)."""
        return self.kind == CIRCLE and self.node_count <= 512

    # -- calculus on raw arrays ---------------------------------------------
    # Reductions call the array's own method: the same ufunc reduction as
    # NumPy's module-level wrapper, bit for bit, at a fraction of its cost.

    def laplacian(self, values):
        return self.ifft(-self._ksq * self.fft(values))

    def _check_mean_free(self, values, what):
        if abs(self.mean(values)) > 1e-10 * self.l2_norm(values):
            raise MeanFreeError(f"{what} needs a mean-free field")

    def inverse_laplacian(self, values):
        """Mean-free g with laplacian(g) = values; rejects fields with mass."""
        self._check_mean_free(values, "inverse Laplacian")
        return self.ifft(self.fft(values) * -self.inv_ksq)

    def integral(self, values):
        return float(np.asarray(values).sum()) * self.node_weight

    def mean(self, values):
        return self.integral(values) / self.total_measure

    def l2_norm(self, values):
        return math.sqrt((np.asarray(values) ** 2).sum() * self.node_weight)

    def h1_seminorm_sq(self, values):
        return self.h1_seminorm_sq_of_coeffs(self.fft(values))

    def h1_seminorm_sq_of_coeffs(self, coeffs):
        """h1_seminorm_sq of the field whose transform is `coeffs`."""
        return float((self._parseval * self._ksq * np.abs(coeffs) ** 2).sum())

    def hminus1_norm(self, values):
        """Dual-space norm ||grad^-1 f||_L2 of a mean-free field."""
        self._check_mean_free(values, "H^-1 norm")
        coeffs = self.fft(values)
        return math.sqrt(
            (self._parseval * self.inv_ksq * np.abs(coeffs) ** 2).sum())

    def spectral_l2_sq(self, values):
        """Parseval form of the squared L2 norm (equals quadrature exactly)."""
        coeffs = self.fft(values)
        return float((self._parseval * np.abs(coeffs) ** 2).sum())

    def __eq__(self, other):
        return (
            isinstance(other, SurfaceGrid)
            and self.kind == other.kind
            and self.shape == other.shape
            and self.lengths == other.lengths
        )

    def __hash__(self):
        return hash((self.kind, self.shape, self.lengths))

    def __repr__(self):
        if self.kind == CIRCLE:
            return f"SurfaceGrid.circle({self.shape[0]})"
        return (f"SurfaceGrid.torus({self.shape[0]}, {self.shape[1]}, "
                f"lx={self.lengths[0]:g}, ly={self.lengths[1]:g})")


@dataclass
class SurfaceField:
    """Nodal scalar field on a SurfaceGrid."""

    grid: SurfaceGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("surface field contains non-finite values")

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self):
        return SurfaceField(self.grid, self.values.copy())


def mean_free_matrix(g_mat, m, scale=1.0):
    """G + scale P diag(m) P in a fresh buffer, with G = g_mat and P the
    mean-free projector; P M P enters as M plus the rank-2 update
    -(m 1' + 1 (m - mean(m))') / n, so no n^3 product is formed."""
    n = m.size
    # m.sum() / n equals np.mean(m) bit for bit at a fifth of its overhead
    mat = np.add.outer((-scale / n) * m, (-scale / n) * (m - m.sum() / n))
    mat += g_mat
    diag = mat.reshape(-1)[::n + 1]
    diag += scale * m
    return mat


# -- field-level operations ---------------------------------------------------

def surface_integral(f: SurfaceField) -> float:
    return f.grid.integral(f.values)
