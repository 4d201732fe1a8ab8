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
from scipy.fft._pocketfft.pypocketfft import c2r, r2c
from scipy.linalg.lapack import dposv

CIRCLE = "circle"
TORUS = "torus"

# relative slack of the Parseval bounds in SurfaceGrid.ifft_within
_BOUND_SLACK = 1e-10


# scipy.fft's rfftn and irfftn bit for bit: the pocketfft kernels that they
# end in (backward norm, one thread), without their per-call dispatch, which
# costs more than the transform on raftsim's grids.  No padding: c2r raises
# ValueError unless the last axis of coeffs holds n//2 + 1 modes.
def rfft_axes(values, axes):
    return r2c(np.asarray(values, dtype=float), axes, True, 0, None, 1)


def irfft_axes(coeffs, axes, n):
    return c2r(np.asarray(coeffs, dtype=complex), axes, n, False, 2, None, 1)


class MeanFreeError(ValueError):
    """Operation requires a mean-free field but received one with mass."""


class SurfaceGrid:
    """Uniform spectral grid on the unit circle or a flat periodic torus.

    Instances are immutable; all cached arrays are read-only.  Node layout:
    circle -> shape (n,) at angles 2*pi*j/n; torus -> shape (nx, ny) at
    (j*lx/nx, k*ly/ny).  Every axis is built alike, the circle being the
    one-axis case: axis_modes holds each axis's integer mode numbers m in
    rfft layout (all n of them on leading axes, 0..n/2 on the last), whose
    wavenumbers are (2 pi / L) m; ksq is |k|^2, summed over the axes, so -lap
    is the Fourier multiplier ksq, inv_ksq is 1/|k|^2 with zero mode 0,
    the inverse of -lap on mean-free fields, and kmin_sq is min |k|^2 > 0.
    """

    def __init__(self, kind, shape, lengths):
        if kind not in (CIRCLE, TORUS):
            raise ValueError(f"unknown surface kind {kind!r}")
        for n in shape:
            if n < 8 or n % 2 != 0:
                raise ValueError(f"node counts must be even and >= 8, got {shape}")
        for L in lengths:
            if not 0.0 < L < math.inf:
                raise ValueError(
                    f"side lengths must be positive and finite, got {lengths}")
        self.kind = kind
        self.shape = tuple(shape)
        self.lengths = tuple(float(L) for L in lengths)
        self.node_count = int(np.prod(self.shape))
        self.total_measure = float(np.prod(self.lengths))
        self.node_weight = self.total_measure / self.node_count
        self._axes = tuple(range(-len(self.shape), 0))  # leading axes batch

        *lead, last = self.shape
        self.axis_modes = (*(np.fft.ifftshift(np.arange(n) - n // 2)
                             for n in lead),
                           np.arange(last // 2 + 1))
        # a 2 pi side gives 2 pi / L = 1 and exact integer wavenumbers
        wavenumbers = np.ix_(*((2.0 * np.pi / L) * m
                               for m, L in zip(self.axis_modes, self.lengths)))
        self.ksq = sum(k**2 for k in wavenumbers)
        # rfft halves the last axis; `dbl` restores the conjugate modes in
        # Parseval sums (the zero and Nyquist lines have none)
        dbl = np.full(self.ksq.shape, 2.0)
        dbl[..., 0] = dbl[..., -1] = 1.0
        self._dbl = dbl.ravel()
        self._parseval = dbl * (self.total_measure / self.node_count**2)
        self._neg_kx = -np.arange(self.shape[0]) % self.shape[0]  # row of -kx
        inv = np.zeros_like(self.ksq)
        nonzero = self.ksq > 0
        inv[nonzero] = 1.0 / self.ksq[nonzero]
        self.inv_ksq = inv
        self.kmin_sq = float(self.ksq[nonzero].min())
        for arr in (*self.axis_modes, self.ksq, self._dbl, self._parseval,
                    self.inv_ksq):
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
        coords = np.meshgrid(*(L * np.arange(n) / n
                               for n, L in zip(self.shape, self.lengths)),
                             indexing="ij")
        return coords[0] if len(coords) == 1 else coords

    # -- transforms --------------------------------------------------------

    def fft(self, values):
        return rfft_axes(values, self._axes)

    def ifft(self, coeffs):
        return irfft_axes(coeffs, self._axes, self.shape[-1])

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
            # their own conjugates, i.e. only their Hermitian parts.  The
            # circle keeps its own rule: the torus's, written for any number
            # of leading axes, gives the same answers but took 8.4 us a call
            # on a 128-node circle against 4.5 us, about 2% of a kappa-sweep
            # operation (3 446 calls, 2 vCPUs, NumPy 2.4)
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
        return -self.ksq

    def circulant(self, symbol):
        """Dense physical-space matrix of the Fourier multiplier `symbol`
        (rfft layout; circle grids only), built with one batched transform."""
        if self.kind != CIRCLE:
            raise ValueError("dense operators are only built for circle grids")
        n = self.shape[0]
        basis_h = rfft_axes(np.eye(n), (0,))
        return irfft_axes(symbol[:, None] * basis_h, (0,), n)

    @property
    def solves_densely(self):
        """True on circles of up to 512 nodes, where MeanFreeOperator solves
        densely; every other grid takes gmres.  gmres converges there too,
        but near the pure states it takes up to 79 operator applications a
        Newton direction and runs 4 to 10 times slower than the dense solve
        (the kappa sweep's run to max|phi| 0.9997 on 32 to 128 nodes)."""
        return self.kind == CIRCLE and self.node_count <= 512

    # -- calculus on raw arrays ---------------------------------------------
    # Reductions call the array's own method: the same ufunc reduction as
    # NumPy's module-level wrapper, bit for bit, at a fraction of its cost.

    def laplacian(self, values):
        return self.ifft(-self.ksq * self.fft(values))

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
        return float((self._parseval * self.ksq * np.abs(coeffs) ** 2).sum())

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


class MeanFreeOperator:
    """A x = sigma x + scale P (m x), the Newton operator of the stepper and
    of the stationary solver, with sigma a Fourier symbol (rfft layout, zero
    mode 1), m a nodal field and P the mean-free projector: A keeps the
    mean of x, and on mean-free fields it is sigma + scale P diag(m) P."""

    def __init__(self, grid, sigma, scale, m):
        self.grid, self.sigma, self.scale, self.m = grid, sigma, scale, m

    def apply(self, xh):
        """A x in rfft layout, for x = ifft(xh): one transform pair."""
        prod_h = self.grid.fft(self.m * self.grid.ifft(xh))
        prod_h.flat[0] = 0.0
        out = self.sigma * xh
        out += np.multiply(self.scale, prod_h, out=prod_h)
        return out

    @property
    def inv_precond(self):
        """gmres's right preconditioner: 1/(sigma + scale c), zero mode 1,
        with c the midpoint of m's range clamped at -0.9 kmin_sq."""
        shift = max(0.5 * (float(self.m.min()) + float(self.m.max())),
                    -0.9 * self.grid.kmin_sq)
        prec = self.sigma + self.scale * shift
        prec.flat[0] = 1.0
        return 1.0 / prec

    def dense_solve(self, sigma_mat, rhs, mean=0.0, spd=False):
        """Nodal x = mean + d with A x = rhs + mean (rhs mean-free, sigma_mat
        the circulant of sigma): (sigma_mat + scale P M P) d = rhs - scale
        mean P m, P M P = M - (m 1' + 1 (m - <m>)')/n, by LU, or with spd by
        Cholesky (dposv; may overwrite rhs), None if that fails."""
        m, s, n = self.m, self.scale, self.m.size
        # m.sum() / n equals np.mean(m) bit for bit at a fifth of its overhead
        m_free = m - m.sum() / n
        mat = np.add.outer((-s / n) * m, (-s / n) * m_free)
        mat += sigma_mat
        diag = mat.reshape(-1)[::n + 1]
        diag += s * m
        if mean:
            rhs = rhs - (s * mean) * m_free
        if not spd:
            x = np.linalg.solve(mat, rhs)
        else:
            # mat is symmetric (dposv reads one triangle), so its transpose
            # is an F-ordered matrix that LAPACK factors without a copy
            _, x, info = dposv(mat.T, rhs, overwrite_a=True, overwrite_b=True)
            if info != 0:
                return None
        return x + mean if mean else x


def gmres(matvec, b, inv_precond, rtol, restart=60, maxiter=300):
    """Solve matvec(x) = b by restarted GMRES (Saad & Schultz 1986) from
    x = 0; returns (x, applications of matvec, converged).

    b and x are complex arrays in rfft layout, of any shape, and
    inv_precond, a Fourier multiplier of b's shape, preconditions on the
    right.  irfft reads only the Hermitian part of the self-conjugate
    modes, so the operators are real-linear, not complex-linear: the
    Arnoldi basis is orthonormal in the real inner product Re<x, y>, and the
    norm is the Euclidean one of the coefficients.  A cycle stops once its
    Arnoldi residual, which right preconditioning keeps equal to
    ||b - matvec(x)||, is <= rtol ||b||; after `restart` steps the next
    cycle starts from the true residual, at most `maxiter` cycles in all.
    A non-finite or singular Arnoldi step ends the solve unconverged.
    """
    shape = b.shape
    b_r = b.reshape(-1).view(float)
    r = b_r
    beta = float(np.sqrt(r @ r))
    target = rtol * beta
    x = np.zeros_like(b)
    applications = 0
    # rows are written only as the basis grows, so a solve that converges
    # in a few steps touches a few rows of the buffer
    basis = np.empty((restart + 1, b_r.size))
    tri = np.zeros((restart, restart))
    for cycle in range(maxiter):
        if cycle:
            r = b_r - matvec(x).reshape(-1).view(float)
            applications += 1
            beta = float(np.sqrt(r @ r))
        if not beta > target:
            return x, applications, beta <= target
        basis[0] = r / beta
        g = [beta]
        rotations = []
        for j in range(restart):
            w = matvec(inv_precond * basis[j].view(complex).reshape(shape))
            w = w.reshape(-1).view(float)
            applications += 1
            # classical Gram-Schmidt, twice (as stable as modified G-S)
            v = basis[:j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            h = (h + h2).tolist()
            h_next = float(np.sqrt(w @ w))
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            denom = math.hypot(h[j], h_next)
            if not 0.0 < denom < math.inf:
                return x, applications, False
            c, s = h[j] / denom, h_next / denom
            rotations.append((c, s))
            h[j] = denom
            tri[:j + 1, j] = h
            g.append(-s * g[j])
            g[j] *= c
            if abs(g[j + 1]) <= target:
                break
            basis[j + 1] = w / h_next
        k = len(rotations)
        y = np.linalg.solve(tri[:k, :k], g[:k])
        x += inv_precond * (y @ basis[:k]).view(complex).reshape(shape)
        if abs(g[k]) <= target:
            return x, applications, True
    return x, applications, False


# -- field-level operations ---------------------------------------------------

def surface_integral(f: SurfaceField) -> float:
    return f.grid.integral(f.values)
