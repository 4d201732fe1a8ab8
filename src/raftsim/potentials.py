"""Double-well free energy densities for membrane phase separation.

Three families are supported:

* ``logarithmic`` -- the singular Flory-Huggins well, whose derivative blows
  up at the pure states +-1 and thereby confines the order parameter,
* ``polynomial``  -- the smooth quartic approximation (1 - r^2)^2 / 4,
* ``regularized`` -- the logarithmic well with its convex part extended
  linearly (in the derivative) outside |r| <= 1 - kappa, so that it is
  defined and smooth on the whole real line.

Every well splits as ``W(r) = F(r) - 0.5 * split_coefficient * r**2`` with F
convex; the time steppers treat F implicitly and the concave remainder
explicitly, so the split is part of the public contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

LOGARITHMIC = "logarithmic"
POLYNOMIAL = "polynomial"
REGULARIZED = "regularized"

_KINDS = (LOGARITHMIC, POLYNOMIAL, REGULARIZED)

# Iterates on the logarithmic well keep max|r| <= 1 - this, clear of the
# singular points where F' and F'' blow up.
SEPARATION_MARGIN = 1e-13


class PotentialDomainError(ValueError):
    """Argument outside the well's admissible interval."""


class PotentialSingularityError(ValueError):
    """Derivative requested at or beyond the singular points +-1."""


def _wrap(raw, template):
    """Return a scalar for scalar input, an ndarray otherwise; `template` is
    the argument after np.asarray."""
    if template.ndim == 0:
        return float(raw)
    return np.asarray(raw, dtype=float)


@dataclass(frozen=True)
class DoubleWell:
    """Immutable specification of a double-well potential.

    theta / theta0 parametrize the logarithmic family (mixing entropy vs.
    demixing strength); the phase-separating regime requires
    0 < theta < theta0.  ``kappa`` selects the regularized variant and must
    lie in (0, r0), where r0 bounds the region near +-1 on which the convex
    part's second derivative is monotone.
    """

    kind: str = LOGARITHMIC
    theta: float = 1.0
    theta0: float = 2.0
    r0: float = 0.5
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind in (LOGARITHMIC, REGULARIZED):
            if not 0.0 < self.theta < self.theta0:
                raise ValueError(
                    f"logarithmic well needs 0 < theta < theta0, "
                    f"got theta={self.theta}, theta0={self.theta0}"
                )
            if not 0.0 < self.r0 < 1.0:
                raise ValueError(f"r0 must lie in (0, 1), got {self.r0}")
        if self.kind == REGULARIZED and not 0.0 < self.kappa < self.r0:
            raise ValueError(
                f"regularized well needs 0 < kappa < r0, got kappa={self.kappa}"
            )

    # -- convex / concave split ------------------------------------------

    @property
    def split_coefficient(self) -> float:
        """Coefficient of the concave -0.5*c*r^2 part of the well."""
        if self.kind == POLYNOMIAL:
            return 1.0
        return self.theta0

    def convex_value(self, r):
        """Convex part F(r); finite limit values at r = +-1."""
        r = np.asarray(r, dtype=float)
        if self.kind == POLYNOMIAL:
            return _wrap(0.25 * (1.0 + r**4), r)
        if self.kind == LOGARITHMIC:
            if np.abs(r).max() > 1.0:
                raise PotentialDomainError("logarithmic well needs |r| <= 1")
            return _wrap(self._log_f(r), r)
        return _wrap(self._reg_f(r), r)

    def convex_deriv(self, r):
        """F'(r); for the regularized kind this is the extended derivative."""
        r = np.asarray(r, dtype=float)
        if self.kind == POLYNOMIAL:
            return _wrap(r**3, r)
        if self.kind == LOGARITHMIC:
            self._check_open_interval(r)
            return _wrap(self._log_fp(r), r)
        return _wrap(self._reg_fp(r), r)

    def convex_second(self, r):
        """F''(r); clamped to the inner interval for the regularized kind."""
        r = np.asarray(r, dtype=float)
        if self.kind == POLYNOMIAL:
            return _wrap(3.0 * r**2, r)
        if self.kind == LOGARITHMIC:
            self._check_open_interval(r)
            return _wrap(self._log_fpp(r), r)
        rc = np.clip(r, -1.0 + self.kappa, 1.0 - self.kappa)
        return _wrap(self._log_fpp(rc), r)

    # -- the well itself --------------------------------------------------

    def value(self, r):
        """W(r) = F(r) - 0.5 * split_coefficient * r^2."""
        r = np.asarray(r, dtype=float)
        if self.kind == POLYNOMIAL:
            return _wrap(0.25 * (1.0 - r**2) ** 2, r)
        return _wrap(
            np.asarray(self.convex_value(r)) - 0.5 * self.split_coefficient * r**2, r
        )

    def deriv(self, r):
        """W'(r)."""
        r = np.asarray(r, dtype=float)
        return _wrap(
            np.asarray(self.convex_deriv(r)) - self.split_coefficient * r, r
        )

    def second(self, r):
        """W''(r)."""
        r = np.asarray(r, dtype=float)
        return _wrap(
            np.asarray(self.convex_second(r)) - self.split_coefficient, r
        )

    def regularized(self, kappa: float) -> "DoubleWell":
        """The kappa-regularized companion of a logarithmic well."""
        if self.kind == POLYNOMIAL:
            raise ValueError("only the logarithmic well has a regularization")
        return DoubleWell(
            kind=REGULARIZED, theta=self.theta, theta0=self.theta0,
            r0=self.r0, kappa=kappa,
        )

    # -- logarithmic branch helpers ---------------------------------------

    def _check_open_interval(self, r):
        if np.abs(r).max() >= 1.0:
            raise PotentialSingularityError(
                "logarithmic well derivative is singular at |r| >= 1"
            )

    def _log_f(self, r):
        # xlogy(0, 0) = 0 gives the finite limit at the endpoints.
        return 0.5 * self.theta * (xlogy(1.0 - r, 1.0 - r) + xlogy(1.0 + r, 1.0 + r))

    def _log_fp(self, r):
        return 0.5 * self.theta * (np.log1p(r) - np.log1p(-r))

    def _log_fpp(self, r):
        return self.theta / ((1.0 - r) * (1.0 + r))

    # -- regularized branch helpers ---------------------------------------

    def _reg_fp(self, r):
        edge = 1.0 - self.kappa
        fp_edge = self._log_fp(edge)
        fpp_edge = self._log_fpp(edge)
        inner = self._log_fp(np.clip(r, -edge, edge))
        upper = fp_edge + fpp_edge * (r - edge)
        lower = -fp_edge + fpp_edge * (r + edge)
        return np.where(r > edge, upper, np.where(r < -edge, lower, inner))

    def _reg_f(self, r):
        # Integrating the linear extension of F' gives explicit quadratics
        # outside |r| <= 1 - kappa.
        edge = 1.0 - self.kappa
        f_edge = self._log_f(edge)
        fp_edge = self._log_fp(edge)
        fpp_edge = self._log_fpp(edge)
        inner = self._log_f(np.clip(r, -edge, edge))
        du = r - edge
        dl = r + edge
        upper = f_edge + fp_edge * du + 0.5 * fpp_edge * du**2
        lower = f_edge - fp_edge * dl + 0.5 * fpp_edge * dl**2
        return np.where(r > edge, upper, np.where(r < -edge, lower, inner))
