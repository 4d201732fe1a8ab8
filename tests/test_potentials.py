import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from raftsim.potentials import (
    LOGARITHMIC,
    POLYNOMIAL,
    REGULARIZED,
    DoubleWell,
    PotentialDomainError,
    PotentialSingularityError,
)

LOG = DoubleWell(kind="logarithmic", theta=1.0, theta0=2.0)
POLY = DoubleWell(kind="polynomial")
REG = DoubleWell(kind="regularized", theta=1.0, theta0=2.0, kappa=0.1)


def test_log_value_at_zero():
    assert LOG.value(0.0) == 0.0


def test_poly_value_at_zero():
    assert POLY.value(0.0) == pytest.approx(0.25, abs=0.0)


def test_log_value_half():
    expected = 0.5 * (0.5 * math.log(0.5) + 1.5 * math.log(1.5)) - 0.25
    assert LOG.value(0.5) == pytest.approx(expected, rel=1e-15)


def test_log_value_finite_at_endpoints():
    # x log x -> 0, so the well is finite on the closed interval
    assert LOG.value(1.0) == pytest.approx(math.log(2.0) - 1.0, rel=1e-14)
    assert LOG.value(-1.0) == LOG.value(1.0)


def test_log_deriv_odd_and_zero():
    assert LOG.deriv(0.0) == 0.0
    assert LOG.deriv(0.3) == pytest.approx(-LOG.deriv(-0.3), rel=1e-15)


def test_reg_matches_log_inside():
    # inside |r| <= 1 - kappa the branches coincide exactly
    for r in (-0.9, -0.5, 0.0, 0.5, 0.9):
        assert REG.convex_deriv(r) == LOG.convex_deriv(r)
        assert REG.deriv(r) == LOG.deriv(r)


def test_reg_deriv_outside():
    expected = 0.5 * math.log(19.0) + 0.1 / 0.19
    assert REG.convex_deriv(1.0) == pytest.approx(expected, rel=1e-14)


def test_log_second_at_zero():
    assert LOG.second(0.0) == pytest.approx(-1.0, abs=0.0)
    assert LOG.convex_second(0.0) == pytest.approx(LOG.theta, abs=0.0)


def test_reg_second_clamped():
    assert REG.convex_second(0.99) == pytest.approx(1.0 / 0.19, rel=1e-14)
    assert REG.second(0.99) == pytest.approx(1.0 / 0.19 - 2.0, rel=1e-13)


def test_log_domain_errors():
    with pytest.raises(PotentialDomainError):
        LOG.value(1.0 + 1e-12)
    with pytest.raises(PotentialSingularityError):
        LOG.deriv(1.0)
    with pytest.raises(PotentialSingularityError):
        LOG.second(-1.0)


def test_reg_defined_everywhere():
    for r in (-5.0, -1.0, 0.0, 1.0, 5.0):
        assert np.isfinite(REG.value(r))
        assert np.isfinite(REG.deriv(r))
        assert np.isfinite(REG.second(r))


def test_construction_validation():
    with pytest.raises(ValueError):
        DoubleWell(kind="logarithmic", theta=2.0, theta0=1.0)
    with pytest.raises(ValueError):
        DoubleWell(kind="regularized", kappa=0.0)
    with pytest.raises(ValueError):
        DoubleWell(kind="regularized", kappa=0.6, r0=0.5)
    with pytest.raises(ValueError):
        DoubleWell(kind="banana")


def test_array_evaluation_matches_scalar():
    r = np.array([-0.7, 0.0, 0.4])
    vals = LOG.value(r)
    assert vals.shape == r.shape
    for i, x in enumerate(r):
        assert vals[i] == LOG.value(float(x))


@given(st.floats(-0.9, 0.9))
@settings(max_examples=60, deadline=None)
def test_finite_difference_consistency(r):
    # central differences converge at second order to the closed forms
    errs_p, errs_s = [], []
    for h in (1e-3, 1e-4):
        fd1 = (LOG.value(r + h) - LOG.value(r - h)) / (2.0 * h)
        fd2 = (LOG.deriv(r + h) - LOG.deriv(r - h)) / (2.0 * h)
        errs_p.append(abs(fd1 - LOG.deriv(r)))
        errs_s.append(abs(fd2 - LOG.second(r)))
    scale_p = max(1.0, abs(LOG.deriv(r)))
    scale_s = max(1.0, abs(LOG.second(r)))
    assert errs_p[0] <= 1e-4 * scale_p and errs_p[1] <= 1e-6 * scale_p
    assert errs_s[0] <= 1e-3 * scale_s and errs_s[1] <= 1e-5 * scale_s


@given(st.floats(-0.999, 0.999), st.floats(1e-4, 0.4))
@settings(max_examples=80, deadline=None)
def test_reg_exact_once_kappa_small_enough(r, kappa):
    reg = DoubleWell(kind="regularized", theta=1.0, theta0=2.0, kappa=kappa)
    if kappa < 1.0 - abs(r):
        assert reg.convex_deriv(r) == LOG.convex_deriv(r)


@given(st.floats(-10.0, 10.0), st.floats(1e-4, 0.4))
@settings(max_examples=80, deadline=None)
def test_reg_convexity_floor(r, kappa):
    reg = DoubleWell(kind="regularized", theta=1.0, theta0=2.0, kappa=kappa)
    assert reg.convex_second(r) >= reg.theta


def test_reg_below_log_on_interval():
    r = np.linspace(-1.0, 1.0, 2001)
    for kappa in (0.3, 0.1, 0.01):
        reg = DoubleWell(kind="regularized", theta=1.0, theta0=2.0, kappa=kappa)
        assert np.all(reg.convex_value(r) <= LOG.convex_value(r) + 1e-14)


def test_reg_bounded_below():
    # the extended convex part stays bounded below, uniformly over kappa
    r = np.linspace(-30.0, 30.0, 4001)
    for kappa in (0.3, 0.1, 1e-3):
        reg = DoubleWell(kind="regularized", theta=1.0, theta0=2.0, kappa=kappa)
        assert reg.convex_value(r).min() >= -1.0


def test_split_coefficient():
    assert LOG.split_coefficient == LOG.theta0
    assert POLY.split_coefficient == 1.0
    r = np.linspace(-0.95, 0.95, 41)
    for pot in (LOG, POLY, REG):
        recon = pot.convex_value(r) - 0.5 * pot.split_coefficient * r**2
        assert np.allclose(recon, pot.value(r), rtol=0.0, atol=1e-14)


def _three_branch_regularized(theta, kappa, r):
    """F, F' and F'' of the regularized well written as an inner
    logarithmic branch and two quadratic branches joined by np.where."""
    def f(x):
        return 0.5 * theta * (xlogy(1.0 - x, 1.0 - x) + xlogy(1.0 + x, 1.0 + x))

    def fp(x):
        return 0.5 * theta * (np.log1p(x) - np.log1p(-x))

    def fpp(x):
        return theta / ((1.0 - x) * (1.0 + x))

    edge = 1.0 - kappa
    f_e, fp_e, fpp_e = f(edge), fp(edge), fpp(edge)
    inner = np.clip(r, -edge, edge)
    du, dl = r - edge, r + edge
    value = np.where(r > edge, f_e + fp_e * du + 0.5 * fpp_e * du**2,
                     np.where(r < -edge, f_e - fp_e * dl + 0.5 * fpp_e * dl**2,
                              f(inner)))
    deriv = np.where(r > edge, fp_e + fpp_e * du,
                     np.where(r < -edge, -fp_e + fpp_e * dl, fp(inner)))
    second = fpp(np.clip(r, -1.0 + kappa, 1.0 - kappa))
    return value, deriv, second


@given(st.floats(-5.0, 5.0), st.floats(1e-5, 0.4))
@example(0.9, 0.1)
@example(-0.9, 0.1)
@example(-0.0, 0.1)
@settings(max_examples=200, deadline=None)
def test_reg_equals_three_branch_form(r, kappa):
    # the Taylor extension at the clipped point gives every branch bit for
    # bit (array_equal counts -0.0 and 0.0 as equal)
    reg = DoubleWell(kind="regularized", theta=0.8, theta0=2.5, kappa=kappa)
    x = np.array([r, -r, 0.5 * r])
    want = _three_branch_regularized(reg.theta, kappa, x)
    got = (reg.convex_value(x), reg.convex_deriv(x), reg.convex_second(x))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("kind", [LOGARITHMIC, POLYNOMIAL, REGULARIZED])
@pytest.mark.parametrize("method", ["convex_value", "convex_deriv",
                                    "convex_second", "value", "deriv",
                                    "second"])
def test_scalar_in_float_out_array_in_array_out(kind, method):
    well = DoubleWell(kind=kind, kappa=0.1 if kind == REGULARIZED else 0.0)
    evaluate = getattr(well, method)
    scalar = evaluate(0.3)
    assert isinstance(scalar, float) and not isinstance(scalar, np.ndarray)
    for shape in ((5,), (4, 6)):
        out = evaluate(np.full(shape, 0.3))
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert out.flat[0] == scalar
