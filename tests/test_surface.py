import numpy as np
import pytest

import raftsim as rs
from raftsim.surface import MeanFreeError


@pytest.fixture(scope="module")
def circle():
    return rs.SurfaceGrid.circle(64)


@pytest.fixture(scope="module")
def torus():
    return rs.SurfaceGrid.torus(64, 64)


def test_circle_eigenfunction(circle):
    th = circle.nodes()
    f = np.cos(th)
    assert np.max(np.abs(circle.laplacian(f) + f)) <= 1e-12


def test_torus_eigenfunction(torus):
    x, _ = torus.nodes()
    f = np.sin(2.0 * x)
    assert np.max(np.abs(torus.laplacian(f) + 4.0 * f)) <= 1e-12


def test_scaled_torus_eigenfunction():
    lx, ly = 3.0, 5.0
    g = rs.SurfaceGrid.torus(32, 32, lx, ly)
    x, y = g.nodes()
    f = np.cos(2.0 * np.pi * x / lx) * np.sin(4.0 * np.pi * y / ly)
    lam = (2.0 * np.pi / lx) ** 2 + (4.0 * np.pi / ly) ** 2
    assert np.max(np.abs(g.laplacian(f) + lam * f)) <= 1e-11
    assert g.integral(np.ones(g.shape)) == pytest.approx(lx * ly, rel=1e-14)


def test_constants_in_kernel(circle):
    f = np.ones(circle.shape)
    assert np.max(np.abs(circle.laplacian(f))) <= 1e-13


def test_inverse_roundtrip(circle):
    rng = np.random.default_rng(0)
    f = rng.standard_normal(circle.shape)
    f -= circle.mean(f)
    back = circle.inverse_laplacian(circle.laplacian(f))
    assert np.max(np.abs(back - f)) <= 1e-10


def test_inverse_eigenfunction(circle):
    th = circle.nodes()
    out = circle.inverse_laplacian(np.cos(th))
    assert np.max(np.abs(out + np.cos(th))) <= 1e-13


def test_inverse_rejects_mass(circle):
    with pytest.raises(MeanFreeError):
        circle.inverse_laplacian(np.ones(circle.shape))


def test_integrals(circle, torus):
    assert circle.integral(np.ones(circle.shape)) == pytest.approx(
        2.0 * np.pi, rel=1e-14)
    th = circle.nodes()
    assert abs(circle.integral(np.cos(th))) <= 1e-14
    x, _ = torus.nodes()
    val = torus.integral(3.0 + np.sin(x))
    assert val == pytest.approx(3.0 * (2 * np.pi) ** 2, rel=1e-12)


def test_measure_matches_integral_of_one(circle, torus):
    for g in (circle, torus):
        assert g.integral(np.ones(g.shape)) == pytest.approx(
            g.total_measure, rel=1e-12)


def test_norms_cosine(circle):
    th = circle.nodes()
    f = np.cos(th)
    assert circle.h1_seminorm_sq(f) == pytest.approx(np.pi, rel=1e-13)
    assert circle.hminus1_norm(f) ** 2 == pytest.approx(np.pi, rel=1e-13)
    assert circle.l2_norm(f) ** 2 == pytest.approx(np.pi, rel=1e-13)


def test_norms_of_zero(circle):
    z = np.zeros(circle.shape)
    assert circle.l2_norm(z) == 0.0
    assert circle.h1_seminorm_sq(z) == 0.0
    assert circle.hminus1_norm(z) == 0.0


def test_parseval(circle, torus):
    rng = np.random.default_rng(1)
    for g in (circle, torus):
        f = rng.standard_normal(g.shape)
        quad = g.l2_norm(f) ** 2
        spec = g.spectral_l2_sq(f)
        assert spec == pytest.approx(quad, rel=1e-12)


def test_self_adjoint(circle, torus):
    rng = np.random.default_rng(2)
    for g in (circle, torus):
        f = rng.standard_normal(g.shape)
        h = rng.standard_normal(g.shape)
        a = g.integral(f * g.laplacian(h))
        b = g.integral(h * g.laplacian(f))
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_integration_by_parts(circle, torus):
    rng = np.random.default_rng(3)
    for g in (circle, torus):
        f = rng.standard_normal(g.shape)
        lhs = g.h1_seminorm_sq(f)
        rhs = -g.integral(f * g.laplacian(f))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_poincare_circle(circle):
    # smallest nonzero eigenvalue is 1 on the unit circle
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = rng.standard_normal(circle.shape)
        dev = f - circle.mean(f)
        assert circle.l2_norm(dev) <= np.sqrt(circle.h1_seminorm_sq(f)) * (1 + 1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        rs.SurfaceGrid.circle(7)
    with pytest.raises(ValueError):
        rs.SurfaceGrid.circle(4)
    with pytest.raises(ValueError):
        rs.SurfaceGrid.torus(64, 10, 2 * np.pi, 0.0)  # zero side length


def test_field_validation(circle):
    with pytest.raises(ValueError):
        rs.SurfaceField(circle, np.zeros(32))
    bad = np.zeros(circle.shape)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        rs.SurfaceField(circle, bad)


def test_field_wrappers(circle):
    assert rs.surface_integral(rs.SurfaceField.constant(circle, 1.0)) == \
        pytest.approx(2 * np.pi, rel=1e-14)


@pytest.mark.parametrize("operator", ["laplacian", "inverse_laplacian"])
def test_circulant_matches_operator(circle, operator):
    rng = np.random.default_rng(5)
    f = rng.standard_normal(circle.shape)
    if operator == "laplacian":
        mat, want = circle.circulant(circle.lap_symbol), circle.laplacian(f)
    else:
        f -= circle.mean(f)
        ksq = -circle.lap_symbol
        inv = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
        mat, want = circle.circulant(inv), -circle.inverse_laplacian(f)
    assert np.max(np.abs(mat @ f - want)) <= 1e-11
