import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import raftsim as rs
from raftsim.surface import MeanFreeError, gmres


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


WITHIN_GRIDS = (rs.SurfaceGrid.circle(64), rs.SurfaceGrid.circle(128),
                rs.SurfaceGrid.circle(520), rs.SurfaceGrid.torus(16, 16),
                rs.SurfaceGrid.torus(32, 48, lx=3.0, ly=7.0))


def exactly_within(grid, tol, coeffs):
    """The transform's test that SurfaceGrid.ifft_within must reproduce."""
    return bool(np.max(np.abs(grid.ifft(coeffs))) <= tol)


def rfft_shape(grid):
    return grid.fft(np.zeros(grid.shape)).shape


@st.composite
def near_tol_spectra(draw):
    """(grid, tol, c) with max|ifft(c)| within 1e-9 of tol, for the spectra
    where a Parseval bound is tightest or loosest."""
    grid = draw(st.sampled_from(WITHIN_GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = rfft_shape(grid)
    form = draw(st.sampled_from(["random", "mode", "spike"]))
    if form == "random":
        # any complex values, though ifft reads only the Hermitian part of
        # the zero and Nyquist lines
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    elif form == "mode":
        # one mode: the l1 bound is tight, and at the zero and Nyquist
        # modes the rms bound too
        c = np.zeros(shape, complex)
        c[tuple(draw(st.integers(0, n - 1)) for n in shape)] = complex(
            *rng.standard_normal(2))
    else:
        # one node: the rms bound is loosest, the l1 bound tight
        x = np.zeros(grid.shape)
        x[tuple(draw(st.integers(0, n - 1)) for n in grid.shape)] = 1.0
        c = grid.fft(x)
    peak = np.max(np.abs(grid.ifft(c)))
    assume(peak > 0.0)
    # tol * N on both sides of 1, so that squaring it in the rms test matters
    tol = 10.0 ** draw(st.floats(-12.0, 3.0))
    gap = draw(st.sampled_from([0.0, 2.0**-52, -2.0**-52, 1e-12, -1e-12])
               | st.floats(-1e-9, 1e-9))
    return grid, tol, c * (tol * (1.0 + gap) / peak)


@settings(max_examples=400, deadline=None)
@given(near_tol_spectra(), st.sampled_from([0.5, 1.0, 2.0]))
def test_ifft_within_equals_transform_test(case, scale):
    grid, tol, c = case
    want = exactly_within(grid, tol, c)
    assert grid.ifft_within(tol, c) is want
    other = scale * c
    assert grid.ifft_within(tol, c, other) is (
        want and exactly_within(grid, tol, other))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(WITHIN_GRIDS), st.integers(0, 2**32 - 1),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans(), st.data())
def test_ifft_within_nonfinite(grid, seed, bad, imag, data):
    c = grid.fft(np.random.default_rng(seed).standard_normal(grid.shape))
    idx = tuple(data.draw(st.integers(0, n - 1)) for n in c.shape)
    c[idx] = complex(c[idx].real, bad) if imag else complex(bad, c[idx].imag)
    got = grid.ifft_within(1e3, c)
    # None exactly where the transform is not finite (irfft ignores the
    # imaginary part of a mode that is its own conjugate); the answer is
    # the transform's
    assert (got is None) == (not np.all(np.isfinite(grid.ifft(c))))
    assert bool(got) == exactly_within(grid, 1e3, c)
    if got is None:
        # even after an array that the rms bound rules out
        out = grid.fft(np.full(grid.shape, 1e6))
        assert grid.ifft_within(1e3, out, c) is None


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
    for length in (np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            rs.SurfaceGrid.torus(16, 16, lx=length)


@pytest.mark.parametrize("n", [8, 24, 64, 520])
def test_circle_ksq_are_integer_squares(n):
    # (2 pi / 2 pi) m is exactly m, so circles and the disk keep the
    # integer |k|^2 that their dense solves and bulk factors were built on
    want = np.arange(n // 2 + 1, dtype=float) ** 2
    for grid in (rs.SurfaceGrid.circle(n), rs.DiskGrid(4, n).boundary):
        assert grid.ksq.tobytes() == want.tobytes()
        assert np.array_equal(grid.axis_modes[0], np.arange(n // 2 + 1))
        assert np.array_equal(grid.lap_symbol, -want)


def test_torus_ksq_are_integer_sums():
    grid = rs.SurfaceGrid.torus(24, 40)
    mx, my = grid.axis_modes
    assert np.array_equal(mx, np.r_[0:12, -12:0])
    assert np.array_equal(my, np.arange(21))
    want = (mx[:, None] ** 2 + my[None, :] ** 2).astype(float)
    assert grid.ksq.tobytes() == want.tobytes()
    # other sides scale each axis by its own 2 pi / L
    scaled = rs.SurfaceGrid.torus(24, 40, lx=3.0, ly=4.5)
    kx, ky = 2 * np.pi / 3.0 * mx, 2 * np.pi / 4.5 * my
    assert np.allclose(scaled.ksq, kx[:, None] ** 2 + ky[None, :] ** 2,
                       rtol=1e-15, atol=0)
    for arr in (*grid.axis_modes, grid.ksq):
        assert not arr.flags.writeable


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
        ksq = circle.ksq
        inv = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
        mat, want = circle.circulant(inv), -circle.inverse_laplacian(f)
    assert np.max(np.abs(mat @ f - want)) <= 1e-11


def _multiplier_system(grid, seed):
    # a Fourier multiplier with a wide spread plus a node-wise product: the
    # shape of the stepper's Newton operator, real-linear through irfft
    rng = np.random.default_rng(seed)
    sym = 1.0 + grid.ksq ** 2
    weight = 10.0 ** (3.0 * rng.random(grid.shape))

    def matvec(xh):
        return sym * xh + grid.fft(weight * grid.ifft(xh))

    return matvec, grid.fft(rng.standard_normal(grid.shape)), 1.0 / (sym + 500.0)


def test_gmres_zero_rhs_returns_zero(torus):
    matvec, b, inv_precond = _multiplier_system(torus, 1)
    x, applications, converged = gmres(matvec, np.zeros_like(b), inv_precond,
                                       rtol=1e-12)
    assert converged and applications == 0
    assert not x.any() and x.shape == b.shape


@pytest.mark.parametrize("restart", [60, 8])  # one cycle, and restarts
def test_gmres_solves_real_linear_system(torus, restart):
    matvec, b, inv_precond = _multiplier_system(torus, 2)
    x, applications, converged = gmres(matvec, b, inv_precond, rtol=1e-12,
                                       restart=restart)
    assert converged and 0 < applications <= 100
    assert np.linalg.norm(b - matvec(x)) <= 2e-12 * np.linalg.norm(b)


def test_gmres_reports_a_capped_solve(torus):
    matvec, b, inv_precond = _multiplier_system(torus, 2)
    _, applications, converged = gmres(matvec, b, inv_precond, rtol=1e-12,
                                       restart=2, maxiter=3)
    assert not converged
    assert applications == 3 * 2 + 2  # later cycles start on a true residual
