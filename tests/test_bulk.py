import sys
import threading

import numpy as np
import pytest
from scipy import fft as sp_fft

import raftsim as rs
import raftsim.bulk as bulk_mod


@pytest.fixture(scope="module")
def disk():
    return rs.DiskGrid(64, 64)


def polar(grid):
    r = grid.radii[:, None] * np.ones((1, grid.ntheta))
    th = 2.0 * np.pi * np.arange(grid.ntheta) / grid.ntheta
    return r, np.broadcast_to(th, (grid.nr, grid.ntheta))


def test_integral_of_one(disk):
    f = rs.BulkField.constant(disk, 1.0)
    assert rs.bulk_integral(f) == pytest.approx(np.pi, rel=1e-12)
    assert rs.bulk_mean(f) == pytest.approx(1.0, rel=1e-12)


def test_integral_angular_orthogonality(disk):
    r, th = polar(disk)
    f = rs.BulkField(disk, r * np.cos(th))
    assert abs(rs.bulk_integral(f)) <= 1e-12


def test_integral_r_squared(disk):
    r, _ = polar(disk)
    f = rs.BulkField(disk, r**2)
    # midpoint quadrature is second order in the radial spacing
    assert rs.bulk_integral(f) == pytest.approx(np.pi / 2.0, rel=1e-3)


def test_trace_constant(disk):
    f = rs.BulkField.constant(disk, 2.5)
    tr = rs.trace_boundary(f)
    assert tr.grid == disk.boundary
    assert np.max(np.abs(tr.values - 2.5)) == 0.0


def test_trace_second_order(disk):
    r, th = polar(disk)
    for vals, target in ((r**2, np.ones(disk.ntheta)),
                         (r * np.cos(th), np.cos(th[0]))):
        tr = rs.trace_boundary(rs.BulkField(disk, vals))
        assert np.max(np.abs(tr.values - target)) <= 2.0 * disk.dr**2


def test_grad_norms(disk):
    r, th = polar(disk)
    assert rs.bulk_grad_norm_sq(rs.BulkField.constant(disk, 3.0)) <= 1e-20
    assert rs.bulk_grad_norm_sq(rs.BulkField(disk, r * np.cos(th))) == \
        pytest.approx(np.pi, rel=1e-10)
    assert rs.bulk_grad_norm_sq(rs.BulkField(disk, r**2)) == \
        pytest.approx(2.0 * np.pi, rel=1e-3)


def test_grad_norm_matches_inverse_transform():
    # the angular term by Parseval against the derivative taken through an
    # inverse transform, on random fields whose Nyquist modes are not small
    rng = np.random.default_rng(12)
    for nr, ntheta in ((4, 8), (24, 64), (64, 128)):
        g = rs.DiskGrid(nr, ntheta)
        for _ in range(4):
            u = rng.standard_normal((nr, ntheta))
            du_dr = np.empty_like(u)
            du_dr[1:-1] = (u[2:] - u[:-2]) / (2.0 * g.dr)
            du_dr[0] = (-1.5 * u[0] + 2.0 * u[1] - 0.5 * u[2]) / g.dr
            du_dr[-1] = (1.5 * u[-1] - 2.0 * u[-2] + 0.5 * u[-3]) / g.dr
            modes = g.boundary.axis_modes[0]
            du_dt = sp_fft.irfft(1j * modes * sp_fft.rfft(u, axis=1),
                                 n=ntheta, axis=1)
            ref = np.sum((du_dr**2 + (du_dt / g.radii[:, None]) ** 2)
                         * g.cell_weight[:, None])
            assert rs.bulk_grad_norm_sq(rs.BulkField(g, u)) == \
                pytest.approx(ref, rel=1e-13)


def test_diffusion_constant_steady(disk):
    u = rs.BulkField.constant(disk, 3.0)
    q = rs.SurfaceField.constant(disk.boundary, 0.0)
    out = rs.diffusion_step(u, D=1.0, dt=1e-2, q=q)
    assert np.max(np.abs(out.values - 3.0)) <= 1e-13


def test_diffusion_conservation(disk):
    rng = np.random.default_rng(6)
    u = rs.BulkField(disk, 1.0 + 0.3 * rng.standard_normal((disk.nr, disk.ntheta)))
    q = rs.SurfaceField(disk.boundary, rng.standard_normal(disk.ntheta))
    dt = 3e-3
    out = rs.diffusion_step(u, D=2.0, dt=dt, q=q)
    defect = (rs.bulk_integral(out) - rs.bulk_integral(u)
              + dt * rs.surface_integral(q))
    assert abs(defect) <= 1e-12 * abs(rs.bulk_integral(u))


def test_diffusion_conservation_with_source(disk):
    rng = np.random.default_rng(7)
    u = rs.BulkField.constant(disk, 1.0)
    q = rs.SurfaceField(disk.boundary, rng.standard_normal(disk.ntheta))
    src = rs.BulkField(disk, rng.standard_normal((disk.nr, disk.ntheta)))
    dt = 1e-2
    out = rs.diffusion_step(u, D=1.0, dt=dt, q=q, source=src)
    defect = (rs.bulk_integral(out) - rs.bulk_integral(u)
              + dt * rs.surface_integral(q) - dt * rs.bulk_integral(src))
    assert abs(defect) <= 1e-12 * max(1.0, abs(rs.bulk_integral(u)))


def test_diffusion_max_principle_smooth_data():
    grid = rs.DiskGrid(32, 64)
    r, th = polar(grid)
    u = rs.BulkField(grid, 0.5 + 0.5 * np.sin(np.pi * r) * np.cos(2 * th))
    q = rs.SurfaceField.constant(grid.boundary, 0.0)
    lo, hi = u.values.min(), u.values.max()
    for _ in range(50):
        u = rs.diffusion_step(u, D=1.0, dt=2e-3, q=q)
        assert u.values.min() >= lo - 1e-10
        assert u.values.max() <= hi + 1e-10


def test_diffusion_gradient_decay():
    grid = rs.DiskGrid(32, 64)
    r, th = polar(grid)
    u = rs.BulkField(grid, np.sin(np.pi * r) * np.cos(3 * th) + r**2)
    q = rs.SurfaceField.constant(grid.boundary, 0.0)
    prev = rs.bulk_grad_norm_sq(u)
    for _ in range(25):
        u = rs.diffusion_step(u, D=1.0, dt=5e-3, q=q)
        cur = rs.bulk_grad_norm_sq(u)
        assert cur <= prev * (1 + 1e-12)
        prev = cur


def test_diffusion_flux_heterogeneity_rate():
    """Constant data under a uniform outward flux q settles on the
    quasi-static profile -q r^2/(2D) + c(t), so the time integral of
    ||grad u||^2 is pi T q^2/(2 D^2): the 1/D^2 rate of the large-D
    heterogeneity for constant bulk data.  A flux applied as du/dn = -q
    (no 1/D) would make the integral independent of D."""
    grid = rs.DiskGrid(32, 64)
    q = rs.SurfaceField.constant(grid.boundary, 0.3)
    dt, t_final = 2e-3, 0.5
    for d in (1e2, 1e3, 1e4):
        u = rs.BulkField.constant(grid, 1.0)
        hetero = 0.0
        for _ in range(int(round(t_final / dt))):
            hetero += dt * rs.bulk_grad_norm_sq(u)  # left endpoint, as in experiment_large_d
            u = rs.diffusion_step(u, D=d, dt=dt, q=q)
        predicted = np.pi * t_final * 0.3**2 / (2.0 * d**2)
        assert hetero == pytest.approx(predicted, rel=2e-2)


def mms_time_error(nr, ntheta, dt, t_final, diffusivity=1.0):
    """Backward-Euler error for the solution (1+t)(2-r^2); the spatial
    operator is exact on quadratics, so this isolates the O(dt) error."""
    grid = rs.DiskGrid(nr, ntheta)
    r = grid.radii[:, None] * np.ones((1, ntheta))
    u = rs.BulkField(grid, 2.0 - r**2)
    n = int(round(t_final / dt))
    for i in range(n):
        t = i * dt
        q = rs.SurfaceField.constant(grid.boundary, 2.0 * diffusivity * (1.0 + t))
        src = rs.BulkField(grid, (2.0 - r**2) + 4.0 * diffusivity * (1.0 + t))
        u = rs.diffusion_step(u, diffusivity, dt, q, source=src)
    return float(np.max(np.abs(u.values - (1.0 + t_final) * (2.0 - r**2))))


def mms_space_error(nr, ntheta=64, diffusivity=1.0, n_steps=400, dt=0.05):
    """Steady manufactured solution 2 - r^4: iterating to the discrete
    steady state isolates the O(dr^2) spatial error."""
    grid = rs.DiskGrid(nr, ntheta)
    r = grid.radii[:, None] * np.ones((1, ntheta))
    exact = 2.0 - r**4
    u = rs.BulkField(grid, exact.copy())
    q = rs.SurfaceField.constant(grid.boundary, 4.0 * diffusivity)
    src = rs.BulkField(grid, 16.0 * diffusivity * r**2)
    for _ in range(n_steps):
        u = rs.diffusion_step(u, diffusivity, dt, q, source=src)
    return float(np.max(np.abs(u.values - exact)))


def test_mms_first_order_in_time():
    e1 = mms_time_error(32, 64, 2e-2, 0.4)
    e2 = mms_time_error(32, 64, 1e-2, 0.4)
    assert e1 / e2 == pytest.approx(2.0, rel=0.2)


def test_mms_second_order_in_space():
    e1 = mms_space_error(16)
    e2 = mms_space_error(32)
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_step_validation(disk):
    u = rs.BulkField.constant(disk, 1.0)
    q = rs.SurfaceField.constant(disk.boundary, 0.0)
    with pytest.raises(ValueError):
        rs.diffusion_step(u, D=1.0, dt=0.0, q=q)
    with pytest.raises(ValueError):
        rs.diffusion_step(u, D=-1.0, dt=1e-2, q=q)
    with pytest.raises(ValueError):
        rs.diffusion_step(u, D=1.0, dt=1e-2,
                          q=rs.SurfaceField.constant(rs.SurfaceGrid.circle(32), 0.0))


def test_field_validation(disk):
    with pytest.raises(ValueError):
        rs.BulkField(disk, np.zeros((3, 3)))


def reference_diffusion_step(u, D, dt, q, source=None):
    """The diffusion step as it was before its factorization was cached:
    assemble the tridiagonal system of every angular mode and eliminate it
    by the Thomas algorithm on each call."""
    g = u.grid
    uh = sp_fft.rfft(u.values, axis=1)
    qh = sp_fft.rfft(q.values)
    nk = qh.shape[0]
    r = g.radii
    alpha = D * g.faces / g.dr
    cell = r * g.dr
    a_in = alpha[:-1].copy()
    a_out = alpha[1:].copy()
    a_out[-1] = 0.0
    ksq = g.boundary.axis_modes[0] ** 2
    diag = (cell[None, :]
            + dt * (a_in + a_out)[None, :]
            + dt * D * ksq[:, None] * (g.dr / r)[None, :])
    lower = np.broadcast_to(-dt * a_in[None, :], (nk, g.nr)).copy()
    upper = np.broadcast_to(-dt * a_out[None, :], (nk, g.nr)).copy()
    lower[:, 0] = 0.0
    upper[:, -1] = 0.0
    rhs = (uh * cell[:, None]).T.copy()
    rhs[:, -1] += dt * (-qh)
    if source is not None:
        sh = sp_fft.rfft(source.values, axis=1)
        rhs += dt * (sh * cell[:, None]).T

    m, n = rhs.shape
    cp = np.empty((m, n - 1))
    dp = np.empty((m, n), dtype=rhs.dtype)
    beta = diag[:, 0].copy()
    dp[:, 0] = rhs[:, 0] / beta
    for i in range(1, n):
        cp[:, i - 1] = upper[:, i - 1] / beta
        beta = diag[:, i] - lower[:, i] * cp[:, i - 1]
        dp[:, i] = (rhs[:, i] - lower[:, i] * dp[:, i - 1]) / beta
    x = np.empty_like(dp)
    x[:, -1] = dp[:, -1]
    for i in range(n - 2, -1, -1):
        x[:, i] = dp[:, i] - cp[:, i] * x[:, i + 1]
    return sp_fft.irfft(x.T, n=g.ntheta, axis=1)


def random_step_data(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.nr, grid.ntheta)
    u = rs.BulkField(grid, 1.0 + 0.3 * rng.standard_normal(shape))
    q = rs.SurfaceField(grid.boundary, rng.standard_normal(grid.ntheta))
    src = rs.BulkField(grid, rng.standard_normal(shape))
    return u, q, src


@pytest.mark.parametrize("with_source", [False, True])
@pytest.mark.parametrize("dt", [2e-3, 2e-3 / 1024])
@pytest.mark.parametrize("D", [1.0, 1e4])
def test_cached_factorization_matches_per_call_thomas(D, dt, with_source):
    grid = rs.DiskGrid(24, 64)
    u, q, src = random_step_data(grid, seed=7)
    source = src if with_source else None
    for _ in range(3):   # the first call builds the factors, the rest reuse them
        out = rs.diffusion_step(u, D, dt, q, source=source)
        expected = reference_diffusion_step(u, D, dt, q, source=source)
        assert np.array_equal(out.values, expected)
        u = out


def test_diffusion_factor_cache_bounded_and_read_only():
    cache = bulk_mod._diffusion_factors
    grid = rs.DiskGrid(8, 16)
    u, q, _ = random_step_data(grid, seed=3)
    for k in range(cache.cache_info().maxsize + 4):
        rs.diffusion_step(u, 1.0, 1e-3 * (k + 1), q)
    info = cache.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize
    factors = cache(grid, 1.0, 1e-3)
    assert factors and not any(a.flags.writeable for a in factors)


def test_diffusion_factor_cache_shared_by_threads():
    # 8 threads (more than cores) race to build and read the factors of
    # three (D, dt) pairs from an empty cache; every step must equal the
    # sequential one bit for bit
    grid = rs.DiskGrid(24, 64)
    u, q, src = random_step_data(grid, seed=11)
    keys = ((1.0, 2e-3), (1e4, 2e-3), (1.0, 1e-3))

    def step(key):
        return rs.diffusion_step(u, key[0], key[1], q, source=src).values

    expected = [step(key) for key in keys]
    bulk_mod._diffusion_factors.cache_clear()
    results = [None] * 8

    def worker(k):
        results[k] = [step(keys[(k + j) % 3]) for j in range(6)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for k, got in enumerate(results):
        for j, vals in enumerate(got):
            assert np.array_equal(vals, expected[(k + j) % 3])
