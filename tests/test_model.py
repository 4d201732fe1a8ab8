import numpy as np
import pytest

import raftsim as rs
from conftest import lowpass_field

CIRCLE = rs.SurfaceGrid.circle(64)
POT = rs.DoubleWell(theta=1.0, theta0=2.0)


def fields(phi_vals, v_vals):
    return (rs.SurfaceField(CIRCLE, np.broadcast_to(phi_vals, CIRCLE.shape).copy()),
            rs.SurfaceField(CIRCLE, np.broadcast_to(v_vals, CIRCLE.shape).copy()))


def test_chem_eta_saturated_states():
    for phi0, v0 in ((1.0, 1.0), (-1.0, 0.0)):
        phi, v = fields(phi0, v0)
        eta = rs.chem_eta(phi, v, delta=2.7)
        assert np.max(np.abs(eta.values)) == 0.0


def test_chem_eta_value():
    phi, v = fields(0.0, 1.0)
    eta = rs.chem_eta(phi, v, delta=2.0)
    assert np.allclose(eta.values, 1.0, rtol=0, atol=0)


def test_chem_mu_zero_state():
    phi, v = fields(0.0, 0.5)
    eta = rs.chem_eta(phi, v, 1.0)
    mu = rs.chem_mu(phi, eta, POT)
    assert np.max(np.abs(mu.values)) <= 1e-14


def test_chem_mu_constant_state():
    m = 0.3
    phi, v = fields(m, (1.0 + m) / 2.0)
    eta = rs.chem_eta(phi, v, 1.0)
    mu = rs.chem_mu(phi, eta, POT)
    assert np.allclose(mu.values, POT.deriv(m), rtol=1e-13)


def test_chem_mu_pointwise():
    # independent pointwise evaluation on a single-mode state
    a, delta = 0.05, 1.3
    th = CIRCLE.nodes()
    phi = rs.SurfaceField(CIRCLE, a * np.cos(th))
    v = rs.SurfaceField.constant(CIRCLE, 0.5)
    eta = rs.chem_eta(phi, v, delta)
    mu = rs.chem_mu(phi, eta, POT)
    expected = (a * np.cos(th) + POT.deriv(a * np.cos(th))
                - 0.5 * (2.0 / delta) * (-a * np.cos(th)))
    assert np.max(np.abs(mu.values - expected)) <= 1e-12


def test_exchange_equilibrium_zero():
    phi, v = fields(0.2, 0.7)
    eta = rs.chem_eta(phi, v, 1.0)
    law = rs.EquilibriumExchange(a0=0.0)
    q = rs.exchange_q(law, 0.4, eta, v, t=0.0)
    assert np.max(np.abs(q.values)) == 0.0


def test_exchange_equilibrium_decay():
    law = rs.EquilibriumExchange(a0=2.0, alpha=2.0)
    assert law.coefficient(0.0) == 2.0
    assert law.coefficient(1.0) == pytest.approx(0.5)
    const = rs.EquilibriumExchange(a0=1.5)
    assert const.coefficient(123.0) == 1.5


def test_exchange_reaction_value():
    _, v = fields(0.0, 0.0)
    law = rs.ReactionExchange(b1=3.0, b2=2.0)
    q = rs.exchange_q(law, 1.0, None, v, t=0.0)
    assert np.allclose(q.values, 3.0)


def test_cutoff_matches_reaction_inside():
    _, v = fields(0.1, 0.4)
    reaction = rs.ReactionExchange(b1=1.5, b2=0.7)
    cutoff = rs.CutoffReactionExchange(b1=1.5, b2=0.7, h0=2.0)
    for u in (-2.0, -0.5, 0.0, 1.0, 2.0):
        qa = rs.exchange_q(reaction, u, None, v, 0.0)
        qb = rs.exchange_q(cutoff, u, None, v, 0.0)
        assert np.allclose(qa.values, qb.values, rtol=0, atol=0)


def test_cutoff_function_properties():
    law = rs.CutoffReactionExchange(b1=1.0, b2=1.0, h0=2.0)
    r = np.linspace(-10, 10, 4001)
    h = law.cutoff(r)
    assert np.max(np.abs(h)) <= law.h0 + 0.5 + 1e-12     # bounded
    dh = np.diff(h) / np.diff(r)
    assert np.max(np.abs(dh)) <= 1.0 + 1e-8              # 1-Lipschitz
    inside = np.abs(r) <= law.h0
    assert np.allclose(h[inside], r[inside], atol=0)     # identity inside
    # C^1: derivative continuous across the blend boundaries
    for edge in (law.h0, law.h0 + 1.0):
        left = (law.cutoff(edge) - law.cutoff(edge - 1e-7)) / 1e-7
        right = (law.cutoff(edge + 1e-7) - law.cutoff(edge)) / 1e-7
        assert abs(left - right) <= 1e-5


def test_equilibrium_sign_property():
    # integral of q (eta - u) equals -A ||eta - u||^2 <= 0
    phi = lowpass_field(CIRCLE, 11, 0.4)
    v = lowpass_field(CIRCLE, 12, 0.2, mean=0.5)
    u = lowpass_field(CIRCLE, 13, 0.3, mean=1.0)
    delta, a0 = 0.8, 1.7
    eta = rs.chem_eta(phi, v, delta)
    law = rs.EquilibriumExchange(a0=a0)
    q = rs.exchange_q(law, u, eta, v, t=0.0)
    rate = CIRCLE.integral(q.values * (eta.values - u.values))
    expected = -a0 * CIRCLE.l2_norm(eta.values - u.values) ** 2
    assert rate == pytest.approx(expected, rel=1e-12)
    assert rate <= 0.0


def test_surface_energy_constant_states():
    params = rs.Params(potential=POT, exchange=rs.ReactionExchange())
    m = 0.4
    phi, v = fields(m, (1.0 + m) / 2.0)
    e = rs.surface_energy(phi, v, params)
    assert e == pytest.approx(2.0 * np.pi * POT.value(m), rel=1e-13)

    params1 = rs.Params(delta=1.0, potential=POT, exchange=rs.ReactionExchange())
    phi, v = fields(0.0, 0.0)
    e = rs.surface_energy(phi, v, params1)
    assert e == pytest.approx(2.0 * np.pi * (POT.value(0.0) + 0.5), rel=1e-13)


def test_surface_energy_eta_form():
    # affinity term equals (delta/8) ||eta||^2
    delta = 0.6
    params = rs.Params(delta=delta, potential=POT,
                       exchange=rs.ReactionExchange())
    phi = lowpass_field(CIRCLE, 21, 0.5)
    v = lowpass_field(CIRCLE, 22, 0.3, mean=0.5)
    eta = rs.chem_eta(phi, v, delta)
    direct = rs.surface_energy(phi, v, params)
    alt = (0.5 * CIRCLE.h1_seminorm_sq(phi.values)
           + CIRCLE.integral(np.asarray(POT.value(phi.values)))
           + (delta / 8.0) * CIRCLE.l2_norm(eta.values) ** 2)
    assert direct == pytest.approx(alt, rel=1e-12)


def test_total_energy_full():
    disk = rs.DiskGrid(16, 64)
    params = rs.Params(potential=POT, exchange=rs.ReactionExchange())
    phi = rs.SurfaceField.constant(CIRCLE, 0.0)
    v = rs.SurfaceField.constant(CIRCLE, 0.5)
    for u0, extra in ((0.0, 0.0), (1.0, np.pi / 2.0)):
        st = rs.FullState(0.0, rs.BulkField.constant(disk, u0), phi, v)
        e = rs.total_energy(st, params)
        assert e == pytest.approx(2 * np.pi * POT.value(0.0) + extra, rel=1e-12,
                                  abs=1e-12)
    # quadratic scaling of the bulk part
    st1 = rs.FullState(0.0, rs.BulkField.constant(disk, 1.0), phi, v)
    st2 = rs.FullState(0.0, rs.BulkField.constant(disk, 2.0), phi, v)
    base = rs.surface_energy(phi, v, params)
    assert (rs.total_energy(st2, params) - base) == pytest.approx(
        4.0 * (rs.total_energy(st1, params) - base), rel=1e-12)


def test_masses():
    disk = rs.DiskGrid(16, 64)
    phi = rs.SurfaceField.constant(CIRCLE, 0.25)
    v = rs.SurfaceField.constant(CIRCLE, 0.0)
    st = rs.FullState(0.0, rs.BulkField.constant(disk, 1.0), phi, v)
    combined, phi_mass = rs.masses(st)
    assert combined == pytest.approx(np.pi, rel=1e-12)
    assert phi_mass == pytest.approx(0.5 * np.pi, rel=1e-12)

    v2 = rs.SurfaceField.constant(CIRCLE, 0.5)
    red = rs.ReducedState.from_mass(0.0, phi, v2, total_mass=np.pi)
    combined, _ = rs.masses(red)
    assert combined == pytest.approx(np.pi, rel=1e-12)
    assert red.u == pytest.approx(0.0, abs=1e-15)


def test_lyapunov_values():
    params = rs.Params(delta=1.0, potential=POT, exchange=rs.ReactionExchange())
    phi, v = fields(0.0, 0.0)
    assert rs.lyapunov_functional(phi, v, params) == pytest.approx(
        2 * np.pi * POT.value(0.0), abs=1e-12)
    phi, v = fields(0.0, 1.0)
    assert rs.lyapunov_functional(phi, v, params) == pytest.approx(
        2 * np.pi * (POT.value(0.0) + 2.0), rel=1e-12)


def test_lyapunov_lower_bound():
    # explicit constants: c (||phi||_H1^2 + ||v||^2) - C with
    # c = min(1/2, 1/(2 delta)), C = |Gamma| (max(-min W, 0) + 1/delta)
    delta = 1.0
    params = rs.Params(delta=delta, potential=POT, exchange=rs.ReactionExchange())
    gamma = CIRCLE.total_measure
    w_min = float(np.min(POT.value(np.linspace(-1, 1, 2001))))
    c10 = min(0.5, 0.5 / delta)
    c11 = gamma * (max(-w_min, 0.0) + 1.0 / delta)
    rng = np.random.default_rng(31)
    for seed in range(8):
        phi = lowpass_field(CIRCLE, seed, rng.uniform(0.05, 0.9))
        v = lowpass_field(CIRCLE, seed + 100, rng.uniform(0.05, 2.0),
                          mean=rng.uniform(-1.0, 1.0))
        g = rs.lyapunov_functional(phi, v, params)
        norm = (CIRCLE.l2_norm(phi.values) ** 2
                + CIRCLE.h1_seminorm_sq(phi.values)
                + CIRCLE.l2_norm(v.values) ** 2)
        assert g >= c10 * norm - c11


def test_variational_derivative():
    # chem_mu / chem_eta are the L2 gradients of the surface energy
    params = rs.Params(delta=0.9, potential=POT, exchange=rs.ReactionExchange())
    phi = lowpass_field(CIRCLE, 41, 0.5)
    v = lowpass_field(CIRCLE, 42, 0.3, mean=0.5)
    direction = lowpass_field(CIRCLE, 43, 1.0)
    eta = rs.chem_eta(phi, v, params.delta)
    mu = rs.chem_mu(phi, eta, params.potential)
    for eps in (1e-4, 1e-5):
        plus = rs.SurfaceField(CIRCLE, phi.values + eps * direction.values)
        minus = rs.SurfaceField(CIRCLE, phi.values - eps * direction.values)
        fd = (rs.surface_energy(plus, v, params)
              - rs.surface_energy(minus, v, params)) / (2 * eps)
        inner = CIRCLE.integral(mu.values * direction.values)
        assert fd == pytest.approx(inner, rel=1e-6)
        vplus = rs.SurfaceField(CIRCLE, v.values + eps * direction.values)
        vminus = rs.SurfaceField(CIRCLE, v.values - eps * direction.values)
        fd_v = (rs.surface_energy(phi, vplus, params)
                - rs.surface_energy(phi, vminus, params)) / (2 * eps)
        inner_v = CIRCLE.integral(eta.values * direction.values)
        assert fd_v == pytest.approx(inner_v, rel=1e-9)


def test_reduced_u_from_mass():
    v = rs.SurfaceField.constant(CIRCLE, 0.0)
    assert rs.reduced_u_from_mass(np.pi, v, np.pi) == pytest.approx(1.0)
    v2 = rs.SurfaceField.constant(CIRCLE, 0.5)
    assert rs.reduced_u_from_mass(np.pi, v2, np.pi) == pytest.approx(0.0, abs=1e-15)


def test_reduced_q_of_v():
    # the reduced model's rate is exchange_q at the mass-determined bulk value
    law = rs.ReactionExchange(b1=1.0, b2=1.0)

    def reduced_q(v):
        u = rs.reduced_u_from_mass(2 * np.pi, v, np.pi)
        return rs.exchange_q(law, u, None, v, 0.0)

    v = rs.SurfaceField.constant(CIRCLE, 0.5)
    assert np.max(np.abs(reduced_q(v).values)) <= 1e-14  # u=1: 1*(1/2) - 1/2 = 0
    # v with full mass: u = 0 and q = -b2 v
    v_full = rs.SurfaceField.constant(CIRCLE, 2 * np.pi / CIRCLE.total_measure)
    assert np.allclose(reduced_q(v_full).values, -law.b2 * v_full.values,
                       rtol=1e-12)


def test_energy_identity_residual_degenerate():
    params = rs.Params(potential=POT, exchange=rs.EquilibriumExchange(a0=1.0))
    disk = rs.DiskGrid(16, 64)
    phi = rs.SurfaceField.constant(CIRCLE, 0.0)
    v = rs.SurfaceField.constant(CIRCLE, 0.5)
    st = rs.FullState(0.0, rs.BulkField.constant(disk, 0.0), phi, v)
    rec = rs.diagnose(st, params)
    assert rs.energy_identity_residual([rec]) == 0.0
    # a stationary state contributes nothing over any segment
    rec2 = rs.diagnose(rs.FullState(1.0, st.u, st.phi, st.v), params)
    assert rs.energy_identity_residual([rec, rec2]) <= 1e-14


def test_validation():
    with pytest.raises(ValueError):
        rs.Params(D=-1.0)
    with pytest.raises(ValueError):
        rs.Params(delta=0.0)
    with pytest.raises(ValueError):
        rs.ReactionExchange(b1=0.0)
    with pytest.raises(ValueError):
        rs.EquilibriumExchange(a0=-0.1)
    with pytest.raises(ValueError):
        rs.CutoffReactionExchange(h0=0.0)
    v = rs.SurfaceField.constant(CIRCLE, 0.5)
    phi = rs.SurfaceField.constant(CIRCLE, 0.0)
    with pytest.raises(ValueError):
        rs.ReducedState(0.0, 5.0, phi, v, total_mass=0.0)  # mass relation broken
    with pytest.raises(ValueError):  # incompatible boundary circle
        rs.FullState(0.0, rs.BulkField.constant(rs.DiskGrid(8, 32), 0.0), phi, v)
    with pytest.raises(ValueError):  # phi and v on different grids
        rs.ReducedState.from_mass(
            0.0, phi, rs.SurfaceField.constant(rs.SurfaceGrid.circle(32), 0.5),
            total_mass=1.0)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: rs.Params(D=NAN),
    lambda: rs.Params(D=float("inf")),
    lambda: rs.Params(delta=NAN),
    lambda: rs.ReactionExchange(b1=NAN),
    lambda: rs.EquilibriumExchange(a0=NAN),
    lambda: rs.EquilibriumExchange(alpha=NAN),
    lambda: rs.CutoffReactionExchange(h0=NAN),
    # the mass relation holds for any u when omega_measure is 0
    lambda: rs.ReducedState(0.0, 1.0, rs.SurfaceField.constant(CIRCLE, 0.0),
                            rs.SurfaceField.constant(CIRCLE, 0.5),
                            total_mass=np.pi, omega_measure=0.0),
    lambda: rs.ReducedState.from_mass(0.0, rs.SurfaceField.constant(CIRCLE, 0.0),
                                      rs.SurfaceField.constant(CIRCLE, 0.5),
                                      total_mass=np.pi, omega_measure=0.0),
    lambda: rs.ReducedState(0.0, NAN, rs.SurfaceField.constant(CIRCLE, 0.0),
                            rs.SurfaceField.constant(CIRCLE, 0.5),
                            total_mass=0.0),
], ids=["D_nan", "D_inf", "delta_nan", "b1_nan", "a0_nan", "alpha_nan",
        "h0_nan", "omega_measure_zero", "from_mass_omega_measure_zero",
        "u_nan"])
def test_refuses_values_that_cannot_run(build):
    # each was accepted, and a run from it ended in a non-finite surface
    # field or a ZeroDivisionError
    with pytest.raises(ValueError):
        build()
