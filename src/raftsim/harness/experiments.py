"""Scripted experiments: large-diffusion sweeps, regularization refinement,
convergence to equilibrium, and absorbing-set sweeps.

Every experiment is a pure function of its RunConfig (plus explicit sweep
lists) and returns a JSON-ready report embedding the resolved config.  A
sweep runs its members one after another, in parameter order, on the
calling thread: the members are Python-bound, so threads would only contend
for the interpreter lock."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..model import (
    CutoffReactionExchange,
    EquilibriumExchange,
    ReactionExchange,
    ReducedState,
    chem_eta,
    chem_mu,
    left_endpoint_integral,
)
from ..bulk import BulkField, bulk_integral, bulk_mean
from ..potentials import LOGARITHMIC
from ..steady import postprocess_constants, steady_residual
from ..stepper import run
from .config import ConfigError, RunConfig, serialize_config


def _unsuitable(message):
    """The error for a config that the experiment cannot run (exit 2)."""
    return ConfigError([(None, message)])


# -- large cytosolic diffusion -------------------------------------------------

def experiment_large_d(cfg: RunConfig, d_list) -> dict:
    """Compare full runs over a ladder of diffusivities with the reduced run.

    Requires the full system on the disk with the cutoff reaction law whose
    cutoff threshold equals twice the mean bulk capacity (2M/|Omega|), and
    constant bulk initial data so both systems start from the same state.
    Reports e(D) = sup over samples |<u_D> - u_reduced| and the accumulated
    bulk heterogeneity integral of ||grad u_D||^2.  With the constant bulk
    data required here, the flux condition D du/dn = -q keeps grad(u_D) at
    O(1/D), so the reported heterogeneity scales like 1/D^2; the 1/D bound
    from D*integral(||grad u_D||^2) <= C is reached only by rough bulk data.
    """
    d_list = sorted(float(d) for d in d_list)
    if not d_list:
        raise _unsuitable("d_list must not be empty")
    if cfg.system != "full" or cfg.geometry.kind != "disk":
        raise _unsuitable("the large-D experiment needs the full system on the disk")
    law = cfg.exchange
    if not isinstance(law, CutoffReactionExchange):
        raise _unsuitable("the large-D experiment needs the cutoff reaction law")
    if cfg.initial.kind not in ("constant", "random"):
        # the reduced twin starts from initial.u0, not from a file's bulk
        raise _unsuitable("the large-D experiment needs constant or random "
                          f"initial data, got initial.kind = {cfg.initial.kind}")

    state0 = cfg.build_initial_state()
    grid = state0.phi.grid
    omega = state0.u.grid.total_measure
    total_mass = omega * cfg.initial.u0 + grid.integral(state0.v.values)
    h0_expected = 2.0 * total_mass / omega
    if abs(law.h0 - h0_expected) > 1e-12 * max(1.0, h0_expected):
        raise _unsuitable(
            f"cutoff threshold h0={law.h0!r} must equal 2M/|Omega|="
            f"{h0_expected!r} for this experiment")

    schedule = cfg.schedule
    base_params = cfg.build_params()
    try:
        params_of = {d: replace(base_params, D=d) for d in d_list}
    except ValueError as exc:
        raise _unsuitable(f"invalid experiment.d_list: {exc}") from exc

    full_trajs = [run(state0.copy(), params_of[d], cfg.stepper, schedule)
                  for d in d_list]
    red0 = ReducedState(0.0, cfg.initial.u0, state0.phi.copy(),
                        state0.v.copy(), total_mass, omega)
    reduced_traj = run(red0, base_params, cfg.stepper, schedule)
    red_u = np.array([r.u_scalar for r in reduced_traj.records])

    rows = []
    for d, traj in zip(d_list, full_trajs):
        full_u = np.array([r.u_scalar for r in traj.records])
        err = float(np.max(np.abs(full_u - red_u)))
        hetero = left_endpoint_integral(traj.records,
                                        lambda r: r.bulk_dissipation / d)
        rows.append({"d": d, "mean_error": err, "heterogeneity": hetero})
    return {
        "experiment": "large_d",
        "rows": rows,
        "reduced_u_final": float(red_u[-1]),
        "config": serialize_config(cfg),
    }


# -- regularization refinement ---------------------------------------------------

def experiment_kappa_refinement(cfg: RunConfig, kappa_list) -> dict:
    """Rerun one scenario with regularized wells and compare against the
    singular run: reports L2 differences of phi at the final time."""
    kappa_list = [float(k) for k in kappa_list]
    if not kappa_list:
        raise _unsuitable("kappa_list must not be empty")
    if cfg.potential.kind != LOGARITHMIC:
        raise _unsuitable("the refinement experiment starts from the "
                          "logarithmic (singular) potential")

    state0 = cfg.build_initial_state()
    schedule = cfg.schedule
    base_params = cfg.build_params()

    try:
        wells = [cfg.potential.regularized(k) for k in kappa_list]
    except ValueError as exc:
        raise _unsuitable(f"invalid experiment.kappa_list: {exc}") from exc
    phi_sing, *phi_reg = [
        run(state0.copy(), replace(base_params, potential=pot), cfg.stepper,
            schedule).final_state.phi.values
        for pot in [cfg.potential] + wells]
    phi_of = dict(zip(kappa_list, phi_reg))

    grid = state0.phi.grid
    rows = []
    prev = None
    for k in sorted(kappa_list, reverse=True):  # large kappa first
        phi_k = phi_of[k]
        row = {"kappa": k,
               "l2_diff_singular": grid.l2_norm(phi_k - phi_sing)}
        if prev is not None:
            row["l2_diff_previous"] = grid.l2_norm(phi_k - prev)
        rows.append(row)
        prev = phi_k
    return {
        "experiment": "kappa_refinement",
        "rows": rows,
        "max_abs_phi_singular": float(np.max(np.abs(phi_sing))),
        "config": serialize_config(cfg),
    }


# -- convergence to equilibrium ----------------------------------------------------

def _constants(eq):
    return {"u_inf": eq.u_inf, "eta_inf": eq.eta_inf, "mu_inf": eq.mu_inf,
            "v_total": eq.v_total}


def experiment_equilibrium_convergence(cfg: RunConfig) -> dict:
    """Long equilibrium-case run: stationarity of the final state,
    post-processed constants vs. the dynamic limits, and the decay-rate fit
    of ||phi(t) - phi(T)|| in the dual norm against (1 + t)."""
    law = cfg.exchange
    if not isinstance(law, EquilibriumExchange) or law.alpha <= 1.0:
        raise _unsuitable("the convergence experiment needs the equilibrium "
                          "law with decay exponent alpha > 1")

    state0 = cfg.build_initial_state()
    params = cfg.build_params()
    # phi(t) at t = 0 and every sample_stride steps, for the rate fit
    states = [state0]
    schedule = replace(cfg.schedule, checkpoint_stride=cfg.schedule.sample_stride)
    traj = run(state0, params, cfg.stepper, schedule,
               on_checkpoint=lambda state, _: states.append(state))

    final = traj.final_state
    grid = final.phi.grid
    pot = params.potential
    gamma = grid.total_measure
    m_mass = grid.integral(state0.phi.values)
    if hasattr(final, "total_mass"):
        total_mass = final.total_mass
        omega = final.omega_measure
        u_dyn = final.u
        u_dev = 0.0
    else:
        omega = final.u.grid.total_measure
        total_mass = bulk_integral(final.u) + grid.integral(final.v.values)
        u_dyn = bulk_mean(final.u)
        u_dev = float(np.sqrt(bulk_integral(
            BulkField(final.u.grid, (final.u.values - u_dyn) ** 2)) / omega))

    v_total_dyn = grid.integral(final.v.values)
    dyn_branch = postprocess_constants(
        final.phi, total_mass, m_mass, params.delta, omega, pot,
        a_inf_positive=False, v_total=v_total_dyn)
    remark_branch = postprocess_constants(
        final.phi, total_mass, m_mass, params.delta, omega, pot,
        a_inf_positive=True)

    eta_T = chem_eta(final.phi, final.v, params.delta)
    mu_T = chem_mu(final.phi, eta_T, pot)
    measure = math.sqrt(gamma)

    # decay-rate fit: dual-norm distance of phi(t) to the final state, itself
    # left out
    ts, dists = [], []
    for state in states:
        if state is final:
            continue
        diff = state.phi.values - final.phi.values
        diff = diff - grid.mean(diff)
        dist = grid.hminus1_norm(diff)
        if dist > 1e-9:
            ts.append(state.t)
            dists.append(dist)
    if len(ts) >= 3:
        slope, intercept = np.polyfit(np.log1p(ts), np.log(dists), 1)
        rate = {"lambda_fit": float(-slope), "points": len(ts)}
    else:
        rate = {"lambda_fit": None, "points": len(ts)}

    return {
        "experiment": "equilibrium_convergence",
        "steady_residual": steady_residual(final.phi, pot),
        "dynamic": {
            "u": float(u_dyn),
            "u_l2_deviation": float(u_dev),
            "v_total": float(v_total_dyn),
            "eta_mean": grid.mean(eta_T.values),
            "mu_mean": grid.mean(mu_T.values),
        },
        "constants_from_dynamic_v": _constants(dyn_branch),
        "constants_remark_branch": _constants(remark_branch),
        "match": {
            "u_vs_constant": abs(float(u_dyn) - dyn_branch.u_inf),
            "eta_l2_vs_constant": grid.l2_norm(
                eta_T.values - dyn_branch.eta_inf) / measure,
            "mu_l2_vs_constant": grid.l2_norm(
                mu_T.values - dyn_branch.mu_inf) / measure,
            "v_l2_vs_constant": grid.l2_norm(
                final.v.values - dyn_branch.v_inf.values) / measure,
        },
        "rate": rate,
        "config": serialize_config(cfg),
    }


# -- absorbing set -------------------------------------------------------------------

def experiment_absorbing(cfg: RunConfig, scales, t_star: float) -> dict:
    """Sweep the magnitudes of random initial data for the reduced reaction
    system and report sup over t >= t_star of (||phi||_H1^2 + ||v||_L2^2)
    per scale, exhibiting entry into one common bounded set."""
    scales = [float(s) for s in scales]
    if not scales:
        raise _unsuitable("scales must not be empty")
    if cfg.system != "reduced" or not isinstance(cfg.exchange, ReactionExchange):
        raise _unsuitable("the absorbing-set sweep targets the reduced "
                          "reaction system")
    if cfg.initial.kind != "random":
        # the scales multiply the amplitudes, which only random data reads
        raise _unsuitable("the absorbing-set sweep needs random initial data, "
                          f"got initial.kind = {cfg.initial.kind}")
    if not 0.0 <= t_star <= cfg.schedule.t_final:
        raise _unsuitable(f"experiment.t_star must lie in [0, t_final], "
                          f"got {t_star!r}")

    params = cfg.build_params()
    rows = []
    for s in scales:
        init = replace(cfg.initial, amplitude=cfg.initial.amplitude * s,
                       v_amplitude=cfg.initial.v_amplitude * s)
        state0 = replace(cfg, initial=init).build_initial_state()
        traj = run(state0, params, cfg.stepper, cfg.schedule)
        tail = [r for r in traj.records if r.t >= t_star]
        sup_norm = max(r.phi_h1_sq + r.v_l2_sq for r in tail)
        initial_norm = traj.records[0].phi_h1_sq + traj.records[0].v_l2_sq
        rows.append({"scale": s, "initial_norm_sq": initial_norm,
                     "sup_tail_norm_sq": sup_norm})
    return {
        "experiment": "absorbing",
        "t_star": t_star,
        "rows": rows,
        "config": serialize_config(cfg),
    }
