"""Which raftsim names the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are raftsim's modules: surface, potentials, model, bulk, stepper
(with diagnose), steady, harness.config, harness.io and harness.experiments.
Times are self times: a span's duration minus the time its wrapped children
cover.  Counts and times are per operation unless the unit says otherwise.
harness.config is timed in the fresh-interpreter set-up probes instead, and
io.read_snapshot in the resume check.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict

import numpy as np

import raftsim.harness.experiments as experiments
import raftsim.harness.io as io
import raftsim.steady as steady
import raftsim.stepper as stepper
from raftsim.potentials import DoubleWell
from raftsim.surface import SurfaceGrid

from spans import ancestors, self_times

STEP = ("stepper.step_full", "stepper.step_reduced")
FFT = ("surface.fft", "surface.ifft")
STEADY = "steady.solve"
KRYLOV = ("stepper.gmres", "steady.gmres")


def _fft_bytes(args, kwargs, result):
    return np.asarray(args[1]).nbytes + result.nbytes


def _file_bytes(index):
    return lambda args, kwargs, result: os.path.getsize(args[index])


def targets():
    """(owner, attribute, span name, sizer) for every wrapped name."""
    out = [
        (stepper, "step_full", "stepper.step_full", None),
        (stepper, "step_reduced", "stepper.step_reduced", None),
        (stepper, "diagnose", "stepper.diagnose", None),
        (stepper, "diffusion_step", "bulk.diffusion_step", None),
        (stepper, "exchange_q", "model.exchange_q", None),
        (stepper, "bulk_grad_norm_sq", "bulk.grad_norm", None),
        (stepper, "gmres", "stepper.gmres", None),
        (steady, "gmres", "steady.gmres", None),
        (steady, "solve_stationary_phi", STEADY, None),
        (experiments, "run", "experiments.run", None),
        (SurfaceGrid, "fft", "surface.fft", _fft_bytes),
        (SurfaceGrid, "ifft", "surface.ifft", _fft_bytes),
        (io, "write_snapshot", "io.write_snapshot", _file_bytes(1)),
        (io, "write_series", "io.write_series", _file_bytes(1)),
    ]
    for method in ("convex_deriv", "convex_second", "deriv", "second",
                   "regularized"):
        out.append((DoubleWell, method, f"potentials.{method}", None))
    return out


def span_metrics(spans, n_ops, accepted_steps):
    """Per-layer metrics of the spans of `n_ops` traced operations that
    accepted `accepted_steps` time steps between them."""
    own = self_times(spans)
    anc = ancestors(spans)
    count = Counter()
    secs = defaultdict(float)
    nbytes = defaultdict(int)
    member_s = 0.0
    member_threads = set()
    for s in spans:
        a = anc[s.sid]
        parent = a[0] if a else ""
        in_steady = STEADY in a
        in_step = any(x in STEP for x in a)
        layer = s.name.split(".", 1)[0]
        secs[s.name] += own[s.sid]
        count[s.name] += 1
        nbytes[s.name] += s.nbytes
        if layer == "potentials":
            secs["potentials.eval_s"] += own[s.sid]
            if not parent.startswith("potentials."):
                count["potentials.eval_calls"] += 1
        if s.name in KRYLOV:
            count["steady.krylov_calls" if in_steady
                  else "stepper.krylov_calls"] += 1
            if not in_steady:
                secs["stepper.krylov_s"] += own[s.sid]
        if s.name == "potentials.convex_second" and parent != "potentials.second":
            if in_steady:
                count["steady.flow_newton_iters"] += 1
            elif in_step:
                count["stepper.newton_iters"] += 1
        if (s.name == "potentials.convex_deriv" and in_step
                and not parent.startswith("potentials.")):
            count["stepper.residual_evals"] += 1
        if in_steady and s.name == "potentials.deriv":
            count["steady.residual_evals"] += 1
        if in_steady and s.name == "potentials.second":
            count["steady.newton_iters"] += 1
        if s.name == "experiments.run":
            member_s += s.end - s.start
            member_threads.add(s.thread)

    n = max(n_ops, 1)
    steps = sum(count[x] for x in STEP)
    out = {
        "surface.fft_calls": count["surface.fft"] / n,
        "surface.ifft_calls": count["surface.ifft"] / n,
        "surface.fft_s": sum(secs[x] for x in FFT) / n,
        "surface.fft_bytes_computed": sum(nbytes[x] for x in FFT) / n,
        "stepper.krylov_s": secs["stepper.krylov_s"] / n,
        "stepper.krylov_calls": count["stepper.krylov_calls"] / n,
        "stepper.step_self_s": sum(secs[x] for x in STEP) / n,
        "stepper.newton_iters": count["stepper.newton_iters"] / n,
        "stepper.residual_evals": count["stepper.residual_evals"] / n,
        "stepper.substep_ratio": steps / accepted_steps if accepted_steps else 0.0,
        "stepper.diagnose_s": secs["stepper.diagnose"] / n,
        "stepper.diagnose_calls": count["stepper.diagnose"] / n,
        "bulk.grad_norm_s": secs["bulk.grad_norm"] / n,
        "bulk.diffusion_step_s": secs["bulk.diffusion_step"] / n,
        "bulk.diffusion_step_calls": count["bulk.diffusion_step"] / n,
        "model.exchange_q_s": secs["model.exchange_q"] / n,
        "potentials.eval_s": secs["potentials.eval_s"] / n,
        "potentials.eval_calls": count["potentials.eval_calls"] / n,
        "steady.solve_s": secs[STEADY] / n,
        "steady.residual_evals": count["steady.residual_evals"] / n,
        "steady.newton_iters": count["steady.newton_iters"] / n,
        "steady.flow_newton_iters": count["steady.flow_newton_iters"] / n,
        "steady.krylov_calls": count["steady.krylov_calls"] / n,
        "io.write_snapshot_s": secs["io.write_snapshot"] / n,
        "io.snapshot_bytes": nbytes["io.write_snapshot"] / n,
        "io.write_series_s": secs["io.write_series"] / n,
        "io.series_bytes": nbytes["io.write_series"] / n,
        "experiments.members": count["experiments.run"] / n,
        "experiments.member_s": member_s / n,
    }
    return out, member_s, len(member_threads)
