"""raftsim benchmark.

Usage, from the root of a raftsim checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One invocation times set-up in fresh interpreters, runs one untimed
warm-up operation, then repeats operations until S seconds of them are
measured and, where steps are timed, at least 1000 step samples exist, so
that p99 has ten samples beyond it.  Every operation passes the correctness
gates in gates.py and must give the same final-state digest as the first.
The benchmark runs with OPENBLAS_NUM_THREADS=1 and records the value it
found in the machine record.  Each operation follows a timing of a fixed
reference kernel (`Reference`); BENCHMARK.json lists operation time over
kernel time, which the host's changing CPU speed moves far less than the
bare wall time the report also gives.

With --trace 0 the end-to-end metrics are measured with nothing wrapped.
With --trace 1 traced and untraced operations alternate: the traced ones
give the per-layer metrics, the untraced ones the tracing overhead.

Standard output ends with two JSON lines: a full report (machine record,
gates, sample counts, every metric with its unit) and the result
{"correct", "attempted", "failed", "metrics"} carrying the metrics that
BENCHMARK.json lists for the chosen mode.  Exit code 2 means the checkout
holds no raftsim sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("reduced_torus128", "full_disk_io", "kappa_sweep",
                  "steady_circle32")
THREAD_VARS = ("RAFTSIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# One BLAS thread: on two shared cores OpenBLAS helper threads made run-to-run
# spread of the dense disk solve and the torus Krylov path several times wider.
PINNED = {"OPENBLAS_NUM_THREADS": "1"}
SETUP_PROBES = 5          # measured fresh interpreters, after one warm-up
MIN_STEP_SAMPLES = 1000   # p99 of 1000 samples has ten beyond it
LOOP_CAP_S = 120.0        # stop repeating operations after this long
REF_SHARE = 0.05          # reference-kernel time per unit of operation time
UNITS = {
    "setup_s": "s", "wall_s": "s", "wall_vs_ref": "ratio", "reference_s": "s",
    "steps_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p99": "ms",
    "peak_rss_mb": "MB", "fail_frac": "ratio",
    "stepper.substep_ratio": "ratio", "experiments.parallel_eff": "ratio",
    "process.cpu_per_wall": "ratio", "trace.overhead_frac": "ratio",
    "config.parse_s": "s", "config.build_state_s": "s",
    "io.read_snapshot_s": "s/call", "process.cpu_s": "s/op",
}


def unit_of(name):
    """Unit of a metric; per-layer counts, bytes and times are per op."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_bytes") or name.endswith("_bytes_computed"):
        return "B/op"
    if name.endswith("_s"):
        return "s/op"
    return "count/op"


# -- statistics ------------------------------------------------------------------

def samples_beyond(n, q):
    """Samples above the nearest-rank q-quantile of n samples."""
    return n - max(1, math.ceil(q * n))


def percentile(samples, q):
    """Nearest-rank q-quantile; needs ten samples beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < 10:
        raise ValueError(f"{n} samples leave fewer than 10 beyond the "
                         f"{100 * q:g}th percentile")
    return sorted(samples)[max(1, math.ceil(q * n)) - 1]


def highest_percentile(n):
    """Largest of p50, p90, p99, p99.9, p99.99 with ten samples beyond it."""
    best = None
    for q in (0.5, 0.9, 0.99, 0.999, 0.9999):
        if samples_beyond(n, q) >= 10:
            best = q
    return best


# -- machine record ----------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas():
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return None


def machine_record(args, found_env):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "env_as_found": found_env,
        "pinned_by_benchmark": PINNED,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- measurement -------------------------------------------------------------------

def setup_times(workload, seed):
    """Median set-up split over SETUP_PROBES fresh interpreters."""
    runs = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    runs = runs[1:]  # the first probe compiles bytecode
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Reference:
    """A fixed mix of the work raftsim's steps do: 2-D real FFTs, small
    dense solves and a Python loop, 40-60 ms on a 2 GHz Xeon.  It runs on
    as many threads as the workload's operations keep busy, since
    neighbours slow the two cores unequally.

    On a shared two-core host, neighbours changed the speed of the CPU this
    process runs on by 20-60% for seconds to minutes at a time, which moved
    a 15 s run's median operation time by as much.  Timed just before each
    operation, this kernel slows with it (correlation 0.8 on the torus), so
    operation time over kernel time is the steady measure of the program's
    cost; the bare wall times are reported beside it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.grid = rng.standard_normal((128, 128))
        self.matrix = rng.standard_normal((64, 64)) + 64.0 * np.eye(64)
        self.rhs = rng.standard_normal((64, 64))

    def once(self):
        np = self.np
        start = time.perf_counter()
        for _ in range(60):
            np.fft.irfft2(np.fft.rfft2(self.grid))
        for _ in range(100):
            np.linalg.solve(self.matrix, self.rhs)
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - start

    def concurrent(self, threads):
        """Time `threads` copies of the kernel run side by side."""
        if threads == 1:
            return self.once()
        workers = [threading.Thread(target=self.once) for _ in range(threads)]
        start = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return time.perf_counter() - start

    def __call__(self, budget, threads=1):
        """Median time of the kernel on `threads` threads, run once and then
        until `budget` seconds have passed; one sample is as noisy as the
        host."""
        samples = [self.concurrent(threads)]
        while sum(samples) < budget:
            samples.append(self.concurrent(threads))
        return statistics.median(samples)


def run_operation(wl, tracer, reference, ref_budget):
    """One operation, optionally under the tracer, after timing the
    reference kernel for `ref_budget` seconds; never raises."""
    from workloads import Outcome
    ref = reference(ref_budget, wl.threads)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.operation()
            else:
                with tracer:
                    out = wl.operation()
        except Exception as exc:  # a raising operation is a failed operation
            out = Outcome(problems=[f"{type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
    fallbacks = sum("regularized well" in str(w.message) for w in caught)
    return {"wall": wall, "ref": ref, "cpu": cpu, "out": out,
            "traced": tracer is not None, "fallback_warnings": fallbacks}


def timed_ops(ops):
    """All operations but the warm-up, which fills caches and lazy imports."""
    return ops[1:]


def measure(wl, seconds, trace, tracer, reference):
    ops = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        # the kernel takes REF_SHARE of the time of the operation before
        ref_budget = REF_SHARE * ops[-1]["wall"] if ops else 0.0
        ops.append(run_operation(wl, tracer if traced else None, reference,
                                 ref_budget))
        timed = timed_ops(ops)
        steps = sum(o["out"].steps for o in timed if not o["traced"])
        done = (sum(o["wall"] for o in timed) >= seconds
                and len(timed) >= (2 if trace else 1)
                and (trace or steps == 0 or steps >= MIN_STEP_SAMPLES))
        if done or time.perf_counter() - begin > LOOP_CAP_S:
            return ops


def reference_digest(ops):
    """Final-state digest of the first operation that completed."""
    return next((o["out"].digest for o in ops if o["out"].digest), "")


def judge(ops, final):
    """Count failed operations: a raise, a gate violation, or a digest that
    differs from the first completed operation's."""
    reference = reference_digest(ops)
    failures = []
    for i, op in enumerate(ops):
        out = op["out"]
        problems = list(out.problems)
        if out.digest and out.digest != reference:
            problems.append(f"digest {out.digest[:12]} != first {reference[:12]}")
        if problems:
            failures.append({"op": i, "problems": problems})
    attempted = len(ops)
    if final is not None:
        attempted += 1
        if final:
            failures.append({"op": "resume", "problems": final})
    return attempted, failures


def end_to_end(timed, setup, failed, attempted):
    timed = [o for o in timed if not o["traced"]]
    step_s = [s for o in timed for s in o["out"].step_s]
    metrics = {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(o["wall"] for o in timed),
        "wall_vs_ref": statistics.median(o["wall"] / o["ref"] for o in timed),
        "reference_s": statistics.median(o["ref"] for o in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": failed / attempted,
    }
    # Step throughput and latency exist only where operations take time
    # steps; BENCHMARK.json lists none of them, as the steady workload has none.
    if any(o["out"].steps for o in timed):
        metrics["steps_per_s"] = statistics.median(
            o["out"].steps / o["wall"] for o in timed)
    for name, q in (("step_ms_p50", 0.50), ("step_ms_p99", 0.99)):
        if samples_beyond(len(step_s), q) >= 10:
            metrics[name] = 1e3 * percentile(step_s, q)
    samples = {"operations": len(timed), "step_samples": len(step_s),
               "highest_supported_percentile": highest_percentile(len(step_s))}
    return metrics, samples


def per_layer(timed, tracer, setup, extras):
    import layers
    traced = [o for o in timed if o["traced"]]
    plain = [o for o in timed if not o["traced"]]
    n = len(traced)
    metrics, member_s, workers = layers.span_metrics(
        tracer.spans, n, sum(o["out"].steps for o in traced))
    traced_wall = sum(o["wall"] for o in traced)
    metrics.update({
        "stepper.fallback_warnings":
            sum(o["fallback_warnings"] for o in traced) / n,
        "io.read_snapshot_s": extras.get("io.read_snapshot_s", 0.0),
        "config.parse_s": setup["parse_s"],
        "config.build_state_s": setup["build_state_s"],
        "experiments.parallel_eff":
            member_s / (traced_wall * workers) if workers else 0.0,
    })
    if plain:  # a run cut by LOOP_CAP_S may hold no untraced operation
        metrics.update({
            "process.cpu_s": statistics.median(o["cpu"] for o in plain),
            "process.cpu_per_wall":
                sum(o["cpu"] for o in plain) / sum(o["wall"] for o in plain),
            "trace.overhead_frac":
                statistics.median(o["wall"] for o in traced)
                / statistics.median(o["wall"] for o in plain) - 1.0,
        })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "raftsim" / "__init__.py").is_file():
        print(f"no raftsim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    found_env = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.update(PINNED)  # before numpy loads, here and in the probes

    setup = setup_times(args.workload, args.seed)
    import spans
    import workloads
    import layers

    machine = machine_record(args, found_env)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    wl = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = spans.Tracer(layers.targets()) if args.trace else None
        ops = measure(wl, args.seconds, args.trace, tracer, Reference())
        final, extras = (None, {})
        if reference_digest(ops):
            checked = wl.final_check(reference_digest(ops))
            if checked is not None:
                final, extras = checked
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    attempted, failures = judge(ops, final)
    timed = timed_ops(ops)
    metrics, samples = end_to_end(timed, setup, len(failures), attempted)
    samples["op_wall_s"] = [round(o["wall"], 4) for o in ops]
    samples["op_traced"] = [o["traced"] for o in ops]
    if args.trace:
        metrics.update(per_layer(timed, tracer, setup, extras))

    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit_of(name)}", file=sys.stderr)
    for failure in failures:
        print(f"FAILED op {failure['op']}: {failure['problems']}", file=sys.stderr)

    report = {
        "machine": machine,
        "setup": setup,
        "samples": samples,
        "failures": failures,
        "fallback_warnings": sum(o["fallback_warnings"] for o in ops),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)}
                    for k in listed if k in metrics},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
