#!/usr/bin/env python3
"""potdeg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S

Run from the root of a source checkout; the package is imported from
./src.  Workloads (see workloads.py and BENCHMARK.json): dtn-l4,
convergence-l3g12, certify.  Each is one closed-loop client in one fresh
process, calling the library's public functions directly; BLAS threads are
pinned to min(nproc, 2) before numpy loads.

--trace 0 sets up `setup_repeats` times (setup_s is the median), then runs
ops back to back for --seconds.  A host-speed reference (speed.py) runs
around each set-up and every REFERENCE_EVERY_S of ops; every time in the run
is scaled by NOMINAL_S / (the median reference), and the raw wall-clock
figures are reported beside the scaled ones.  Every op's
output is checked; a failed check or a raised library error counts as a
failed op.  --trace 1 sets up once and runs a fixed number of ops with
run-time wrappers around the public functions, so its counts repeat exactly
for one seed; it replays the same ops untraced to report the tracing
overhead, and writes its spans to perfbench/out/.  --workload all runs every
workload in its own process and prints every metric with its unit.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ["dtn-l4", "convergence-l3g12", "certify"]
BLAS_THREADS = max(1, min(len(os.sched_getaffinity(0)), 2))
BLAS_ENV = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"]

# seconds of ops between two host-speed references (speed.py)
REFERENCE_EVERY_S = 2.5

END_TO_END = [("setup_s", "s"), ("solve_p50_s", "s"), ("solve_tail_s", "s"),
              ("peak_rss_mb", "MB")]

# (name, unit); ".self_s" is summed self time of a span, ".calls" its count,
# the rest are counts the workload computes from returned objects
PER_LAYER = [
    ("geometry.make_unit_sphere.self_s", "s"),
    ("geometry.node_spacing.self_s", "s"),
    ("geometry.volume_grid_from_mesh.self_s", "s"),
    ("geometry.cut_cells", "count"),
    ("potentials.winding_solid_angle.self_s", "s"),
    ("potentials.winding_solid_angle.points", "count"),
    ("potentials.mean_curvature.self_s", "s"),
    ("potentials.adjoint_kernel_matrix.self_s", "s"),
    ("potentials.double_layer_matrix.self_s", "s"),
    ("potentials.single_layer_matrix.self_s", "s"),
    ("potentials.grad_single_layer_matrix.self_s", "s"),
    ("potentials.grad_double_layer_matrix.self_s", "s"),
    ("potentials.near_rows", "count"),
    ("potentials.rows", "count"),
    ("potentials.newton_matrix.self_s", "s"),
    ("potentials.grad_newton_matrices.self_s", "s"),
    ("potentials.adjoint_volume_matrix.self_s", "s"),
    ("potentials.operator_bytes", "bytes"),
    ("potentials.single_layer.self_s", "s"),
    ("potentials.double_layer.self_s", "s"),
    ("potentials.near_probe_frac", "ratio"),
    ("bie.assemble_neumann_system.self_s", "s"),
    ("bie.lu_factor.self_s", "s"),
    ("bie.g02_normal_derivative.self_s", "s"),
    ("bie.g02_normal_derivative.calls", "count"),
    ("bie.solve_neumann_data.self_s", "s"),
    ("bie.evaluate_representation.self_s", "s"),
    ("solver.source_to_field_matrices.self_s", "s"),
    ("solver.solve_semilinear.self_s", "s"),
    ("solver.contraction_certificate.self_s", "s"),
    ("solver.iterations", "count"),
    ("funcspace.mollify.self_s", "s"),
    ("funcspace.mollify.calls", "count"),
    ("funcspace.negative_norm.self_s", "s"),
    ("funcspace.negative_norm.calls", "count"),
    ("symbols.build_symbol_matrices.self_s", "s"),
    ("symbols.symbolic_det_and_inverse_factor.self_s", "s"),
    ("symbols.check_conditions.self_s", "s"),
    ("hammerstein.estimate_tau.self_s", "s"),
    ("hammerstein.picard_solve.attempts_per_solve", "ratio"),
    ("degree.fit_polynomial_approximation.self_s", "s"),
    ("degree.brouwer_degree.self_s", "s"),
    ("degree.field_evals", "count"),
]

# workload-specific figures printed from the report, outside the result line's metrics
REPORTED = [("max_rel_err", "ratio"), ("probes_per_s", "1/s"), ("overhead_s", "s"),
            ("overhead_frac", "ratio"), ("wall_setup_s", "s"), ("wall_solve_p50_s", "s"),
            ("speed_factor", "ratio")]

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = ["geometry.cut_cells", "potentials.near_rows", "potentials.operator_bytes",
                "solver.iterations", "bie.g02_normal_derivative.calls", "degree.field_evals"]


def tail_percentile(latencies):
    """(value, percentile, ops beyond): the highest whole percentile with at
    least ten ops beyond it (nearest rank); the maximum below 20 ops."""
    s = sorted(latencies)
    n = len(s)
    if n < 20:
        return s[-1], 100, 0
    p = math.floor(100 * (n - 10) / n)
    k = math.ceil(p * n / 100)
    return s[k - 1], p, n - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment(seed) -> dict:
    import numpy as np
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(d / 'level')} {_read(d / 'type')} {_read(d / 'size')}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"seed": seed, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS}


def _library_errors():
    """What an op or a set-up may raise on bad numerics: counted as a failure."""
    import numpy as np
    from potdeg.errors import PotdegError

    return PotdegError, ValueError, np.linalg.LinAlgError


def run_op(wl, state, inp):
    """One op, timed, then checked: (latency_s, failures, error, output)."""
    t0 = time.perf_counter()
    try:
        out = wl.run_op(state, inp)
    except _library_errors() as exc:
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], None, None
    latency = time.perf_counter() - t0
    failures, err = wl.check_op(state, inp, out)
    return latency, failures, err, out


def set_up(wl, seed, tracer):
    """(seconds, state, failures) for one set-up and its checks."""
    t0 = time.perf_counter()
    try:
        state = wl.setup(tracer)
    except _library_errors() as exc:
        return time.perf_counter() - t0, None, [f"set-up {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    return seconds, state, wl.check_setup(state, seed)


def measure(wl, seed, seconds):
    """Untraced run: end-to-end metrics and the report."""
    from speed import Reference

    with Reference() as reference:
        return _measure(wl, seed, seconds, reference)


def _measure(wl, seed, seconds, reference):
    from speed import NOMINAL_S
    from tracing import Tracer

    tracer = Tracer()        # never installed: its spans record nothing
    refs = [reference()]
    setup_raw, state = [], None
    for _ in range(wl.setup_repeats):
        state = None
        gc.collect()
        t, state, failures = set_up(wl, seed, tracer)
        if failures:
            return None, {"setup_failures": failures}, 1, 1
        setup_raw.append(t)
        refs.append(reference())
    diagnostics = wl.diagnostics(state)
    raw, errors, failed, probes, probe_s = [], [], [], 0, 0.0
    deadline = time.perf_counter() + seconds
    block_end = time.perf_counter() + REFERENCE_EVERY_S
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        latency, failures, err, out = run_op(wl, state, wl.make_input(state, seed, i))
        raw.append(latency)
        if err is not None:
            errors.append(err)
        if failures:
            failed.append({"op": i, "failures": failures})
        if out is not None and "probes" in out:
            probes += out["probes"]
            probe_s += out["probes_s"]
        i += 1
        if time.perf_counter() >= min(block_end, deadline):
            refs.append(reference())
            block_end = time.perf_counter() + REFERENCE_EVERY_S
    # the median reference is the run's host speed; one stalled reference cannot move it
    speed = NOMINAL_S / statistics.median(refs)
    setup_times = [t * speed for t in setup_raw]
    latencies = [x * speed for x in raw]
    report = {"setup_s_samples": setup_times, "setup_wall_s_samples": setup_raw,
              "diagnostics": diagnostics}
    tail, pct, beyond = tail_percentile(latencies)
    metrics = {"setup_s": statistics.median(setup_times),
               "solve_p50_s": statistics.median(latencies),
               "solve_tail_s": tail,
               "peak_rss_mb": peak_rss_mb()}
    report.update({"ops": len(latencies), "tail_percentile": pct, "tail_ops_beyond": beyond,
                   "latencies_s": latencies, "latencies_wall_s": raw,
                   "wall_setup_s": statistics.median(setup_raw),
                   "wall_solve_p50_s": statistics.median(raw),
                   "reference_s": refs, "speed_factor": speed,
                   "failed_ops": failed[:10]})
    if errors:
        report["max_rel_err"] = max(errors)
    if probes:
        report["probes_per_s"] = probes / probe_s
        report["probes"] = probes
    return metrics, report, len(latencies), len(failed)


def measure_traced(wl, seed):
    """Traced run: per-layer metrics from a fixed number of ops."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            _, state, failures = set_up(wl, seed, tracer)
    finally:
        tracer.uninstall()
    if failures:
        return None, {"setup_failures": failures}, 1, 1
    inputs = [wl.make_input(state, seed, i) for i in range(wl.traced_ops)]
    traced, untraced, outs, failed = [], [], [], []

    def record(label, failures):
        if failures:
            failed.append({"op": label, "failures": failures})

    record("warm-up", run_op(wl, state, inputs[0])[1])     # fills lazy caches for both timings
    for i, inp in enumerate(inputs):
        tracer.op = i
        tracer.install()
        try:
            with tracer.span("bench.op"):
                latency, failures, _, out = run_op(wl, state, inp)
        finally:
            tracer.uninstall()
        record(f"traced {i}", failures)
        traced.append(latency)
        outs.append(out)
        plain, plain_failures, _, _ = run_op(wl, state, inp)
        record(f"untraced {i}", plain_failures)
        untraced.append(plain)
    self_s = tracer.self_times()
    counts = wl.layer_counts(state, inputs, [o for o in outs if o is not None])
    counts.update(tracer.counts)
    solves = tracer.calls("degree.existence_from_degree")
    counts["hammerstein.picard_solve.attempts_per_solve"] = (
        tracer.calls("hammerstein.picard_solve") / solves if solves else 0.0)
    metrics = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            metrics[name] = tracer.calls(name[:-len(".calls")])
        else:
            metrics[name] = counts.get(name, 0)
    overhead = sum(traced) - sum(untraced)
    report = {"traced_ops": len(inputs), "traced_op_s": traced, "untraced_op_s": untraced,
              "overhead_s": overhead, "overhead_frac": overhead / sum(untraced),
              "spans": len(tracer.spans), "failed_ops": failed}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{wl.name}-seed{seed}.json", {"metrics": metrics, "report": report})
    attempted = 1 + 2 * len(inputs)
    return metrics, report, attempted, len(failed)


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed),
                       "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}})


def run_one(name, seed, seconds, trace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    env = environment(seed)
    if trace:
        metrics, report, attempted, failed = measure_traced(wl, seed)
        units = dict(PER_LAYER)
    else:
        metrics, report, attempted, failed = measure(wl, seed, seconds)
        units = dict(END_TO_END)
    report = {"workload": name, "trace": trace, "seconds": seconds, "environment": env, **report}
    print("report " + json.dumps(report, default=float))
    if metrics is None:
        print(f"{name}: set-up failed: {report['setup_failures']}", file=sys.stderr)
        print(result_line(False, attempted, failed, {}, units))
        return 0
    for key, unit in REPORTED:
        if key in report:
            print(f"  {key} = {report[key]:.6g} {unit}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(f"  ops attempted = {attempted}, failed = {failed}")
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def run_all(seed, seconds, trace) -> int:
    """Every workload in its own fresh process; prints each metric with its unit."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            if not line.startswith("report "):
                print(line)
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
        summary[name] = json.loads(lines[-1]) if lines else None
        if proc.returncode or not (summary[name] or {}).get("correct"):
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "potdeg" / "__init__.py").is_file():
        print(f"no potdeg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
