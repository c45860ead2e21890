"""Layer-by-layer benchmark of the cdapprox pipeline.

The pipeline is moment matrix -> regularized Christoffel-Darboux kernel ->
per-x fiber minimisation -> Monte Carlo support checks.  Run from the
repository root:

    python3 perfbench/run.py --workload fiber-1d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced then traced
    python3 perfbench/run.py --workload disk-2d --smoke  # tiny sizes; see test_smoke.py

A run prints a readable report (environment, every end-to-end metric with
its unit, per-case numerical health and the oracle's verdicts), then as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the gated end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full report, and the spans of a traced run,
are written to ``perfbench/out/``.

``failed`` counts operations (builds, fiber points, support reports) whose
output an oracle check rejected or whose support verdict is false.  The
fiber path's known accuracy defects are counted there and in ``fail_frac``
and ``q_relerr_max``.  ``correct`` is false when a result cannot be trusted
at all: a build or a support report disagrees with its independent
reference, an output is malformed, a metric is miscomputed, repeated passes
differ, or the traced path is not bit-identical to the untraced one.  An
operation that raises stops the run with a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
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
WORKLOADS = ("fiber-1d", "disk-2d", "support-mc")
SETUP_REPS = {False: 7, True: 1}
CHILD_TIMEOUT_S = 170

# Gated end-to-end metrics (the last line with --trace 0).  Only metrics that
# are defined and non-zero on every workload can be gated; the others are
# printed in the report.
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics (the last line with --trace 1): span name -> metric.
SPAN_METRICS = {
    "moments.build.analytic": "moments.build_s.analytic",
    "moments.build.quad": "moments.build_s.quad",
    "moments.build.empirical": "moments.build_s.empirical",
    "moments.io": "moments.io_s",
    "basis.eval": "basis.eval_s",
    "cdkernel.factor": "cdkernel.factor_s",
    "cdkernel.filtered": "cdkernel.filtered_s",
    "cdkernel.eval_q": "cdkernel.eval_q_s",
    "approximant.init": "approximant.init_s",
    "approximant.coeffs": "approximant.coeffs_s",
    "approximant.argmin": "approximant.argmin_s",
    "support.report": "support.report_s",
    "support.mesh": "support.mesh_s",
    "support.bounds": "support.bounds_s",
    "metrics": "metrics.s",
}
COUNT_METRICS = ("moments.n", "moments.rows", "basis.rows", "cdkernel.q_evals", "approximant.points")
# health and outcome metric -> (per-case key, unit, aggregate over the cases)
HEALTH_METRICS = {
    "cdkernel.cond": ("cond", "ratio", max),
    "cdkernel.clipped": ("clipped", "count", sum),
    "cdkernel.markov_per_n": ("markov_per_n", "ratio", min),
    "approximant.coeff_max": ("coeff_max", "abs", max),
    "support.mass_vacuous": ("mass_vacuous", "count", sum),
    "support.sublevel_empty": ("sublevel_empty", "count", sum),
    "support.members": ("members", "count", sum),
}


def per_layer_units() -> dict:
    units = {name: "s" for name in SPAN_METRICS.values()}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: spec[1] for name, spec in HEALTH_METRICS.items()})
    units["trace.overhead_s"] = "s"
    return units


def pin_threads() -> int:
    """One BLAS thread and one fiber thread; must run before numpy loads.

    numpy and the library are therefore imported inside functions, after this.

    With two OpenBLAS threads the idle worker busy-waits between the small
    GEMMs of the fiber loop (process CPU time 1.4x wall time), which on a
    shared 2-core machine made fiber-1d about 12% slower and its run-to-run
    spread 14% instead of 8% (five 25 s runs each).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CDAPPROX_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_library() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cdapprox
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cdapprox from {src}: {exc}")
    if not Path(cdapprox.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: cdapprox was imported from {cdapprox.__file__}, not from {src}")


def blas_threads():
    """Thread count reported by the loaded OpenBLAS itself, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        so = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }
    env.update({var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CDAPPROX_THREADS")})
    return env


def setup_time(args) -> float:
    """Fresh-process set-up: interpreter start to the first evaluation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--smoke"] if args.smoke else []
    t0 = time.monotonic()
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(res.stdout.split()[-1]) - t0


def timed_passes(workloads, args, cases, reference, budget: float, probes: int) -> tuple:
    """Passes for ``budget`` seconds, with ``probes`` set-up probes spread evenly between them.

    The probes are spread over the whole run, not taken in a row, because the
    shared machine's speed regimes last several seconds: probes in a row all
    land in one regime, and set-up then read 0.53 s on one set of ten runs and
    0.69 s on the next.
    """
    passes, latencies, setup = [], [], []
    reproducible = True
    start = time.perf_counter()
    while not passes or len(setup) < probes or time.perf_counter() < start + budget:
        if len(setup) < probes and time.perf_counter() - start >= budget * len(setup) / probes:
            setup.append(setup_time(args))
            continue
        t0 = time.perf_counter()
        out = workloads.run_pass(args.workload, cases, latencies)
        passes.append(time.perf_counter() - t0)
        reproducible &= workloads.identical(out, reference)
    return passes, latencies, setup, reproducible


def traced_reps(workloads, tracing, args, cases, reference, budget: float) -> dict:
    """Repeat set-up plus the decomposed pass with spans on, for ``budget`` seconds."""
    import numpy as np

    tracer = tracing.Tracer()
    reps, parity = [], True
    deadline = time.perf_counter() + budget
    while not reps or time.perf_counter() < deadline:
        first, counts0 = len(tracer.spans), dict(tracer.counts)
        with tracing.instrument(tracer):
            traced_cases = workloads.setup(args.workload, args.seed, args.smoke, str(OUT), tracer)
            t0 = time.perf_counter()
            out = workloads.traced_pass(args.workload, traced_cases, tracer)
            pass_s = time.perf_counter() - t0
        counts = {k: v - counts0.get(k, 0) for k, v in tracer.counts.items()}
        reps.append((tracer.self_times(first), counts, pass_s))
        parity &= workloads.identical(out, reference) and all(
            np.array_equal(a.matrix.entries, b.matrix.entries) for a, b in zip(traced_cases, cases)
        )
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "case"], "spans": tracer.spans}))
    return {"reps": reps, "parity": parity, "spans_file": str(spans_path.relative_to(ROOT))}


def check(workloads, oracle, args, cases, reference) -> dict:
    """Oracle verdicts and health for every case, outside any timed region."""
    import numpy as np

    rng = np.random.default_rng([args.seed, 1])
    dense = workloads.SIZES[args.smoke]["dense_y"]
    n_check = workloads.SIZES[args.smoke]["support-mc"]["check"]
    attempted = failed = 0
    problems, per_case = [], {}
    for case in cases:
        build_problems = oracle.check_build(case, case.written)
        attempted += 1
        failed += bool(build_problems)
        problems += [f"{case.cid}: {p}" for p in build_problems]
        if workloads.KIND[args.workload] == "fiber":
            ys, qs, l1, over = reference[case.cid]
            v = oracle.check_fiber(case, ys, qs, l1, over, dense)
            attempted += v["points"]
            failed += v["failed"]
            if v["malformed"]:
                problems.append(f"{case.cid}: {v['malformed']} malformed fiber outputs")
            if not v["metrics_ok"]:
                problems.append(f"{case.cid}: l1_error or overshoot miscomputed")
            coeff_max = max(float(np.max(np.abs(case.app.y_coefficients(x)))) for x in case.X)
            v.update(oracle.health(case, coeff_max=coeff_max))
        else:
            rep = reference[case.cid]
            v = oracle.check_support(case, rep, n_check, rng)
            attempted += 1
            failed += bool(v["problems"]) or not v["verdict"]
            problems += [f"{case.cid}: {p}" for p in v["problems"]]
            v.update(oracle.health(case, rep=rep))
        v["build_problems"] = build_problems
        per_case[case.cid] = v
    return {"attempted": attempted, "failed": failed, "problems": problems, "cases": per_case}


def percentile_ms(latencies: list, q: int):
    """Percentile in ms, or None when fewer than ten samples lie beyond it."""
    if len(latencies) * (100 - q) < 1000:
        return None
    return statistics.quantiles(latencies, n=100)[q - 1] * 1e3


def end_to_end(workloads, args, cases, passes, latencies, setup, peak_rss_mb, verdicts) -> dict:
    """Every end-to-end metric of the report: name -> (value or None, unit, note)."""
    per_case = verdicts["cases"].values()
    fiber = workloads.KIND[args.workload] == "fiber"
    rate = workloads.ops_per_pass(args.workload, cases) * len(passes) / sum(latencies)
    call = "evaluate_batch" if fiber else "support_report"
    return {
        # Means, not medians: the shared machine switches between speed regimes
        # a few seconds long (measured up to 45% apart), and the median of a
        # run's samples jumps from one regime to the other.
        "run_s": (statistics.mean(passes), "s", f"mean of {len(passes)} passes"),
        "setup_s": (statistics.mean(setup) if setup else None, "s", f"mean of {len(setup)} fresh processes"),
        "fiber_pts_per_s": (rate if fiber else None, "1/s", "points through evaluate_batch"),
        "batch_ms_p50": (percentile_ms(latencies, 50), "ms", f"one {call} call, {len(latencies)} samples"),
        "batch_ms_p90": (percentile_ms(latencies, 90), "ms", f"one {call} call, {len(latencies)} samples"),
        "probes_per_s": (None if fiber else rate, "1/s", "mass samples plus probes through support_report"),
        "peak_rss_mb": (peak_rss_mb, "MB", "before the oracle runs"),
        "l1_err": (statistics.mean(v["l1_err"] for v in per_case) if fiber else None, "abs", "mean over cases"),
        "overshoot": (max(v["overshoot"] for v in per_case) if fiber else None, "abs", "max over cases"),
        "q_relerr_max": (
            max(v["q_relerr_max"] for v in per_case), "ratio",
            "fiber q vs spectral q" if fiber else "eval_q_batch vs Cholesky q",
        ),
        "fail_frac": (verdicts["failed"] / verdicts["attempted"], "ratio", f"{verdicts['failed']} of {verdicts['attempted']} operations"),
    }


def per_layer(traced: dict, untraced_run_s: float, verdicts: dict) -> dict:
    reps = traced["reps"]
    out = {}
    for span, metric in SPAN_METRICS.items():
        out[metric] = statistics.median(times.get(span, 0.0) for times, _, _ in reps)
    counts = reps[-1][1]
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    cases = verdicts["cases"].values()
    for name, (key, _, agg) in HEALTH_METRICS.items():
        vals = [v[key] for v in cases if key in v]
        out[name] = agg(vals) if vals else 0
    out["trace.overhead_s"] = statistics.mean(p for _, _, p in reps) - untraced_run_s
    return out


def fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(args, env, e2e, layer, traced, verdicts, tolerances) -> None:
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}, smoke {args.smoke}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("end-to-end metrics (tracing off):")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<16} {fmt(value):>14} {unit:<5} {note}")
    print("cases:")
    for cid, v in verdicts["cases"].items():
        keys = [k for k in v if k not in ("problems", "build_problems")]
        print(f"  {cid}: " + " ".join(f"{k}={fmt(v[k])}" for k in keys))
    print(f"oracle tolerances: {tolerances}")
    print(f"oracle: {verdicts['failed']} of {verdicts['attempted']} operations failed")
    for problem in verdicts["problems"]:
        print(f"  problem: {problem}")
    if layer is not None:
        total = statistics.median(sum(t.values()) for t, _, _ in traced["reps"])
        print(f"per-layer self time, median of {len(traced['reps'])} traced reps (share of set-up plus pass):")
        for name, value in layer.items():
            share = f"{100 * value / total:5.1f}%" if name in SPAN_METRICS.values() else ""
            print(f"  {name:<26} {fmt(value):>14} {share}")
        print(f"traced path bit-identical to untraced: {traced['parity']}; spans in {traced['spans_file']}")


def measure(args, nproc: int) -> int:
    import oracle
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    cases = workloads.setup(args.workload, args.seed, args.smoke, str(OUT))
    reference = workloads.run_pass(args.workload, cases, [])  # untimed warm-up
    budget = args.seconds / 2 if args.trace else args.seconds
    probes = 0 if args.trace else SETUP_REPS[args.smoke]
    passes, latencies, setup, reproducible = timed_passes(workloads, args, cases, reference, budget, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = traced_reps(workloads, tracing, args, cases, reference, budget) if args.trace else None
    verdicts = check(workloads, oracle, args, cases, reference)
    if not reproducible:
        verdicts["problems"].append("repeated passes gave different outputs")
    if traced is not None and not traced["parity"]:
        verdicts["problems"].append("traced path is not bit-identical to the untraced path")

    e2e = end_to_end(workloads, args, cases, passes, latencies, setup, peak_rss_mb, verdicts)
    layer = per_layer(traced, e2e["run_s"][0], verdicts) if traced else None
    env = environment(nproc)
    print_report(args, env, e2e, layer, traced, verdicts, oracle.TOLERANCES)

    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": not verdicts["problems"],
        "attempted": verdicts["attempted"],
        "failed": verdicts["failed"],
        "metrics": metrics,
    }
    report = {
        "args": vars(args), "environment": env, "tolerances": oracle.TOLERANCES,
        "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in e2e.items()},
        "per_layer": layer, "verdicts": verdicts, "passes_s": passes, "setup_s": setup, "result": result,
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"full report: {report_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rc = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            rc = max(rc, subprocess.run(cmd, timeout=CHILD_TIMEOUT_S + 10 * args.seconds).returncode)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: checks wiring, not speed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = pin_threads()
    import_library()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        import workloads

        OUT.mkdir(exist_ok=True)
        workloads.setup(args.workload, args.seed, args.smoke, str(OUT))
        print(repr(time.monotonic()))
        return 0
    return measure(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
