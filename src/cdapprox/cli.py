"""Command-line front end: approximate, benchmark, support checks, rate tables.

Exit codes: 0 success, 1 a theoretical bound was violated empirically,
2 bad input (files, flags, degrees), 3 numerical failure (indefinite matrix,
overflow).  All outputs are deterministic for a fixed seed: floats are
printed with repr-faithful precision and no timestamps are recorded, so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import nullcontext

import numpy as np

from . import __version__
from .approximant import Approximant, ApproxConfig
from .benchmarks import BENCHMARKS, get_benchmark, midpoint_grid
from .cdkernel import CDKernel, beta_schedule, threshold_params
from .errors import BoundViolationError, MomentFileError
from .metrics import bv_rate_bound, l1_error, lipschitz_rate_bound, overshoot
from .moments import load as load_matrix
from .moments import save_text
from .support import support_report


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _write_csv(path, header: list, rows) -> None:
    """Write the rows as CSV to ``path``, or to stdout when no path is given."""
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(args) -> None:
    """Record what a run was given as JSON at ``--manifest``, if one is set."""
    if not args.manifest:
        return
    params = {k: v for k, v in vars(args).items() if k != "manifest" and not callable(v)}
    with open(args.manifest, "w") as fh:
        json.dump({"command": args.command, "params": params, "version": __version__}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _resolve_beta(args, d: int) -> float:
    """--beta-schedule, or no --beta where the default is None, gives the degree schedule."""
    if args.beta_schedule or args.beta is None:
        return beta_schedule(d)
    return args.beta


def _build_matrix(args, bench, degree: int):
    rng = np.random.default_rng(args.seed)
    return bench.moment_matrix(degree, mode=args.mode, samples=args.samples, grid=args.grid, rng=rng)


def _eval_points(bench, args) -> np.ndarray:
    count = args.eval_grid
    if count is None:
        count = 1000 if bench.p == 2 else 60
    if bench.p == 2:
        return bench.grid_x(count)
    return bench.grid_x((count, count))


def _evaluate(args, bench, approx) -> tuple:
    """(X, f(X), y, q, L1 error) of the approximant on the evaluation grid."""
    X = _eval_points(bench, args)
    f_true = np.asarray(bench.f(X), dtype=float)
    ys, qs = approx.evaluate_batch(X)
    return X, f_true, ys, qs, l1_error(ys, f_true, approx.spec.x_spec().domain_volume() / X.shape[0])


def cmd_approx(args) -> int:
    matrix = load_matrix(args.matrix)
    spec = matrix.spec
    beta = _resolve_beta(args, spec.d)
    kernel = CDKernel(matrix, beta)
    approx = Approximant(kernel, ApproxConfig(alpha=args.alpha))

    if args.points is not None:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # refused just below
            X = np.loadtxt(args.points, delimiter=",", ndmin=2)
        if X.shape[0] == 0:
            raise ValueError(f"points file {args.points} holds no points")
        if X.shape[1] != spec.p - 1:
            raise ValueError(f"points file has {X.shape[1]} columns, matrix needs {spec.p - 1}")
    elif args.grid is not None:
        X = midpoint_grid(spec.domain_array()[:-1], args.grid)
    else:
        raise ValueError("provide either --points or --grid")

    ys, qs = approx.evaluate_batch(X)
    header = [f"x{i + 1}" for i in range(spec.p - 1)] + ["y", "q"]
    _write_csv(args.out, header, np.concatenate([X, ys[:, None], qs[:, None]], axis=1))

    if args.sos_out:
        rows_sos = kernel.sos_decomposition()
        header_sos = ["eigenvalue"] + [f"c{i}" for i in range(spec.size)]
        _write_csv(
            args.sos_out,
            header_sos,
            np.concatenate([kernel.eigenvalues[:, None], rows_sos], axis=1),
        )
    _write_manifest(args)
    return 0


def cmd_benchmark(args) -> int:
    bench = get_benchmark(args.name)
    matrix = _build_matrix(args, bench, args.degree)
    if args.matrix_out:
        save_text(matrix, args.matrix_out)
    beta = _resolve_beta(args, args.degree)
    kernel = CDKernel(matrix, beta)
    approx = Approximant(kernel, ApproxConfig(alpha=args.alpha))

    X, f_true, ys, qs, l1 = _evaluate(args, bench, approx)
    max_err = float(np.max(np.abs(ys - f_true)))
    band = (float(np.min(f_true)), float(np.max(f_true)))
    over = overshoot(ys, band)

    if args.out:
        header = [f"x{i + 1}" for i in range(bench.p - 1)] + ["f", "approx", "q"]
        rows = np.concatenate([X, f_true[:, None], ys[:, None], qs[:, None]], axis=1)
        _write_csv(args.out, header, rows)
    sys.stdout.write(f"benchmark {bench.name} d={args.degree} beta={_fmt(beta)}\n")
    sys.stdout.write(f"l1 {_fmt(l1)}\n")
    sys.stdout.write(f"max_err {_fmt(max_err)}\n")
    sys.stdout.write(f"overshoot {_fmt(over)}\n")
    _write_manifest(args)
    return 0


def cmd_support(args) -> int:
    bench = get_benchmark(args.name)
    if args.matrix:
        matrix = load_matrix(args.matrix)
    else:
        matrix = _build_matrix(args, bench, args.degree)
    beta = _resolve_beta(args, matrix.spec.d)
    report = support_report(
        bench,
        matrix,
        beta,
        r=args.r,
        alpha=args.alpha,
        n_mass_samples=args.probes,
        n_probes=args.probes,
        mesh_points=args.mesh,
        seed=args.seed,
    )
    doc = report.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    sys.stdout.write(
        f"support {bench.name} d={report.d} mass {_fmt(report.outside_mass)}"
        f" <= {_fmt(report.outside_mass_bound)} ok={report.mass_ok}\n"
    )
    sys.stdout.write(
        f"support {bench.name} d={report.d} dist {_fmt(report.max_distance)}"
        f" <= {_fmt(report.distance_bound)} (+{_fmt(report.mesh_slack)}) ok={report.distance_ok}\n"
    )
    _write_manifest(args)
    if not (report.mass_ok and report.distance_ok):
        raise BoundViolationError("empirical support check exceeded its bound")
    return 0


def cmd_rates(args) -> int:
    bench = get_benchmark(args.name)
    degrees = [int(t) for t in args.degrees.split(",") if t.strip()]
    if not degrees:
        raise ValueError("no degrees given")
    if any(d <= 1 for d in degrees):
        raise ValueError("rate checks need degrees d > 1")
    if bench.variation is None and bench.lipschitz is None:
        raise ValueError(f"benchmark {bench.name!r} declares no regularity constant")

    rows = []
    violated = False
    for d in degrees:
        matrix = _build_matrix(args, bench, d)
        beta = _resolve_beta(args, d)
        params = threshold_params(matrix, r=args.r, alpha=args.alpha)
        approx = Approximant(CDKernel(matrix, beta), ApproxConfig(alpha=args.alpha))
        l1 = _evaluate(args, bench, approx)[-1]
        spec = matrix.spec
        vol_x = spec.x_spec().domain_volume()
        diam_y = spec.domain[-1][1] - spec.domain[-1][0]
        delta0 = spec.domain_diameter()
        if bench.variation is not None and bench.p == 2:
            bound = bv_rate_bound(d, params, vol_x, diam_y, delta0, bench.variation)
        else:
            bound = lipschitz_rate_bound(d, params, vol_x, diam_y, delta0, bench.lipschitz)
        rows.append((d, beta, l1, bound))
        if l1 > bound:
            violated = True

    if args.out:
        _write_csv(args.out, ["d", "beta", "l1", "bound"], rows)
    for d, beta, l1, bound in rows:
        sys.stdout.write(f"rates {bench.name} d={d} l1 {_fmt(l1)} bound {_fmt(bound)}\n")
    _write_manifest(args)
    if violated:
        raise BoundViolationError("an L1 error exceeded its rate bound")
    return 0


def _add_common(sub, beta: float | None = 1e-8) -> None:
    """Options of every subcommand; ``beta=None`` makes the degree schedule the default."""
    default = "%(default)s" if beta is not None else "the degree schedule"
    sub.add_argument("--beta", type=float, default=beta, help=f"regularization level (default: {default})")
    sub.add_argument(
        "--beta-schedule",
        action="store_true",
        help="use the degree schedule 2^(3-sqrt(d)) instead of --beta",
    )
    sub.add_argument("--alpha", type=float, default=0.0, help="perturbation level in [0,1)")
    sub.add_argument("--seed", type=int, default=0, help="rng seed for sampling")
    sub.add_argument("--manifest", default=None, help="write a JSON run manifest here")


def _add_build(sub) -> None:
    sub.add_argument("--mode", choices=["analytic", "quad", "empirical"], default="analytic")
    sub.add_argument("--samples", type=int, default=None, help="random samples (empirical mode)")
    sub.add_argument("--grid", type=int, default=None, help="per-axis grid count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdapprox",
        description="approximate functions from moment matrices of their graph measure",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    ap = subs.add_parser("approx", help="evaluate the approximant from a matrix file")
    ap.add_argument("--matrix", required=True, help="moment matrix file (.txt or .json)")
    ap.add_argument("--points", default=None, help="CSV of x rows to evaluate")
    ap.add_argument("--grid", type=int, default=None, help="midpoint grid per x axis")
    ap.add_argument("--out", default=None, help="output CSV (default: stdout)")
    ap.add_argument("--sos-out", default=None, help="write the SOS certificate rows here")
    _add_common(ap)
    ap.set_defaults(func=cmd_approx)

    bp = subs.add_parser("benchmark", help="build a benchmark matrix and measure errors")
    bp.add_argument("--name", required=True, choices=sorted(BENCHMARKS))
    bp.add_argument("--degree", type=int, required=True)
    bp.add_argument("--eval-grid", type=int, default=None, help="evaluation points per x axis")
    bp.add_argument("--out", default=None, help="per-point CSV output")
    bp.add_argument("--matrix-out", default=None, help="save the built matrix here")
    _add_build(bp)
    _add_common(bp)
    bp.set_defaults(func=cmd_benchmark)

    sp = subs.add_parser("support", help="check the sublevel-set guarantees empirically")
    sp.add_argument("--name", required=True, choices=sorted(BENCHMARKS))
    sp.add_argument("--degree", type=int, default=6)
    sp.add_argument("--matrix", default=None, help="load this matrix instead of building one")
    sp.add_argument("--probes", type=int, default=100_000)
    sp.add_argument("--mesh", type=int, default=10_000, help="mesh size, read only where the sublevel set has members")
    sp.add_argument("--out", default=None, help="JSON report path")
    sp.add_argument("--r", type=float, default=None, help="threshold exponent (default p+1/2)")
    _add_build(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_support)

    rp = subs.add_parser("rates", help="L1 errors against the rate bounds over degrees")
    rp.add_argument("--name", required=True, choices=sorted(BENCHMARKS))
    rp.add_argument("--degrees", default="2,4,6,8", help="comma-separated degrees, all > 1")
    rp.add_argument("--eval-grid", type=int, default=None)
    rp.add_argument("--out", default=None)
    rp.add_argument("--r", type=float, default=None, help="threshold exponent (default p+1/2)")
    _add_build(rp)
    _add_common(rp, beta=None)
    rp.set_defaults(func=cmd_rates)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundViolationError as exc:
        sys.stderr.write(f"bound violation: {exc}\n")
        return 1
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except (MomentFileError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
