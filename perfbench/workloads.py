"""The benchmark's seeded workloads: their cases, set-up, timed and traced passes.

Each workload mirrors a command-line use of the package and calls the public
functions in the order the command does.  The seed only chooses inputs: the
order in which points are sent, the oracle's subsample and the Monte Carlo
seeds.  The evaluation grids are fixed midpoint grids, so the accuracy
figures of a workload do not depend on the seed.

- ``fiber-1d``: ``cdapprox benchmark --mode quad`` and a ``rates`` sweep:
  sign and step by quadrature at d in {4, 8, 12, 16, 20}, beta = 1e-8.  The
  per-point fiber minimisation dominates, and the high degrees reach the known
  accuracy defects of the fiber path.
- ``disk-2d``: ``cdapprox approx --matrix``: disk1 at d=8 built from a
  100 x 100 midpoint grid, beta = 1e-3, written with ``save_text`` and read
  back with ``load_text``, then evaluated on a 2-D grid.  Moment build, file
  I/O and coefficient extraction at n=165 weigh more here.
- ``support-mc``: ``cdapprox support``: ``support_report`` with the beta
  schedule, r = p + 1/2 and 10^5 samples on sign at d in {4, 6, 8} and disk1 at
  d=8, all built analytically.  It never calls the approximant, so a change
  to the fiber path must read flat here.  r = 2.5 on sign as in acceptance
  criterion 08; disk1 has p = 3 and the bounds need r > p, hence 3.5 there.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from cdapprox import approximant, benchmarks, cdkernel, metrics, moments, support

KIND = {"fiber-1d": "fiber", "disk-2d": "fiber", "support-mc": "support"}

# Full sizes keep one pass near 1-2 s, so a 25 s run holds 10-20 passes and the
# fiber batches of 8 and 16 points give well over 100 latency samples.
SIZES = {
    False: {
        "fiber-1d": dict(names=("sign", "step"), degrees=(4, 8, 12, 16, 20), points=32, batch=8, brute=4),
        "disk-2d": dict(d=8, build_grid=100, points=24, batch=16, brute=16),
        "support-mc": dict(sign_degrees=(4, 6, 8), disk_degree=8, samples=100_000, mesh=10_000, check=20_000),
        "dense_y": 20001,
    },
    True: {
        "fiber-1d": dict(names=("sign", "step"), degrees=(4,), points=8, batch=4, brute=2),
        "disk-2d": dict(d=3, build_grid=12, points=4, batch=4, brute=2),
        "support-mc": dict(sign_degrees=(4,), disk_degree=3, samples=2_000, mesh=500, check=2_000),
        "dense_y": 2001,
    },
}


@dataclass
class Case:
    cid: str
    bench: benchmarks.GraphFunction
    d: int
    route: str  # analytic, quad or empirical
    beta: float
    build_grid: int | None = None
    io_path: str | None = None
    # fiber workloads
    X: np.ndarray | None = None
    batches: list = field(default_factory=list)
    brute: np.ndarray | None = None
    # support workload
    r: float | None = None
    samples: int = 0
    mesh: int = 0
    mc_seed: int = 0
    # set-up products; ``written`` is the matrix before its file round trip
    written: moments.MomentMatrix | None = None
    matrix: moments.MomentMatrix | None = None
    kernel: cdkernel.CDKernel | None = None
    app: approximant.Approximant | None = None

    @property
    def f_true(self) -> np.ndarray:
        return np.asarray(self.bench.f(self.X), dtype=float)

    @property
    def weight(self) -> float:
        box = self.bench.x_box()
        return float(np.prod(box[:, 1] - box[:, 0])) / self.X.shape[0]


def _fiber_inputs(case: Case, rng, points: int, batch: int, brute: int) -> Case:
    case.X = case.bench.grid_x(points)
    order = rng.permutation(case.X.shape[0])
    case.batches = np.array_split(order, max(1, order.size // batch))
    case.brute = np.sort(rng.choice(order.size, size=brute, replace=False))
    return case


def make_cases(workload: str, seed: int, smoke: bool, workdir: str) -> list:
    """The workload's inputs, generated from the seed; no library work yet."""
    size = SIZES[smoke][workload]
    rng = np.random.default_rng(seed)
    get = benchmarks.get_benchmark
    if workload == "fiber-1d":
        return [
            _fiber_inputs(Case(f"{name}-d{d}", get(name), d, "quad", 1e-8), rng, size["points"], size["batch"], size["brute"])
            for name in size["names"]
            for d in size["degrees"]
        ]
    if workload == "disk-2d":
        d = size["d"]
        path = os.path.join(workdir, f"disk1-d{d}-{os.getpid()}.txt")
        case = Case(f"disk1-d{d}", get("disk1"), d, "empirical", 1e-3, build_grid=size["build_grid"], io_path=path)
        return [_fiber_inputs(case, rng, size["points"], size["batch"], size["brute"])]
    if workload == "support-mc":
        specs = [("sign", d) for d in size["sign_degrees"]] + [("disk1", size["disk_degree"])]
        cases = []
        for name, d in specs:
            bench = get(name)
            cases.append(
                Case(
                    f"{name}-d{d}", bench, d, "analytic", cdkernel.beta_schedule(d),
                    r=bench.p + 0.5, samples=size["samples"], mesh=size["mesh"],
                    mc_seed=int(rng.integers(2**31)),
                )
            )
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def build(case: Case, tracer=None) -> Case:
    """Moment matrix, optional file round trip, kernel and approximant."""
    rows0 = tracer.counts["basis.rows"] if tracer is not None else 0
    with _span(tracer, f"moments.build.{case.route}"):
        matrix = case.bench.moment_matrix(case.d, mode=case.route, grid=case.build_grid)
    if tracer is not None:
        tracer.counts["moments.n"] += matrix.n
        tracer.counts["moments.rows"] += tracer.counts["basis.rows"] - rows0
    if case.io_path:
        case.written = matrix
        moments.save_text(matrix, case.io_path)
        matrix = moments.load_text(case.io_path)
        os.remove(case.io_path)
    case.matrix = matrix
    # support_report builds its own kernel, so the analytic (support) cases stop here
    if case.route != "analytic":
        case.kernel = cdkernel.CDKernel(matrix, case.beta)
        case.app = approximant.Approximant(case.kernel)
    return case


def setup(workload: str, seed: int, smoke: bool, workdir: str, tracer=None) -> list:
    cases = make_cases(workload, seed, smoke, workdir)
    for case in cases:
        if tracer is not None:
            tracer.case = case.cid
        build(case, tracer)
    return cases


# --- passes ----------------------------------------------------------------


def fiber_pass(cases: list, latencies: list) -> dict:
    """One closed-loop pass: fixed-size evaluate_batch calls, then the metrics."""
    out = {}
    for case in cases:
        n = case.X.shape[0]
        ys, qs = np.empty(n), np.empty(n)
        for idx in case.batches:
            t0 = time.perf_counter()
            y, q = case.app.evaluate_batch(case.X[idx])
            latencies.append(time.perf_counter() - t0)
            ys[idx], qs[idx] = y, q
        f_true = case.f_true
        l1 = metrics.l1_error(ys, f_true, case.weight)
        over = metrics.overshoot(ys, (float(f_true.min()), float(f_true.max())))
        out[case.cid] = (ys, qs, l1, over)
    return out


def fiber_traced_pass(cases: list, tracer) -> dict:
    """The same pass decomposed into its public calls, one point at a time."""
    out = {}
    for case in cases:
        tracer.case = case.cid
        with tracer.span("case"):
            app, cfg = case.app, case.app.config
            interval = cfg.y_interval or app.spec.domain[-1]
            eps = cfg.resolve_epsilon()
            n = case.X.shape[0]
            ys, qs = np.empty(n), np.empty(n)
            for idx in case.batches:
                for i in idx:
                    coeffs = app.y_coefficients(case.X[i])
                    ys[i], qs[i] = approximant.partial_argmin(
                        coeffs, interval, epsilon=eps, alpha=cfg.alpha, tie_tol=cfg.tie_tol,
                        coarse_points=cfg.coarse_points, max_refinements=cfg.max_refinements,
                    )
            f_true = case.f_true
            l1 = metrics.l1_error(ys, f_true, case.weight)
            over = metrics.overshoot(ys, (float(f_true.min()), float(f_true.max())))
        out[case.cid] = (ys, qs, l1, over)
    return out


def support_pass(cases: list, latencies: list, tracer=None) -> dict:
    out = {}
    for case in cases:
        if tracer is not None:
            tracer.case = case.cid
        with _span(tracer, "case"):
            t0 = time.perf_counter()
            out[case.cid] = support.support_report(
                case.bench, case.matrix, case.beta, r=case.r,
                n_mass_samples=case.samples, n_probes=case.samples,
                mesh_points=case.mesh, seed=case.mc_seed,
            )
            latencies.append(time.perf_counter() - t0)
    return out


def run_pass(workload: str, cases: list, latencies: list) -> dict:
    if KIND[workload] == "fiber":
        return fiber_pass(cases, latencies)
    return support_pass(cases, latencies)


def traced_pass(workload: str, cases: list, tracer) -> dict:
    if KIND[workload] == "fiber":
        return fiber_traced_pass(cases, tracer)
    return support_pass(cases, [], tracer)


def identical(a: dict, b: dict) -> bool:
    """Bit-identical pass outputs (arrays, floats and SupportReport fields)."""
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, tuple):
            if not (np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1]) and x[2:] == y[2:]):
                return False
        elif x != y:
            return False
    return True


def ops_per_pass(workload: str, cases: list) -> int:
    """Fiber points, or mass samples plus probes, sent through in one pass."""
    if KIND[workload] == "fiber":
        return sum(case.X.shape[0] for case in cases)
    return sum(2 * case.samples for case in cases)
