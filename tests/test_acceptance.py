"""Acceptance suite: one verdict line per criterion, pinned tolerances.

Each test prints a single PASS/FAIL line (straight to the terminal, past
capture) and then asserts.  Criteria with a runtime budget time themselves
with time.monotonic and fail when over budget.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from cdapprox.approximant import Approximant
from cdapprox.basis import BasisSpec, Family, eval_basis_batch
from cdapprox.benchmarks import BENCHMARKS, get_benchmark
from cdapprox.cdkernel import (
    CDKernel,
    beta_schedule,
    perturbation_alpha,
    threshold_params,
)
from cdapprox.metrics import bv_rate_bound, eval_projection, l1_error, legendre_projection
from cdapprox.moments import MomentMatrix, Provenance, save_text
from cdapprox.support import support_report

MONO = Family.MONOMIAL_GREVLEX


def _verdict(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sign_d4_values():
    """d=4 sign approximant at beta=1e-8 on a 1000-point grid (shared by 3 and 4)."""
    M = get_benchmark("sign").moment_matrix(4)
    app = Approximant(CDKernel(M, 1e-8))
    xs = np.linspace(-1.0, 1.0, 1000)
    ys, _ = app.evaluate_batch(xs[:, None])
    return app, xs, ys


def test_criterion_01_reference_matrix_reproduction(capsys):
    t0 = time.monotonic()
    M = get_benchmark("sign").moment_matrix(2, family=MONO)
    printed = np.array(
        [
            [2, 0, 0, 0.6667, 1, 2],
            [0, 0.6667, 1, 0, 0, 0],
            [0, 1, 2, 0, 0, 0],
            [0.6667, 0, 0, 0.4, 0.5, 0.6667],
            [1, 0, 0, 0.5, 0.6667, 1],
            [2, 0, 0, 0.6667, 1, 2],
        ]
    )
    dev = float(np.max(np.abs(M.entries - printed)))
    dt = time.monotonic() - t0
    ok = dev <= 5e-5 and dt < 1.0
    _verdict(capsys, 1, ok, f"6x6 sign moment matrix within 5e-5 of 4-decimal reference (max dev {dev:.2e}, {dt:.2f}s)")


def test_criterion_02_example_polynomials_encode_targets(capsys):
    t0 = time.monotonic()
    ygrid = np.linspace(-1.0, 1.0, 10**6 + 1)
    xs = np.linspace(-1.0, 1.0, 100)
    assert np.min(np.abs(xs)) > 0.01  # grid skips the transition band
    sign_hits = 0
    abs_err = 0.0
    for x in xs:
        y1 = ygrid[np.argmin(P.polyval(ygrid, [4.0, -3.0 * x, -4.0, x, 2.0]))]
        sign_hits += int(y1 == np.sign(x))
        y2 = ygrid[np.argmin(P.polyval(ygrid, [11.0, -12.0 * x**4, -6.0 * x**2, 4.0 * x**2, 3.0]))]
        abs_err = max(abs_err, abs(y2 - abs(x)))
    dt = time.monotonic() - t0
    ok = sign_hits >= 99 and abs_err <= 2e-3 and dt < 10.0
    _verdict(
        capsys,
        2,
        ok,
        f"brute-force fiber argmins match sign ({sign_hits}/100) and abs (max err {abs_err:.2e}) ({dt:.1f}s)",
    )


def test_criterion_03_sign_recovery_degree_4(capsys, sign_d4_values):
    t0 = time.monotonic()
    _, xs, ys = sign_d4_values
    far = np.abs(xs) >= 0.05
    max_err = float(np.max(np.abs(ys[far] - np.sign(xs[far]))))
    crossings = xs[np.sign(ys) != np.sign(xs)]
    trans = float(np.max(np.abs(crossings))) if crossings.size else 0.0
    dt = time.monotonic() - t0
    ok = max_err <= 0.02 and trans <= 0.01 and dt < 30.0
    _verdict(
        capsys,
        3,
        ok,
        f"d=4 approximant matches sign to {max_err:.2e} for |x|>=0.05, transition within |x|<={trans:.4f} ({dt:.1f}s)",
    )


def test_criterion_04_no_gibbs_overshoot(capsys, sign_d4_values):
    t0 = time.monotonic()
    app, _, _ = sign_d4_values
    bench = get_benchmark("sign")
    coeffs = legendre_projection(lambda t: bench.f(t[:, None]), 20, jumps=(0.0,))
    band = np.concatenate([np.linspace(-0.2, -0.05, 200), np.linspace(0.05, 0.2, 200)])
    proj_err = float(np.max(np.abs(eval_projection(coeffs, (-1, 1), band) - np.sign(band))))
    ys, _ = app.evaluate_batch(band[:, None])
    app_err = float(np.max(np.abs(ys - np.sign(band))))
    dt = time.monotonic() - t0
    ok = proj_err >= 0.05 and app_err <= 0.02 and dt < 30.0
    _verdict(
        capsys,
        4,
        ok,
        f"degree-20 projection rings near the jump (err {proj_err:.3f}) while the approximant stays flat (err {app_err:.2e}) ({dt:.1f}s)",
    )


def test_criterion_05_filter_matches_dense_solve(capsys):
    beta = 1e-6
    rng = np.random.default_rng(5)
    sign6 = get_benchmark("sign").moment_matrix(2, family=MONO)
    A = rng.standard_normal((28, 28))
    E = A @ A.T / 28.0
    spec28 = BasisSpec(2, 6, MONO)
    rand28 = MomentMatrix(spec28, E, Provenance.FILE, float(E[0, 0]))
    worst = 0.0
    for M in (sign6, rand28):
        kern = CDKernel(M, beta)
        Z = rng.uniform(-1.0, 1.0, size=(100, 2))
        B = eval_basis_batch(M.spec, Z)
        q_solve = np.einsum(
            "ij,ij->i", B, np.linalg.solve(M.entries + beta * np.eye(M.n), B.T).T
        )
        rel = float(np.max(np.abs(kern.eval_q_batch(Z) / q_solve - 1.0)))
        worst = max(worst, rel)
    ok = worst <= 1e-8
    _verdict(capsys, 5, ok, f"eigendecomposition kernel equals dense solve, worst rel err {worst:.2e} (beta={beta})")


def test_criterion_06_markov_mass_bound(capsys):
    worst = 0.0
    checked = 0
    for name in sorted(BENCHMARKS):
        bench = get_benchmark(name)
        for d in (2, 4, 6, 8):
            if bench.moment_fn is not None:
                M = bench.moment_matrix(d)
            else:
                M = bench.moment_matrix(d, mode="empirical", grid=60)
            kern = CDKernel(M, beta_schedule(d))
            ratio = kern.markov_mass() / M.spec.size
            worst = max(worst, ratio)
            checked += 1
            assert kern.markov_mass() <= M.spec.size
    ok = worst <= 1.0 and checked == 20
    _verdict(capsys, 6, ok, f"filtered eigenvalue mass below basis size on {checked} matrices, worst ratio {worst:.3f}")


def test_criterion_07_perturbation_bound_dominates(capsys):
    beta = 1e-3
    exact = get_benchmark("sign").moment_matrix(2, family=MONO)
    Z = np.random.default_rng(12345).uniform(-1.0, 1.0, size=(10**4, 2))
    B = eval_basis_batch(exact.spec, Z)
    I6 = np.eye(exact.n)

    def dense_q(M):
        return np.einsum("ij,ij->i", B, np.linalg.solve(M + beta * I6, B.T).T)

    q_exact = dense_q(exact.entries)
    min_margin = np.inf
    for seed in range(10):
        noise = np.random.default_rng(seed).uniform(-1e-4, 1e-4, size=(6, 6))
        sym = np.tril(noise) + np.tril(noise, -1).T
        approx = MomentMatrix(exact.spec, exact.entries + sym, Provenance.FILE, exact.mass_m)
        alpha = perturbation_alpha(exact, approx, beta)
        sampled = float(np.max(np.abs(1.0 - dense_q(approx.entries) / q_exact)))
        min_margin = min(min_margin, alpha - sampled)
        assert alpha >= sampled
    ok = min_margin >= 0.0
    _verdict(capsys, 7, ok, f"alpha bound exceeds sampled relative kernel error in 10/10 noise trials (min margin {min_margin:.2e})")


def test_criterion_08_support_guarantees(capsys):
    t0 = time.monotonic()
    bench = get_benchmark("sign")
    lines = []
    all_ok = True
    for d in (4, 6, 8):
        M = bench.moment_matrix(d)
        rep = support_report(bench, M, beta_schedule(d), r=2.5, n_probes=10**5, seed=0)
        all_ok &= rep.mass_ok and rep.distance_ok
        lines.append(
            f"d={d} mass {rep.outside_mass:.3g}<={rep.outside_mass_bound:.3g} members={rep.n_members}"
        )
    dt = time.monotonic() - t0
    ok = all_ok and dt < 120.0
    _verdict(capsys, 8, ok, f"outside-mass and sublevel-distance checks hold ({'; '.join(lines)}) ({dt:.1f}s)")


def test_criterion_09_l1_error_decreases_under_bound(capsys):
    bench = get_benchmark("sign")
    xs = np.linspace(-1.0, 1.0, 501)
    ref = bench.f(xs[:, None])
    w = np.full(xs.size, 2.0 / xs.size)
    errs, bounds = [], []
    for d in (2, 4, 6, 8):
        M = bench.moment_matrix(d, family=MONO)
        app = Approximant(CDKernel(M, beta_schedule(d)))
        ys, _ = app.evaluate_batch(xs[:, None])
        errs.append(l1_error(ys, ref, w))
        params = threshold_params(M, r=2.5)
        bounds.append(bv_rate_bound(d, params, 2.0, 2.0, M.spec.domain_diameter(), 2.0))
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    under = all(e <= b for e, b in zip(errs, bounds) if np.isfinite(b))
    ok = decreasing and under
    _verdict(
        capsys,
        9,
        ok,
        "L1 error falls monotonically over d=2,4,6,8 (" + ", ".join(f"{e:.4f}" for e in errs) + ") and sits below the variation bound",
    )


def test_criterion_10_few_samples_stay_close(capsys):
    beta, d = 1e-3, 10
    bench = get_benchmark("step")
    xs = np.linspace(-1.0, 1.0, 501)
    ref = bench.f(xs[:, None])
    w = np.full(xs.size, 2.0 / xs.size)
    errs = {}
    for n in (20, 1000):
        M = bench.moment_matrix(d, mode="empirical", grid=n)
        ys, _ = Approximant(CDKernel(M, beta)).evaluate_batch(xs[:, None])
        errs[n] = l1_error(ys, ref, w)
    ok = errs[20] <= 2.0 * errs[1000]
    _verdict(
        capsys,
        10,
        ok,
        f"step d=10 from 20 samples: L1 {errs[20]:.2e} vs {errs[1000]:.2e} at N=1000 (ratio {errs[20] / errs[1000]:.3f} <= 2)",
    )


def test_criterion_11_disk_classification(capsys):
    t0 = time.monotonic()
    bench = get_benchmark("disk1")
    M = bench.moment_matrix(8, mode="empirical", grid=100)
    app = Approximant(CDKernel(M, 1e-3))
    X = bench.grid_x(100)
    ys, _ = app.evaluate_batch(X)
    truth = bench.f(X) >= 0.5
    far = np.abs(np.hypot(X[:, 0], X[:, 1]) - 0.5) > 0.05
    acc = float(np.mean((ys[far] >= 0.5) == truth[far]))
    dt = time.monotonic() - t0
    ok = acc >= 0.98 and dt < 300.0
    _verdict(capsys, 11, ok, f"disk indicator classified at {100 * acc:.2f}% away from the boundary ({dt:.0f}s)")


def test_criterion_12_cli_determinism(capsys, tmp_path):
    mat = tmp_path / "sign_d3.txt"
    save_text(get_benchmark("sign").moment_matrix(3), mat)
    jobs = {
        "approx": [
            "approx", "--matrix", str(mat), "--grid", "11",
            "--out", str(tmp_path / "a.csv"), "--manifest", str(tmp_path / "a.json"),
        ],
        "benchmark": [
            "benchmark", "--name", "step", "--degree", "3", "--mode", "empirical",
            "--samples", "400", "--seed", "3", "--eval-grid", "50",
            "--out", str(tmp_path / "b.csv"), "--matrix-out", str(tmp_path / "b.txt"),
            "--manifest", str(tmp_path / "b.json"),
        ],
        "support": [
            "support", "--name", "sign", "--degree", "4", "--beta-schedule",
            "--probes", "2000", "--mesh", "500", "--seed", "0",
            "--out", str(tmp_path / "s.json"), "--manifest", str(tmp_path / "s_man.json"),
        ],
        "rates": [
            "rates", "--name", "sign", "--degrees", "2,4", "--eval-grid", "100",
            "--out", str(tmp_path / "r.csv"), "--manifest", str(tmp_path / "r.json"),
        ],
    }
    all_same = True
    for name, argv in jobs.items():
        snaps = []
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-m", "cdapprox", *argv],
                capture_output=True, text=True, timeout=300,
            )
            assert res.returncode == 0, f"{name}: {res.stderr}"
            files = sorted(p for p in tmp_path.iterdir() if p.suffix in {".csv", ".json", ".txt"})
            snaps.append((res.stdout, tuple((p.name, p.read_bytes()) for p in files)))
        all_same &= snaps[0] == snaps[1]
        assert snaps[0] == snaps[1], f"{name} rerun differed"
    _verdict(capsys, 12, all_same, "all four CLI subcommands rerun byte-identically (stdout and artifacts)")
