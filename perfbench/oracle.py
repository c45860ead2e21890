"""Correctness oracle, run outside the timed region.

Every check compares a library output with a path that does not share the
code under test:

- builds: each moment matrix against an independent exact rule, evaluated
  with this file's own orthonormal Legendre basis (numpy.polynomial), and
  the text file round trip against the matrix that was written;
- fiber points: the reported q against the spectral ``eval_q_batch`` at the
  reported (x, y), and on a seeded subsample the reported y against a
  dense-y spectral brute force;
- metrics: ``l1_error`` and ``overshoot`` recomputed with numpy;
- support reports: gamma and both bounds recomputed from the paper's
  formulas in log space, and the outside-mass fraction and the member count
  against an independent Monte Carlo estimate whose q comes from a Cholesky
  solve with M + beta I, not from the eigendecomposition the library uses.

The tolerances are fixed here and recorded in every report.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import cho_factor, cho_solve

from cdapprox.cdkernel import CDKernel

TOLERANCES = {
    # Fiber q, relative with a floor of 1: ten times the library's default
    # fiber precision epsilon = 1e-6 * max(1, |q_min|), so rounding in the
    # spectral reference cannot trip it.
    "fiber_q": 1e-5,
    # Two exact rules for the same graph measure agree to rounding, far below this.
    "build": 1e-9,
    # Library spectral q against the Cholesky q at the scheduled beta >= 1,
    # where cond(M + beta I) stays below 1e3.
    "support_q": 1e-9,
    # gamma, outside-mass bound and distance bound against the formulas.
    "formula": 1e-9,
    # Monte Carlo fractions: standard errors of the difference of two estimates.
    "mc_sigmas": 6.0,
    # Reported y may leave the y-interval only by rounding.
    "y_interval": 1e-12,
}


# --- independent references ------------------------------------------------


def basis(spec, Z: np.ndarray) -> np.ndarray:
    """Orthonormal Legendre basis of ``spec`` at the rows of Z, via numpy.polynomial."""
    if spec.family.value != "legendre-orthonormal":
        raise ValueError("the oracle covers the orthonormal Legendre family only")
    out = np.ones((Z.shape[0], spec.size))
    for k, (lo, hi) in enumerate(spec.domain):
        u = (2.0 * Z[:, k] - (lo + hi)) / (hi - lo)
        V = legendre.legvander(u, spec.d) * np.sqrt((2.0 * np.arange(spec.d + 1) + 1.0) / (hi - lo))
        out *= V[:, spec.indices[:, k]]
    return out


def _gauss(lo: float, hi: float, m: int):
    u, w = legendre.leggauss(m)
    return lo + 0.5 * (hi - lo) * (u + 1.0), 0.5 * (hi - lo) * w


def graph_rule(case) -> tuple:
    """Nodes (z = (x, y)) and weights that integrate the graph measure exactly.

    p = 2 targets here are constant between their declared jumps, so Gauss
    rules per piece are exact.  disk1 is the box at y = 0 plus the disk moved
    to y = 1; polar coordinates (Gauss in the radius, trapezoid in the angle)
    are exact on the disk for polynomials of degree <= 2d.
    """
    bench, d = case.bench, case.d
    if bench.p == 2:
        lo, hi = bench.domain[0]
        cuts = [lo, *sorted(bench.jumps), hi]
        xs, ws = zip(*(_gauss(a, b, 2 * d + 2) for a, b in zip(cuts[:-1], cuts[1:])))
        X = np.concatenate(xs)[:, None]
        return bench.graph_points(X), np.concatenate(ws)
    if bench.name == "disk1":
        g, w = _gauss(-1.0, 1.0, d + 1)
        box = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        wbox = np.outer(w, w).ravel()
        rho, wr = _gauss(0.0, 0.5, d + 2)
        theta = 2.0 * np.pi * np.arange(2 * d + 2) / (2 * d + 2)
        R, T = np.meshgrid(rho, theta, indexing="ij")
        disk = np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=1)
        wdisk = (np.outer(wr * rho, np.full(theta.size, 2.0 * np.pi / theta.size))).ravel()
        Z = np.concatenate(
            [np.c_[box, np.zeros(len(box))], np.c_[disk, np.ones(len(disk))], np.c_[disk, np.zeros(len(disk))]]
        )
        return Z, np.concatenate([wbox, wdisk, -wdisk])
    raise ValueError(f"no exact rule for {bench.name}")


def reference_matrix(case) -> tuple:
    """(entries, mass) of the moment matrix built independently of the library."""
    spec = case.matrix.spec
    if case.route == "empirical":
        Z = case.bench.graph_points(case.bench.grid_x(case.build_grid))
        B = basis(spec, Z)
        return B.T @ B / Z.shape[0], 1.0
    Z, w = graph_rule(case)
    B = basis(spec, Z)
    return (B * w[:, None]).T @ B, float(np.sum(w))


def cholesky_q(matrix, beta: float, Z: np.ndarray) -> np.ndarray:
    factor = cho_factor(matrix.entries + beta * np.eye(matrix.n), lower=True)
    B = basis(matrix.spec, Z)
    return np.einsum("ij,ij->i", B, cho_solve(factor, B.T).T)


# --- checks ----------------------------------------------------------------


def check_build(case, written=None) -> list:
    """Problems with one built (and, when ``written`` is given, reloaded) matrix."""
    problems = []
    M = case.matrix
    if not np.all(np.isfinite(M.entries)):
        return ["matrix has non-finite entries"]
    ref, mass = reference_matrix(case)
    scale = max(1.0, float(np.max(np.abs(ref))))
    err = float(np.max(np.abs(M.entries - ref))) / scale
    if err > TOLERANCES["build"]:
        problems.append(f"matrix differs from the independent rule by {err:.3g}")
    if abs(M.mass_m - mass) > TOLERANCES["build"] * max(1.0, mass):
        problems.append(f"mass {M.mass_m!r} differs from {mass!r}")
    if written is not None and not (
        np.array_equal(written.entries, M.entries) and written.spec == M.spec and written.mass_m == M.mass_m
    ):
        problems.append("text round trip is not bit-exact")
    return problems


def check_fiber(case, ys, qs, l1, over, dense: int) -> dict:
    """Per-point verdicts for one fiber case; a point fails on any check."""
    tol = TOLERANCES["fiber_q"]
    lo, hi = case.app.config.y_interval or case.matrix.spec.domain[-1]
    X, kernel = case.X, case.kernel
    malformed = ~np.isfinite(ys) | ~np.isfinite(qs)
    malformed |= (ys < lo - TOLERANCES["y_interval"]) | (ys > hi + TOLERANCES["y_interval"])
    q_ref = kernel.eval_q_batch(np.c_[X, np.where(malformed, lo, ys)])
    gap = np.abs(qs - q_ref)
    q_fail = gap > tol * np.maximum(1.0, np.abs(q_ref))
    brute_fail = np.zeros(X.shape[0], dtype=bool)
    y_dev = 0.0
    yy = np.linspace(lo, hi, dense)
    for i in case.brute:
        qd = kernel.eval_q_batch(np.c_[np.repeat(X[i : i + 1], dense, axis=0), yy])
        j = int(np.argmin(qd))
        brute_fail[i] = q_ref[i] > qd[j] + tol * max(1.0, abs(qd[j]))
        y_dev = max(y_dev, abs(float(ys[i]) - float(yy[j])))
    f_true = case.f_true
    l1_ref = case.weight * float(np.sum(np.abs(ys - f_true)))
    over_ref = max(0.0, float(ys.max() - f_true.max()), float(f_true.min() - ys.min()))
    metrics_ok = math.isclose(l1, l1_ref, rel_tol=1e-12, abs_tol=1e-15) and math.isclose(
        over, over_ref, rel_tol=1e-12, abs_tol=1e-15
    )
    failed = malformed | q_fail | brute_fail
    return {
        "points": int(X.shape[0]),
        "failed": int(failed.sum()),
        "malformed": int(malformed.sum()),
        "q_fail": int(q_fail.sum()),
        "brute_checked": int(len(case.brute)),
        "brute_fail": int(brute_fail.sum()),
        "q_relerr_max": float(np.max(gap / np.abs(q_ref))),
        "y_dev_max": y_dev,
        "l1_err": float(l1),
        "overshoot": float(over),
        "metrics_ok": bool(metrics_ok),
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCES["formula"], abs_tol=0.0)


def check_support(case, rep, n_check: int, rng) -> dict:
    """Recompute a SupportReport from the formulas and an independent sample."""
    spec, M = case.matrix.spec, case.matrix
    p, d, r = spec.p, case.d, case.r
    box = np.asarray(spec.domain, dtype=float)
    m, m0 = M.mass_m, float(np.prod(box[:, 1] - box[:, 0]))
    gamma = math.exp(2 * r + r * math.log(d) - 2 * r * math.log(3 * r)) / (8 * (m + m0))
    log_bound = (
        math.log(8 * (m + m0)) + 2 * r * math.log(3 * r) + p * p / d
        - p * math.log(p) - (2 * r - p) - (r - p) * math.log(d)
    )
    dist = math.sqrt(float(np.sum((box[:, 1] - box[:, 0]) ** 2))) / (math.sqrt(d) - 1.0)
    problems = []
    if not (_close(rep.gamma, gamma) and _close(rep.outside_mass_bound, math.exp(log_bound))):
        problems.append("gamma or outside-mass bound differs from the formula")
    if not _close(rep.distance_bound, dist):
        problems.append("distance bound differs from the formula")
    echo = (rep.d, rep.beta, rep.r, rep.m, rep.m0, rep.n_probes, rep.n_mass_samples, rep.seed)
    if echo != (d, case.beta, r, m, m0, case.samples, case.samples, case.mc_seed):
        problems.append("report does not echo its inputs")

    Zg = case.bench.graph_points(rng.uniform(box[:-1, 0], box[:-1, 1], size=(n_check, p - 1)))
    probes = rng.uniform(box[:, 0], box[:, 1], size=(n_check, p))
    q_graph = cholesky_q(M, case.beta, Zg)
    q_probe = cholesky_q(M, case.beta, probes)
    q_lib = CDKernel(M, case.beta).eval_q_batch(probes)
    q_relerr = float(np.max(np.abs(q_lib - q_probe) / np.abs(q_probe)))
    if q_relerr > TOLERANCES["support_q"]:
        problems.append(f"eval_q_batch differs from the Cholesky q by {q_relerr:.3g}")
    pairs = (
        ("outside-mass fraction", rep.outside_mass / m, float(np.mean(q_graph >= rep.gamma)), rep.n_mass_samples),
        ("member fraction", rep.n_members / rep.n_probes, float(np.mean(q_probe < rep.gamma)), rep.n_probes),
    )
    for label, reported, independent, n_rep in pairs:
        pooled = (reported * n_rep + independent * n_check) / (n_rep + n_check)
        sd = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_rep + 1.0 / n_check))
        if abs(reported - independent) > TOLERANCES["mc_sigmas"] * sd + 1.0 / n_check:
            problems.append(f"{label} {reported:.4g} against independent {independent:.4g}")
    verdict = bool(rep.mass_ok and rep.distance_ok)
    return {
        "problems": problems,
        "verdict": verdict,
        "q_relerr_max": q_relerr,
        "outside_mass": rep.outside_mass,
        "outside_mass_bound": rep.outside_mass_bound,
        "members": rep.n_members,
        "gamma": rep.gamma,
        "q_graph_min": float(q_graph.min()),
    }


def health(case, coeff_max: float | None = None, rep=None) -> dict:
    """Numerical health of one case, read from outside the library."""
    ev = np.linalg.eigvalsh(case.matrix.entries)
    lam = np.clip(ev, 0.0, None)  # the kernel clips rounding-level negatives to zero
    out = {
        "n": int(case.matrix.n),
        "cond": float((lam[-1] + case.beta) / (lam[0] + case.beta)),
        "clipped": int(np.sum(ev < 0.0)),
        "markov_per_n": float(np.sum(lam / (lam + case.beta)) / case.matrix.n),
    }
    if coeff_max is not None:
        out["coeff_max"] = coeff_max
    if rep is not None:
        out["mass_vacuous"] = int(rep.outside_mass_bound >= rep.m)
        out["sublevel_empty"] = int(rep.n_members == 0)
    return out
