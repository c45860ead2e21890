"""Empirical checks of the support-localization guarantees.

Two statements are checked for a kernel built from a graph measure mu at the
threshold gamma_d: the measure of the graph that escapes the sublevel set
{q < gamma_d} is small, and every point of the sublevel set lies close to the
support of mu.  Both the escaping mass and the maximal distance decay at
explicit rates in the degree d.  Where ``certified_floor``, a lower bound of
q at every finite z from lambda_max alone, reaches gamma_d the sublevel set
is provably empty on all of R^p: ``support_report`` then computes no
eigenvector and draws nothing, the escaping mass is exactly the graph's mass
m and no probe is a member.  It settles that with a Cholesky proof that M is
PSD and a norm bound on lambda_max, and calls ``eigvalsh`` only where they
fall short.  Elsewhere both are estimated by Monte Carlo.
On either path a graph point where f is inf or nan is not a point of R^p: it
escapes, and it is not part of the graph mesh.  Only a distance reads the
graph: the mesh is built, and f read on it, only where the sublevel set has
members to measure against it.  The escaping-mass bound is summed in log
space, as ``gamma_threshold`` is: its factor (3r)^(2r) overflows double
precision for moderate r even where the bound itself does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .benchmarks import GraphFunction, _is_count, uniform_box
from .cdkernel import CDKernel, ThresholdParams, _check_beta, _floor_reaches, gamma_threshold, threshold_params
from .moments import MomentMatrix


def outside_mass_bound(d: int, params: ThresholdParams) -> float:
    """Bound on mu({q >= gamma_d}), decaying like d^(p - r) for r > p; inf beyond double range."""
    params.validate_rate()
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    p, r = params.p, params.r
    # log of (1+alpha)/(1-alpha) 8 (m+m0) (3r)^(2r) e^(p^2/d) / (p^p e^(2r-p) d^(r-p))
    log_val = (
        math.log((1.0 + params.alpha) / (1.0 - params.alpha) * 8.0 * (params.m + params.m0))
        + 2.0 * r * math.log(3.0 * r)
        + p * p / d
        - p * math.log(p)
        - (2.0 * r - p)
        - (r - p) * math.log(d)
    )
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


def distance_bound(d: int, delta0: float) -> float:
    """Bound on dist(z, spt mu) over the sublevel set: delta0 / (sqrt(d) - 1)."""
    if d <= 1:
        raise ValueError(f"the distance bound needs degree d > 1, got {d}")
    if delta0 <= 0:
        raise ValueError(f"delta0 must be positive, got {delta0}")
    return float(delta0 / (np.sqrt(d) - 1.0))


def graph_mesh(bench: GraphFunction, n: int = 10_000) -> tuple[np.ndarray, float]:
    """Dense discretization of the graph plus a resolution slack.

    The mesh is f on a midpoint x grid of n points for p = 2 and about
    n^(1/(p-1)) per axis above.  The slack is half the largest gap between
    neighboring mesh points that do not straddle a declared jump; distances
    measured against the mesh can undershoot distances to the true support by
    at most this much.  For p > 2 half the diagonal of the largest x-cell is
    reported instead (jump curves are not parameterized).  A grid point where
    f is inf or nan is not a point of the graph, so it is dropped from the
    mesh, and a gap across a dropped run is not counted, just as a gap across
    a declared jump is not.  An f that is finite nowhere on the grid is
    refused.
    """
    per_axis = n if bench.p == 2 else max(2, int(round(n ** (1.0 / (bench.p - 1)))))
    X = bench.grid_x(per_axis)
    y = bench.values(X)
    finite = np.isfinite(y)
    if not finite.any():
        raise ValueError(f"f of benchmark {bench.name!r} is not finite at any of the {finite.size} mesh points")
    Z = np.column_stack((X, y))
    if not finite.all():
        Z = np.compress(finite, Z, axis=0)
    if bench.p > 2:
        box = bench.x_box()
        return Z, 0.5 * float(np.max((box[:, 1] - box[:, 0]) / per_axis)) * np.sqrt(bench.p - 1)
    x, y = Z[:, 0], Z[:, 1]
    counted = np.diff(np.flatnonzero(finite)) == 1
    for t in bench.jumps:
        counted &= ~((x[:-1] < t) & (x[1:] >= t))
    dx, dy = np.diff(x), np.diff(y)
    dx *= dx
    dy *= dy
    gaps = np.sqrt(dx + dy)[counted]  # bit for bit np.linalg.norm of the mesh differences
    return Z, (0.5 * float(np.max(gaps)) if gaps.size else 0.0)


@dataclass
class SupportReport:
    """Outcome of one empirical support check at a fixed degree."""

    benchmark: str
    d: int
    beta: float
    gamma: float
    r: float
    alpha: float
    m: float
    m0: float
    seed: int
    n_mass_samples: int
    outside_mass: float
    outside_mass_bound: float
    mass_ok: bool
    n_probes: int
    n_members: int
    max_distance: float
    distance_bound: float
    mesh_slack: float
    distance_ok: bool
    # True when certified_floor reached gamma: {q < gamma} is then empty on all of R^p.
    # False means "not proven", not "non-empty".
    sublevel_empty: bool

    def to_dict(self) -> dict:
        return asdict(self)


def support_report(
    bench: GraphFunction,
    matrix: MomentMatrix,
    beta: float,
    r: float | None = None,
    alpha: float = 0.0,
    n_mass_samples: int = 100_000,
    n_probes: int = 100_000,
    mesh_points: int = 10_000,
    seed: int = 0,
) -> SupportReport:
    """Check both guarantees and return the full evidence.

    Where ``certified_floor`` reaches gamma_d, as at every desk-scale degree,
    the sublevel set is provably empty on all of R^p: the escaping fraction is
    exactly 1, no ``CDKernel`` is built, no eigenvalue is computed where the
    norm bound of ``_floor_reaches`` settles it, no graph sample or probe is
    drawn, ``n_members`` is 0 and ``sublevel_empty`` is True.  A bad beta is
    refused first, then an indefinite matrix (``MomentMatrix.check_psd``),
    then r.
    Otherwise a ``CDKernel`` is built, ``n_mass_samples`` graph points are
    drawn for the escaping mass and ``n_probes`` uniform box points for the
    sublevel set, both tested with ``CDKernel.q_at_least``, which equals
    ``eval_q_batch(Z) >= gamma`` but forms exact q only where the lower bound
    min(g) ||b||^2 falls short.  A sample where f is inf or nan counts as
    escaping on both paths.  Member distances are measured against a
    ``mesh_points`` graph mesh, which is built only where there are members;
    with none, ``max_distance`` and ``mesh_slack`` are 0 and the mesh's f is
    never called.  An ``n_mass_samples`` or ``n_probes`` that is not an
    integer >= 1, a ``mesh_points`` that is not an integer >= 2 (a bool is
    none of these) and a ``seed`` that ``np.random.default_rng`` would refuse
    are refused up front, on both paths.
    """
    d = matrix.spec.d
    if d <= 1:
        raise ValueError(f"support checks need degree d > 1, got d={d}")
    if not (_is_count(n_mass_samples, 1) and _is_count(n_probes, 1)):
        raise ValueError(
            "support checks need integer counts of at least one mass sample and one probe,"
            f" got {n_mass_samples!r} and {n_probes!r}"
        )
    if not _is_count(mesh_points, 2):
        raise ValueError(f"the graph mesh needs an integer count of at least 2 points, got {mesh_points!r}")
    if bench.p != matrix.spec.p:
        raise ValueError(f"benchmark {bench.name!r} has p={bench.p}, the matrix p={matrix.spec.p}")
    seeds = np.random.SeedSequence(seed)  # refuses a bad seed as default_rng would, on both paths
    _check_beta(beta)
    matrix.check_psd()
    params = threshold_params(matrix, r=r, alpha=alpha)
    gamma = gamma_threshold(d, params)
    # the floor bounds q below at every finite z, so where it reaches gamma the sublevel
    # set is empty on all of R^p: every graph point escapes it and no probe is a member
    sublevel_empty = _floor_reaches(matrix, beta, gamma)
    if sublevel_empty:
        fraction = 1.0
        members = np.empty((0, matrix.spec.p))
    else:
        kernel = CDKernel(matrix, beta)
        rng = np.random.default_rng(seeds)  # the stream of default_rng(seed)
        X = bench.random_x(n_mass_samples, rng)
        y = bench.values(X)
        # a sample where f is inf or nan is not a point of R^p, so it escapes
        escaping = ~np.isfinite(y)
        finite = ~escaping
        escaping[finite] = kernel.q_at_least(np.compress(finite, np.column_stack((X, y)), axis=0), gamma)
        fraction = float(np.mean(escaping))
        probes = uniform_box(rng, matrix.spec.domain_array(), n_probes)
        members = probes[~kernel.q_at_least(probes, gamma)]
    outside = fraction * matrix.mass_m
    mass_bound = outside_mass_bound(d, params)
    max_dist = slack = 0.0
    if members.shape[0]:  # with no member there is no distance to measure, so the graph is not read
        from scipy.spatial import cKDTree  # loaded on first use

        mesh, slack = graph_mesh(bench, mesh_points)
        max_dist = float(np.max(cKDTree(mesh).query(members)[0]))
    dist_bound = distance_bound(d, matrix.spec.domain_diameter())

    return SupportReport(
        benchmark=bench.name,
        d=d,
        beta=beta,
        gamma=gamma,
        r=params.r,
        alpha=params.alpha,
        m=params.m,
        m0=params.m0,
        seed=seed,
        n_mass_samples=n_mass_samples,
        outside_mass=outside,
        outside_mass_bound=mass_bound,
        mass_ok=bool(outside <= mass_bound * (1.0 + 1e-12)),
        n_probes=n_probes,
        n_members=int(members.shape[0]),
        max_distance=max_dist,
        distance_bound=dist_bound,
        mesh_slack=slack,
        distance_ok=bool(max_dist <= dist_bound + slack),
        sublevel_empty=sublevel_empty,
    )
