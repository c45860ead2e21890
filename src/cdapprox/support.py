"""Empirical checks of the support-localization guarantees.

Two statements are checked for a kernel built from a graph measure mu at the
threshold gamma_d: the measure of the graph that escapes the sublevel set
{q < gamma_d} is small, and every point of the sublevel set lies close to the
support of mu.  Both the escaping mass and the maximal distance decay at
explicit rates in the degree d.  Where the kernel's certified floor
``CDKernel.q_floor`` reaches gamma_d the sublevel set is provably empty:
``support_report`` then draws no sublevel probes, and if f is finite on every
graph sample it counts them all as escaping without a q test.  The graph
samples are always drawn, so the random stream is the same either way.  The
escaping-mass bound is summed in log space, as ``gamma_threshold`` is: its
factor (3r)^(2r) overflows double precision for moderate r even where the
bound itself does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .benchmarks import GraphFunction, uniform_box
from .cdkernel import CDKernel, ThresholdParams, gamma_threshold, threshold_params
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

    The slack is half the largest gap between neighboring mesh points that do
    not straddle a declared jump; distances measured against the mesh can
    undershoot distances to the true support by at most this much.  For p > 2
    the gap along x is reported instead (jump curves are not parameterized).
    """
    if bench.p == 2:
        X = bench.grid_x(n)
        Z = bench.graph_points(X)
        gaps = np.linalg.norm(np.diff(Z, axis=0), axis=1)
        if bench.jumps:
            xmid = 0.5 * (X[:-1, 0] + X[1:, 0])
            straddle = np.zeros(xmid.shape[0], dtype=bool)
            for t in bench.jumps:
                straddle |= (X[:-1, 0] < t) & (X[1:, 0] >= t)
            gaps = gaps[~straddle]
        slack = 0.5 * float(np.max(gaps)) if gaps.size else 0.0
        return Z, slack
    per_axis = max(2, int(round(n ** (1.0 / (bench.p - 1)))))
    X = bench.grid_x(per_axis)
    Z = bench.graph_points(X)
    box = bench.x_box()
    slack = 0.5 * float(np.max((box[:, 1] - box[:, 0]) / per_axis)) * np.sqrt(bench.p - 1)
    return Z, slack


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
    # True when q_floor reached gamma: {q < gamma} is then empty on all of R^p.
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
    """Check both guarantees by Monte Carlo and return the full evidence.

    Draws ``n_mass_samples`` graph points for the escaping mass and measures
    sublevel-set member distances against a ``mesh_points`` graph mesh.
    Where ``CDKernel.q_floor`` reaches gamma_d, as at every desk-scale degree,
    the sublevel set is provably empty: no probe is drawn, ``n_members`` is 0
    and ``sublevel_empty`` is True.  If f is also finite on every mass sample,
    the floor settles q >= gamma_d there too and the escaping fraction is 1
    with no q test; this is the answer ``q_at_least``'s box-wide tier gives.
    Otherwise the graph samples, and ``n_probes`` uniform box points where the
    floor falls short, are tested with ``CDKernel.q_at_least``, which forms
    exact q only where the lower bound min(g) ||b||^2 falls short and at rows
    with a non-finite coordinate.  Every field but ``sublevel_empty`` equals
    that of a report that draws every probe and tests each sample and probe
    with ``eval_q_batch``.
    """
    d = matrix.spec.d
    if d <= 1:
        raise ValueError(f"support checks need degree d > 1, got d={d}")
    if n_mass_samples < 1 or n_probes < 1:
        raise ValueError(
            f"support checks need at least one mass sample and one probe, got {n_mass_samples} and {n_probes}"
        )
    if mesh_points < 2:
        raise ValueError(f"the graph mesh needs at least 2 points, got {mesh_points}")
    if bench.p != matrix.spec.p:
        raise ValueError(f"benchmark {bench.name!r} has p={bench.p}, the matrix p={matrix.spec.p}")
    kernel = CDKernel(matrix, beta)
    params = threshold_params(matrix, r=r, alpha=alpha)
    gamma = gamma_threshold(d, params)
    rng = np.random.default_rng(seed)
    # the floor bounds q below at every finite z, so where it reaches gamma it settles
    # both the mass samples and the probes the way q_at_least's box-wide tier would
    sublevel_empty = kernel.q_floor() >= gamma

    X = bench.random_x(n_mass_samples, rng)
    y = bench.values(X)
    if sublevel_empty and np.isfinite(y).all():
        fraction = 1.0
    else:
        fraction = float(np.mean(kernel.q_at_least(np.column_stack((X, y)), gamma)))
    outside = fraction * matrix.mass_m
    mass_bound = outside_mass_bound(d, params)

    # the rng is not drawn from after the probes, so skipping them changes no other field
    if sublevel_empty:
        members = np.empty((0, matrix.spec.p))
    else:
        probes = uniform_box(rng, matrix.spec.domain_array(), n_probes)
        members = probes[~kernel.q_at_least(probes, gamma)]
    mesh, slack = graph_mesh(bench, mesh_points)
    if members.shape[0]:
        from scipy.spatial import cKDTree  # loaded on first use

        dists, _ = cKDTree(mesh).query(members)
        max_dist = float(np.max(dists))
    else:
        max_dist = 0.0
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
