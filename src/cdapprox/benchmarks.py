"""Benchmark graph functions with exact graph rules, jumps, and regularity data.

Each benchmark fixes a target function f on a box, the box for the graph
variable z = (x, f(x)), and whatever is known analytically: a rule (Z, w) of
graph nodes and weights that integrates every polynomial of degree <= 2d
exactly against the graph measure, declared jump and kink locations, a
Lipschitz constant, or the total variation.  Downstream code never detects
jumps or kinks; it reads them from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec, Family, gauss_pieces
from .moments import (
    MomentMatrix,
    Provenance,
    empirical_moment_matrix,
    graph_quadrature_rule,
    quadrature_moment_matrix,
    rule_moment_matrix,
)


def midpoint_grid(box, counts) -> np.ndarray:
    """Midpoint grid over a box of (lo, hi) rows; counts is an integer (no bool) or one per axis, each >= 1."""
    # a sequence or an array of one or more axes holds per-axis counts; anything else, a 0-d array too, is one count
    per_axis = counts if isinstance(counts, (tuple, list)) or np.ndim(counts) else (counts,) * len(box)
    if len(per_axis) != len(box) or not all(_is_count(n, 1) for n in per_axis):
        raise ValueError(
            f"grid counts must be one integer per axis of the {len(box)}-axis box, each at least 1, got {counts!r}"
        )
    axes = [lo + (hi - lo) * (np.arange(n) + 0.5) / n for (lo, hi), n in zip(box, per_axis)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def uniform_box(rng: np.random.Generator, box, n: int) -> np.ndarray:
    """n uniform draws over a finite box of (lo, hi) rows, as an (n, k) array.

    The draws equal ``rng.uniform(box[:, 0], box[:, 1], (n, k))`` bit for bit:
    both form lo + (hi - lo) u from the same doubles u in the same order, but
    scaling the columns in place skips the slow broadcast path that array
    bounds send ``rng.uniform`` down.
    """
    box = np.asarray(box, dtype=float)
    with np.errstate(over="ignore"):
        lo, width = box[:, 0], box[:, 1] - box[:, 0]
    if not np.isfinite(width).all():
        raise ValueError(f"cannot sample a box with an infinite side: {box.tolist()}")
    U = rng.random((n, box.shape[0]))
    U *= width
    U += lo
    return U


@dataclass(frozen=True)
class GraphFunction:
    """A target function together with its graph box and known structure."""

    name: str
    p: int  # ambient dimension of z = (x, y); x lives in R^(p-1)
    domain: tuple  # ((lo, hi), ...) for all p axes, y-axis last
    f: Callable  # vectorized: (n, p-1) array -> (n,) values
    rule: Callable | None = None  # d -> (Z, w), exact for degree <= 2d on the graph measure
    jumps: tuple = ()  # declared jump locations along x (p = 2 only)
    kinks: tuple = ()  # declared points along x where f is continuous but not smooth (p = 2 only)
    lipschitz: float | None = None
    variation: float | None = None

    def spec(self, d: int, family: Family = Family.LEGENDRE_ORTHONORMAL) -> BasisSpec:
        return BasisSpec(self.p, d, family, self.domain)

    @property
    def breakpoints(self) -> tuple:
        """Jumps and kinks together, sorted: where piecewise quadrature must cut."""
        return tuple(sorted(set(self.jumps) | set(self.kinks)))

    def x_box(self) -> np.ndarray:
        return np.asarray(self.domain[:-1], dtype=float)

    def grid_x(self, counts) -> np.ndarray:
        """Midpoint grid over the x-box; counts is one integer per x-axis or a single int."""
        return midpoint_grid(self.x_box(), counts)

    def random_x(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return uniform_box(rng, self.x_box(), n)

    def values(self, X: np.ndarray) -> np.ndarray:
        """f at the rows of an (n, p-1) float array, as n floats."""
        y = np.asarray(self.f(X), dtype=float).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"f of benchmark {self.name!r} gave {y.shape[0]} values for {X.shape[0]} points")
        return y

    def graph_points(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.column_stack((X, self.values(X)))

    def moment_matrix(
        self,
        d: int,
        mode: str = "analytic",
        family: Family = Family.LEGENDRE_ORTHONORMAL,
        samples: int | None = None,
        grid=None,
        rng: np.random.Generator | None = None,
    ) -> MomentMatrix:
        """Build the degree-d moment matrix by the requested route.

        ``analytic`` sums over the benchmark's exact graph rule, so it is
        right to rounding at every degree; ``quad`` integrates along the graph
        piecewise between declared jumps and kinks; ``empirical`` averages
        over either a midpoint grid (``grid``) or ``samples`` uniform draws.
        """
        spec = self.spec(d, family)
        if mode == "analytic":
            if self.rule is None:
                raise ValueError(f"benchmark {self.name!r} has no exact graph rule; use mode 'quad' or 'empirical'")
            mass = spec.x_spec().domain_volume()  # the graph measure's mass, exactly
            return rule_moment_matrix(spec, *self.rule(d), Provenance.ANALYTIC, mass, self.name)
        if mode == "quad":
            breaks = self.breakpoints if self.p == 2 else None
            return quadrature_moment_matrix(spec, self.f, breakpoints=breaks, note=self.name)
        if mode == "empirical":
            if grid is not None:
                X = self.grid_x(grid)
            elif samples is not None:
                if not _is_count(samples, 1):
                    raise ValueError(f"samples must be at least 1, an integer count, got {samples!r}")
                if rng is None:
                    raise ValueError("empirical sampling needs an rng")
                X = self.random_x(samples, rng)
            else:
                raise ValueError("empirical mode needs either grid or samples")
            return empirical_moment_matrix(spec, self.graph_points(X), note=self.name)
        raise ValueError(f"unknown moment matrix mode {mode!r}")


def _is_count(value, least: int) -> bool:
    """True for a Python or numpy integer, not a bool, of at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _box_pairs(p: int) -> tuple:
    return ((-1.0, 1.0),) * p


def _affine_pieces_rule(f, breakpoints):
    """Rule for the graph of an f on [-1, 1] that is affine between ``breakpoints``.

    On each piece b_i b_j (x, f(x)) has degree <= 2d in x, which d + 1
    Gauss-Legendre nodes integrate exactly.
    """

    def rule(d):
        X, w = graph_quadrature_rule(BasisSpec(2, d), d + 1, breakpoints)
        return np.c_[X, f(X)], w

    return rule


def sign_benchmark() -> GraphFunction:
    """f(x) = sign(x) on [-1, 1], with f(0) = 1; one jump of height 2 at 0."""

    def f(X):
        return np.where(X[:, 0] < 0.0, -1.0, 1.0)

    return GraphFunction(
        "sign", 2, _box_pairs(2), f, rule=_affine_pieces_rule(f, (0.0,)), jumps=(0.0,), variation=2.0
    )


def abs_benchmark() -> GraphFunction:
    """f(x) = |x| on [-1, 1]; continuous, Lipschitz 1, variation 2."""

    def f(X):
        return np.abs(X[:, 0])

    rule = _affine_pieces_rule(f, (0.0,))
    return GraphFunction("abs", 2, _box_pairs(2), f, rule=rule, kinks=(0.0,), lipschitz=1.0, variation=2.0)


def step_benchmark() -> GraphFunction:
    """f = -0.6 on [-1, -0.5), 0.8 on [-0.5, 0.3) and -0.2 on [0.3, 1]: jumps at -0.5 and 0.3, variation 2.4."""
    breaks = (-0.5, 0.3)
    vals = np.array([-0.6, 0.8, -0.2])

    def f(X):
        return vals[np.searchsorted(np.asarray(breaks), X[:, 0], side="right")]

    variation = float(np.sum(np.abs(np.diff(vals))))
    return GraphFunction(
        "step", 2, _box_pairs(2), f, rule=_affine_pieces_rule(f, breaks), jumps=breaks, variation=variation
    )


def _disk_indicator(center, radius):
    cx, cy = center

    def inside(X):
        return ((X[:, 0] - cx) ** 2 + (X[:, 1] - cy) ** 2 <= radius**2).astype(float)

    return inside


def _disk_indicator_rule(center, radius):
    """Rule for the graph of the indicator of a disk inside [-1, 1]^2.

    f takes only the values 0 and 1, so the graph integral of phi is the box
    integral of phi(x, 0) plus the disk integral of phi(x, 1) - phi(x, 0).  For
    degree 2d, a (d+1)^2 tensor Gauss rule is exact on the box.  The disk terms
    cancel wherever the y-degree is 0, so they need only be exact for x-degree
    2d - 1.  In polar form about the center, the angular terms of odd degree
    vanish, exactly and on the rule alike, and the even ones have degree
    <= 2d - 2.
    So Gauss-Legendre in the radius with weight rho (d nodes) times the 2d-point
    trapezoid rule in the angle is exact there (Stroud, Approximate Calculation
    of Multiple Integrals, 1971).
    """
    cx, cy = center

    def rule(d):
        box, w_box = graph_quadrature_rule(BasisSpec(3, d), d + 1)
        k = max(d, 1)  # at d = 0 the disk terms cancel; one node keeps the rule well formed
        rho, wr = (a.ravel() for a in gauss_pieces([0.0, radius], k))
        theta = np.pi * np.arange(2 * k) / k
        disk = np.c_[cx + np.outer(rho, np.cos(theta)).ravel(), cy + np.outer(rho, np.sin(theta)).ravel()]
        w_disk = np.repeat(wr * rho * (np.pi / k), theta.size)
        parts = [(box, 0.0, w_box), (disk, 1.0, w_disk), (disk, 0.0, -w_disk)]
        Z = np.vstack([np.c_[P, np.full(len(P), y)] for P, y, _ in parts])
        return Z, np.concatenate([w for _, _, w in parts])

    return rule


def disk_benchmark() -> GraphFunction:
    """Indicator of the radius-1/2 disk centered at the origin, on [-1, 1]^2."""
    f = _disk_indicator((0.0, 0.0), 0.5)
    return GraphFunction("disk1", 3, _box_pairs(3), f, rule=_disk_indicator_rule((0.0, 0.0), 0.5))


def two_disks_benchmark() -> GraphFunction:
    """Difference of two overlapping disk indicators; no exact graph rule.

    The lens where the disks overlap has no polynomial-exact product rule, so
    only the ``quad`` and ``empirical`` routes build its matrix.
    """
    g1 = _disk_indicator((0.0, 0.0), 0.5)
    g2 = _disk_indicator((-0.5, -0.5), 0.5)

    def f(X):
        return g1(X) - 0.5 * g2(X)

    return GraphFunction("disk2", 3, _box_pairs(3), f)


BENCHMARKS: dict = {
    "sign": sign_benchmark,
    "abs": abs_benchmark,
    "step": step_benchmark,
    "disk1": disk_benchmark,
    "disk2": two_disks_benchmark,
}


def get_benchmark(name: str) -> GraphFunction:
    try:
        return BENCHMARKS[name]()
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}") from None
