"""Benchmark graph functions with known moments, jumps, and regularity data.

Each benchmark fixes a target function f on a box, the box for the graph
variable z = (x, f(x)), and whatever is known analytically: closed-form
monomial moments of the graph measure, declared jump and kink locations, a
Lipschitz constant, or the total variation.  Downstream code never detects
jumps or kinks; it reads them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec, Family
from .moments import (
    MomentMatrix,
    analytic_moment_matrix,
    empirical_moment_matrix,
    quadrature_moment_matrix,
)


@dataclass(frozen=True)
class GraphFunction:
    """A target function together with its graph box and known structure."""

    name: str
    p: int  # ambient dimension of z = (x, y); x lives in R^(p-1)
    domain: tuple  # ((lo, hi), ...) for all p axes, y-axis last
    f: Callable  # vectorized: (n, p-1) array -> (n,) values
    moment_fn: Callable | None = None  # closed-form monomial graph moments
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
        """Midpoint grid over the x-box; counts is per-axis or a single int."""
        box = self.x_box()
        if np.isscalar(counts):
            counts = (int(counts),) * box.shape[0]
        axes = [
            lo + (hi - lo) * (np.arange(n) + 0.5) / n
            for (lo, hi), n in zip(box, counts)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def random_x(self, n: int, rng: np.random.Generator) -> np.ndarray:
        box = self.x_box()
        return rng.uniform(box[:, 0], box[:, 1], size=(n, box.shape[0]))

    def graph_points(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(self.f(X), dtype=float).reshape(-1)
        return np.concatenate([X, y[:, None]], axis=1)

    def moment_matrix(
        self,
        d: int,
        mode: str = "analytic",
        family: Family = Family.LEGENDRE_ORTHONORMAL,
        nodes: int | None = None,
        samples: int | None = None,
        grid=None,
        rng: np.random.Generator | None = None,
    ) -> MomentMatrix:
        """Build the degree-d moment matrix by the requested route.

        ``analytic`` needs closed-form moments; ``quad`` integrates along the
        graph piecewise between declared jumps and kinks; ``empirical``
        averages over either a midpoint grid (``grid``) or ``samples`` uniform
        draws.
        """
        spec = self.spec(d, family)
        if mode == "analytic":
            if self.moment_fn is None:
                raise ValueError(f"benchmark {self.name!r} has no closed-form moments")
            return analytic_moment_matrix(spec, self.moment_fn, note=self.name)
        if mode == "quad":
            breaks = self.breakpoints if self.p == 2 else None
            return quadrature_moment_matrix(spec, self.f, nodes, breakpoints=breaks, note=self.name)
        if mode == "empirical":
            if grid is not None:
                X = self.grid_x(grid)
            elif samples is not None:
                if rng is None:
                    raise ValueError("empirical sampling needs an rng")
                X = self.random_x(samples, rng)
            else:
                raise ValueError("empirical mode needs either grid or samples")
            return empirical_moment_matrix(spec, self.graph_points(X), note=self.name)
        raise ValueError(f"unknown moment matrix mode {mode!r}")


def _box_pairs(p: int) -> tuple:
    return ((-1.0, 1.0),) * p


def sign_benchmark() -> GraphFunction:
    """f(x) = sign(x) on [-1, 1], with f(0) = 1; one jump of height 2 at 0."""

    def f(X):
        return np.where(X[:, 0] < 0.0, -1.0, 1.0)

    def moment(a):
        a1, a2 = a
        return ((-1.0) ** (a1 + a2) + 1.0) / (a1 + 1)

    return GraphFunction(
        "sign", 2, _box_pairs(2), f, moment_fn=moment, jumps=(0.0,), variation=2.0
    )


def abs_benchmark() -> GraphFunction:
    """f(x) = |x| on [-1, 1]; continuous, Lipschitz 1, variation 2."""

    def f(X):
        return np.abs(X[:, 0])

    def moment(a):
        a1, a2 = a
        return (1.0 + (-1.0) ** a1) / (a1 + a2 + 1)

    return GraphFunction(
        "abs", 2, _box_pairs(2), f, moment_fn=moment, kinks=(0.0,), lipschitz=1.0, variation=2.0
    )


def step_benchmark(
    breakpoints: tuple = (-0.5, 0.3), values: tuple = (-0.6, 0.8, -0.2)
) -> GraphFunction:
    """Piecewise-constant f on [-1, 1]; right-continuous at the breakpoints."""
    breaks = tuple(float(t) for t in breakpoints)
    vals = np.asarray(values, dtype=float)
    if len(breaks) + 1 != vals.shape[0]:
        raise ValueError("need one more value than breakpoints")
    if list(breaks) != sorted(set(breaks)):
        raise ValueError("breakpoints must be strictly increasing")
    if np.min(vals) < -1.0 or np.max(vals) > 1.0:
        raise ValueError("step values must stay inside the y-box [-1, 1]")
    edges = np.array([-1.0, *breaks, 1.0])

    def f(X):
        return vals[np.searchsorted(np.asarray(breaks), X[:, 0], side="right")]

    def moment(a):
        a1, a2 = a
        pieces = (edges[1:] ** (a1 + 1) - edges[:-1] ** (a1 + 1)) / (a1 + 1)
        return float(np.sum(vals**a2 * pieces))

    variation = float(np.sum(np.abs(np.diff(vals))))
    return GraphFunction(
        "step", 2, _box_pairs(2), f, moment_fn=moment, jumps=breaks, variation=variation
    )


def _disk_indicator(center, radius):
    cx, cy = center

    def inside(X):
        return ((X[:, 0] - cx) ** 2 + (X[:, 1] - cy) ** 2 <= radius**2).astype(float)

    return inside


def _centered_disk_moment(a1: int, a2: int, radius: float) -> float:
    # int_{disk} u^a1 v^a2 du dv, disk centered at the origin
    if a1 % 2 or a2 % 2:
        return 0.0
    u, v = (a1 + 1) / 2.0, (a2 + 1) / 2.0
    beta = math.gamma(u) * math.gamma(v) / math.gamma(u + v)
    return 2.0 * radius ** (a1 + a2 + 2) / (a1 + a2 + 2) * beta


def disk_benchmark() -> GraphFunction:
    """Indicator of the radius-1/2 disk centered at the origin, on [-1, 1]^2."""
    f = _disk_indicator((0.0, 0.0), 0.5)

    def moment(a):
        a1, a2, a3 = a
        if a3 == 0:
            return ((1.0 + (-1.0) ** a1) / (a1 + 1)) * ((1.0 + (-1.0) ** a2) / (a2 + 1))
        # the indicator's powers all equal the indicator itself
        return _centered_disk_moment(a1, a2, 0.5)

    return GraphFunction("disk1", 3, _box_pairs(3), f, moment_fn=moment)


def two_disks_benchmark() -> GraphFunction:
    """Difference of two overlapping disk indicators; no closed-form moments."""
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
