"""Approximation-error metrics and the theoretical convergence-rate bounds.

The L1 distance is estimated from function values on a weighted grid.  The
rate bounds mirror the two regularity regimes: a Lipschitz regime with rate
driven by the sublevel-set radius, and a bounded-variation regime (univariate
x, r > 2) that pays an extra d^(-1/4) for the jump neighborhoods.  Both add
the sublevel-set radius ``distance_bound`` to the escaping-mass tail
``outside_mass_bound`` in plain floats; the tail is inf where it exceeds
double range, and so is the bound.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisSpec, axis_table, gauss_pieces
from .cdkernel import ThresholdParams
from .support import distance_bound, outside_mass_bound


def l1_error(values, reference, weights) -> float:
    """Weighted L1 distance sum_i w_i |values_i - reference_i|.

    With midpoint-cell weights this is the midpoint rule for
    int |f_approx - f| over the grid's box.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    r = np.asarray(reference, dtype=float).reshape(-1)
    if v.shape != r.shape:
        raise ValueError(f"value shapes differ: {v.shape} vs {r.shape}")
    w = np.broadcast_to(np.asarray(weights, dtype=float), v.shape)
    return float(np.sum(w * np.abs(v - r)))


def overshoot(values, bounds) -> float:
    """How far values exceed the band [bounds[0], bounds[1]]; 0 if they stay in."""
    lo, hi = float(bounds[0]), float(bounds[1])
    v = np.asarray(values, dtype=float)
    return float(max(0.0, float(np.max(v)) - hi, lo - float(np.min(v))))


def legendre_projection(f, degree: int, interval=(-1.0, 1.0), jumps=()) -> np.ndarray:
    """Coefficients of the degree-``degree`` L2 projection of f on the interval.

    Returned in the orthonormal Legendre family of the interval.  Quadrature
    is piecewise Gauss-Legendre between the declared cuts in ``jumps`` (pass
    a benchmark's ``breakpoints``: its jumps and kinks), so piecewise-smooth f
    is integrated accurately; nothing here tries to locate them.
    """
    lo, hi = float(interval[0]), float(interval[1])
    cuts = [lo] + sorted(t for t in jumps if lo < t < hi) + [hi]
    spec = BasisSpec(1, degree, domain=((lo, hi),))
    coeffs = np.zeros(degree + 1)
    for t, wt in zip(*gauss_pieces(cuts, max(2 * (degree + 1), 64))):
        fv = np.asarray(f(t), dtype=float).reshape(-1)
        table = axis_table(spec, 0, t)
        coeffs += table.T @ (wt * fv)
    return coeffs


def eval_projection(coeffs, interval, t) -> np.ndarray:
    """Evaluate a projection returned by ``legendre_projection``."""
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1)
    spec = BasisSpec(1, c.shape[0] - 1, domain=(tuple(interval),))
    table = axis_table(spec, 0, t)
    return table @ c


def lipschitz_rate_bound(
    d: int,
    params: ThresholdParams,
    vol_x: float,
    diam_y: float,
    delta0: float,
    lipschitz: float,
) -> float:
    """L1 rate bound for an L-Lipschitz target: O(d^(-1/2)) + tail term."""
    params.validate_rate()
    if d <= 1:
        raise ValueError(f"rate bounds need degree d > 1, got {d}")
    radius = distance_bound(d, delta0)
    return float(vol_x * radius * (1.0 + lipschitz) + diam_y * outside_mass_bound(d, params))


def bv_rate_bound(
    d: int,
    params: ThresholdParams,
    vol_x: float,
    diam_y: float,
    delta0: float,
    variation: float,
) -> float:
    """L1 rate bound for a univariate target of bounded variation; needs r > 2."""
    if params.p != 2:
        raise ValueError(f"the variation bound applies to p = 2, got p = {params.p}")
    if params.r <= 2:
        raise ValueError(f"the variation bound needs r > 2, got r = {params.r}")
    if d <= 1:
        raise ValueError(f"rate bounds need degree d > 1, got {d}")
    radius = distance_bound(d, delta0)
    jump_term = 4.0 * d**0.25 * variation * radius
    return float(vol_x * (2.0 * radius + d**-0.25) + diam_y * (outside_mass_bound(d, params) + jump_term))
