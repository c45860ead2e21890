"""Approximation-error metrics, the L2 projection baseline and the theoretical convergence-rate bounds.

The L1 distance is estimated from function values on a weighted grid.  The
L2 projection of f of the same degree, the Gibbs baseline, is read off the
moment matrix the approximant uses.  The rate bounds mirror the two
regularity regimes: a Lipschitz regime with rate driven by the sublevel-set
radius, and a bounded-variation regime (univariate x, r > 2) that pays an
extra d^(-1/4) for the jump neighborhoods.  Both add the sublevel-set radius
``distance_bound`` to the escaping-mass tail ``outside_mass_bound`` in plain
floats; the tail is inf where it exceeds double range, and so is the bound.
Those two refuse what they cannot bound: d <= 1, r <= p and delta0 <= 0.
"""

from __future__ import annotations

import numpy as np

from .basis import eval_basis_batch, y_layout
from .cdkernel import ThresholdParams
from .moments import MomentMatrix
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


def l2_projection(matrix: MomentMatrix) -> np.ndarray:
    """Coefficients c, in the basis ``matrix.spec.x_spec()``, of the degree-d L2 projection of f.

    mu lies on the graph y = f(x), so the L2(mu) projection of the coordinate
    y onto the basis members of y-degree 0 is the projection of f onto the
    x-polynomials of degree <= d, read off M alone: c solves
    M[X, X] c = M[X, :] e, with X those members and e the coefficients of y
    in the basis, and the y-axis family's constant phi_0 folds in at the end.
    The solve does not see the scale of M, so the mass convention does not
    matter.  Evaluate it as ``eval_basis_batch(x_spec, X) @ c``.
    """
    spec = matrix.spec
    x_spec = spec.x_spec()
    if spec.d < 1:
        raise ValueError("the projection reads the moments of y, which need degree d >= 1")
    lay = y_layout(spec.p, spec.d)
    flat = lay.order[: lay.runs[0]]  # the y-degree-0 members, in x_spec's order
    y_member = int(lay.order[lay.runs[0]])  # the first of y-degree 1 has total degree 1: y itself
    # y = e_0 b_0 + e_y b_y, solved from both members at the two ends of the y-axis
    lo, hi = spec.domain[-1]
    corner = list(x_spec.domain_array()[:, 0])
    B = eval_basis_batch(spec, [corner + [lo], corner + [hi]])[:, [0, y_member]]
    e0, ey = np.linalg.solve(B, [lo, hi])
    M = matrix.entries
    c = np.linalg.solve(M[np.ix_(flat, flat)], e0 * M[flat, 0] + ey * M[flat, y_member])
    return c * (B[0, 0] / eval_basis_batch(x_spec, [corner])[0, 0])  # b_0 = phi_0 times x_spec's b_0


def lipschitz_rate_bound(
    d: int,
    params: ThresholdParams,
    vol_x: float,
    diam_y: float,
    delta0: float,
    lipschitz: float,
) -> float:
    """L1 rate bound for an L-Lipschitz target: O(d^(-1/2)) + tail term."""
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
    radius = distance_bound(d, delta0)
    jump_term = 4.0 * d**0.25 * variation * radius
    return float(vol_x * (2.0 * radius + d**-0.25) + diam_y * (outside_mass_bound(d, params) + jump_term))
