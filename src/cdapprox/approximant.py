"""Function approximation by partial minimization of the regularized kernel.

For a graph variable z = (x, y) the approximant is

    f(x) = min argmin_{y in Y} q(x, y),

the smallest of the near-minimizers of the kernel along the y-fiber.  Every
fiber is kept in one representation: its sum-of-squares rows in the kernel's
own last-axis family.  With b(x, y) = b_x(x) * phi(y), where phi is the basis
family's univariate family on the domain's y-axis, the fiber is

    q(x, y) = sum_i (A_i(x) . phi(y))^2,

and the rows A(x) come in two parts.  The range rows collect the kernel's
stored range rows S by their y-degree: the kernel stores S^T in the order of
``basis.y_layout``, whose run j is the block M_j of shape (n_{d-j}, n_range),
so A(x)[:, j] = b_x(x)[:n_{d-j}] @ M_j is one stacked GEMV per block, each a
view of the kernel's rows.  The blocks hold n n_range doubles, the weighted
(x-index, y-degree) pairs only.  The null term (1/beta) sum_k W_k(x)
(n_k . phi(y))^2 of a kernel split along the graph's levels adds d + 1 - L
rows sqrt(W_k(x) / beta) n_k, with W_k(x) the running sum of b_x(x)^2 up to
the x-members of degree d - k; without levels there are none.  So a point
has n_range + d + 1 - L rows, 60 of n = 231 at sign d = 20 where the eigen
route gave 231, and the working set is 8 n n_range bytes where it was 8 n^2.
Each point streams the blocks once.

Points are minimized in chunks sized by bytes: a chunk takes as many points
as keep each large work array within a fixed budget, and each work array is
freed once it is dead.  Two routes share one scoring and one polynomial
basis.  Every series is a Chebyshev series, taken by one fixed map of
``_window_maps`` from values at 2d+1 Gauss-Legendre nodes, and every root
comes from its stacked colleague matrices (Good 1961; Boyd, SIAM Rev. 55,
2013) in ``_real_roots``, the one eigenvalue call.  The full solve reads q at
the nodes of Y, in the variable u that maps Y onto [-1, 1], where phi's values
are cached per family, degree, domain axis and interval; the critical points
are the roots of the series of dq/du.  The window route runs at alpha = 0 and
d >= ``_WINDOW_MIN_DEGREE``.  A row p of degree L < d bounds q >= p^2; on a
level kernel it is sqrt(W_L(x) / beta) n_L, whose roots are the levels
(Lasserre, Pauwels & Putinar, The Christoffel-Darboux Kernel for Data
Analysis, 2022).  So every near-minimizer lies in L narrow windows around
them, which a size-L solve of p's series brackets, and on each certified
window three Newton steps on dq/dt find the one critical point.  A point
whose windows are not all certified takes the full solve, bit for bit.  On
the fiber-1d kernels at beta = 1e-8 the windows cover 6e-5 to 3.4e-4 of the
interval and answer every point; under the beta schedule none.  The
candidates -- critical points plus the ends of Y -- are scored in the
sum-of-squares form at y itself, so the reported q is q at the reported y and
the minimum is exact up to rounding.  The squared row sums are einsum
contractions: they add the rows in the same order as a sum over the row
axis, without that strided reduction's cost.  The fixed tridiagonal part of
each size of colleague matrix is cached as a template, so a chunk copies it
and fills only the last column.

Values within the tie window tie_tol max(1, |q_min|) + 1e-14 q_max of the
minimum count as ties and the smallest y wins, which reproduces the
min-argmin convention on symmetric fibers; ``_tie_threshold`` is the one
rule, for the full solve, the windows' level and their pick.  q_max is the
largest candidate's q: on the full solve it includes the interior local
maxima, on the windows only the window roots and the ends, up to 1.7e6 times
less at sign d = 12.  On the fiber-1d kernels the window spans up to 8e-5 of
the minimum, so the end y = lo wins a tie over a minimizer up to 2e-9 inside
it.  Every step works row by row, so a point's result does not depend on the
batch it was sent in: one point is a one-row batch of
``Approximant.evaluate_batch``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import chebyshev

from .basis import Family, _stacked_tables, as_points, eval_basis_batch, leggauss, y_layout

if TYPE_CHECKING:
    from .cdkernel import CDKernel

# bytes of the largest work array the fiber solver makes; it sets the points per
# chunk (see Approximant).  At disk1 d = 12-20, 2, 4 and 8 MiB ran at one speed
# and 1 MiB (1-4 points) slower; at low degrees, chunks of more than 128 points
# were not slower than 128
_CHUNK_BYTES = 4 << 20
# alpha window: allowance on q at a computed crossing, times max q on the fiber;
# the Chebyshev colleague roots of q = (1.1/0.9) min q left residuals up to 2.1e-14
# of max q on sign and step by quad at d = 20, and 5.8e-14 at d = 32 (32 points each)
_CROSS_TOL = 1e-11
# least degree at which the window route runs.  8-point calls on sign and step by
# quad at beta = 1e-8 took 481 and 723 us by the full solve against 620 and 846
# through the windows at d = 8, about the same at d = 9, and 1019 and 1051
# against 821 and 907 at d = 10 (one BLAS thread)
_WINDOW_MIN_DEGREE = 10
# largest share of the search interval the windows may cover.  Windows of up to
# 0.10 passed their certificates (step d = 12-20 at beta = 1e-3: 25-29 of 32
# points), wider ones seldom (14 of 96 step points at beta = 1e-2) and sign's
# never past 0.03; under the beta schedule sign's cover 0.38 or more and step's
# crossings are complex.  Wider windows skip the node work they would not repay
_WINDOW_SHARE = 0.1


def _check_knobs(alpha: float, tie_tol: float) -> None:
    """Refuse an alpha outside [0, 1) and a tie_tol that is negative, nan or inf."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if not (math.isfinite(tie_tol) and tie_tol >= 0):
        raise ValueError(f"tie_tol must be non-negative and finite, got {tie_tol}")


@dataclass
class ApproxConfig:
    """Knobs for the fiber minimization.

    ``epsilon`` is the absolute precision target on the fiber minimum, gamma/2
    when only ``gamma`` is given.  The candidates are the critical points of
    each fiber, from all of it or, at alpha = 0, from the certified windows
    around its levels, so the reported minimum is within rounding of the true
    one and any epsilon above that is met; epsilon and gamma no longer size a
    grid.  ``alpha`` widens the acceptance window to (1+alpha)/(1-alpha) times
    the minimum, matching the robust variant used when the kernel itself is
    only known up to relative error alpha.

    ``coarse_points`` and ``max_refinements`` are inert.  They tuned the grid
    search that the exact solver replaced, and stay so that existing callers
    keep working.
    """

    epsilon: float | None = None
    gamma: float | None = None
    alpha: float = 0.0
    tie_tol: float = 1e-13
    y_interval: tuple | None = None
    coarse_points: int = 1025
    max_refinements: int = 24

    def __post_init__(self):
        _check_knobs(self.alpha, self.tie_tol)

    def resolve_epsilon(self) -> float | None:
        if self.epsilon is not None:
            return float(self.epsilon)
        if self.gamma is not None:
            return float(self.gamma) / 2.0
        return None


@lru_cache(maxsize=64)
def _window_maps(d: int) -> tuple:
    """Fixed maps for q of degree 2d on an interval, in the interval's variable t in [-1, 1].

    ``nodes`` are the 2d+1 Gauss-Legendre nodes; ``value`` turns the values
    there of a polynomial of degree <= 2d into its Chebyshev coefficients
    (exact, as the nodes are 2d+1), and ``slope`` turns q's values into the
    Chebyshev coefficients a_0..a_{2d-1} of dq/dt; ``second`` turns those
    into the coefficients of d2q/dt2, and ``abs_slope`` is |slope|, for the
    rounding bound.  The full solve reads them on the search interval, the
    window route on each window.
    """
    nodes = leggauss(2 * d + 1)[0]
    value = np.linalg.solve(chebyshev.chebvander(nodes, 2 * d), np.eye(2 * d + 1)).T
    slope = value @ chebyshev.chebder(np.eye(2 * d + 1)).T
    second = chebyshev.chebder(np.eye(2 * d)).T
    out = nodes, value, slope, second, np.abs(slope)
    for a in out:
        a.setflags(write=False)
    return out


def _phi(family: Family, d: int, axis: tuple, y: np.ndarray) -> np.ndarray:
    """Degree-major (d+1, *y.shape) values at y of the family's members of degree <= d on axis = (lo, hi)."""
    return _stacked_tables(family, d, y.reshape(1, -1), np.array([axis]))[:, 0].reshape(d + 1, *y.shape)


@lru_cache(maxsize=64)
def _node_values(family: Family, d: int, axis: tuple, interval: tuple) -> np.ndarray:
    """phi on ``axis`` at the 2d+1 Gauss-Legendre nodes of ``interval``, (d+1, 2d+1), read-only; not per Approximant."""
    lo, hi = interval
    out = _phi(family, d, axis, lo + 0.5 * (leggauss(2 * d + 1)[0] + 1.0) * (hi - lo))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _colleague_template(n: int) -> tuple:
    """The fixed part of the size-n Chebyshev colleague matrix, rotated: its tridiagonal and the first-column scale.

    The matrix is numpy's chebcompanion turned by 180 degrees, as chebroots
    solves it: its balancing then keeps the small roots of a series whose
    leading coefficient is rounding noise, where the unrotated form lost
    them (1 + 2y squared read its root -0.5 as -0.25).  At n = 1 the matrix
    is the root -c_0/c_1 itself.
    """
    scl = np.sqrt(np.r_[1.0, np.full(n - 1, 0.5)])
    mat = np.diag(np.r_[np.sqrt(0.5), np.full(max(n - 2, 0), 0.5)][: n - 1], 1)
    first = (scl / scl[-1] * (0.5 if n > 1 else 1.0))[::-1].copy()
    mat = (mat + mat.T)[::-1, ::-1].copy()
    for a in (mat, first):
        a.setflags(write=False)
    return mat, first


def _colleague(c: np.ndarray) -> np.ndarray:
    """Stacked symmetric-scaled colleague matrices of Chebyshev series rows c, rotated (numpy's chebcompanion[::-1, ::-1])."""
    template, first = _colleague_template(c.shape[1] - 1)
    mat = np.repeat(template[None], c.shape[0], axis=0)
    mat[:, :, 0] -= (c[:, -2::-1] / c[:, -1:]) * first
    return mat


def _real_roots(c: np.ndarray, strict: bool = False) -> np.ndarray:
    """Real parts of the roots of each Chebyshev series row, clipped to [-1, 1].

    When every row has a nonzero last coefficient, one eigenvalue call solves
    the whole stack.  Otherwise a row's degree is that of its last nonzero
    coefficient, so a vanishing leading coefficient lowers the degree instead
    of dividing by zero; rows are grouped by degree and a missing root reads
    -1.  Real parts of complex roots are kept too: scoring them costs little
    and covers roots that rounding split off the real axis.  With ``strict``
    a complex root reads nan instead.  This is the one eigenvalue call of the
    fiber solver, and the colleague matrix (Good 1961) its one root form.
    """

    def solve(rows):
        roots = np.linalg.eigvals(_colleague(rows))
        return np.where(roots.imag == 0.0, roots.real, np.nan) if strict else roots.real

    if c.shape[1] > 1 and c[:, -1].all():
        return np.clip(solve(c), -1.0, 1.0)
    out = np.full((c.shape[0], c.shape[1] - 1), np.nan if strict else -1.0)
    live = c != 0.0
    deg = np.where(live.any(axis=1), c.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1), 0)
    for n in np.flatnonzero(np.bincount(deg)[1:]) + 1:  # the degrees > 0 that occur
        sel = deg == n
        out[sel, :n] = solve(c[sel, : n + 1])
    return np.clip(out, -1.0, 1.0)


def _level_roots(c: np.ndarray, levels: list, strict: bool = False) -> np.ndarray:
    """Roots of c = level for each Chebyshev series row c (B, n+1) and each level array (B,): (B, len(levels) n).

    One ``_real_roots`` call solves all the shifted series; row b holds the
    roots for the first level, then for the next.
    """
    shifted = np.tile(c, (len(levels), 1))
    shifted[:, 0] -= np.concatenate(levels)
    roots = _real_roots(shifted, strict=strict)
    return roots.reshape(len(levels), c.shape[0], -1).transpose(1, 0, 2).reshape(c.shape[0], -1)


def _tie_threshold(q: np.ndarray, tie_tol: float, alpha: float = 0.0) -> tuple:
    """(threshold, q_max) of candidate values q (B, k): every candidate at or below the threshold ties.

    The threshold is (1+alpha)/(1-alpha) max(q_min, 0) plus the tie window
    tie_tol max(1, |q_min|) + 1e-14 |q_max|; the 1e-14 q_max floor absorbs
    rounding noise of order eps (fiber range) in the spectral factorization,
    so exactly symmetric fibers tie cleanly.
    """
    qmin, qmax = q.min(axis=1), q.max(axis=1)
    window = tie_tol * np.maximum(1.0, np.abs(qmin)) + 1e-14 * np.abs(qmax)
    return (1.0 + alpha) / (1.0 - alpha) * np.maximum(qmin, 0.0) + window, qmax


def _sos_values(rows: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """q = sum_i (rows_i . phi)^2, (B, k), for rows (B, r, d+1) and phi values (d+1, k) or, per row b, (B, d+1, k)."""
    terms = rows @ phi
    return np.einsum("brk,brk->bk", terms, terms)


def _at_y(u: np.ndarray, interval: tuple) -> np.ndarray:
    """Points u on [-1, 1] mapped into the interval (lo, hi), clipped to it."""
    lo, hi = interval
    return np.clip(lo + 0.5 * (u + 1.0) * (hi - lo), lo, hi)


def _interval(interval, d: int) -> tuple[float, float]:
    """(lo, hi) of a search interval for fibers of degree d.

    Refuses an empty interval, one whose ends or width are not finite, and one
    whose width is subnormal or so small that the squared Legendre scale
    (2d+1)/(hi - lo) overflows.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    width = hi - lo
    if not math.isfinite(width):  # an infinite end, or ends so far apart that the width overflows
        raise ValueError(f"search interval [{lo}, {hi}] is not a finite interval")
    if width < sys.float_info.min or not math.isfinite((2 * d + 1) / width):
        raise ValueError(f"search interval [{lo}, {hi}] is too narrow for degree {d}: width {width}")
    return lo, hi


def _full_argmin(A: np.ndarray, family: Family, axis: tuple, interval: tuple, alpha: float, tie_tol: float) -> tuple:
    """Min-argmin of q = sum_i (A[b, i] . phi(y))^2 over the interval, for each b, from every critical point.

    A has shape (B, r, d+1) and holds coefficients in phi, the members of
    degree <= d of ``family`` on ``axis`` = (lo, hi); ``interval`` is a search
    interval that ``_interval`` accepted, and A is finite.  The solver reads
    phi only through its values at the interval's Gauss nodes and at the
    candidates.  Returns the arrays (y, q(y)), q evaluated at the returned y.
    """
    B, d = A.shape[0], A.shape[2] - 1
    lo, hi = interval
    _, value, slope = _window_maps(d)[:3]
    with np.errstate(over="ignore", invalid="ignore"):
        qn = _sos_values(A, _node_values(family, d, axis, interval))[:, None, :]
        a = (qn @ slope)[:, 0]
    if not np.all(np.isfinite(a)):
        raise ValueError(f"q overflows on the search interval [{lo}, {hi}]")

    y = np.concatenate([_at_y(_real_roots(a), interval), np.broadcast_to([lo, hi], (B, 2))], axis=1)
    q = _sos_values(A, _phi(family, d, axis, y).transpose(1, 0, 2))
    thresh, qmax = _tie_threshold(q, tie_tol, alpha)
    if alpha > 0.0:
        # the leftmost point of {q <= thresh} is y = lo or a crossing of q = thresh
        cross = _at_y(_level_roots((qn @ value)[:, 0], [thresh]), interval)
        y = np.concatenate([y, cross], axis=1)
        q = np.concatenate([q, _sos_values(A, _phi(family, d, axis, cross).transpose(1, 0, 2))], axis=1)
        thresh = thresh + _CROSS_TOL * np.abs(qmax)
    pick = np.argmin(np.where(q <= thresh[:, None], y, np.inf), axis=1)
    at = np.arange(B)
    return y[at, pick], q[at, pick]


def _keep(mask: np.ndarray, *arrays) -> tuple:
    """The rows of each array where mask holds; the arrays themselves, uncopied, where it holds for every row."""
    return arrays if mask.all() else tuple(a[mask] for a in arrays)


def _window_argmin(A: np.ndarray, family: Family, axis: tuple, interval: tuple, tie_tol: float) -> tuple:
    """(ok, y, q): the min-argmin of each fiber from windows around its levels, for the points marked ok.

    Same arguments as ``_full_argmin`` at alpha = 0.  A row p of least degree
    L, 1 <= L < d, bounds q >= p^2.  With q* the least q at p's roots and at
    the ends, and ``level`` the tie threshold q* would set, every y with
    q(y) <= level lies in the L windows {p^2 <= level}, which one size-L
    solve of p = -+sqrt(level) brackets.  On each window the Chebyshev
    coefficients a_j of dq/dt, t the window's variable, come from q at its
    2d+1 Gauss nodes.  The window is certified root-free,
    |a_0| > sum_{j>=1} |a_j|, or with dq/dt increasing,
    a_1 > sum_{j>=2} j^2 |a_j|, each side widened by the coefficients'
    rounding bound, and three Newton steps find its one root.  The
    candidates, those roots and the ends, are scored, tied and picked as in
    ``_full_argmin``, with the tie threshold capped at ``level``, above which
    a tie could lie outside the windows.  Each window's minimum lies at or
    below q at its anchor, so the cap acts only through q's rounding: at
    sign d = 20 an anchor 7e-16 inside the end y = -1, the window's
    minimum, read q 8.9e-14 relative below it, and the threshold lay
    9.7e-13 above the level.  A point is ok where every crossing is real,
    the windows cover at most ``_WINDOW_SHARE`` of the interval, every
    window is certified, all is finite and the least candidate lies within
    ``level``.
    """
    B, r, d = A.shape[0], A.shape[1], A.shape[2] - 1
    lo, hi = interval
    ok, y, q = np.zeros(B, dtype=bool), np.empty(B), np.empty(B)
    deg = d - np.argmax(A[:, :, ::-1] != 0.0, axis=2)  # a zero row reads degree d and is never p
    low = deg.argmin(axis=1)
    deg = deg[np.arange(B), low]
    nodes, value, slope, second, abs_slope = _window_maps(d)
    eps = np.finfo(float).eps

    for L in np.flatnonzero(np.bincount(deg, minlength=d)[1:d]) + 1:  # the degrees 1..d-1 that occur
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pts = np.flatnonzero(deg == L)
            # p as a Chebyshev series in u, from its values at the interval's Gauss nodes (exact to degree 2d)
            cp = ((A[pts, low[pts]][:, None, :] @ _node_values(family, d, axis, interval)) @ value[:, : L + 1])[:, 0]
            pts, cp = _keep(np.isfinite(cp).all(axis=1), pts, cp)
            anchor = np.sort(_real_roots(cp), axis=1)
            ends = np.broadcast_to([lo, hi], (pts.size, 2))
            q_ends = _sos_values(A[pts], _phi(family, d, axis, np.concatenate([_at_y(anchor, interval), ends], axis=1)).transpose(1, 0, 2))
            level = _tie_threshold(q_ends, tie_tol)[0]
            # the crossings p = +s and p = -s in one solve, s widened by their rounding, a few eps ||cp||_1
            # in p; sorted, they pair into the windows [ua, ub]
            s = np.sqrt(level) + 4 * (L + 1) * eps * np.abs(cp).sum(axis=1)
            pts, cp, anchor, q_ends, level, s = _keep(np.isfinite(s), pts, cp, anchor, q_ends, level, s)
            cross = np.sort(_level_roots(cp, [s, -s], strict=True), axis=1)
            ua, ub = cross[:, 0::2], cross[:, 1::2]
            fits = np.isfinite(cross).all(axis=1) & (0.5 * (ub - ua).sum(axis=1) <= _WINDOW_SHARE)
            pts, anchor, q_ends, level, ua, ub = _keep(fits, pts, anchor, q_ends[:, L:], level, ua, ub)
            if not pts.size:
                continue
            ya, yb, Ap = _at_y(ua, interval), _at_y(ub, interval), A if pts.size == B else A[pts]
            norms = np.sqrt(np.einsum("brj,brj->br", Ap, Ap))
            qn, err = np.empty((2, pts.size, L, 2 * d + 1))
            for w in range(L):
                # q at the window's Gauss nodes: one stacked (r, d+1) @ (d+1, 2d+1) product per point
                phi = _phi(family, d, axis, ya[:, w, None] + 0.5 * (nodes + 1.0) * (yb - ya)[:, w, None]).transpose(1, 0, 2)
                terms = Ap @ phi
                qn[:, w] = np.einsum("brk,brk->bk", terms, terms)
                # rounding of q at a node: each row's sum t_i is off by (d+1) eps ||A_i|| ||phi|| and phi's own
                # rounding as much again, so q by 4 (d+1) eps ||phi|| sum_i |t_i| ||A_i||; the sum of squares
                # and the map add (r + 2d+1) eps q
                spread = np.einsum("brk,br->bk", np.abs(terms, out=terms), norms)
                err[:, w] = eps * (4.0 * (d + 1) * np.sqrt(np.einsum("bjk,bjk->bk", phi, phi)) * spread + (r + 2 * d + 1) * qn[:, w])
                del phi, terms
            a = qn @ slope
            # a node off by its rounding, 2 eps max|y|, moves q by that times |dq/dy| <= 2 sum_j |a_j| / (yb - ya)
            shift = 4.0 * eps * np.maximum(np.abs(ya), np.abs(yb)) / (yb - ya) * np.abs(a).sum(axis=2)
            bound = err @ abs_slope + shift[..., None] * abs_slope.sum(axis=0)
            mag = np.abs(a) + bound
            free = np.abs(a[..., 0]) - bound[..., 0] > mag[..., 1:].sum(axis=2)
            convex = a[..., 1] - bound[..., 1] > np.einsum("blj,j->bl", mag[..., 2:], np.arange(2.0, 2 * d) ** 2)
            flat = ~(yb > ya)  # a window clipped onto an end, a candidate already
            # Newton from the level, the series and its derivative read from one cos(k theta) table a step
            t = np.clip(np.where(flat, 0.0, 2.0 * (anchor - ua) / (ub - ua) - 1.0), -1.0, 1.0)
            a2, k = a @ second, np.arange(2 * d)
            for _ in range(3):
                table = np.cos(np.arccos(t)[..., None] * k)
                step = np.einsum("blj,blj->bl", a, table) / np.einsum("blj,blj->bl", a2, table[..., :-1])
                t = np.clip(t - np.where(convex, step, 0.0), -1.0, 1.0)
            t = np.where(convex, t, np.where(a[..., 0] > 0.0, -1.0, 1.0))  # a root-free window's lower end
            roots = np.clip(ya + 0.5 * (t + 1.0) * (yb - ya), lo, hi)
            ys = np.concatenate([roots, ends[: pts.size]], axis=1)
            qs = np.concatenate([_sos_values(Ap, _phi(family, d, axis, roots).transpose(1, 0, 2)), q_ends], axis=1)
            thresh = np.minimum(_tie_threshold(qs, tie_tol)[0], level)
            pick = np.argmin(np.where(qs <= thresh[:, None], ys, np.inf), axis=1)
            at = np.arange(pts.size)
            # a bound that is not finite certifies nothing: its comparisons read False
            ok[pts] = (free | convex | flat).all(axis=1) & np.isfinite(qs).all(axis=1) & (qs.min(axis=1) <= thresh)
            y[pts], q[pts] = ys[at, pick], qs[at, pick]
    return ok, y, q


def _fiber_argmin(A: np.ndarray, family: Family, axis: tuple, interval: tuple, alpha: float, tie_tol: float) -> tuple:
    """Min-argmin of q = sum_i (A[b, i] . phi(y))^2 over the interval, for each b.

    A has shape (B, r, d+1) and holds coefficients in phi, the members of
    degree <= d of ``family`` on ``axis`` = (lo, hi); ``interval`` is a search
    interval that ``_interval`` accepted, and A is finite.  At alpha = 0 and
    d >= ``_WINDOW_MIN_DEGREE`` the windows of ``_window_argmin`` answer the
    points they certify; every other point takes ``_full_argmin``, bit for
    bit.  Returns the arrays (y, q(y)), q evaluated at the returned y.
    """
    if alpha > 0.0 or A.shape[2] - 1 < _WINDOW_MIN_DEGREE:
        return _full_argmin(A, family, axis, interval, alpha, tie_tol)
    ok, y, q = _window_argmin(A, family, axis, interval, tie_tol)
    if not ok.all():
        rest = ~ok
        y[rest], q[rest] = _full_argmin(*_keep(rest, A), family, axis, interval, alpha, tie_tol)
    return y, q


def partial_argmin(
    rows,
    interval,
    epsilon: float | None = None,
    alpha: float = 0.0,
    tie_tol: float = 1e-13,
    coarse_points: int = 1025,
    max_refinements: int = 24,
) -> tuple[float, float]:
    """Smallest near-minimizer of a sum-of-squares polynomial on an interval.

    ``rows`` is an (r, k) array with k >= 1, or one row, of coefficients in
    the orthonormal Legendre basis L of the interval; the polynomial is
    q(y) = sum_i (rows_i . L(y))^2.  ``Approximant.y_coefficients`` returns
    such rows for the orthonormal family searched over its y-axis.  Returns
    (y, q(y)) with y the smallest candidate inside the tie window of the
    minimum (or, for alpha > 0, the leftmost point with
    q(y) <= (1+alpha)/(1-alpha) min q).  The minimum is exact up to rounding,
    which meets any ``epsilon``; ``coarse_points`` and ``max_refinements`` are
    accepted and ignored.  It runs the solver of ``evaluate_batch``, window
    route included: at alpha = 0 and k - 1 >= ``_WINDOW_MIN_DEGREE``, a row
    of degree 1 <= L < k - 1, as the first null row of ``y_coefficients``,
    confines the minimum to windows around its roots, which answer the fiber
    where certified; so it returns ``evaluate_batch``'s bits.
    """
    _check_knobs(alpha, tie_tol)
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    if A.ndim > 2:
        raise ValueError(f"rows must be one row or a 2-D array of rows, got shape {A.shape}")
    if A.shape[1] == 0:
        raise ValueError(f"rows must have at least one coefficient, got shape {np.shape(rows)}")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite fiber coefficients")
    interval = _interval(interval, A.shape[1] - 1)
    y, q = _fiber_argmin(A[None], Family.LEGENDRE_ORTHONORMAL, interval, interval, alpha, tie_tol)
    return float(y[0]), float(q[0])


class Approximant:
    """Evaluates f(x) = min argmin_y q(x, y) for a kernel on a graph box.

    The fiber rows stay in phi, the kernel's last-axis family on the domain's
    y-axis, whatever the search interval; the solver evaluates phi itself.
    Working set, with n the basis size and r = n_range + d + 1 - L rows per
    point (r = n without levels): the kernel holds M at 8 n^2 bytes and its
    range rows at 8 n n_range, and the y-degree blocks are views of those
    rows, so the approximant itself holds no n x n array.  Evaluation runs in
    chunks of max(1, _CHUNK_BYTES // (8 max((r + d + 1)(2d+1), (2d-1)^2)))
    points, so each of its largest work arrays takes at most _CHUNK_BYTES
    (4 MiB): the (chunk, r, 2d+1) node and candidate terms, a window's node
    terms with the (chunk, d+1, 2d+1) phi they come from, and the full
    solve's (chunk, 2d-1, 2d-1) colleague matrices.  They are never alive
    together: beside one of them a chunk holds its (chunk, r, d+1) rows.  At disk1
    d = 20 (n = 1,771, n_range = 441) the kernel's rows take 6 MiB.
    """

    def __init__(self, kernel: CDKernel, config: ApproxConfig | None = None):
        spec = kernel.spec
        if spec.p < 2:
            raise ValueError("approximation needs p >= 2 (x-block plus one y axis)")
        self.kernel = kernel
        self.config = config or ApproxConfig()
        self.spec = spec
        self._y_interval = _interval(self.config.y_interval or spec.domain[-1], spec.d)
        self._x_spec = spec.x_spec()
        runs = y_layout(spec.p, spec.d).runs
        self._blocks = tuple(np.split(kernel._rows, np.cumsum(runs)[:-1]))
        # row k - L of the null directions weighs the x-members of degree <= d - k: the first runs[k]
        self._null_ends = runs[spec.d + 1 - kernel._null.shape[0] :] - 1
        r, d = self._blocks[0].shape[1] + kernel._null.shape[0], spec.d
        # per point: the (r, 2d+1) node terms, beside the window's (d+1, 2d+1) phi they come from, and
        # the full solve's (2d-1, 2d-1) colleague matrix
        self._chunk = max(1, _CHUNK_BYTES // (8 * max((r + d + 1) * (2 * d + 1), (2 * d - 1) ** 2)))

    def _rows(self, X: np.ndarray) -> np.ndarray:
        """Fiber rows (B, r, d+1) at the points X; rows that overflow raise ValueError, with no RuntimeWarning.

        The first rows are the range part, one stacked GEMV per y-degree; the
        last d + 1 - L are the null term's sqrt(W_k(x) / beta) n_k, with
        W_k(x) the running sum of the squared x-basis up to the x-members of
        degree d - k.
        """
        kern = self.kernel
        r, k = self._blocks[0].shape[1], kern._null.shape[0]
        out = np.empty((len(self._blocks), X.shape[0], 1, r))
        rows = np.empty((X.shape[0], r + k, self.spec.d + 1))
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            bx = eval_basis_batch(self._x_spec, X)[:, None, :]
            for j, M in enumerate(self._blocks):  # one stacked (B, 1, n_j) @ (n_j, r) GEMV per y-degree
                np.matmul(bx[:, :, : M.shape[0]], M, out=out[j])
            rows[:, :r] = out[:, :, 0].transpose(1, 2, 0)
            W = np.cumsum(np.square(bx[:, 0]), axis=1)[:, self._null_ends]
            np.multiply(np.sqrt(W / kern.beta)[:, :, None], kern._null, out=rows[:, r:])
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite fiber coefficients")
        return rows

    def y_coefficients(self, x) -> np.ndarray:
        """Sum-of-squares rows A(x): q(x, y) = sum_i (A_i . phi(y))^2, phi the last-axis family on the domain's y-axis.

        An (n_range + d + 1 - L, d + 1) array: the range rows, then the null
        term's rows sqrt(W_k(x) / beta) n_k, k = L..d (none without levels).
        In the orthonormal family phi is the basis ``partial_argmin`` reads on
        that axis."""
        return self._rows(as_points(self._x_spec, np.reshape(x, (1, -1))))[0]

    def evaluate_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation over rows of X; returns (values, fiber minima).

        A point with a non-finite coordinate is refused by its row.  A finite
        point so far out that its fiber rows overflow raises ``ValueError``
        ("non-finite fiber coefficients"), with no RuntimeWarning, as
        ``y_coefficients`` does.
        """
        X = as_points(self._x_spec, X)
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"point row {bad[0]} has a non-finite coordinate: {X[bad[0]].tolist()}")
        cfg, spec = self.config, self.spec
        ys, qs = np.empty(X.shape[0]), np.empty(X.shape[0])
        for s in range(0, X.shape[0], self._chunk):
            part = slice(s, s + self._chunk)
            ys[part], qs[part] = _fiber_argmin(
                self._rows(X[part]), spec.family, spec.domain[-1], self._y_interval, cfg.alpha, cfg.tie_tol
            )
        return ys, qs
