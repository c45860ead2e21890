"""Function approximation by partial minimization of the regularized kernel.

For a graph variable z = (x, y) the approximant is

    f(x) = min argmin_{y in Y} q(x, y),

the smallest of the near-minimizers of the kernel along the y-fiber.  Every
fiber is kept in one representation: its sum-of-squares rows.  With the rows
w_i of ``CDKernel.sos_decomposition`` and b(x, y) = b_x(x) * b_y(y), the fiber
is q(x, y) = sum_i (A_i(x) . L(y))^2, where L is the orthonormal Legendre
basis of the search interval Y and A(x) = W diag(b_x(x)) S R collects the
basis entries by their y-degree (S) and maps them into L (R, fixed at set-up).

Points are minimized in chunks.  The Legendre coefficients of q come from its
values at 2d+1 Gauss-Legendre nodes, the critical points from the stacked
colleague matrices of dq/dy (Good 1961; Boyd, SIAM Rev. 55, 2013) in one
eigenvalue call, and the candidates -- critical points plus the ends of Y --
are scored in the sum-of-squares form.  The minimum is therefore exact up to
rounding.  The squared row sums are einsum contractions: they add the rows in
the same order as a sum over the row axis, without that strided reduction's
cost.  The fixed tridiagonal part of each size of colleague matrix is cached
as a template, so a chunk copies it and fills only the last column.

Values within the tie window of the minimum count as ties and the smallest y
wins, which reproduces the min-argmin convention on symmetric fibers.  Every
step works row by row, so a point's result does not depend on the batch it
was sent in: one point is a one-row batch of ``Approximant.evaluate_batch``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .basis import as_points, axis_table, eval_basis_batch, leggauss
from .cdkernel import CDKernel

_CHUNK = 128  # points per stacked solve; bounds the (chunk, rows, d+1) work arrays
# alpha window: allowance on q at a computed crossing, times max q on the fiber;
# the colleague roots leave residuals up to 5e-13 of max q at d = 20
_CROSS_TOL = 1e-11


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
    when only ``gamma`` is given.  The candidates are the exact critical points
    of each fiber, so the reported minimum is within rounding of the true one
    and any epsilon above that is met; epsilon and gamma no longer size a
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
def _fiber_maps(d: int) -> tuple:
    """Fixed maps for rows of degree d in the Legendre basis P_k(u) on [-1, 1].

    ``nodes`` evaluates a row at the 2d+1 Gauss-Legendre nodes, ``project``
    turns values of q at those nodes into its Legendre coefficients (exact, as
    q has degree 2d), and ``derive`` turns those into the coefficients of dq/du.
    """
    u, w = leggauss(2 * d + 1)
    nodes = legendre.legvander(u, d).T
    project = legendre.legvander(u, 2 * d) * w[:, None] * (np.arange(2 * d + 1) + 0.5)
    derive = legendre.legder(np.eye(2 * d + 1)).T
    for a in (nodes, project, derive):
        a.setflags(write=False)
    return nodes, project, derive


@lru_cache(maxsize=64)
def _colleague_template(n: int) -> tuple:
    """The fixed part of the size-n colleague matrix: its tridiagonal and the last-column scale."""
    scl = 1.0 / np.sqrt(2.0 * np.arange(n) + 1.0)
    k = np.arange(n - 1)
    mat = np.zeros((n, n))
    mat[k, k + 1] = mat[k + 1, k] = (k + 1) * scl[:-1] * scl[1:]
    last = scl / scl[-1]
    for a in (mat, last):
        a.setflags(write=False)
    return mat, last


def _colleague(c: np.ndarray) -> np.ndarray:
    """Stacked symmetric-scaled colleague matrices of Legendre series rows c (as numpy's legcompanion)."""
    n = c.shape[1] - 1
    template, last = _colleague_template(n)
    mat = np.repeat(template[None], c.shape[0], axis=0)
    mat[:, :, -1] -= (c[:, :-1] / c[:, -1:]) * last * (n / (2.0 * n - 1.0))
    return mat


def _real_roots(c: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each Legendre series row, clipped to [-1, 1].

    When every row has a nonzero last coefficient, one eigenvalue call solves
    the whole stack.  Otherwise a row's degree is that of its last nonzero
    coefficient, so a vanishing leading coefficient lowers the degree instead
    of dividing by zero; rows are grouped by degree and a missing root reads
    -1.  Real parts of complex roots are kept too: scoring them costs little
    and covers roots that rounding split off the real axis.
    """
    if c.shape[1] > 1 and c[:, -1].all():
        return np.clip(np.linalg.eigvals(_colleague(c)).real, -1.0, 1.0)
    out = np.full((c.shape[0], c.shape[1] - 1), -1.0)
    live = c != 0.0
    deg = np.where(live.any(axis=1), c.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1), 0)
    for n in np.flatnonzero(np.bincount(deg)[1:]) + 1:  # the degrees > 0 that occur
        sel = deg == n
        out[sel, :n] = np.linalg.eigvals(_colleague(c[sel, : n + 1])).real
    return np.clip(out, -1.0, 1.0)


def _sos_values(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """q(u) = sum_i (rows_i . P(u))^2 for rows (B, r, d+1) at points u (B, k)."""
    d = rows.shape[2] - 1
    # P_j(u) by legvander's recurrence into a degree-major buffer, so each degree is one contiguous write
    V = np.empty((d + 1, *u.shape))
    V[0] = 1.0
    if d > 0:
        V[1] = u
    for i in range(2, d + 1):
        V[i] = (V[i - 1] * u * (2 * i - 1) - V[i - 2] * (i - 1)) / i
    terms = rows @ V.transpose(1, 0, 2)
    return np.einsum("brk,brk->bk", terms, terms)


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


def _fiber_argmin(A: np.ndarray, interval, alpha: float, tie_tol: float) -> tuple:
    """Min-argmin of q = sum_i (A[b, i] . L(y))^2 over the interval, for each b.

    A has shape (B, r, d+1) and holds orthonormal Legendre coefficients on the
    interval.  Returns the arrays (y, q(y)).
    """
    d = A.shape[2] - 1
    lo, hi = _interval(interval, d)
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite fiber coefficients")
    rows = A * np.sqrt((2.0 * np.arange(d + 1) + 1.0) / (hi - lo))  # now in P_k(u), u on [-1, 1]
    nodes, project, derive = _fiber_maps(d)
    at_nodes = rows @ nodes
    c = (np.einsum("brk,brk->bk", at_nodes, at_nodes)[:, None, :] @ project)[:, 0]
    ends = np.broadcast_to([-1.0, 1.0], (A.shape[0], 2))
    u = np.concatenate([_real_roots((c[:, None, :] @ derive)[:, 0]), ends], axis=1)
    q = _sos_values(rows, u)
    qmin, qmax = q.min(axis=1), q.max(axis=1)
    # the 1e-14 * qmax floor absorbs rounding noise of order eps * (fiber range)
    # in the spectral factorization, so exactly symmetric fibers tie cleanly
    window = tie_tol * np.maximum(1.0, np.abs(qmin)) + 1e-14 * np.abs(qmax)
    if alpha > 0.0:
        # the leftmost point of {q <= thresh} is y = lo or a crossing of q = thresh
        thresh = (1.0 + alpha) / (1.0 - alpha) * np.maximum(qmin, 0.0) + window
        shifted = c.copy()
        shifted[:, 0] -= thresh
        cross = _real_roots(shifted)
        u = np.concatenate([u, cross], axis=1)
        q = np.concatenate([q, _sos_values(rows, cross)], axis=1)
        thresh = thresh + _CROSS_TOL * np.abs(qmax)
    else:
        thresh = qmin + window
    pick = np.argmin(np.where(q <= thresh[:, None], u, np.inf), axis=1)
    at = np.arange(A.shape[0])
    y = np.clip(lo + 0.5 * (u[at, pick] + 1.0) * (hi - lo), lo, hi)
    return y, q[at, pick]


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

    ``rows`` is an (r, k) array, or one row, of coefficients in the
    orthonormal Legendre basis L of the interval; the polynomial is
    q(y) = sum_i (rows_i . L(y))^2, as returned by
    ``Approximant.y_coefficients``.  Returns (y, q(y)) with y the smallest
    candidate inside the tie window of the minimum (or, for alpha > 0, the
    leftmost point with q(y) <= (1+alpha)/(1-alpha) min q).  The minimum is
    exact up to rounding, which meets any ``epsilon``;
    ``coarse_points`` and ``max_refinements`` are accepted and ignored.
    """
    _check_knobs(alpha, tie_tol)
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    if A.ndim > 2:
        raise ValueError(f"rows must be one row or a 2-D array of rows, got shape {A.shape}")
    y, q = _fiber_argmin(A[None], interval, alpha, tie_tol)
    return float(y[0]), float(q[0])


def _change_of_basis(spec, lo: float, hi: float) -> np.ndarray:
    """R with phi_j(y) = sum_k R[j, k] L_k(y): last-axis family into the orthonormal Legendre basis of [lo, hi]."""
    t, w = leggauss(spec.d + 1)
    y = lo + 0.5 * (t + 1.0) * (hi - lo)
    L = legendre.legvander(t, spec.d) * np.sqrt((2.0 * np.arange(spec.d + 1) + 1.0) / (hi - lo))
    return (axis_table(spec, spec.p - 1, y) * (0.5 * (hi - lo) * w)[:, None]).T @ L


class Approximant:
    """Evaluates f(x) = min argmin_y q(x, y) for a kernel on a graph box."""

    def __init__(self, kernel: CDKernel, config: ApproxConfig | None = None):
        spec = kernel.spec
        if spec.p < 2:
            raise ValueError("approximation needs p >= 2 (x-block plus one y axis)")
        self.kernel = kernel
        self.config = config or ApproxConfig()
        self.spec = spec
        self._y_interval = _interval(self.config.y_interval or spec.domain[-1], spec.d)
        self._x_spec = spec.x_spec()
        # rows map: x-basis values times this give the fiber rows A(x) directly
        W = kernel.sos_decomposition()
        pos = {a: i for i, a in enumerate(map(tuple, self._x_spec.indices.tolist()))}
        xcol = [pos[a] for a in map(tuple, spec.indices[:, :-1].tolist())]
        T = np.zeros((self._x_spec.size, W.shape[0], spec.d + 1))
        T[xcol, :, spec.indices[:, -1]] = W.T
        T = T @ _change_of_basis(spec, *self._y_interval)
        self._shape = T.shape[1:]
        self._rows_map = T.reshape(T.shape[0], -1)

    def _rows(self, X: np.ndarray) -> np.ndarray:
        bx = eval_basis_batch(self._x_spec, X)
        return (bx[:, None, :] @ self._rows_map).reshape(X.shape[0], *self._shape)

    def y_coefficients(self, x) -> np.ndarray:
        """Sum-of-squares rows A(x): q(x, y) = sum_i (A_i . L(y))^2, L orthonormal on the search interval."""
        return self._rows(as_points(self._x_spec, np.reshape(x, (1, -1))))[0]

    def evaluate_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation over rows of X; returns (values, fiber minima)."""
        X = as_points(self._x_spec, X)
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"point row {bad[0]} has a non-finite coordinate: {X[bad[0]].tolist()}")
        cfg = self.config
        ys, qs = np.empty(X.shape[0]), np.empty(X.shape[0])
        for s in range(0, X.shape[0], _CHUNK):
            part = slice(s, s + _CHUNK)
            ys[part], qs[part] = _fiber_argmin(self._rows(X[part]), self._y_interval, cfg.alpha, cfg.tie_tol)
        return ys, qs
