"""Function approximation by partial minimization of the regularized kernel.

For a graph variable z = (x, y) the approximant is

    f(x) = min argmin_{y in Y} q(x, y),

the smallest of the near-minimizers of the kernel along the y-fiber.  Every
fiber is kept in one representation: its sum-of-squares rows in the kernel's
own last-axis family.  With the rows w_i of ``CDKernel.sos_decomposition`` and
b(x, y) = b_x(x) * phi(y), the fiber is q(x, y) = sum_i (A_i(x) . phi(y))^2,
where phi is the basis family's univariate family on the domain's y-axis and
A(x) = W diag(b_x(x)) S collects the basis entries by their y-degree (S).  The
y-degree j pairs only with the x-indices of degree <= d - j, which are a
prefix of the grevlex x-basis.  Grevlex already lists the members of y-degree
j in that x-index order: its members of total degree t and last exponent j
are the x-members of degree t - j in x-grevlex order, and t ascends.  One
stable sort of W's columns by y-degree therefore gives the d+1 y-degree
blocks, M_j of shape (n_{d-j}, r), and A(x)[:, j] = b_x(x)[:n_{d-j}] @ M_j is
one stacked GEMV per block.  The blocks are views of the one gathered array
and hold n r doubles, the weighted (x-index, y-degree) pairs only, against
n_x r (d+1) for a dense map: 52% of it at p = 2, d = 20, and 37% at p = 3,
d = 16.  Each point streams the blocks once.

Points are minimized in chunks sized by bytes: a chunk takes as many points
as keep one (chunk, r, 2d+1) work array within a fixed budget, and each work
array is freed once it is dead.  The Legendre coefficients of q, in the
variable u that maps Y onto [-1, 1], come from its values at 2d+1
Gauss-Legendre nodes, where phi's values are cached per family, degree,
domain axis and interval.  The critical points come from the stacked
colleague matrices of dq/du (Good 1961; Boyd, SIAM Rev. 55, 2013) in one
eigenvalue call, and the candidates -- critical points plus the ends of Y --
are scored in the sum-of-squares form at y itself, so the reported q is q at
the reported y and the minimum is exact up to rounding.  The squared row sums
are einsum contractions: they add the rows in the same order as a sum over
the row axis, without that strided reduction's cost.  The fixed tridiagonal
part of each size of colleague matrix is cached as a template, so a chunk
copies it and fills only the last column.

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
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import legendre

from .basis import Family, _stacked_tables, as_points, eval_basis_batch, leggauss

if TYPE_CHECKING:
    from .cdkernel import CDKernel

# bytes of one (chunk, r, 2d+1) work array, the largest the fiber solver makes;
# it sets the points per chunk (see Approximant).  At disk1 d = 12-20, 2, 4 and
# 8 MiB ran at one speed and 1 MiB (1-4 points) slower; at low degrees, chunks
# of more than 128 points were not slower than 128
_CHUNK_BYTES = 4 << 20
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
    """Fixed maps for a fiber q of degree 2d in the Legendre basis P_k(u) on [-1, 1].

    ``project`` turns values of q at the 2d+1 Gauss-Legendre nodes into its
    Legendre coefficients (exact, as q has degree 2d), and ``derive`` turns
    those into the coefficients of dq/du.
    """
    u, w = leggauss(2 * d + 1)
    project = legendre.legvander(u, 2 * d) * w[:, None] * (np.arange(2 * d + 1) + 0.5)
    derive = legendre.legder(np.eye(2 * d + 1)).T
    for a in (project, derive):
        a.setflags(write=False)
    return project, derive


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


def _sos_values(rows: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """q = sum_i (rows_i . phi)^2, (B, k), for rows (B, r, d+1) and phi values (d+1, k) or, per row b, (B, d+1, k)."""
    terms = rows @ phi
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


def _fiber_argmin(A: np.ndarray, family: Family, axis: tuple, interval: tuple, alpha: float, tie_tol: float) -> tuple:
    """Min-argmin of q = sum_i (A[b, i] . phi(y))^2 over the interval, for each b.

    A has shape (B, r, d+1) and holds coefficients in phi, the members of
    degree <= d of ``family`` on ``axis`` = (lo, hi); ``interval`` is a search
    interval that ``_interval`` accepted, and A is finite.  The solver reads
    phi only through its values at the interval's Gauss nodes and at the
    candidates.  Returns the arrays (y, q(y)), q evaluated at the returned y.
    """
    B, d = A.shape[0], A.shape[2] - 1
    lo, hi = interval
    project, derive = _fiber_maps(d)
    with np.errstate(over="ignore", invalid="ignore"):
        c = (_sos_values(A, _node_values(family, d, axis, interval))[:, None, :] @ project)[:, 0]
    if not np.all(np.isfinite(c)):
        raise ValueError(f"q overflows on the search interval [{lo}, {hi}]")

    def at_y(u):  # roots in u on [-1, 1], mapped into the interval
        return np.clip(lo + 0.5 * (u + 1.0) * (hi - lo), lo, hi)

    y = np.concatenate([at_y(_real_roots((c[:, None, :] @ derive)[:, 0])), np.broadcast_to([lo, hi], (B, 2))], axis=1)
    q = _sos_values(A, _phi(family, d, axis, y).transpose(1, 0, 2))
    qmin, qmax = q.min(axis=1), q.max(axis=1)
    # the 1e-14 * qmax floor absorbs rounding noise of order eps * (fiber range)
    # in the spectral factorization, so exactly symmetric fibers tie cleanly
    window = tie_tol * np.maximum(1.0, np.abs(qmin)) + 1e-14 * np.abs(qmax)
    if alpha > 0.0:
        # the leftmost point of {q <= thresh} is y = lo or a crossing of q = thresh
        thresh = (1.0 + alpha) / (1.0 - alpha) * np.maximum(qmin, 0.0) + window
        shifted = c.copy()
        shifted[:, 0] -= thresh
        cross = at_y(_real_roots(shifted))
        y = np.concatenate([y, cross], axis=1)
        q = np.concatenate([q, _sos_values(A, _phi(family, d, axis, cross).transpose(1, 0, 2))], axis=1)
        thresh = thresh + _CROSS_TOL * np.abs(qmax)
    else:
        thresh = qmin + window
    pick = np.argmin(np.where(q <= thresh[:, None], y, np.inf), axis=1)
    at = np.arange(B)
    return y[at, pick], q[at, pick]


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
    accepted and ignored.
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
    Working set, with n the basis size and r = n sum-of-squares rows: the
    y-degree blocks take 8 n r bytes, and the kernel holds M and its
    sum-of-squares rows at 8 n^2 bytes each.  Evaluation runs in chunks of
    max(1, _CHUNK_BYTES // (8 r (2d+1))) points, so each of its largest work
    arrays, the (chunk, r, 2d+1) node values and candidate terms, takes at
    most _CHUNK_BYTES (4 MiB).  The two are never alive together: beside one
    of them a chunk holds its (chunk, r, d+1) rows.  At disk1 d = 20
    (n = 1,771) the blocks take 24 MiB and a chunk has 7 points.
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
        ydeg = spec.indices[:, -1]
        rows = kernel.sos_decomposition().T[np.argsort(ydeg, kind="stable")]  # one (n, r) gather
        self._blocks = tuple(np.split(rows, np.cumsum(np.bincount(ydeg))[:-1]))
        self._chunk = max(1, _CHUNK_BYTES // (8 * self._blocks[0].shape[1] * (2 * spec.d + 1)))

    def _rows(self, X: np.ndarray) -> np.ndarray:
        """Fiber rows (B, r, d+1) at the points X; rows that overflow raise ValueError, with no RuntimeWarning."""
        r = self._blocks[0].shape[1]
        out = np.empty((len(self._blocks), X.shape[0], 1, r))
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            bx = eval_basis_batch(self._x_spec, X)[:, None, :]
            for k, M in enumerate(self._blocks):  # one stacked (B, 1, n_k) @ (n_k, r) GEMV per y-degree
                np.matmul(bx[:, :, : M.shape[0]], M, out=out[k])
        if not np.all(np.isfinite(out)):
            raise ValueError("non-finite fiber coefficients")
        return np.ascontiguousarray(out[:, :, 0].transpose(1, 2, 0))

    def y_coefficients(self, x) -> np.ndarray:
        """Sum-of-squares rows A(x): q(x, y) = sum_i (A_i . phi(y))^2, phi the last-axis family on the domain's y-axis.

        In the orthonormal family phi is the basis ``partial_argmin`` reads on that axis."""
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
