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
rounding.  Values within the tie window of the minimum count as ties and the
smallest y wins, which reproduces the min-argmin convention on symmetric
fibers.  Every step works row by row, so a point's result does not depend on
the batch it was sent in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .basis import axis_table, eval_basis_batch, grevlex_position, leggauss
from .cdkernel import CDKernel

_CHUNK = 128  # points per stacked solve; bounds the (chunk, rows, d+1) work arrays
# alpha window: allowance on q at a computed crossing, times max q on the fiber;
# the colleague roots leave residuals up to 5e-13 of max q at d = 20
_CROSS_TOL = 1e-11


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
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")

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


def _colleague(c: np.ndarray) -> np.ndarray:
    """Stacked symmetric-scaled colleague matrices of Legendre series rows c (as numpy's legcompanion)."""
    n = c.shape[1] - 1
    scl = 1.0 / np.sqrt(2.0 * np.arange(n) + 1.0)
    k = np.arange(n - 1)
    mat = np.zeros((c.shape[0], n, n))
    mat[:, k, k + 1] = mat[:, k + 1, k] = (k + 1) * scl[:-1] * scl[1:]
    mat[:, :, -1] -= (c[:, :-1] / c[:, -1:]) * (scl / scl[-1]) * (n / (2.0 * n - 1.0))
    return mat


def _real_roots(c: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each Legendre series row, clipped to [-1, 1].

    A row's degree is that of its last nonzero coefficient, so a vanishing
    leading coefficient lowers the degree instead of dividing by zero; rows are
    grouped by degree and a missing root reads -1.  Real parts of complex roots
    are kept too: scoring them costs little and covers roots that rounding
    split off the real axis.
    """
    out = np.full((c.shape[0], c.shape[1] - 1), -1.0)
    live = c != 0.0
    deg = np.where(live.any(axis=1), c.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1), 0)
    for n in np.unique(deg[deg > 0]):
        sel = deg == n
        out[sel, :n] = np.linalg.eigvals(_colleague(c[sel, : n + 1])).real
    return np.clip(out, -1.0, 1.0)


def _sos_values(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """q(u) = sum_i (rows_i . P(u))^2 for rows (B, r, d+1) at points u (B, k)."""
    terms = rows @ legendre.legvander(u, rows.shape[2] - 1).transpose(0, 2, 1)
    return (terms * terms).sum(axis=1)


def _interval(interval) -> tuple[float, float]:
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return lo, hi


def _fiber_argmin(A: np.ndarray, interval, alpha: float, tie_tol: float) -> tuple:
    """Min-argmin of q = sum_i (A[b, i] . L(y))^2 over the interval, for each b.

    A has shape (B, r, d+1) and holds orthonormal Legendre coefficients on the
    interval.  Returns the arrays (y, q(y)).
    """
    lo, hi = _interval(interval)
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite fiber coefficients")
    d = A.shape[2] - 1
    rows = A * np.sqrt((2.0 * np.arange(d + 1) + 1.0) / (hi - lo))  # now in P_k(u), u on [-1, 1]
    nodes, project, derive = _fiber_maps(d)
    at_nodes = rows @ nodes
    c = ((at_nodes * at_nodes).sum(axis=1)[:, None, :] @ project)[:, 0]
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
        self._y_interval = _interval(self.config.y_interval or spec.domain[-1])
        self._x_spec = spec.x_spec()
        # rows map: x-basis values times this give the fiber rows A(x) directly
        W = kernel.sos_decomposition()
        xpos = grevlex_position(spec.p - 1, spec.d)
        xcol = np.array([xpos[tuple(a)] for a in spec.indices[:, :-1].tolist()])
        T = np.zeros((self._x_spec.size, W.shape[0], spec.d + 1))
        T[xcol, :, spec.indices[:, -1]] = W.T
        T = T @ _change_of_basis(spec, *self._y_interval)
        self._shape = T.shape[1:]
        self._rows_map = T.reshape(T.shape[0], -1)

    def _check(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.spec.p - 1:
            raise ValueError(f"points have dimension {X.shape[1]}, expected {self.spec.p - 1}")
        return X

    def _rows(self, X: np.ndarray) -> np.ndarray:
        bx = eval_basis_batch(self._x_spec, X)
        return (bx[:, None, :] @ self._rows_map).reshape(X.shape[0], *self._shape)

    def y_coefficients(self, x) -> np.ndarray:
        """Sum-of-squares rows A(x): q(x, y) = sum_i (A_i . L(y))^2, L orthonormal on the search interval."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return self._rows(self._check(x))[0]

    def evaluate(self, x) -> tuple[float, float]:
        """Approximant value and fiber minimum (y, q(x, y)) at one point."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        ys, qs = self.evaluate_batch(x)
        return float(ys[0]), float(qs[0])

    def evaluate_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation over rows of X; returns (values, fiber minima)."""
        X = self._check(X)
        cfg = self.config
        ys, qs = np.empty(X.shape[0]), np.empty(X.shape[0])
        for s in range(0, X.shape[0], _CHUNK):
            part = slice(s, s + _CHUNK)
            ys[part], qs[part] = _fiber_argmin(self._rows(X[part]), self._y_interval, cfg.alpha, cfg.tie_tol)
        return ys, qs
