"""Regularized Christoffel-Darboux polynomials built from a moment matrix.

Given the degree-d moment matrix M of a measure mu and a regularization level
beta > 0, the central quantity is

    q(z) = b(z)^T (M + beta I)^-1 b(z) = sum_i g_i (p_i . b(z))^2,

with (lambda_i, p_i) the eigenpairs of M and g_i = 1/(beta + lambda_i), the
Tikhonov values.  This is the Christoffel-Darboux polynomial of the mixed
measure mu + beta * mu0 whenever the basis is orthonormal for mu0, and the
only kernel the library builds: every guarantee it checks is stated for it.
Small q flags points near the support of mu; the ``gamma_threshold`` level
separates graph from non-graph points at a rate controlled by the degree.

Where y takes L values c_l on mu, as on the graph of a piecewise constant f,
every L_a(x) g(y) with g vanishing at the levels is an exact null vector of
M (the Christoffel-Darboux kernel on an algebraic set: Lasserre, Pauwels and
Putinar, The Christoffel-Darboux Kernel for Data Analysis, 2022).
``_levels`` reads the levels from M alone where the y-marginal's Gram shows
a rank gap of ``_LEVEL_GAP``, and ``_level_split`` keeps them only where M
leaks less than ``_LEAK_TOL`` along those directions.  Then

    q(z) = ||S_r Q_range^T b(z)||^2 + (1/beta) sum_k W_k(x) (n_k . phi(y))^2,

with n_L..n_d the nested orthonormal null directions in phi, the last-axis
family, W_k(x) the sum of L_a(x)^2 over the x-members of degree <= d - k, and
S_r the sum-of-squares rows of M_r = Q_range^T M Q_range, of size n_range.
Both terms are sums of squares, so nothing cancels, and only M_r is
eigendecomposed: n_range is 41 and 60 of n = 231 at sign and step d = 20,
81 of 165 at disk1 d = 8.  Elsewhere the null term is empty and Q_range = I.

``CDKernel`` stores the range rows once, transposed, as the (n, n_range)
array of the cached ``basis.y_layout``, with the (d + 1 - L, d + 1) null
directions beside them and no copy of the layout: 8 n n_range bytes where
the eigen route needs 8 n^2.  ``Approximant`` splits the range rows into
their y-degree runs without a copy and appends the null term's d + 1 - L
rows, and ``sos_decomposition`` rebuilds all n rows in grevlex order on each
call.

``CDKernel.eval_q_batch``, the one evaluation of q (one point is a one-row
batch), iterates ``basis.table_blocks``: each block's per-axis tables give
one basis-major (n, block) basis B over the layout's exponent rows, the range
part of q is the column sum of squares of C = S B, and the null term comes
from the same tables.  Memory is O(block * n) whatever the number of points
N, and the result matches a one-shot evaluation up to rounding.

``certified_floor`` is the one certified lower bound of q over all of R^p:
min(g) times the least ||b(z)||^2, from lambda_max alone: ``eigvalsh`` of M,
or where the split runs, of M_r plus twice the null leak ||M Q_null||_F.  Where it
reaches a level the sublevel set is empty, and no kernel need be built.
``_floor_reaches`` decides that in two tiers: a norm bound on lambda_max
first, which never gives a higher floor, and ``eigvalsh`` only where the
norm floor falls short of the level.

``CDKernel.q_at_least`` answers q(z) >= level without forming q where it
can: in blocks of ``_BOUND_BLOCK`` points, ``basis_sqnorm`` gives
||b(z)||^2 from the per-axis tables in O(p d^2) per point, and only the
points that min(g) ||b(z)||^2 leaves open get exact q, from
``eval_q_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre, polynomial

from .approximant import partial_argmin
from .basis import (
    _BLOCK,
    Family,
    _stacked_tables,
    as_points,
    basis_product,
    basis_sqnorm,
    degree_sqnorms,
    table_blocks,
    x_degree_members,
    y_layout,
)
from .errors import IndefiniteMatrixError
from .moments import MomentMatrix, require_psd

# relative slack on min(g)||b||^2 and on its certified minimum: the rounding of q and of the bound is
# about 1e-13, that of rho(m) about 1e-15
_BOUND_MARGIN = 1e-8
# points per block of the bound: its tables cost p (d+1) 8 bytes a point against n 8 for a basis
# block, so larger blocks pay numpy's per-call cost less often at the same memory
_BOUND_BLOCK = 2 * _BLOCK
# eigenvalues of the y-marginal Gram below this share of its largest count as null when the levels
# are counted, and the least ratio of the smallest kept one to the largest null one (in magnitude)
# that claims levels.  Graphs on levels (sign, step, disk1, disk2, both families, d <= 32) leave
# their null eigenvalues at rounding, 2.5e-16 of the largest at most, with a ratio of 7.8e13 or more;
# abs, whose y is continuous, reads rank 14 of 17 at d = 16, and its ratio never passed 1.1e4
_RANK_TOL = 1e-12
_LEVEL_GAP = 1e8
# largest leak max|M Q_null| / max|M| with which the level split runs: the null directions built from
# the roots must be null to rounding in all of M, not just in the block they were read from.  Graphs
# on levels leak 8.1e-15 at most (sign d = 20 by quad), where each n_k is exact to about eps |phi(c_l)|;
# a root off by delta leaks about |phi'(c_l)| delta.  Dropping a true leak delta would move q by up to
# delta / beta relative, so this is no test of its own to loosen with beta
_LEAK_TOL = 1e-12


def _check_beta(beta: float) -> None:
    """Reject a regularization level that is not a positive finite number (nan, inf, <= 0, a bool)."""
    if isinstance(beta, (bool, np.bool_)) or not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")


def _tikhonov(evals: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, 1/(beta + s)) for the ascending eigenvalues of a moment matrix, s clipped at zero.

    Negative eigenvalues within the PSD tolerance of ``moments`` are rounding
    and clip to zero; anything below it raises IndefiniteMatrixError.
    """
    require_psd(evals)
    s = np.clip(evals, 0.0, None)
    return s, 1.0 / (beta + s)


def _finite_q(q: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """q at the points Z, with nan read as inf where Z's row is finite."""
    # at a finite z only an overflowing basis entry gives nan, and then q >= min(g) ||b(z)||^2 overflows too
    q[np.isnan(q) & np.isfinite(Z).all(axis=1)] = np.inf
    return q


def _levels(M: np.ndarray, spec) -> np.ndarray | None:
    """The L values that y takes on the measure, read from M alone (Prony's method), or None.

    The x-index-0 members L_0(x) phi_j(y) give M's (d+1, d+1) block G, the
    Gram of the y-marginal in phi times the constant L_0^2.  Where y takes L
    values, G has rank L, and its leading (L+1, L+1) block has a null vector
    whose polynomial in phi vanishes at every level: its roots are the levels.
    The rank counts the eigenvalues of G above ``_RANK_TOL`` of the largest,
    and levels are claimed only where the smallest of those stands at least
    ``_LEVEL_GAP`` above every other one: rank d + 1, or a spectrum that
    decays with no such gap, as a continuous y-marginal's does, means no
    levels.  The roots' real parts are returned, so a claim is only as good
    as the leak test that ``_level_split`` makes.
    """
    d = spec.d
    lay = y_layout(spec.p, d)
    first = lay.order[np.cumsum(lay.runs) - lay.runs]  # the members (0, j), j = 0..d
    ev = np.linalg.eigvalsh(M[np.ix_(first, first)])
    L = int(np.count_nonzero(ev > _RANK_TOL * ev[-1]))
    if not (ev[-1] > 0 and L <= d and ev[-L] >= _LEVEL_GAP * np.abs(ev[: d + 1 - L]).max()):
        return None
    lead = first[: L + 1]
    c = np.linalg.eigh(M[np.ix_(lead, lead)])[1][:, 0]
    if spec.family is Family.LEGENDRE_ORTHONORMAL:  # phi_j is sqrt((2j + 1) / h) P_j(u)
        lo, hi = spec.domain[-1]
        roots = lo + 0.5 * (legendre.legroots(c * np.sqrt(2.0 * np.arange(L + 1) + 1.0)).real + 1.0) * (hi - lo)
    else:
        roots = polynomial.polyroots(c).real
    return roots if roots.size == L else None


def _level_split(M: np.ndarray, spec):
    """(null, M_r, expand, leak) of the split of M along the levels, or None where none pass the leak test.

    With V the (L, d+1) values phi_j(c_l) at the levels, the polynomials of
    degree <= m in y that vanish at every level are the null space of V's
    first m + 1 columns.  ``null`` holds its nested orthonormal basis
    n_L..n_d, one (d+1)-row each: row k - L has degree k, and rows up to m
    span the degree-<= m part.  For an x-index a of x-degree s, m = d - s,
    the vectors L_a(x) (n_k . phi(y)), k <= m, are null vectors of M: Q_null.
    The rest of that x-index's span is R_m, an orthonormal basis of the row
    space of V's first m + 1 columns (all of it where m < L), and these
    make Q_range, block-diagonal by x-index.  Where max|M Q_null| stays
    within ``_LEAK_TOL`` of max|M|, M_r = Q_range^T M Q_range is formed class
    by class of ``basis.x_degree_members``, never holding more than one
    (n_range, n) array beside M, and ``expand(U)`` maps the columns of an
    (n_range, k) U back to the (n, k) rows Q_range U in ``y_layout`` order.
    ``leak`` is ||M Q_null||_F, summed class by class in the same loop.
    """
    if spec.p < 2:
        return None
    levels = _levels(M, spec)
    if levels is None:
        return None
    d, L, n = spec.d, levels.size, M.shape[0]
    V = _stacked_tables(spec.family, d, levels[None], np.array([spec.domain[-1]]))[:, 0].T
    K = np.linalg.svd(V)[2][L:].T  # an orthonormal basis of V's null space
    # rotate it so column i has degree <= L + i: a QR of the reversed top-degree rows
    null = np.tril((K @ np.linalg.qr(K[L:][::-1].T)[0][:, ::-1]).T, L)
    below = np.arange(d + 1)[:, None] <= np.arange(L, d + 1)[:, None, None]  # rows <= m, for m = L..d
    spans = np.linalg.qr(np.where(below, V.T, 0.0))[0]
    bases = [np.eye(m + 1) for m in range(L)] + [spans[m - L, : m + 1] for m in range(L, d + 1)]
    order = y_layout(spec.p, d).order
    classes = [(pos, order[pos], bases[d - s], null[: max(d - s + 1 - L, 0), : d - s + 1])
               for s, pos in enumerate(x_degree_members(spec.p, d))]
    ends = np.cumsum([0] + [pos.shape[0] * R.shape[1] for pos, _, R, _ in classes])
    tol = _LEAK_TOL * max(float(M.max()), -float(M.min()))
    QtM, leak = np.empty((ends[-1], n)), 0.0
    for (pos, rows, R, N), c0, c1 in zip(classes, ends[:-1], ends[1:]):
        blk = M[rows]  # (n_s, m + 1, n): the rows of this class's members
        if N.size:
            NM = N @ blk  # this class's rows of Q_null^T M
            if np.abs(NM).max() > tol:
                return None
            leak += float(np.einsum("ijk,ijk->", NM, NM))
        np.matmul(R.T, blk, out=QtM[c0:c1].reshape(pos.shape[0], R.shape[1], n))
    M_r = np.empty((ends[-1], ends[-1]))
    for (pos, rows, R, _), c0, c1 in zip(classes, ends[:-1], ends[1:]):
        M_r[:, c0:c1] = (QtM[:, rows] @ R).reshape(ends[-1], c1 - c0)
    del QtM

    def expand(U):
        out = np.empty((n, U.shape[1]))
        for (pos, _, R, _), c0, c1 in zip(classes, ends[:-1], ends[1:]):
            out[pos.ravel()] = (R @ U[c0:c1].reshape(pos.shape[0], R.shape[1], -1)).reshape(-1, U.shape[1])
        return out

    return null, M_r, expand, math.sqrt(leak)


@lru_cache(maxsize=None)
def _legendre_christoffel_min(m: int) -> float:
    """rho(m) = min over u in [-1, 1] of sum_{j<=m} (2j+1) P_j(u)^2, with P_j the Legendre polynomials.

    On an axis [lo, hi] of length h the orthonormal Ltilde_j is
    sqrt((2j+1)/h) P_j(u) on the mapped variable u, so rho(m)/h is the least
    value of that axis's univariate Christoffel-Darboux diagonal
    K_m(t) = sum_{j<=m} Ltilde_j(t)^2 over the axis.  The minimum is the exact
    one of ``partial_argmin``, within rounding (about 1e-15 relative);
    rho(0) = rho(1) = 1.
    """
    # on [-1, 1] the orthonormal Legendre basis is sqrt((2j+1)/2) P_j, so its squares sum to half the target
    return 2 * partial_argmin(np.eye(m + 1), (-1.0, 1.0))[1]


def certified_floor(matrix: MomentMatrix, beta: float) -> float:
    """Certified lower bound of the Tikhonov q over every finite z, from the eigenvalues alone.

    With P orthogonal, q(z) = sum_i g_i (p_i . b(z))^2 >= min(g) ||b(z)||^2,
    and min(g) = 1/(beta + lambda_max) needs no eigenvector.  In the
    orthonormal family the exponents with every per-axis degree <= m = d // p
    lie in the basis, and dropping the others gives
    ||b(z)||^2 >= prod_k K_m(z_k) >= b_0^2 rho(m)^p, with b_0^2 = 1/vol and
    rho = ``_legendre_christoffel_min``.  This holds at every finite z:
    outside the box |P_j(u)| >= 1 on an axis with |u| >= 1, so that axis's
    factor is at least (m+1)^2 / h, its largest value inside the box.  In the
    monomial family the constant term 1 gives ||b(z)||^2 >= 1.  The result is
    min(g) shrunk by a relative margin of 1e-8 times that minimum; where it
    reaches a level, the sublevel set {q < level} is empty on all of R^p.  It
    refuses what ``CDKernel`` refuses.

    lambda_max comes from ``eigvalsh`` of M, except where ``_level_split``
    runs: there Q = [Q_range, Q_null] is orthogonal and Q^T M Q is
    diag(M_r, 0) plus a symmetric E made of the blocks of Q^T M Q_null, so
    lambda_max(M) <= lambda_max(M_r) + ||E||_F <= lambda_max(M_r) +
    2 ||M Q_null||_F, with ``eigvalsh`` of the n_range-sized M_r only.  The
    bound is inflated by a relative 2 n eps for the rounding of M_r and of
    its ``eigvalsh``, each about n eps lambda_max.
    """
    _check_beta(beta)
    M = matrix.entries
    split = _level_split(M, matrix.spec)
    lam = _tikhonov(np.linalg.eigvalsh(split[1] if split else M), beta)[0][-1]
    if split:
        lam = (lam + 2.0 * split[3]) * (1.0 + 2.0 * M.shape[0] * np.finfo(float).eps)
    return _shrunk_g_min(beta, lam) * _least_sqnorm(matrix.spec)


def _shrunk_g_min(beta: float, lambda_max) -> float:
    """min(g) = 1/(beta + lambda_max), bit for bit as rounding is monotone, times 1 - ``_BOUND_MARGIN``."""
    return float(1.0 / (beta + lambda_max)) * (1.0 - _BOUND_MARGIN)


def _least_sqnorm(spec) -> float:
    """The lower bound of ||b(z)||^2 over every finite z of ``certified_floor``: b_0^2 rho(d // p)^p, or 1."""
    if spec.family is Family.LEGENDRE_ORTHONORMAL:
        return _legendre_christoffel_min(spec.d // spec.p) ** spec.p / spec.domain_volume()
    return 1.0


def _floor_reaches(matrix: MomentMatrix, beta: float, level: float) -> bool:
    """``certified_floor(matrix, beta) >= level``, with no eigenvalue where a norm bound settles it.

    For a symmetric M, lambda_max <= min(||M||_inf, ||M||_F).  That bound,
    inflated by a relative 1e-12 n, is at least the lambda_max of eigvalsh:
    the rounding of either norm is at most n^2 eps / 2 relative, and that of
    eigvalsh about n eps.  The floor from it is computed as
    ``certified_floor``'s, and rounded sums, quotients and products are
    monotone, so it is never above ``certified_floor`` and where it reaches
    ``level`` so does the exact floor.  Only where it falls short is
    ``certified_floor`` called.  For a ``beta`` that ``_check_beta`` accepts
    and a matrix that ``MomentMatrix.check_psd`` accepts; the refusals are
    theirs.
    """
    M = matrix.entries
    bound = min(float(np.abs(M).sum(axis=1).max()), float(np.linalg.norm(M))) * (1.0 + 1e-12 * M.shape[0])
    if _shrunk_g_min(beta, bound) * _least_sqnorm(matrix.spec) >= level:
        return True
    return certified_floor(matrix, beta) >= level


def beta_schedule(d: int) -> float:
    """Degree-indexed regularization 2**(3 - sqrt(d)) used by the rate results."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return float(2.0 ** (3.0 - math.sqrt(d)))


class CDKernel:
    """Sum-of-squares form of the regularized Christoffel-Darboux polynomial.

    Where y takes few values on the measure and they pass the leak test of
    ``_level_split``, M splits into exact null directions and their
    complement, and only M_r = Q_range^T M Q_range, of size n_range, is
    eigendecomposed; elsewhere that is all of M, and the null part is empty.
    Eigenvalues are sorted ascending, the n - n_range exact zeros first;
    negative ones within the PSD tolerance of ``moments`` are rounding and
    clipped to zero, anything below it raises IndefiniteMatrixError.  The
    kernel holds the clipped eigenvalues and two factors, both read-only:
    ``_rows``, the C-ordered (n, n_range) array of the range rows
    (Q_range P_r sqrt(g))^T transposed, its members in the order of the
    cached ``basis.y_layout``, and ``_null``, the (d + 1 - L, d + 1) null
    directions n_L..n_d in phi.  So it holds n n_range + (d + 1 - L)(d + 1)
    doubles and no n x n array: 41 of 231 columns at sign d = 20, 81 of 165
    at disk1 d = 8.  ``Approximant``'s fiber blocks are views of the range
    rows.
    """

    def __init__(self, matrix: MomentMatrix, beta: float):
        _check_beta(beta)
        spec, M = matrix.spec, matrix.entries
        self.spec = spec
        self.beta = float(beta)
        order = y_layout(spec.p, spec.d).order
        # without levels M_r is M itself and the range rows are its eigenvectors, gathered
        self._null, M_r, expand, _ = _level_split(M, spec) or (np.empty((0, spec.d + 1)), M, lambda U: U[order], 0.0)
        evals, U = np.linalg.eigh(M_r)
        s, g = _tikhonov(evals, self.beta)
        self.eigenvalues = np.concatenate([np.zeros(M.shape[0] - s.size), s])
        self._rows = expand(U)  # the one gather, scaled in place
        self._rows *= np.sqrt(g)
        for a in (self._rows, self._null):
            a.setflags(write=False)

    def filtered_matrix(self) -> np.ndarray:
        """(M + beta I)^-1 = P diag(g) P^T, as S^T S."""
        S = self.sos_decomposition()
        return S.T @ S

    def eval_q_batch(self, Z) -> np.ndarray:
        """q at each row of Z: the range rows' sum of squares plus the null term.

        Works through Z in the blocks of ``basis.table_blocks``: per block,
        C = S B with S the range rows and B the basis-major (n, block) basis
        over ``y_layout``'s exponent rows, both in the stored y-degree order,
        and the range part of q is the sum of squares down each column of C.
        The null part, (1/beta) sum_k W_k(x) (n_k . phi(y))^2 with W_k(x) the
        sum of L_a(x)^2 over the x-members of degree <= d - k, comes from the
        block's axis tables in O(p d^2) a point.  Neither the (N, n) basis
        nor its tables are ever held whole; memory is O(block * n).  Matches
        the one-shot evaluation up to rounding.  A finite z whose basis
        overflows has q beyond double range and reads inf; a row with a nan or
        inf coordinate may read nan.  Neither raises a RuntimeWarning.
        """
        spec, S, null = self.spec, self._rows.T, self._null
        indices = y_layout(spec.p, spec.d).indices
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        q = np.empty(Z.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, tabs in table_blocks(spec, Z):
                C = S @ basis_product(spec, tabs, indices)  # the block's basis is freed before the next one
                q_blk = np.einsum("ij,ij->j", C, C)
                if null.shape[0]:
                    # W[t] sums L_a(x)^2 over the x-members of degree <= t; row k - L of null needs t = d - k
                    W = np.cumsum(degree_sqnorms(spec.d, tabs[:-1]), axis=0)[null.shape[0] - 1 :: -1]
                    nu = null @ tabs[-1].T
                    q_blk += np.einsum("km,km,km->m", W, nu, nu) / self.beta
                q[rows] = _finite_q(q_blk, Z[rows])
        return q

    def q_at_least(self, Z, level: float) -> np.ndarray:
        """Boolean array: q(z) >= level at each row of Z, equal to ``eval_q_batch(Z) >= level``.

        q(z) >= min(g) ||b(z)||^2 (see ``certified_floor``), and the bound is
        shrunk by a relative margin of 1e-8.  In blocks of ``_BOUND_BLOCK``
        points it settles each row where it reaches ``level`` and ||b(z)||^2 is
        finite, which needs every coordinate finite; every other row gets exact
        q from ``eval_q_batch``.  A finite row whose basis overflows has q
        beyond double range, reads inf there and answers True; a row with a
        non-finite coordinate may get nan, which compares False.  Neither raises
        a RuntimeWarning.  Memory is O(block * n).
        """
        spec = self.spec
        Z = as_points(spec, Z)
        floor = _shrunk_g_min(self.beta, self.eigenvalues[-1])
        out = np.empty(Z.shape[0], dtype=bool)
        with np.errstate(invalid="ignore", over="ignore"):
            for rows, tabs in table_blocks(spec, Z, _BOUND_BLOCK):
                sqnorm = basis_sqnorm(spec, tabs)
                # the bound holds at finite z only, and a non-finite coordinate makes ||b(z)||^2
                # non-finite through its degree-1 member: one test per point, not per coordinate
                sure = np.isfinite(sqnorm) & (floor * sqnorm >= level)
                open_ = ~sure
                sure[open_] = self.eval_q_batch(Z[rows][open_]) >= level
                out[rows] = sure
        return out

    def sos_decomposition(self) -> np.ndarray:
        """Rows w_i with q(z) = sum_i (w_i . b(z))^2, ascending eigenvalue order, columns in grevlex order.

        Row i is sqrt(g_i) = 1/sqrt(beta + lambda_i) times the i-th
        eigenvector of M.  The first n - n_range rows are the null directions
        L_a(x) (n_k . phi(y)) of the level split scaled by 1/sqrt(beta), rebuilt
        on each call, class by class of ``basis.x_degree_members`` and then
        by k; the others are the stored range rows, scattered back by
        ``y_layout``'s ``order``.  Without levels that is (P sqrt(g))^T bit for
        bit.  Each call returns a fresh read-only (n, n) array, the transpose of
        a C-ordered one.
        """
        spec, null = self.spec, self._null
        n, k = spec.size, spec.size - self._rows.shape[1]
        order = y_layout(spec.p, spec.d).order
        out = np.zeros((n, n))
        out[order, k:] = self._rows
        L, col = spec.d + 1 - null.shape[0], 0
        for s, pos in enumerate(x_degree_members(spec.p, spec.d)):
            m = spec.d - s
            if m < L:
                break
            cols = col + np.arange(pos.shape[0] * (m + 1 - L)).reshape(pos.shape[0], 1, m + 1 - L)
            out[order[pos][:, :, None], cols] = null[: m + 1 - L, : m + 1].T / math.sqrt(self.beta)
            col += cols.size
        out.setflags(write=False)
        return out.T

    def markov_mass(self) -> float:
        """int q dmu = sum_i lambda_i / (beta + lambda_i); at most n."""
        s = self.eigenvalues
        return float(np.dot(s, 1.0 / (self.beta + s)))


@dataclass(frozen=True)
class ThresholdParams:
    """Constants entering the graph-separation threshold and the tail bounds.

    ``p`` is the ambient dimension, ``m`` the mass of mu, ``m0`` the mass of
    the reference measure, ``alpha`` the relative kernel perturbation level.
    The rate statements need r > p; ``gamma_threshold`` itself does not, so
    that requirement is checked by ``validate_rate``.
    """

    p: int
    r: float
    m: float
    m0: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be positive and finite, got {self.r}")
        if not (math.isfinite(self.m) and math.isfinite(self.m0) and self.m > 0 and self.m0 >= 0):
            raise ValueError(f"masses must be finite with m > 0, m0 >= 0, got m={self.m}, m0={self.m0}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")

    def validate_rate(self) -> None:
        if self.r <= self.p:
            raise ValueError(f"rate bounds need r > p, got r={self.r}, p={self.p}")


def threshold_params(
    matrix: MomentMatrix,
    r: float | None = None,
    alpha: float = 0.0,
) -> ThresholdParams:
    """Default constants for a matrix: r = p + 1/2, and m0 the volume of the box."""
    p = matrix.spec.p
    if r is None:
        r = p + 0.5
    params = ThresholdParams(p=p, r=r, m=matrix.mass_m, m0=matrix.spec.domain_volume(), alpha=alpha)
    params.validate_rate()
    return params


def gamma_threshold(d: int, params: ThresholdParams) -> float:
    """Separation level gamma_d = (1-alpha)/(8(m+m0)) * e^(2r) d^r / (3r)^(2r)."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    r = params.r
    log_core = 2.0 * r + r * math.log(d) - 2.0 * r * math.log(3.0 * r)
    return (1.0 - params.alpha) / (8.0 * (params.m + params.m0)) * math.exp(log_core)


def perturbation_alpha(exact: MomentMatrix, approx: MomentMatrix, beta: float) -> float:
    """Relative spectral distortion between two regularized moment matrices.

    Returns ||I - (Me + beta I)^(1/2) (Ma + beta I)^(-1) (Me + beta I)^(1/2)||,
    the largest |1 - w| over the eigenvalues w of the pencil
    (Me + beta I) v = w (Ma + beta I) v, from one ``scipy.linalg.eigh`` call.
    When this is alpha < 1, the approximate Tikhonov kernel satisfies
    sup_z |1 - q_approx(z)/q_exact(z)| <= alpha.  Refuses an approximate
    matrix whose Cholesky factorization with beta fails, and an exact one
    with beta that has a pencil eigenvalue w <= 0, which is then not positive
    definite.
    """
    from scipy.linalg import eigh  # loaded here: a cold start imports no scipy

    _check_beta(beta)
    if exact.spec != approx.spec:
        raise ValueError("moment matrices use different bases")
    shift = beta * np.eye(exact.n)
    try:
        w = eigh(exact.entries + shift, approx.entries + shift, eigvals_only=True)
    except np.linalg.LinAlgError as err:
        raise IndefiniteMatrixError(f"approximate matrix plus beta is not positive definite: {err}") from err
    if w[0] <= 0:
        raise IndefiniteMatrixError(f"exact matrix plus beta is not positive definite (pencil eigenvalue {w[0]:.3e})")
    return float(max(abs(1.0 - w[0]), abs(1.0 - w[-1])))
