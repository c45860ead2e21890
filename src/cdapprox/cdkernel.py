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

``CDKernel.eval_q_batch``, the one evaluation of q (one point is a one-row
batch), works in blocks of ``_BLOCK`` points: each block builds its own
per-axis tables and one basis-major (n, block) basis B, and q is the column
sum of squares of C = S B, with S the sum-of-squares rows.  Memory is
O(block * n) whatever the number of points N, and the result matches a
one-shot evaluation up to rounding.

``certified_floor`` is the one certified lower bound of q over all of R^p:
min(g) times the least ||b(z)||^2, from the eigenvalues alone.  Where it
reaches a level the sublevel set is empty, and no kernel need be built.

``CDKernel.q_at_least`` answers q(z) >= level without forming q where it
can: in blocks of ``_BOUND_BLOCK`` points, ``basis_sqnorm`` gives
||b(z)||^2 from the per-axis tables in O(p d^2) per point, and only the
points that min(g) ||b(z)||^2 leaves open get exact q, from the rows of
their block's own tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .approximant import partial_argmin
from .basis import (
    _BLOCK,
    Family,
    as_points,
    basis_blocks,
    basis_product,
    basis_sqnorm,
    table_blocks,
)
from .errors import IndefiniteMatrixError
from .moments import MomentMatrix, require_psd

# relative slack on min(g)||b||^2 and on its certified minimum: the rounding of q and of the bound is
# about 1e-13, that of rho(m) about 1e-15
_BOUND_MARGIN = 1e-8
# points per block of the bound: its tables cost p (d+1) 8 bytes a point against n 8 for a basis
# block, so larger blocks pay numpy's per-call cost less often at the same memory
_BOUND_BLOCK = 2 * _BLOCK


def _check_beta(beta: float) -> None:
    """Reject a regularization level that is not a positive finite number (nan, inf, <= 0)."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")


def _tikhonov(evals: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, 1/(beta + s)) for the ascending eigenvalues of a moment matrix, s clipped at zero.

    Negative eigenvalues within the PSD tolerance of ``moments`` are rounding
    and clip to zero; anything below it raises IndefiniteMatrixError.
    """
    require_psd(evals)
    s = np.clip(evals, 0.0, None)
    return s, 1.0 / (beta + s)


def _column_q(C: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """q = sum_i C[i]^2 per column, with C = S B at the points Z; nan reads inf where Z's row is finite."""
    q = np.einsum("ij,ij->j", C, C)
    # at a finite z only an overflowing basis entry gives nan, and then q >= min(g) ||b(z)||^2 overflows too
    q[np.isnan(q) & np.isfinite(Z).all(axis=1)] = np.inf
    return q


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
    """
    _check_beta(beta)
    g = _tikhonov(np.linalg.eigvalsh(matrix.entries), beta)[1]
    spec = matrix.spec
    sqnorm = 1.0
    if spec.family is Family.LEGENDRE_ORTHONORMAL:
        sqnorm = _legendre_christoffel_min(spec.d // spec.p) ** spec.p / spec.domain_volume()
    return float(g.min()) * (1.0 - _BOUND_MARGIN) * sqnorm


def beta_schedule(d: int) -> float:
    """Degree-indexed regularization 2**(3 - sqrt(d)) used by the rate results."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return float(2.0 ** (3.0 - math.sqrt(d)))


class CDKernel:
    """Sum-of-squares form of the regularized Christoffel-Darboux polynomial.

    Eigenvalues are sorted ascending; negative ones within the PSD tolerance
    of ``moments`` are rounding and clipped to zero, anything below it raises
    IndefiniteMatrixError.  The kernel holds M, the clipped eigenvalues and
    one factor, the sum-of-squares rows S = (P sqrt(g))^T of
    ``sos_decomposition``, formed once and read-only.
    """

    def __init__(self, matrix: MomentMatrix, beta: float):
        _check_beta(beta)
        evals, P = np.linalg.eigh(matrix.entries)
        self.matrix = matrix
        self.spec = matrix.spec
        self.beta = float(beta)
        self.eigenvalues, g = _tikhonov(evals, self.beta)
        self._sos = (P * np.sqrt(g)).T
        self._sos.setflags(write=False)

    def filtered_matrix(self) -> np.ndarray:
        """(M + beta I)^-1 = P diag(g) P^T, as S^T S."""
        S = self._sos
        return S.T @ S

    def eval_q_batch(self, Z) -> np.ndarray:
        """q at each row of Z, as sum_i (w_i . b(z))^2 over the rows of the SOS form.

        Works through Z in blocks of ``_BLOCK`` points: per block, C = S B with
        S the SOS rows and B the basis-major (n, block) basis, and q is the sum
        of squares down each column of C.  Neither the (N, n) basis nor its
        tables are ever held whole; memory is O(block * n).  Matches the
        one-shot evaluation up to rounding.  A finite z whose basis overflows
        has q beyond double range and reads inf; a row with a nan or inf
        coordinate may read nan.  Neither raises a RuntimeWarning.
        """
        S = self._sos
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        q = np.empty(Z.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, B in basis_blocks(self.spec, Z):
                q[rows] = _column_q(S @ B, Z[rows])
                del B  # free this block before the next one is built: about two blocks live at once
        return q

    def q_at_least(self, Z, level: float) -> np.ndarray:
        """Boolean array: q(z) >= level at each row of Z, equal to ``eval_q_batch(Z) >= level``.

        q(z) >= min(g) ||b(z)||^2 (see ``certified_floor``), and the bound is
        shrunk by a relative margin of 1e-8.  In blocks of ``_BOUND_BLOCK``
        points it settles each row where it reaches ``level`` and ||b(z)||^2 is
        finite, which needs every coordinate finite; every other row gets exact
        q as in ``eval_q_batch``, from the rows of the block's own tables,
        ``_BLOCK`` points at a time.  A finite row whose basis overflows has q
        beyond double range, reads inf there and answers True; a row with a
        non-finite coordinate may get nan, which compares False.  Neither raises
        a RuntimeWarning.  Memory is O(block * n).
        """
        spec = self.spec
        Z = as_points(spec, Z)
        # min(g) = 1/(beta + lambda_max) bit for bit: rounded sums and quotients are monotone
        floor = float(1.0 / (self.beta + self.eigenvalues[-1])) * (1.0 - _BOUND_MARGIN)
        S = self._sos
        out = np.empty(Z.shape[0], dtype=bool)
        with np.errstate(invalid="ignore", over="ignore"):
            for rows, tabs in table_blocks(spec, Z, _BOUND_BLOCK):
                sqnorm = basis_sqnorm(spec, tabs)
                # the bound holds at finite z only, and a non-finite coordinate makes ||b(z)||^2
                # non-finite through its degree-1 member: one test per point, not per coordinate
                sure = np.isfinite(sqnorm) & (floor * sqnorm >= level)
                open_ = np.flatnonzero(~sure)
                for start in range(0, open_.size, _BLOCK):
                    part = open_[start : start + _BLOCK]
                    C = S @ basis_product(spec, [t.T[:, part].T for t in tabs])  # gathered degree-major
                    sure[part] = _column_q(C, Z[rows][part]) >= level
                out[rows] = sure
        return out

    def sos_decomposition(self) -> np.ndarray:
        """Rows w_i with q(z) = sum_i (w_i . b(z))^2, ascending eigenvalue order.

        Row i is sqrt(g_i) = 1/sqrt(beta + lambda_i) times the i-th eigenvector.
        The rows are formed once, with the kernel; every call returns that one
        read-only array.
        """
        return self._sos

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
