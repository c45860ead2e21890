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


@lru_cache(maxsize=None)
def _legendre_christoffel_min(m: int) -> float:
    """rho(m) = min over u in [-1, 1] of sum_{j<=m} (2j+1) P_j(u)^2, with P_j the Legendre polynomials.

    On an axis [lo, hi] of length h the orthonormal Ltilde_j is
    sqrt((2j+1)/h) P_j(u) on the mapped variable u, so rho(m)/h is the least
    value of that axis's univariate Christoffel-Darboux diagonal
    K_m(t) = sum_{j<=m} Ltilde_j(t)^2 over the axis.  The minimum is the exact
    one of the fiber solver, within rounding (about 1e-15 relative);
    rho(0) = rho(1) = 1.
    """
    from .approximant import _fiber_argmin  # loaded here: approximant imports this module

    # on [-1, 1] the orthonormal Legendre basis is sqrt((2j+1)/2) P_j, so its squares sum to half the target
    return 2.0 * float(_fiber_argmin(np.eye(m + 1)[None], (-1.0, 1.0), 0.0, 1e-13)[1][0])


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
    """Spectral form of the regularized Christoffel-Darboux polynomial.

    Eigenvalues are sorted ascending; negative ones within the PSD tolerance
    of ``moments`` are rounding and clipped to zero, anything below it raises
    IndefiniteMatrixError.  ``filter_values`` holds the Tikhonov values
    g_i = 1/(beta + lambda_i).
    """

    def __init__(self, matrix: MomentMatrix, beta: float):
        _check_beta(beta)
        evals, P = np.linalg.eigh(matrix.entries)
        self.matrix = matrix
        self.spec = matrix.spec
        self.beta = float(beta)
        self.eigenvalues, self.filter_values = _tikhonov(evals, self.beta)
        self.eigenvectors = P
        self._filtered = None

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def filtered_matrix(self) -> np.ndarray:
        """(M + beta I)^-1, as P diag(g) P^T."""
        if self._filtered is None:
            P = self.eigenvectors
            self._filtered = (P * self.filter_values) @ P.T
        return self._filtered

    def eval_q_batch(self, Z) -> np.ndarray:
        """q at each row of Z, as sum_i (w_i . b(z))^2 over the rows of the SOS form.

        Works through Z in blocks of ``_BLOCK`` points: per block, C = S B with
        S the SOS rows and B the basis-major (n, block) basis, and q is the sum
        of squares down each column of C.  Neither the (N, n) basis nor its
        tables are ever held whole; memory is O(block * n).  Matches the
        one-shot evaluation up to rounding.
        """
        S = self.sos_decomposition()
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        q = np.empty(Z.shape[0])
        for rows, B in basis_blocks(self.spec, Z):
            C = S @ B
            q[rows] = np.einsum("ij,ij->j", C, C)
            del B, C  # free this block before the next one is built: about two blocks live at once
        return q

    def q_at_least(self, Z, level: float) -> np.ndarray:
        """Boolean array: q(z) >= level at each row of Z, equal to ``eval_q_batch(Z) >= level``.

        q(z) >= min(g) ||b(z)||^2 (see ``certified_floor``), and the bound is
        shrunk by a relative margin of 1e-8.  In blocks of ``_BOUND_BLOCK``
        points it settles each row where it reaches ``level`` and ||b(z)||^2 is
        finite, which needs every coordinate finite; every other row gets exact
        q as in ``eval_q_batch``, from the rows of the block's own tables,
        ``_BLOCK`` points at a time.  A row with a non-finite coordinate may get
        nan, which compares False.  Memory is O(block * n).
        """
        spec = self.spec
        Z = as_points(spec, Z)
        floor = float(self.filter_values.min()) * (1.0 - _BOUND_MARGIN)
        S = self.sos_decomposition()
        out = np.empty(Z.shape[0], dtype=bool)
        for rows, tabs in table_blocks(spec, Z, _BOUND_BLOCK):
            with np.errstate(invalid="ignore", over="ignore"):
                sqnorm = basis_sqnorm(spec, tabs)
            # the bound holds at finite z only, and a non-finite coordinate makes ||b(z)||^2
            # non-finite through its degree-1 member: one test per point, not per coordinate
            sure = np.isfinite(sqnorm) & (floor * sqnorm >= level)
            open_ = np.flatnonzero(~sure)
            for start in range(0, open_.size, _BLOCK):
                part = open_[start : start + _BLOCK]
                C = S @ basis_product(spec, [t.T[:, part].T for t in tabs])  # gathered degree-major
                sure[part] = np.einsum("ij,ij->j", C, C) >= level
            out[rows] = sure
        return out

    def sos_decomposition(self) -> np.ndarray:
        """Rows w_i with q(z) = sum_i (w_i . b(z))^2, ascending eigenvalue order.

        Row i is sqrt(g_i) = 1/sqrt(beta + lambda_i) times the i-th eigenvector.
        """
        return (self.eigenvectors * np.sqrt(self.filter_values)).T

    def markov_mass(self) -> float:
        """int q dmu = sum_i lambda_i / (beta + lambda_i); at most n."""
        return float(np.dot(self.eigenvalues, self.filter_values))


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

    Returns ||I - (Me + beta I)^(1/2) (Ma + beta I)^(-1) (Me + beta I)^(1/2)||.
    When this is alpha < 1, the approximate Tikhonov kernel satisfies
    sup_z |1 - q_approx(z)/q_exact(z)| <= alpha.
    """
    _check_beta(beta)
    if exact.spec != approx.spec:
        raise ValueError("moment matrices use different bases")
    ee, Pe = np.linalg.eigh(exact.entries)
    if ee[0] + beta <= 0:
        raise IndefiniteMatrixError(f"exact matrix plus beta is not positive definite (min {ee[0]:.3e})")
    ea = np.linalg.eigvalsh(approx.entries)
    if ea[0] + beta <= 0:
        raise IndefiniteMatrixError(f"approximate matrix plus beta is not positive definite (min {ea[0]:.3e})")
    S = (Pe * np.sqrt(np.maximum(ee + beta, 0.0))) @ Pe.T
    T = np.eye(exact.n) - S @ np.linalg.inv(approx.entries + beta * np.eye(exact.n)) @ S
    T = 0.5 * (T + T.T)
    w = np.linalg.eigvalsh(T)
    return float(max(abs(w[0]), abs(w[-1])))
