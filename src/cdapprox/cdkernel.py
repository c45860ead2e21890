"""Regularized Christoffel-Darboux polynomials built from a moment matrix.

Given the degree-d moment matrix M of a measure mu and a regularization level
beta > 0, the central quantity is

    q(z) = b(z)^T g_beta(M) b(z),

where g_beta is a spectral filter applied to the eigenvalues of M.  With the
Tikhonov filter g_beta(s) = 1/(beta + s) this is the Christoffel-Darboux
polynomial of the mixed measure mu + beta * mu0 whenever the basis is
orthonormal for mu0.  Small q flags points near the support of mu; the
``gamma_threshold`` level separates graph from non-graph points at a rate
controlled by the degree.

``CDKernel.eval_q_batch`` evaluates q in blocks of ``_BLOCK`` points: the
per-axis basis tables are computed once for all N points, and each block
forms its basis rows and projects them on the sum-of-squares columns.  Memory
is O(block * n + N * p * d) instead of O(N * n), and the result matches a
one-shot evaluation up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import _BLOCK, axis_tables, basis_product, check_point
from .errors import IndefiniteMatrixError
from .moments import MomentMatrix

_CLIP_REL = 1e-8  # eigenvalues in [-clip * max, 0) count as rounding noise


class FilterKind(Enum):
    TIKHONOV = "tikhonov"
    CUTOFF = "cutoff"
    LOWPASS = "lowpass"


def apply_filter(kind: FilterKind, evals: np.ndarray, beta: float) -> np.ndarray:
    """Filter values g_beta(s) for each eigenvalue; input must be >= 0."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    s = np.asarray(evals, dtype=float)
    if kind is FilterKind.TIKHONOV:
        return 1.0 / (beta + s)
    if kind is FilterKind.CUTOFF:
        return np.where(s <= beta, 1.0 / beta, 1.0 / np.maximum(s, beta))
    if kind is FilterKind.LOWPASS:
        return np.where(s <= beta, 1.0 / beta, 0.0)
    raise ValueError(f"unknown filter kind {kind!r}")


def beta_schedule(d: int) -> float:
    """Degree-indexed regularization 2**(3 - sqrt(d)) used by the rate results."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return float(2.0 ** (3.0 - math.sqrt(d)))


class CDKernel:
    """Spectral form of the regularized Christoffel-Darboux polynomial.

    Eigenvalues are sorted ascending; small negative ones from rounding are
    clipped to zero, anything clearly negative raises IndefiniteMatrixError.
    """

    def __init__(self, matrix: MomentMatrix, beta: float, kind: FilterKind = FilterKind.TIKHONOV):
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        evals, P = np.linalg.eigh(matrix.entries)
        lam_max = max(float(evals[-1]), 0.0)
        floor = -_CLIP_REL * lam_max
        if evals[0] < floor:
            raise IndefiniteMatrixError(
                f"moment matrix eigenvalue {evals[0]:.3e} below clip tolerance {floor:.3e}"
            )
        self.matrix = matrix
        self.spec = matrix.spec
        self.beta = float(beta)
        self.kind = kind
        self.eigenvalues = np.clip(evals, 0.0, None)
        self.eigenvectors = P
        self.filter_values = apply_filter(kind, self.eigenvalues, self.beta)
        self._filtered = None

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def filtered_matrix(self) -> np.ndarray:
        """g_beta(M) = P diag(g) P^T; the Tikhonov case is (M + beta I)^-1."""
        if self._filtered is None:
            P = self.eigenvectors
            self._filtered = (P * self.filter_values) @ P.T
        return self._filtered

    def eval_q_batch(self, Z) -> np.ndarray:
        """q at each row of Z, as sum_i (w_i . b(z))^2 over the rows of the SOS form.

        Works through Z in blocks of ``_BLOCK`` points, so neither the (N, n)
        basis nor its projection is ever held whole; memory is
        O(block * n + N * p * d).  Matches the one-shot evaluation up to rounding.
        """
        tabs = axis_tables(self.spec, Z)
        W = self.sos_decomposition().T
        q = np.empty(tabs[0].shape[0])
        for start in range(0, q.shape[0], _BLOCK):
            rows = slice(start, start + _BLOCK)
            C = basis_product(self.spec, tabs, rows) @ W
            q[rows] = np.einsum("ij,ij->i", C, C)
        return q

    def eval_q(self, z) -> float:
        """q at a single point z, with the point checks of ``eval_basis``."""
        return float(self.eval_q_batch(check_point(self.spec, z)[None, :])[0])

    def sos_decomposition(self) -> np.ndarray:
        """Rows w_i with q(z) = sum_i (w_i . b(z))^2, ascending eigenvalue order.

        Row i is sqrt(g(lambda_i)) times the i-th eigenvector; for the low-pass
        filter rows above the cutoff are identically zero.
        """
        return (self.eigenvectors * np.sqrt(self.filter_values)).T

    def markov_mass(self) -> float:
        """int q dmu = sum_i lambda_i g(lambda_i); at most n for all filters."""
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
        if self.r <= 0:
            raise ValueError(f"r must be positive, got {self.r}")
        if self.m <= 0 or self.m0 < 0:
            raise ValueError(f"masses must satisfy m > 0, m0 >= 0, got m={self.m}, m0={self.m0}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")

    def validate_rate(self) -> None:
        if self.r <= self.p:
            raise ValueError(f"rate bounds need r > p, got r={self.r}, p={self.p}")


def threshold_params(
    matrix: MomentMatrix,
    r: float | None = None,
    alpha: float = 0.0,
    m0: float | None = None,
) -> ThresholdParams:
    """Default constants for a matrix: r = p + 1/2, m0 = volume of the box."""
    p = matrix.spec.p
    if r is None:
        r = p + 0.5
    if m0 is None:
        m0 = matrix.spec.domain_volume()
    params = ThresholdParams(p=p, r=r, m=matrix.mass_m, m0=m0, alpha=alpha)
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
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
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
