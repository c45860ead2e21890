"""Multivariate polynomial bases: grevlex indexing, evaluation, partial specialization.

Two families are supported on axis-aligned boxes of R^p:

* ``MONOMIAL_GREVLEX`` -- plain monomials z^a, ordered by ascending total
  degree with the conventional grevlex tie-break (so for p=2, d=2 the basis
  reads 1, x, y, x^2, xy, y^2).
* ``LEGENDRE_ORTHONORMAL`` -- tensor products of rescaled Legendre
  polynomials, orthonormal for the Lebesgue measure on the domain box.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import product

import numpy as np

_SIZE_LIMIT = 2**62  # refuse basis sizes that no longer fit an int64 index


class Family(Enum):
    MONOMIAL_GREVLEX = "monomial-grevlex"
    LEGENDRE_ORTHONORMAL = "legendre-orthonormal"


def basis_size(p: int, d: int) -> int:
    """Number of monomials of total degree <= d in p variables, C(p+d, d)."""
    if p < 1:
        raise ValueError(f"dimension p must be >= 1, got {p}")
    if d < 0:
        raise ValueError(f"degree d must be >= 0, got {d}")
    n = math.comb(p + d, d)
    if n > _SIZE_LIMIT:
        raise OverflowError(f"basis size C({p + d},{d}) = {n} exceeds the supported range")
    return n


@lru_cache(maxsize=None)
def _grevlex_indices(p: int, d: int) -> np.ndarray:
    """Exponent rows in grevlex order: ascending degree, reverse-lex tie-break."""
    basis_size(p, d)  # validates and guards against absurd sizes
    rows = []
    for total in range(d + 1):
        block = [a for a in product(range(total + 1), repeat=p) if sum(a) == total]
        block.sort(key=lambda a: a[::-1])
        rows.extend(block)
    out = np.array(rows, dtype=np.int64).reshape(len(rows), p)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def leggauss(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], shared by every caller (read-only)."""
    u, w = np.polynomial.legendre.leggauss(n)
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def enumerate_indices(spec: "BasisSpec") -> np.ndarray:
    """All multi-indices of the basis, one row per basis element, grevlex order."""
    return _grevlex_indices(spec.p, spec.d)


def grevlex_position(p: int, d: int) -> dict:
    """Map exponent tuple -> position in the grevlex enumeration."""
    return {tuple(a): i for i, a in enumerate(_grevlex_indices(p, d))}


@dataclass(frozen=True)
class BasisSpec:
    """Basis of the n_d = C(p+d, d) polynomials of degree <= d on a box in R^p."""

    p: int
    d: int
    family: Family = Family.LEGENDRE_ORTHONORMAL
    domain: tuple = field(default=None)  # ((lo, hi), ...) per axis; default [-1,1]^p

    def __post_init__(self):
        basis_size(self.p, self.d)
        dom = self.domain
        if dom is None:
            dom = ((-1.0, 1.0),) * self.p
        dom = tuple((float(lo), float(hi)) for lo, hi in dom)
        if len(dom) != self.p:
            raise ValueError(f"domain has {len(dom)} axes, expected p={self.p}")
        for lo, hi in dom:
            if not lo < hi:
                raise ValueError(f"degenerate domain axis [{lo}, {hi}]")
        object.__setattr__(self, "domain", dom)

    @property
    def size(self) -> int:
        return basis_size(self.p, self.d)

    @property
    def indices(self) -> np.ndarray:
        return _grevlex_indices(self.p, self.d)

    def domain_array(self) -> np.ndarray:
        return np.asarray(self.domain, dtype=float)

    def domain_volume(self) -> float:
        box = self.domain_array()
        return float(np.prod(box[:, 1] - box[:, 0]))

    def domain_diameter(self) -> float:
        box = self.domain_array()
        return float(np.sqrt(np.sum((box[:, 1] - box[:, 0]) ** 2)))

    def x_spec(self) -> "BasisSpec":
        """Spec of the first p-1 axes (the x-block of a graph variable z=(x,y))."""
        if self.p < 2:
            raise ValueError("x_spec requires p >= 2")
        return BasisSpec(self.p - 1, self.d, self.family, self.domain[:-1])

    def contains(self, Z: np.ndarray) -> np.ndarray:
        box = self.domain_array()
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return np.all((Z >= box[:, 0] - 1e-12) & (Z <= box[:, 1] + 1e-12), axis=1)


def _legendre_table(t: np.ndarray, d: int, lo: float, hi: float) -> np.ndarray:
    """Values of the orthonormal Legendre family up to degree d on one axis.

    Row convention: out[j, k] = Ltilde_k(t[j]) with Ltilde_k orthonormal in
    L^2([lo, hi], dt).  Uses the three-term recurrence on the mapped variable,
    one contiguous row per degree, and transposes once at the end.
    """
    w = hi - lo
    u = (2.0 * t - (lo + hi)) / w
    out = np.empty((d + 1, t.shape[0]))
    out[0] = 1.0
    if d >= 1:
        out[1] = u
    for k in range(1, d):
        out[k + 1] = ((2 * k + 1) * u * out[k] - k * out[k - 1]) / (k + 1)
    out *= np.sqrt((2 * np.arange(d + 1) + 1) / w)[:, None]
    return np.ascontiguousarray(out.T)


def _power_table(t: np.ndarray, d: int) -> np.ndarray:
    out = np.empty((d + 1, t.shape[0]))
    out[0] = 1.0
    for k in range(d):
        out[k + 1] = out[k] * t
    return np.ascontiguousarray(out.T)


def axis_table(spec: BasisSpec, k: int, t: np.ndarray) -> np.ndarray:
    """Values of axis k's univariate family up to degree d at the points t."""
    if spec.family is Family.LEGENDRE_ORTHONORMAL:
        lo, hi = spec.domain[k]
        return _legendre_table(t, spec.d, lo, hi)
    return _power_table(t, spec.d)


def axis_tables(spec: BasisSpec, Z) -> list:
    """Per-axis univariate basis tables for a batch of points Z of shape (n, p)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape[1] != spec.p:
        raise ValueError(f"points have dimension {Z.shape[1]}, basis has p={spec.p}")
    return [axis_table(spec, k, Z[:, k]) for k in range(spec.p)]


_BLOCK = 1024  # points per block wherever basis rows are streamed; keeps a block's rows in cache


def basis_product(spec: BasisSpec, tabs: list, rows=slice(None)) -> np.ndarray:
    """Basis entries over the axes of ``tabs`` at the selected table rows.

    Column i is the product over axes k < len(tabs) of tabs[k][:, a_i[k]], with
    a_i the i-th exponent row of ``spec``; fewer tables than axes give the
    x-part of the basis.  The result is a fresh C-contiguous array: the
    fiber layer's row-wise matmuls are only bit-identical across batch sizes
    on C-ordered input.
    """
    idx = spec.indices
    out = np.take(tabs[0][rows], idx[:, 0], axis=1)
    for k in range(1, len(tabs)):
        out *= np.take(tabs[k][rows], idx[:, k], axis=1)
    return out


def eval_basis_batch(spec: BasisSpec, Z) -> np.ndarray:
    """Evaluate the full basis at each row of Z; returns an (n, n_d) array."""
    return basis_product(spec, axis_tables(spec, Z))


def check_point(spec: BasisSpec, z) -> np.ndarray:
    """Validate a single point of R^p; warns outside an orthonormal basis's box."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != spec.p:
        raise ValueError(f"point has dimension {z.shape[0]}, basis has p={spec.p}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point contains non-finite coordinates")
    if spec.family is Family.LEGENDRE_ORTHONORMAL and not spec.contains(z)[0]:
        warnings.warn(
            "evaluating an orthonormal basis outside its domain box",
            RuntimeWarning,
            stacklevel=3,
        )
    return z


def eval_basis(spec: BasisSpec, z) -> np.ndarray:
    """Evaluate the basis vector b(z) at a single point z in R^p."""
    return eval_basis_batch(spec, check_point(spec, z)[None, :])[0]


def _affine_compose(coefs: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    """Monomial coefficients of q(alpha*t + gamma) given those of q."""
    res = np.zeros(1)
    for c in coefs[::-1]:
        res = np.polynomial.polynomial.polymul(res, [gamma, alpha])
        res = np.polynomial.polynomial.polyadd(res, [c])
    return res


@lru_cache(maxsize=None)
def _axis_expansion(family: Family, d: int, lo: float, hi: float) -> np.ndarray:
    """(d+1, d+1) matrix: row k = monomial coefficients of the degree-k axis poly."""
    U = np.zeros((d + 1, d + 1))
    if family is Family.MONOMIAL_GREVLEX:
        np.fill_diagonal(U, 1.0)
        return U
    w = hi - lo
    alpha = 2.0 / w
    gamma = -(lo + hi) / w
    for k in range(d + 1):
        leg = np.polynomial.legendre.leg2poly(np.eye(k + 1)[k])
        mono = _affine_compose(leg, alpha, gamma) if (alpha, gamma) != (1.0, 0.0) else leg
        U[k, : len(mono)] = mono * np.sqrt((2 * k + 1) / w)
    return U


def y_power_matrix(spec: BasisSpec) -> np.ndarray:
    """Monomial expansion of the last-axis univariate family; row k covers degree k."""
    lo, hi = spec.domain[-1]
    return _axis_expansion(spec.family, spec.d, lo, hi)


def monomial_expansion_matrix(spec: BasisSpec) -> np.ndarray:
    """G with b_spec(z) = G m(z), m the monomial-grevlex basis of the same (p, d)."""
    n = spec.size
    G = np.zeros((n, n))
    if spec.family is Family.MONOMIAL_GREVLEX:
        np.fill_diagonal(G, 1.0)
        return G
    pos = grevlex_position(spec.p, spec.d)
    axes = [_axis_expansion(spec.family, spec.d, lo, hi) for lo, hi in spec.domain]
    for i, a in enumerate(spec.indices):
        terms = [np.nonzero(axes[k][a[k]])[0] for k in range(spec.p)]
        for c in product(*terms):
            G[i, pos[c]] = math.prod(axes[k][a[k], c[k]] for k in range(spec.p))
    return G


def specialize_last_variable(spec: BasisSpec, coeffs, x) -> np.ndarray:
    """Collapse a polynomial in the basis to monomial coefficients in the last variable.

    Given the coefficient vector of q over ``spec`` and a point x for the first
    p-1 variables, returns c with q(x, y) = sum_k c[k] y^k for all y.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    if coeffs.shape[0] != spec.size:
        raise ValueError(f"coefficient vector has length {coeffs.shape[0]}, basis needs {spec.size}")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != spec.p - 1:
        raise ValueError(f"x has dimension {x.shape[0]}, expected p-1={spec.p - 1}")
    if spec.p == 1:
        xpart = np.ones(spec.size)
    else:
        xpart = basis_product(spec, axis_tables(spec.x_spec(), x))[0]
    grouped = np.zeros(spec.d + 1)
    np.add.at(grouped, spec.indices[:, -1], coeffs * xpart)
    return y_power_matrix(spec).T @ grouped
