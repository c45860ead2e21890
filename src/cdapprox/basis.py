"""Multivariate polynomial bases: grevlex indexing and evaluation.

Two families are supported on axis-aligned boxes of R^p:

* ``MONOMIAL_GREVLEX`` -- plain monomials z^a, ordered by ascending total
  degree with the conventional grevlex tie-break (so for p=2, d=2 the basis
  reads 1, x, y, x^2, xy, y^2).
* ``LEGENDRE_ORTHONORMAL`` -- tensor products of rescaled Legendre
  polynomials, orthonormal for the Lebesgue measure on the domain box.

Every evaluation starts from per-axis univariate tables.  ``axis_tables``
fills them for all axes with one recurrence over a degree-major (d+1, p, m)
buffer, so each degree step is one numpy call whatever p, and each entry
sees the float operations of its own axis's recurrence.  ``basis_product``
multiplies table rows into the basis; ``basis_sqnorm`` gives ||b(z)||^2 from
the tables without forming the basis.  Evaluation takes batches only:
``eval_basis_batch`` reads an (m, p) array, and one point is a one-row batch.
``table_blocks`` is the one stream of points in blocks.  ``y_layout`` derives
the y-degree layout that the moments, kernel, fiber and L2 projection read,
and ``x_degree_members`` groups it by x-index for the kernel's level split.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

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
    """Exponent rows in grevlex order: ascending degree, reverse-lex tie-break.

    Built one axis at a time: the rows over k+1 axes pair each row of degree
    s over the first k axes with every last exponent j <= d - s, and one
    stable sort by (s + j, j) orders them.  Within a key the pairs keep the
    order of the k-axis rows, so the rows of degree t come as those of degree
    t - j for j = 0..t in turn, which is the reverse-lex order.  Costs
    O(n log n) per axis, in a fixed number of numpy calls.
    """
    basis_size(p, d)  # validates and guards against absurd sizes
    out = np.arange(d + 1, dtype=np.int64)[:, None]
    deg = out[:, 0]
    for _ in range(1, p):
        count = d + 1 - deg  # last exponents 0..d - s for a row of degree s
        row = np.repeat(np.arange(deg.size), count)
        j = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
        sort = np.argsort((deg[row] + j) * (d + 1) + j, kind="stable")
        out = np.column_stack([out[row[sort]], j[sort]])
        deg = out.sum(axis=1)
    out.setflags(write=False)
    return out


YLayout = namedtuple("YLayout", "order runs x_index indices")


@lru_cache(maxsize=None)
def y_layout(p: int, d: int) -> YLayout:
    """The y-degree layout of the (p, d) grevlex basis (read-only, shared by every caller).

    ``order`` sorts the basis stably by last-axis degree j, and ``runs[j]`` is
    the length n_(d-j) of the run of degree j.  ``x_index`` gives, in grevlex
    order, each member's position a within its run, which is its x-index: the
    members of total degree t and last exponent j are the x-members of degree
    t - j in x-grevlex order, and t ascends.  So the member (a, j) is
    L_a(x) phi_j(y), with L_a the a-th member of the (p-1, d) x-basis.
    ``indices`` holds the exponent rows in layout order, ``spec.indices[order]``.
    """
    deg = _grevlex_indices(p, d)[:, -1]
    order = np.argsort(deg, kind="stable")
    runs = np.bincount(deg, minlength=d + 1)
    x_index = np.empty_like(order)
    x_index[order] = np.arange(deg.size) - np.repeat(np.cumsum(runs) - runs, runs)
    layout = YLayout(order, runs, x_index, _grevlex_indices(p, d)[order])
    for a in layout:
        a.setflags(write=False)
    return layout


@lru_cache(maxsize=None)
def x_degree_members(p: int, d: int) -> tuple:
    """The members L_a(x) phi_j(y) grouped by the x-degree s of a, as layout positions (read-only).

    Entry s is an (n_x(s), d - s + 1) array: one row per x-index a of x-degree
    s, ascending, and column j holds the position of (a, j) in ``y_layout``'s
    order, the start of run j plus a.  These are the members whose y-degree
    may reach d - s.
    """
    runs = y_layout(p, d).runs
    start = np.cumsum(runs) - runs
    upto = np.append(0, runs[::-1])  # upto[s + 1]: the x-members of degree <= s
    out = tuple(start[: d + 1 - s] + np.arange(upto[s], upto[s + 1])[:, None] for s in range(d + 1))
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def leggauss(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], shared by every caller (read-only)."""
    u, w = np.polynomial.legendre.leggauss(n)
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def gauss_pieces(cuts, n: int) -> tuple:
    """Gauss-Legendre rule with n nodes on each piece [cuts[i], cuts[i+1]].

    Returns nodes and weights of shape (pieces, n), row i for piece i.
    """
    u, w = leggauss(n)
    cuts = np.asarray(cuts, dtype=float)
    lo = cuts[:-1, None]
    half = 0.5 * (cuts[1:, None] - lo)
    return lo + half * (u + 1.0), half * w


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
            if not math.isfinite(hi - lo):
                raise ValueError(f"domain axis [{lo}, {hi}] is not a finite interval")
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


def _stacked_tables(family: Family, d: int, T: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Degree-major (d+1, a, m) buffer: out[j, k, i] is the degree-j member of the family on axis k at T[k, i].

    T holds the coordinates of m points on a axes, one row per axis, and box
    the (a, 2) ends of those axes.  Each recurrence step runs once over all
    axes.  In the Legendre family out[j, k] is the orthonormal Ltilde_j of
    L^2([lo_k, hi_k], dt), from the three-term recurrence on the mapped
    variable; in the monomial family it is T[k]^j.  Every entry sees the
    same float operations as a one-axis recurrence would give it.
    """
    out = np.empty((d + 1,) + T.shape)
    out[0] = 1.0
    if family is Family.LEGENDRE_ORTHONORMAL:
        lo, hi = box[:, :1], box[:, 1:]
        w = hi - lo
        u = (2.0 * T - (lo + hi)) / w
        if d >= 1:
            out[1] = u
        for k in range(1, d):
            out[k + 1] = ((2 * k + 1) * u * out[k] - k * out[k - 1]) / (k + 1)
        out *= np.sqrt((2 * np.arange(d + 1)[:, None] + 1) / w[:, 0])[:, :, None]
    else:
        for k in range(d):
            out[k + 1] = out[k] * T
    return out


def as_points(spec: BasisSpec, Z) -> np.ndarray:
    """Z as a float array of shape (m, p); points of another dimension raise ValueError."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape[1] != spec.p:
        raise ValueError(f"points have dimension {Z.shape[1]}, basis has p={spec.p}")
    return Z


def axis_tables(spec: BasisSpec, Z) -> list:
    """Per-axis univariate basis tables for a batch of points Z of shape (m, p).

    One recurrence over all axes fills a degree-major (d+1, p, m) buffer;
    table k is its (m, d+1) view for axis k, so column j of it is contiguous.
    """
    Z = as_points(spec, Z)
    buf = _stacked_tables(spec.family, spec.d, Z.T, spec.domain_array())
    return [buf[:, k].T for k in range(spec.p)]


_BLOCK = 1024  # points per block wherever basis rows are streamed; keeps a block's rows in cache


def basis_product(spec: BasisSpec, tabs: list, indices: np.ndarray | None = None) -> np.ndarray:
    """Basis-major block of basis entries over the axes of ``tabs``.

    Row i is the product over axes k < len(tabs) of the degree-a_i[k] row of
    tabs[k].T, with a_i the i-th row of ``indices`` (the exponent rows of
    ``spec`` by default), multiplied in axis order.  A reordering of the
    exponent rows reorders the basis rows and leaves every entry bit for bit
    as it is.  The result is a fresh C-contiguous (n, m) array, each row
    gathered whole from the degree-major table buffers.
    """
    idx = spec.indices if indices is None else indices
    out = np.take(tabs[0].T, idx[:, 0], axis=0)
    for k in range(1, len(tabs)):
        out *= np.take(tabs[k].T, idx[:, k], axis=0)
    return out


@lru_cache(maxsize=None)
def _degree_fold(d: int) -> np.ndarray:
    """0/1 (d+1, d+1) matrix with ones where i + j <= d: row t sums the degrees j <= d - t (read-only)."""
    j = np.arange(d + 1)
    out = (j[:, None] + j <= d).astype(float)
    out.setflags(write=False)
    return out


def degree_sqnorms(d: int, tabs: list) -> np.ndarray:
    """Degree-major (d+1, m): row t sums prod_k tabs[k][:, a_k]^2 over the exponents a of total degree t.

    The exponents run over the axes of ``tabs``, and each middle axis is a
    convolution over the degrees truncated at d: acc[t] holds the sum over
    the axes seen so far.  O(len(tabs) d^2) per point.
    """
    sq = [np.square(tab.T) for tab in tabs]  # degree-major (d+1, m) each
    acc = sq[0]
    for s in sq[1:]:
        nxt = acc * s[0]
        for j in range(1, d + 1):
            nxt[j:] += acc[: d + 1 - j] * s[j]
        acc = nxt
    return acc


def basis_sqnorm(spec: BasisSpec, tabs: list) -> np.ndarray:
    """Squared norm ||b(z)||^2 = sum_i b_i(z)^2 of the full basis at each point of ``tabs``.

    Sums prod_k tabs[k][:, a_k]^2 over the exponents |a| <= d without forming
    the basis: ``degree_sqnorms`` of every axis but the last gives acc[t], and
    the last axis is folded in at once: its squares summed over the degrees
    j <= d - t, by one product with ``_degree_fold(d)``, weigh acc[t].
    O(p d^2) per point against O(n) for the basis itself.  In the
    orthonormal family this is K0(z, z), the Christoffel-Darboux kernel of
    the reference measure.
    """
    d = spec.d
    if len(tabs) == 1:
        return degree_sqnorms(d, tabs).sum(axis=0)
    return np.einsum("tm,tm->m", _degree_fold(d) @ np.square(tabs[-1].T), degree_sqnorms(d, tabs[:-1]))


def table_blocks(spec: BasisSpec, Z, block: int = _BLOCK, nodes: np.ndarray | None = None):
    """Yield (rows, tabs) over blocks of ``block`` points of Z[nodes] (all of Z by default), tabs their axis_tables.

    The library's one loop over points in blocks: ``rows`` is a slice of Z or
    the block's run of ``nodes``, whose points are gathered one block at a time.
    """
    Z = as_points(spec, Z)
    for start in range(0, Z.shape[0] if nodes is None else nodes.size, block):
        rows = slice(start, start + block) if nodes is None else nodes[start : start + block]
        yield rows, axis_tables(spec, Z[rows])


def eval_basis_batch(spec: BasisSpec, Z) -> np.ndarray:
    """Evaluate the full basis at each row of Z; returns a C-ordered (m, n_d) array.

    Point-major and C-ordered: the fiber layer's row-wise matmuls are only
    bit-identical across batch sizes on C-ordered input.
    """
    return np.ascontiguousarray(basis_product(spec, axis_tables(spec, Z)).T)
