"""Moment matrices of measures supported on function graphs, plus their file formats.

The central object is ``MomentMatrix``: the Gram matrix M[i, j] = int b_i b_j dmu
for a basis b of degree <= d and a positive measure mu on R^p.  Matrices come
from a weighted rule (Z, w) on the graph, either exact for the degree or a
Gauss-Legendre quadrature along it, or from plain sample averages.  Every
route ends in one weighted Gram sum over the nodes, which an operation count
of the input sends one of two ways: over blocks of nodes with the full basis,
or, where y takes few distinct values as on the graph of a piecewise-constant
f, one x-Gram per y-level scattered into M.  ``save_text`` writes a
line-oriented text format (lower triangle, 17 significant digits, bit-exact
round trip) row by row.  ``load`` reads it row by row, or a JSON document of
the same header with the full matrix, as written by other tools; both go
through one decoder, so any malformed file raises MomentFileError.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import (
    BasisSpec,
    Family,
    as_points,
    axis_tables,
    basis_product,
    basis_size,
    gauss_pieces,
    table_blocks,
    y_layout,
)
from .errors import IndefiniteMatrixError, MomentFileError

_FORMAT_TAG = "cdmoments"
_FORMAT_VERSION = 1
_PSD_REL_TOL = 1e-8
# the level route's count (see _weighted_gram), in node-route multiply-adds: a level's
# n x n scatter costs _SCATTER_COST per entry, and its dozen numpy calls _LEVEL_CALLS
_SCATTER_COST = 32
_LEVEL_CALLS = 200_000


class Provenance(Enum):
    ANALYTIC = "analytic"
    QUADRATURE = "quadrature"
    EMPIRICAL = "empirical"
    FILE = "file"


@dataclass
class MomentMatrix:
    """Moment matrix of a measure mu, together with how it was obtained.

    ``mass_m`` is the total mass mu(R^p): the domain volume for Lebesgue-type
    constructions, 1 for empirical averages.
    """

    spec: BasisSpec
    entries: np.ndarray
    provenance: Provenance
    mass_m: float
    note: str = ""

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=float)
        n = self.spec.size
        if M.shape != (n, n):
            raise ValueError(f"entries have shape {M.shape}, basis needs ({n}, {n})")
        lo, hi = float(M.min()), float(M.max())  # a nan anywhere reads nan in both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("entries contain non-finite values")
        scale = max(hi, -lo, 1e-300)  # max |M|, with no n x n temporary
        diff = M - M.T  # the one n x n temporary of the check
        skew = float(np.abs(diff, out=diff).max())
        if skew > 1e-6 * scale:
            raise ValueError(f"entries are not symmetric (relative skew {skew / scale:.2e})")
        if not (math.isfinite(self.mass_m) and self.mass_m > 0):
            raise ValueError(f"mass_m must be positive and finite, got {self.mass_m}")
        self.entries = M

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def check_psd(self) -> None:
        """Raise if the matrix has an eigenvalue below -1e-8 * lambda_max.

        Accepts, with no eigenvalue, where ``_cholesky_proves_psd`` succeeds;
        everywhere else ``require_psd`` on the eigenvalues decides and words
        the refusal.  So it accepts and refuses exactly what
        ``require_psd(eigvalsh(M))`` does.
        """
        if not _cholesky_proves_psd(self.entries):
            require_psd(np.linalg.eigvalsh(self.entries))


def _cholesky_proves_psd(M: np.ndarray) -> bool:
    """True where a Cholesky factor of M + s I, s = 1/2 1e-8 max(diag M) > 0, exists; a proof of PSD.

    The computed factor is exact for M + s I + E with |E_ij| <= gamma_(n+1)
    max(diag M + s) (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3), so ||E|| <= n gamma_(n+1) max(diag) and every eigenvalue of M
    is at least -s - ||E||.  That is above -3/4 1e-8 lambda_max, as
    lambda_max >= max(diag M), wherever n (n + 1) eps < 1/2 1e-8: n up to
    about 4,700.  The other quarter covers eigvalsh's own error, about
    n eps lambda_max, so ``require_psd`` would accept too.  False, with no
    factor tried, for a larger n or max(diag M) <= 0.
    """
    n = M.shape[0]
    top = float(M.diagonal().max())
    if not (top > 0 and n * (n + 1) * np.finfo(float).eps < 0.5 * _PSD_REL_TOL):
        return False
    shifted = M.copy()
    shifted.flat[:: n + 1] += 0.5 * _PSD_REL_TOL * top
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def require_psd(evals: np.ndarray) -> None:
    """Raise IndefiniteMatrixError if the ascending ``evals`` of a moment matrix fall below -1e-8 * lambda_max.

    Eigenvalues in [-1e-8 * lambda_max, 0) are rounding noise, which CDKernel clips to zero.
    """
    floor = -_PSD_REL_TOL * max(float(evals[-1]), 0.0)
    if evals[0] < floor:
        raise IndefiniteMatrixError(f"moment matrix has eigenvalue {evals[0]:.3e}, below tolerance {floor:.3e}")


def graph_quadrature_rule(
    spec: BasisSpec, nodes_per_axis: int, breakpoints=None
) -> tuple:
    """Product Gauss-Legendre rule on the x-box of a graph variable z = (x, y).

    ``breakpoints`` (only for p = 2) splits the single x-axis at interior
    points so that piecewise-smooth integrands are handled piece by piece.
    Returns (X, w) with X of shape (n, p-1).
    """
    if spec.p < 2:
        raise ValueError("graph quadrature requires p >= 2")
    cuts = spec.domain[:-1]  # per x-axis, the ends of its Gauss-Legendre pieces
    if breakpoints:
        if spec.p != 2:
            raise ValueError("breakpoints are only supported for a one-dimensional x")
        lo, hi = cuts[0]
        cuts = ([lo] + sorted(float(t) for t in breakpoints if lo < t < hi) + [hi],)
    axes = [gauss_pieces(c, nodes_per_axis) for c in cuts]
    grids = np.meshgrid(*[x.ravel() for x, _ in axes], indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    w = axes[0][1].ravel()
    for _, wk in axes[1:]:
        w = np.multiply.outer(w, wk.ravel()).ravel()
    return X, w


def _weighted_gram(spec: BasisSpec, Z, w=None) -> np.ndarray:
    """sum_k w_k b(z_k) b(z_k)^T over N nodes z_k, with unit weights when w is None.

    Two routes give this sum, and an operation count of the input picks one,
    with no option:

    - the node route (``_node_gram``) accumulates (B * w) @ B.T over
      basis-major (n, block) blocks, so the (N, n) basis is never held whole.  It
      costs about N n^2 multiply-adds.
    - the level route (``_level_gram``) groups the nodes by the exact value
      of y, their last coordinate.  On a level y = c the member (a, j) of
      ``basis.y_layout`` is L_a(x) phi_j(c), so the level adds
      phi_j(c) phi_k(c) G_c[a, b] to M[(a, j), (b, k)], with G_c the level's
      weighted Gram over the n_x-member x-basis.  It costs about N n_x^2
      multiply-adds for the x-Grams, and per level one n x n scatter and a
      dozen numpy calls.

    The level route is taken where N n_x^2 + L (``_SCATTER_COST`` n^2 +
    ``_LEVEL_CALLS``) < N n^2 for L levels; both constants are in node-route
    multiply-adds, measured on one core.  Where not even one level would pay,
    the nodes are not sorted by y.  So the quadrature builds of sign
    and step from d = 13, those of the disk indicators from d = 4, the exact
    disk rule from d = 6 and grid builds of a piecewise-constant f from small
    d take it.  abs, whose y takes N/2 values, random samples of a continuous
    f, the 1-D exact rules (d + 1 nodes per level) and the smaller builds
    keep the node route.  Either route reads the nodes in a fixed order, so
    the sum is the same on every run.
    """
    Z = as_points(spec, Z)
    w = None if w is None else np.asarray(w, dtype=float)
    if spec.p >= 2:
        N, n, n_x = Z.shape[0], spec.size, basis_size(spec.p - 1, spec.d)
        affordable = N * (n * n - n_x**2) / (_SCATTER_COST * n * n + _LEVEL_CALLS)  # levels below the node count
        if affordable > 1:
            order = np.argsort(Z[:, -1], kind="stable")
            y = Z[order, -1]
            ends = np.flatnonzero(y[1:] != y[:-1]) + 1  # a nan is a level of its own
            if ends.size + 1 < affordable:
                return _level_gram(spec, Z, w, order, [0, *ends.tolist(), N])
    return _node_gram(spec, Z, w)


def _node_gram(spec: BasisSpec, Z, w, nodes: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k b(z_k) b(z_k)^T over Z[nodes] (all of Z by default), b read from each node's first p coordinates.

    Blocks of nodes come from ``basis.table_blocks``, and each block's tables
    are freed once they make its basis-major (n, block) basis B, so neither
    the (N, n) basis nor the nodes' coordinates are held whole.
    """
    M = np.zeros((spec.size, spec.size))
    for at, tabs in table_blocks(spec, Z[:, : spec.p], nodes=nodes):
        B = basis_product(spec, tabs)
        del tabs  # free the tables before the product
        M += (B if w is None else B * w[at]) @ B.T
    return M


def _level_gram(spec: BasisSpec, Z, w, order: np.ndarray, ends: list) -> np.ndarray:
    """The weighted Gram of the nodes Z[order], level l holding the positions ends[l]:ends[l + 1].

    Each level's x-Gram G is ``_node_gram`` over ``spec.x_spec()``, phi at
    every level's value c one ``axis_tables`` call on the levels' first nodes.
    G[a_m, a_m'] phi_(j_m)(c) phi_(j_m')(c), over the members m, m' of
    ``basis.y_layout``, is gathered into M for the first level and into T,
    the one n x n temporary added to M, for each later one.
    """
    x_spec, deg, a = spec.x_spec(), spec.indices[:, -1], y_layout(spec.p, spec.d).x_index
    phi = axis_tables(spec, Z[order[ends[:-1]]])[-1]
    M = np.empty((spec.size, spec.size))
    T = np.empty_like(M) if len(ends) > 2 else None
    for level in range(len(ends) - 1):
        G = _node_gram(x_spec, Z, w, order[ends[level] : ends[level + 1]])
        v = phi[level, deg]  # phi_(j_m)(c) for each member m
        out = T if level else M
        # mode "clip" writes straight into out, where "raise" goes through a buffer
        np.take(np.take(G, a, axis=0) * v[:, None], a, axis=1, out=out, mode="clip")
        out *= v
        if level:
            M += T
    return M


def _symmetrized(M: np.ndarray) -> np.ndarray:
    """M overwritten with 0.5 (M + M^T), bit for bit as that expression, and returned.

    numpy reads the overlapping M^T through one buffered copy, the only n x n
    temporary, where the expression itself makes two.
    """
    M += M.T
    M *= 0.5
    return M


def rule_moment_matrix(
    spec: BasisSpec, Z, w, provenance: Provenance, mass: float, note: str = ""
) -> MomentMatrix:
    """Moment matrix sum_k w_k b(z_k) b(z_k)^T of a rule (Z, w) for mu, whose mass is ``mass``.

    The weights may be negative, as in a rule built by adding and subtracting
    measures; the matrix is PSD to rounding whenever the rule is exact for mu.
    The caller states mu's mass, since sum(w) carries the rule's rounding.
    """
    return MomentMatrix(spec, _symmetrized(_weighted_gram(spec, Z, w)), provenance, float(mass), note)


def quadrature_moment_matrix(spec: BasisSpec, f, breakpoints=None, note: str = "") -> MomentMatrix:
    """Moment matrix of the graph measure of f by Gauss-Legendre quadrature.

    mu is the image of Lebesgue measure on the x-box under x -> (x, f(x)), so
    its mass is the x-box volume.
    ``f`` maps an (n, p-1) array to n values.  The max(4d + 4, 32) nodes per
    piece and axis are exact for polynomial f of modest degree; discontinuous
    f needs ``breakpoints``.
    """
    X, w = graph_quadrature_rule(spec, max(4 * spec.d + 4, 32), breakpoints)
    y = np.asarray(f(X), dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValueError("f returned a value count different from the node count")
    Z = np.concatenate([X, y[:, None]], axis=1)
    return rule_moment_matrix(spec, Z, w, Provenance.QUADRATURE, spec.x_spec().domain_volume(), note)


def empirical_moment_matrix(spec: BasisSpec, Z, note: str = "") -> MomentMatrix:
    """Sample-average moment matrix (1/N) sum b(z_k) b(z_k)^T; mass is 1."""
    if np.size(Z) == 0:
        raise ValueError("empirical moment matrix needs at least one sample")
    Z = as_points(spec, Z)
    inside = spec.contains(Z)
    if not np.all(inside):
        warnings.warn(
            f"{int(np.sum(~inside))} of {Z.shape[0]} samples fall outside the domain box",
            RuntimeWarning,
            stacklevel=2,
        )
    M = _weighted_gram(spec, Z)
    M /= Z.shape[0]
    return MomentMatrix(spec, _symmetrized(M), Provenance.EMPIRICAL, 1.0, note)


# --- serialization ---------------------------------------------------------

# The header: each key with the type of its value and its text form for a matrix m.
# A text file has one "key value" line per key, except that the version follows
# the format tag ("cdmoments 1") and the domain is 2p numbers.  A JSON document
# holds the same keys with typed values, the domain as p [lo, hi] pairs, plus
# "format": "cdmoments" and the full matrix as "entries".  Only "note" is optional.
_HEADER = {
    "version": (int, lambda m: str(_FORMAT_VERSION)),
    "p": (int, lambda m: str(m.spec.p)),
    "d": (int, lambda m: str(m.spec.d)),
    "family": (str, lambda m: m.spec.family.value),
    "ordering": (str, lambda m: "grevlex"),
    "domain": (list, lambda m: " ".join(f"{lo!r} {hi!r}" for lo, hi in m.spec.domain)),
    "mass": (float, lambda m: f"{float(m.mass_m):.16e}"),
    "provenance": (str, lambda m: m.provenance.value),
    "note": (str, lambda m: m.note),
}


def save_text(matrix: MomentMatrix, path) -> None:
    """Write the header and lower triangle; reload is bit-exact.

    Each row is formatted by one ``%`` over its entries, the bytes of
    ``format(v, ".16e")`` for each, and written as it is made.  The note is
    one header line, so a note that spans lines or has blanks at either end
    would not reload as written: it raises ValueError.
    """
    note = matrix.note
    if note and (note.splitlines() != [note] or note != note.strip()):
        raise ValueError(f"note {note!r} must be one line with no blanks at either end to reload as written")
    header = "".join(
        f"{_FORMAT_TAG if key == 'version' else key} {text(matrix)}\n"
        for key, (_, text) in _HEADER.items()
        if key != "note" or matrix.note
    )
    M = matrix.entries
    fields = "%.16e " * matrix.n  # row i formats its i + 1 entries with the first 6 i + 5 characters
    with open(path, "w") as fh:
        fh.write(header + "entries lower\n")
        for i in range(matrix.n):
            fh.write(fields[: 6 * i + 5] % tuple(M[i, : i + 1].tolist()) + "\n")


def _parse_header(lines) -> dict:
    """The header fields of a text file's ``lines``, read up to and including the 'entries lower' marker."""
    fields = {}
    for line in lines:
        parts = line.split(None, 1)
        if not parts:
            continue
        key = parts[0]
        if key == "entries":
            if len(parts) != 2 or parts[1].strip() != "lower":
                raise MomentFileError(f"unsupported entries layout: {line.rstrip()!r}")
            return fields
        fields["version" if key == _FORMAT_TAG else key] = parts[1].strip() if len(parts) > 1 else ""
    raise MomentFileError("missing 'entries lower' marker")


def _lower_rows(lines, n: int) -> np.ndarray:
    """The symmetric n x n matrix of a text body whose row i holds M[i, :i + 1]; blank lines are skipped.

    numpy parses each row, so no Python float is made per entry, and each row
    is copied into its column of the upper triangle as it comes, so -0.0 keeps
    its sign.  A bad token, a row of the wrong length and a missing or extra
    row raise MomentFileError.
    """
    try:
        M = np.empty((n, n))
    except MemoryError:
        raise MomentFileError(f"the header's basis of {n} members is too large to hold") from None
    i = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 only warns on unmatched data
        for line in lines:
            if line.isspace():  # fromstring would read a blank line as [-1.0]
                continue
            if i == n:
                raise MomentFileError(f"more than {n} rows of entries")
            try:
                row = np.fromstring(line, sep=" ")
            except (ValueError, DeprecationWarning) as exc:
                raise MomentFileError(f"malformed entries in row {i + 1}: {exc}") from None
            if row.size != i + 1:
                raise MomentFileError(f"row {i + 1} of the entries holds {row.size} values, expected {i + 1}")
            M[i, : i + 1] = row
            M[:i, i] = row[:i]
            i += 1
    if i < n:
        raise MomentFileError(f"expected {n} rows of lower-triangle entries, found {i}")
    return M


def _text_value(key: str, text: str):
    """The typed value of a text header line: the domain's 2p numbers become p pairs."""
    if key == "domain":
        vals = [float(v) for v in text.split()]
        return [vals[i : i + 2] for i in range(0, len(vals), 2)]
    return _HEADER[key][0](text)


def _typed(value, kind, key: str):
    """``value`` as ``kind``; a float field also takes an int, and no field takes a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(f"header field {key!r} holds {type(value).__name__}, expected {kind.__name__}")
    return kind(value)


def _decode(fields: dict, entries, text: bool) -> MomentMatrix:
    """The checked MomentMatrix of a file's header ``fields`` and ``entries``.

    A text file gives its header as strings and its entries as the lines of
    its body, read row by row by ``_lower_rows``; a JSON document gives typed
    values and the full matrix, whose mild asymmetry is symmetrized with a
    warning.  Every fault in the file
    raises MomentFileError, an indefinite matrix IndefiniteMatrixError.
    """
    for key in _HEADER:
        if key not in fields and key != "note":
            raise MomentFileError(f"missing header field {key!r}")
    try:
        h = {
            key: _typed(_text_value(key, fields[key]) if text else fields[key], kind, key)
            for key, (kind, _) in _HEADER.items()
            if key in fields
        }
        if h["version"] != _FORMAT_VERSION:
            raise MomentFileError(f"unsupported format version {h['version']!r}")
        if h["ordering"] != "grevlex":
            raise MomentFileError(f"unsupported ordering {h['ordering']!r}")
        domain = [[_typed(v, float, "domain") for v in pair] for pair in h["domain"]]
        spec = BasisSpec(h["p"], h["d"], Family(h["family"]), domain)  # checks p pairs of lo < hi
        n = spec.size
        if text:
            M = _lower_rows(entries, n)
        else:
            if not all(type(v) in (int, float) for row in entries for v in row):
                raise TypeError("entries must be rows of numbers")
            M = np.asarray(entries, dtype=float)
        out = MomentMatrix(spec, M, Provenance(h["provenance"]), h["mass"], h.get("note", ""))
    except MomentFileError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MomentFileError(f"malformed moment file: {exc}") from exc
    M = out.entries
    if not text and np.any(M != M.T):
        warnings.warn("symmetrizing mildly asymmetric JSON entries", RuntimeWarning, stacklevel=3)
        _symmetrized(M)
    out.check_psd()
    return out


def load_text(path) -> MomentMatrix:
    """Read a text moment matrix; structural errors raise MomentFileError."""
    with open(path) as fh:
        return _decode(_parse_header(fh), fh, text=True)


def load_json(path) -> MomentMatrix:
    """Read a JSON moment document, as other tools write it; see ``_HEADER`` for its keys."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MomentFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_TAG:
        raise MomentFileError("not a moment-matrix document")
    if "entries" not in doc:
        raise MomentFileError("missing 'entries'")
    return _decode(doc, doc["entries"], text=False)


def load(path) -> MomentMatrix:
    """Dispatch on extension: .json for JSON, anything else as text."""
    if str(path).endswith(".json"):
        return load_json(path)
    return load_text(path)
