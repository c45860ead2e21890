"""Moment matrices of measures supported on function graphs, plus file round-trip.

The central object is ``MomentMatrix``: the Gram matrix M[i, j] = int b_i b_j dmu
for a basis b of degree <= d and a positive measure mu on R^p.  Matrices come
from closed-form moments, Gauss-Legendre quadrature along a graph, or plain
sample averages, and can be serialized to a line-oriented text format (lower
triangle, 17 significant digits, bit-exact round trip) or JSON.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .basis import (
    _BLOCK,
    BasisSpec,
    Family,
    axis_tables,
    basis_product,
    gauss_pieces,
    monomial_expansion_matrix,
)
from .errors import IndefiniteMatrixError, MomentFileError

_FORMAT_TAG = "cdmoments"
_FORMAT_VERSION = 1


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
        scale = max(float(np.max(np.abs(M))), 1e-300)
        skew = float(np.max(np.abs(M - M.T)))
        if skew > 1e-6 * scale:
            raise ValueError(f"entries are not symmetric (relative skew {skew / scale:.2e})")
        if self.mass_m <= 0:
            raise ValueError(f"mass_m must be positive, got {self.mass_m}")
        self.entries = M

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def check_psd(self, rel_tol: float = 1e-8) -> None:
        """Raise if the matrix has an eigenvalue below -rel_tol * lambda_max."""
        evals = np.linalg.eigvalsh(self.entries)
        floor = -rel_tol * max(float(evals[-1]), 0.0)
        if evals[0] < floor:
            raise IndefiniteMatrixError(
                f"moment matrix has eigenvalue {evals[0]:.3e}, below tolerance {floor:.3e}"
            )


def _monomial_gram(spec: BasisSpec, moment_fn) -> np.ndarray:
    """Hankel matrix H[i, j] = moment_fn(a_i + a_j), one call per distinct exponent.

    The n^2 exponent sums are sorted by ``np.lexsort`` over their columns and
    grouped where neighbours differ, which needs no combined integer key that
    could overflow.
    """
    idx = spec.indices
    n = spec.size
    sums = (idx[:, None, :] + idx[None, :, :]).reshape(n * n, spec.p)
    order = np.lexsort(sums.T[::-1])
    ordered = sums[order]
    first = np.ones(n * n, dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(n * n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    vals = np.array([float(moment_fn(tuple(a))) for a in ordered[first].tolist()])
    return vals[inverse.reshape(n, n)]


def analytic_moment_matrix(spec: BasisSpec, moment_fn, note: str = "") -> MomentMatrix:
    """Moment matrix from a closed-form monomial moment function.

    ``moment_fn(a)`` must return int z^a dmu(z) for any exponent tuple a of
    length p with total degree <= 2d.  The basis change to an orthonormal
    family is exact up to rounding in the expansion coefficients.
    """
    H = _monomial_gram(spec, moment_fn)
    mass = float(H[0, 0])  # the zero exponent: total mass
    if spec.family is not Family.MONOMIAL_GREVLEX:
        G = monomial_expansion_matrix(spec)
        H = G @ H @ G.T
    H = 0.5 * (H + H.T)
    return MomentMatrix(spec, H, Provenance.ANALYTIC, mass, note)


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
    """sum_k w_k b(z_k) b(z_k)^T, with unit weights when w is None.

    Accumulated over blocks of ``_BLOCK`` points from the per-axis tables, so
    the (N, n) basis is never held whole.  The blocks are fixed, so the sum
    is the same on every run.
    """
    tabs = axis_tables(spec, Z)
    M = np.zeros((spec.size, spec.size))
    for start in range(0, tabs[0].shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        B = basis_product(spec, tabs, rows)
        M += (B if w is None else B * w[rows, None]).T @ B
    return M


def quadrature_moment_matrix(
    spec: BasisSpec,
    f,
    nodes_per_axis: int | None = None,
    breakpoints=None,
    note: str = "",
) -> MomentMatrix:
    """Moment matrix of the graph measure of f by Gauss-Legendre quadrature.

    mu is the image of Lebesgue measure on the x-box under x -> (x, f(x)).
    ``f`` maps an (n, p-1) array to n values.  The default node count is exact
    for polynomial f of modest degree; discontinuous f needs ``breakpoints``.
    """
    if nodes_per_axis is None:
        nodes_per_axis = max(4 * spec.d + 4, 32)
    X, w = graph_quadrature_rule(spec, nodes_per_axis, breakpoints)
    y = np.asarray(f(X), dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValueError("f returned a value count different from the node count")
    M = _weighted_gram(spec, np.concatenate([X, y[:, None]], axis=1), w)
    M = 0.5 * (M + M.T)
    return MomentMatrix(spec, M, Provenance.QUADRATURE, float(np.sum(w)), note)


def empirical_moment_matrix(spec: BasisSpec, Z, note: str = "") -> MomentMatrix:
    """Sample-average moment matrix (1/N) sum b(z_k) b(z_k)^T; mass is 1."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.size == 0:
        raise ValueError("empirical moment matrix needs at least one sample")
    if Z.shape[1] != spec.p:
        raise ValueError(f"samples have dimension {Z.shape[1]}, basis has p={spec.p}")
    inside = spec.contains(Z)
    if not np.all(inside):
        warnings.warn(
            f"{int(np.sum(~inside))} of {Z.shape[0]} samples fall outside the domain box",
            RuntimeWarning,
            stacklevel=2,
        )
    M = _weighted_gram(spec, Z) / Z.shape[0]
    M = 0.5 * (M + M.T)
    return MomentMatrix(spec, M, Provenance.EMPIRICAL, 1.0, note)


def box_moment_fn(spec: BasisSpec):
    """Monomial moments of Lebesgue measure on the full p-dimensional box."""
    box = spec.domain_array()

    def mom(a) -> float:
        out = 1.0
        for (lo, hi), k in zip(box, a):
            out *= (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        return out

    return mom


def reference_moment_matrix(spec: BasisSpec) -> MomentMatrix:
    """Moment matrix of the reference measure mu0 = Lebesgue on the box.

    For the orthonormal Legendre family this is the identity, which is what
    makes a plain beta * I shift equivalent to mixing in beta * mu0.
    """
    M = analytic_moment_matrix(spec, box_moment_fn(spec), note="reference measure")
    if spec.family is Family.LEGENDRE_ORTHONORMAL:
        err = float(np.max(np.abs(M.entries - np.eye(spec.size))))
        if err > 1e-8:
            raise ArithmeticError(f"orthonormality defect {err:.2e} in reference matrix")
    return M


# --- serialization ---------------------------------------------------------


def _format_entry(v: float) -> str:
    return format(float(v), ".16e")


def save_text(matrix: MomentMatrix, path) -> None:
    """Write the header and lower triangle; reload is bit-exact."""
    spec = matrix.spec
    lines = [
        f"{_FORMAT_TAG} {_FORMAT_VERSION}",
        f"p {spec.p}",
        f"d {spec.d}",
        f"family {spec.family.value}",
        "ordering grevlex",
        "domain " + " ".join(f"{lo!r} {hi!r}" for lo, hi in spec.domain),
        f"mass {_format_entry(matrix.mass_m)}",
        f"provenance {matrix.provenance.value}",
    ]
    if matrix.note:
        lines.append(f"note {matrix.note}")
    lines.append("entries lower")
    M = matrix.entries
    for i in range(matrix.n):
        lines.append(" ".join(_format_entry(M[i, j]) for j in range(i + 1)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(lines) -> tuple:
    fields = {}
    body_start = None
    for k, line in enumerate(lines):
        parts = line.split(None, 1)
        if not parts:
            continue
        key = parts[0]
        if key == "entries":
            if len(parts) != 2 or parts[1].strip() != "lower":
                raise MomentFileError(f"unsupported entries layout: {line!r}")
            body_start = k + 1
            break
        fields[key] = parts[1].strip() if len(parts) > 1 else ""
    if body_start is None:
        raise MomentFileError("missing 'entries lower' marker")
    return fields, body_start


def _spec_from_fields(fields: dict) -> tuple:
    for key in (_FORMAT_TAG, "p", "d", "family", "ordering", "domain", "mass", "provenance"):
        if key not in fields:
            raise MomentFileError(f"missing header field {key!r}")
    if fields[_FORMAT_TAG].split()[0] != str(_FORMAT_VERSION):
        raise MomentFileError(f"unsupported format version {fields[_FORMAT_TAG]!r}")
    if fields["ordering"] != "grevlex":
        raise MomentFileError(f"unsupported ordering {fields['ordering']!r}")
    try:
        p = int(fields["p"])
        d = int(fields["d"])
        dom_vals = [float(v) for v in fields["domain"].split()]
        mass = float(fields["mass"])
        family = Family(fields["family"])
        provenance = Provenance(fields["provenance"])
    except (ValueError, KeyError) as exc:
        raise MomentFileError(f"malformed header field: {exc}") from exc
    if len(dom_vals) != 2 * p:
        raise MomentFileError(f"domain lists {len(dom_vals)} numbers, expected {2 * p}")
    domain = tuple((dom_vals[2 * i], dom_vals[2 * i + 1]) for i in range(p))
    try:
        spec = BasisSpec(p, d, family, domain)
    except (ValueError, OverflowError) as exc:
        raise MomentFileError(f"invalid basis parameters: {exc}") from exc
    return spec, mass, provenance, fields.get("note", "")


def load_text(path) -> MomentMatrix:
    """Read a text moment matrix; structural errors raise MomentFileError."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields, body_start = _parse_header(lines)
    spec, mass, provenance, note = _spec_from_fields(fields)
    body = " ".join(lines[body_start:]).split()
    n = spec.size
    expected = n * (n + 1) // 2
    if len(body) != expected:
        raise MomentFileError(f"expected {expected} lower-triangle entries, found {len(body)}")
    try:
        vals = np.array([float(v) for v in body])
    except ValueError as exc:
        raise MomentFileError(f"non-numeric entry: {exc}") from exc
    M = np.zeros((n, n))
    M[np.tril_indices(n)] = vals
    M = M + np.tril(M, -1).T
    try:
        out = MomentMatrix(spec, M, provenance, mass, note)
    except ValueError as exc:
        raise MomentFileError(str(exc)) from exc
    out.check_psd()
    return out


def save_json(matrix: MomentMatrix, path) -> None:
    spec = matrix.spec
    doc = {
        "format": _FORMAT_TAG,
        "version": _FORMAT_VERSION,
        "p": spec.p,
        "d": spec.d,
        "family": spec.family.value,
        "ordering": "grevlex",
        "domain": [[lo, hi] for lo, hi in spec.domain],
        "mass": matrix.mass_m,
        "provenance": matrix.provenance.value,
        "note": matrix.note,
        "entries": [[float(v) for v in row] for row in matrix.entries],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_json(path) -> MomentMatrix:
    """Read the JSON variant; a full matrix with mild asymmetry is symmetrized."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MomentFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_TAG:
        raise MomentFileError("not a moment-matrix document")
    fields = {
        _FORMAT_TAG: str(doc.get("version")),
        "p": str(doc.get("p")),
        "d": str(doc.get("d")),
        "family": str(doc.get("family")),
        "ordering": str(doc.get("ordering")),
        "domain": " ".join(str(v) for pair in doc.get("domain", []) for v in pair),
        "mass": str(doc.get("mass")),
        "provenance": str(doc.get("provenance")),
        "note": str(doc.get("note", "")),
    }
    spec, mass, provenance, note = _spec_from_fields(fields)
    M = np.asarray(doc.get("entries"), dtype=float)
    if M.shape != (spec.size, spec.size):
        raise MomentFileError(f"entries have shape {M.shape}, expected square of size {spec.size}")
    scale = max(float(np.max(np.abs(M))), 1e-300)
    skew = float(np.max(np.abs(M - M.T)))
    if skew > 1e-6 * scale:
        raise MomentFileError(f"entries are not symmetric (relative skew {skew / scale:.2e})")
    if skew > 0.0:
        warnings.warn("symmetrizing mildly asymmetric JSON entries", RuntimeWarning, stacklevel=2)
        M = 0.5 * (M + M.T)
    out = MomentMatrix(spec, M, provenance, mass, note)
    out.check_psd()
    return out


def load(path) -> MomentMatrix:
    """Dispatch on extension: .json for JSON, anything else as text."""
    if str(path).endswith(".json"):
        return load_json(path)
    return load_text(path)
