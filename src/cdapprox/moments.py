"""Moment matrices of measures supported on function graphs, plus their file formats.

The central object is ``MomentMatrix``: the Gram matrix M[i, j] = int b_i b_j dmu
for a basis b of degree <= d and a positive measure mu on R^p.  Matrices come
from a weighted rule (Z, w) on the graph, either exact for the degree or a
Gauss-Legendre quadrature along it, or from plain sample averages; every route
accumulates the same blocked Gram sum.  ``save_text`` writes a line-oriented
text format (lower triangle, 17 significant digits, bit-exact round trip).
``load`` reads it, or a JSON document of the same header with the full matrix,
as written by other tools; both go through one decoder, so any malformed file
raises MomentFileError.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import BasisSpec, Family, basis_blocks, gauss_pieces
from .errors import IndefiniteMatrixError, MomentFileError

_FORMAT_TAG = "cdmoments"
_FORMAT_VERSION = 1
_PSD_REL_TOL = 1e-8


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
        if not np.isfinite(M).all():
            raise ValueError("entries contain non-finite values")
        scale = max(float(np.max(np.abs(M))), 1e-300)
        skew = float(np.max(np.abs(M - M.T)))
        if skew > 1e-6 * scale:
            raise ValueError(f"entries are not symmetric (relative skew {skew / scale:.2e})")
        if not (math.isfinite(self.mass_m) and self.mass_m > 0):
            raise ValueError(f"mass_m must be positive and finite, got {self.mass_m}")
        self.entries = M

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def check_psd(self) -> None:
        """Raise if the matrix has an eigenvalue below -1e-8 * lambda_max."""
        require_psd(np.linalg.eigvalsh(self.entries))


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
    """sum_k w_k b(z_k) b(z_k)^T, with unit weights when w is None.

    Accumulated as (B * w) @ B.T over the basis-major (n, block) blocks of
    ``basis_blocks``, so the (N, n) basis is never held whole.  The blocks are
    fixed, so the sum is the same on every run.
    """
    M = np.zeros((spec.size, spec.size))
    for rows, B in basis_blocks(spec, Z):
        M += (B if w is None else B * w[rows]) @ B.T
    return M


def rule_moment_matrix(
    spec: BasisSpec, Z, w, provenance: Provenance, mass: float, note: str = ""
) -> MomentMatrix:
    """Moment matrix sum_k w_k b(z_k) b(z_k)^T of a rule (Z, w) for mu, whose mass is ``mass``.

    The weights may be negative, as in a rule built by adding and subtracting
    measures; the matrix is PSD to rounding whenever the rule is exact for mu.
    The caller states mu's mass, since sum(w) carries the rule's rounding.
    """
    M = _weighted_gram(spec, Z, w)
    return MomentMatrix(spec, 0.5 * (M + M.T), provenance, float(mass), note)


def quadrature_moment_matrix(
    spec: BasisSpec,
    f,
    nodes_per_axis: int | None = None,
    breakpoints=None,
    note: str = "",
) -> MomentMatrix:
    """Moment matrix of the graph measure of f by Gauss-Legendre quadrature.

    mu is the image of Lebesgue measure on the x-box under x -> (x, f(x)), so
    its mass is the x-box volume.
    ``f`` maps an (n, p-1) array to n values.  The default node count is exact
    for polynomial f of modest degree; discontinuous f needs ``breakpoints``.
    """
    if nodes_per_axis is None:
        nodes_per_axis = max(4 * spec.d + 4, 32)
    X, w = graph_quadrature_rule(spec, nodes_per_axis, breakpoints)
    y = np.asarray(f(X), dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValueError("f returned a value count different from the node count")
    Z = np.concatenate([X, y[:, None]], axis=1)
    return rule_moment_matrix(spec, Z, w, Provenance.QUADRATURE, spec.x_spec().domain_volume(), note)


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

    The note is one header line, so a note that spans lines or has blanks at
    either end would not reload as written: it raises ValueError.
    """
    note = matrix.note
    if note and (note.splitlines() != [note] or note != note.strip()):
        raise ValueError(f"note {note!r} must be one line with no blanks at either end to reload as written")
    lines = [
        f"{_FORMAT_TAG if key == 'version' else key} {text(matrix)}"
        for key, (_, text) in _HEADER.items()
        if key != "note" or matrix.note
    ]
    lines.append("entries lower")
    M = matrix.entries
    for i in range(matrix.n):
        lines.append(" ".join([format(v, ".16e") for v in M[i, : i + 1].tolist()]))
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
        fields["version" if key == _FORMAT_TAG else key] = parts[1].strip() if len(parts) > 1 else ""
    if body_start is None:
        raise MomentFileError("missing 'entries lower' marker")
    return fields, body_start


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

    A text file gives its header as strings and its entries as the flat lower
    triangle; a JSON document gives typed values and the full matrix, whose
    mild asymmetry is symmetrized with a warning.  Every fault in the file
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
            if len(entries) != n * (n + 1) // 2:
                raise MomentFileError(f"expected {n * (n + 1) // 2} lower-triangle entries, found {len(entries)}")
            M = np.zeros((n, n))
            M[np.tril_indices(n)] = np.array([float(v) for v in entries])
            M = np.where(np.tri(n, dtype=bool), M, M.T)  # a copy, not a sum, so -0.0 keeps its sign
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
        out.entries = 0.5 * (M + M.T)
    out.check_psd()
    return out


def load_text(path) -> MomentMatrix:
    """Read a text moment matrix; structural errors raise MomentFileError."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields, body_start = _parse_header(lines)
    return _decode(fields, " ".join(lines[body_start:]).split(), text=True)


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
