"""Moment matrix construction and file round-trips."""

import itertools
import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from moment_oracle import closed_form, hankel, orthonormal_entry

from cdapprox.basis import _BLOCK, BasisSpec, Family, eval_basis_batch, gauss_pieces, leggauss
from cdapprox.benchmarks import get_benchmark
from cdapprox.errors import IndefiniteMatrixError, MomentFileError
from cdapprox.moments import (
    MomentMatrix,
    Provenance,
    empirical_moment_matrix,
    graph_quadrature_rule,
    load,
    load_json,
    load_text,
    quadrature_moment_matrix,
    rule_moment_matrix,
    save_text,
)


def test_moment_matrix_validation():
    spec = BasisSpec(2, 1)
    with pytest.raises(ValueError, match="shape"):
        MomentMatrix(spec, np.eye(4), Provenance.ANALYTIC, 1.0)
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        MomentMatrix(spec, bad, Provenance.ANALYTIC, 1.0)
    with pytest.raises(ValueError, match="mass"):
        MomentMatrix(spec, np.eye(3), Provenance.ANALYTIC, 0.0)
    # nan compares False in the skew and mass tests, so it must be refused on its own
    for v in (math.nan, math.inf, -math.inf):
        spoiled = np.eye(3)
        spoiled[1, 1] = v
        with pytest.raises(ValueError, match="non-finite"):
            MomentMatrix(spec, spoiled, Provenance.ANALYTIC, 1.0)
        with pytest.raises(ValueError, match="finite"):
            MomentMatrix(spec, np.eye(3), Provenance.ANALYTIC, v)


def test_check_psd():
    spec = BasisSpec(2, 1)
    MomentMatrix(spec, np.eye(3), Provenance.ANALYTIC, 1.0).check_psd()
    M = np.diag([1.0, 1.0, -1e-3])
    mm = MomentMatrix(spec, M, Provenance.EMPIRICAL, 1.0)
    assert np.linalg.eigvalsh(mm.entries)[0] == pytest.approx(-1e-3)
    with pytest.raises(IndefiniteMatrixError):
        mm.check_psd()
    # tiny negative eigenvalues are rounding noise, not rejected
    MomentMatrix(spec, np.diag([1.0, 1.0, -1e-10]), Provenance.EMPIRICAL, 1.0).check_psd()


def _box_rule(spec, nodes):
    """Tensor Gauss-Legendre rule on the whole box of ``spec``, exact to degree 2 nodes - 1 per axis."""
    axes = [gauss_pieces(ab, nodes) for ab in spec.domain]
    Z = np.stack([g.ravel() for g in np.meshgrid(*[x.ravel() for x, _ in axes], indexing="ij")], axis=1)
    w = np.prod(np.meshgrid(*[wk.ravel() for _, wk in axes], indexing="ij"), axis=0).ravel()
    return Z, w


def test_box_rule_gives_the_identity_for_the_orthonormal_family():
    for domain in (None, ((0.0, 2.0), (-3.0, 1.0))):
        spec = BasisSpec(2, 4, domain=domain)
        ref = rule_moment_matrix(spec, *_box_rule(spec, 5), Provenance.ANALYTIC, spec.domain_volume())
        np.testing.assert_allclose(ref.entries, np.eye(spec.size), atol=1e-10)
        assert ref.mass_m == pytest.approx(spec.domain_volume())


def test_box_rule_monomial_family():
    # 1D monomial moments of Lebesgue on [-1,1]: int x^(i+j) dx
    spec = BasisSpec(1, 2, family=Family.MONOMIAL_GREVLEX)
    ref = rule_moment_matrix(spec, *_box_rule(spec, 3), Provenance.ANALYTIC, 2.0)
    expected = np.array([[2, 0, 2 / 3], [0, 2 / 3, 0], [2 / 3, 0, 2 / 5]])
    np.testing.assert_allclose(ref.entries, expected, rtol=1e-14, atol=1e-15)


def test_quadrature_is_exact_for_a_polynomial_graph():
    # f is a polynomial, so Gauss-Legendre integrates every entry exactly; the
    # reference is the closed-form moments, changed to the orthonormal basis in 40 digits
    def f(X):
        return X[:, 0] ** 2 - 0.3

    def graph_moment(a1, a2):
        c = mpmath.mpf(-0.3)  # the binary number f subtracts
        return mpmath.fsum(
            math.comb(a2, k) * c ** (a2 - k) * mpmath.mpf(1 + (-1) ** a1) / (a1 + 2 * k + 1) for k in range(a2 + 1)
        )

    moment = closed_form(graph_moment)
    for family in Family:
        spec = BasisSpec(2, 3, family=family)
        Mq = quadrature_moment_matrix(spec, f)
        if family is Family.MONOMIAL_GREVLEX:
            ref = hankel(moment, spec)
        else:
            pairs = itertools.product(range(spec.size), repeat=2)
            ref = np.array([float(orthonormal_entry(moment, spec, i, j)) for i, j in pairs]).reshape(Mq.entries.shape)
        np.testing.assert_allclose(Mq.entries, ref, rtol=0, atol=1e-13)
        assert Mq.mass_m == pytest.approx(2.0)
        assert Mq.provenance is Provenance.QUADRATURE


def test_graph_quadrature_rule_breakpoints():
    spec = BasisSpec(2, 2)
    X, w = graph_quadrature_rule(spec, 8, breakpoints=(0.0,))
    assert X.shape == (16, 1)
    assert w.sum() == pytest.approx(2.0)
    # piecewise rule integrates |x| exactly
    assert float(w @ np.abs(X[:, 0])) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        graph_quadrature_rule(BasisSpec(3, 2), 4, breakpoints=(0.0,))
    with pytest.raises(ValueError):
        graph_quadrature_rule(BasisSpec(1, 2), 4)


def test_quadrature_rule_p3_weights():
    spec = BasisSpec(3, 2)
    X, w = graph_quadrature_rule(spec, 5)
    assert X.shape == (25, 2)
    assert w.sum() == pytest.approx(4.0)


def test_empirical_matrix_basics():
    spec = BasisSpec(2, 2)
    rng = np.random.default_rng(3)
    Z = rng.uniform(-1, 1, size=(500, 2))
    M = empirical_moment_matrix(spec, Z)
    assert M.provenance is Provenance.EMPIRICAL
    assert M.mass_m == 1.0
    M.check_psd()
    with pytest.raises(ValueError):
        empirical_moment_matrix(spec, np.empty((0, 2)))
    with pytest.warns(RuntimeWarning, match="outside"):
        empirical_moment_matrix(spec, np.array([[0.0, 0.0], [2.0, 0.0]]))


def test_empirical_matrix_converges_to_analytic():
    # midpoint-grid averages of the sign graph; the jump limits the rate to
    # O(1/N), so a tenfold N should cut the error well below 0.6x
    from cdapprox.benchmarks import get_benchmark

    bench = get_benchmark("sign")
    exact = bench.moment_matrix(3).entries / 2.0
    errs = []
    for N in (1000, 10_000):
        M = bench.moment_matrix(3, mode="empirical", grid=N)
        errs.append(float(np.max(np.abs(M.entries - exact))))
    assert errs[1] <= 0.6 * errs[0]


@pytest.mark.parametrize(
    "name,mode,size",
    [("disk1", "empirical", 100), ("sign", "empirical", 2 * _BLOCK + 3), ("disk1", "quad", 40), ("sign", "quad", 600)],
)
def test_blocked_builds_match_one_shot_reference(name, mode, size):
    bench = get_benchmark(name)
    spec = bench.spec(8)
    if mode == "quad":
        breaks = bench.jumps if bench.p == 2 else None
        X, w = graph_quadrature_rule(spec, size, breaks)
        M = quadrature_moment_matrix(spec, bench.f, size, breakpoints=breaks)
    else:
        X = bench.grid_x(size)
        w = np.full(X.shape[0], 1.0 / X.shape[0])
        M = bench.moment_matrix(8, mode="empirical", grid=size)
    assert X.shape[0] > _BLOCK  # several blocks, the last one partial
    B = eval_basis_batch(spec, bench.graph_points(X))
    ref = B.T @ (w[:, None] * B)
    np.testing.assert_allclose(M.entries, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_empirical_build_memory_stays_below_the_whole_basis():
    # blocked accumulation never holds the (N, n) basis; no timing is asserted
    bench = get_benchmark("disk1")
    spec = bench.spec(8)
    Z = bench.graph_points(bench.grid_x(100))
    whole = Z.shape[0] * spec.size * 8
    tracemalloc.start()
    try:
        empirical_moment_matrix(spec, Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole


def test_cached_gauss_rule_is_shared_and_read_only():
    u, w = leggauss(9)
    ref_u, ref_w = np.polynomial.legendre.leggauss(9)
    assert np.array_equal(u, ref_u) and np.array_equal(w, ref_w)
    assert leggauss(9)[0] is u
    for a in (u, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
    bench = get_benchmark("step")
    first = bench.moment_matrix(8, mode="quad")
    assert np.array_equal(first.entries, bench.moment_matrix(8, mode="quad").entries)


@pytest.mark.parametrize("note", ["two\nlines", "two\r\nlines", "trailing\n", "  padded  ", "padded ", "\tpadded"])
def test_save_text_rejects_notes_that_do_not_reload(tmp_path, note):
    # such a note used to reload cut at its first line break, or stripped
    M = MomentMatrix(BasisSpec(1, 1), np.eye(2), Provenance.FILE, 1.0, note=note)
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="note"):
        save_text(M, path)
    assert not path.exists()


@pytest.mark.parametrize("note", ["one line", "with  inner   blanks", "x"])
def test_save_text_keeps_one_line_notes(tmp_path, note):
    path = tmp_path / "m.txt"
    save_text(MomentMatrix(BasisSpec(1, 1), np.eye(2), Provenance.FILE, 1.0, note=note), path)
    assert load_text(path).note == note


def test_text_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    spec = BasisSpec(2, 3, domain=((-1.0, 1.0), (-0.25, 1.75)))
    B = rng.normal(size=(40, spec.size))
    M = MomentMatrix(spec, B.T @ B / 40, Provenance.EMPIRICAL, 1.0, note="round trip")
    path = tmp_path / "m.txt"
    save_text(M, path)
    back = load_text(path)
    assert np.array_equal(back.entries, M.entries)
    assert back.mass_m == M.mass_m
    assert back.spec == M.spec
    assert back.provenance is Provenance.EMPIRICAL
    assert back.note == "round trip"
    # a second save writes the identical bytes
    path2 = tmp_path / "m2.txt"
    save_text(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_text_entries_match_the_per_entry_formatter(tmp_path):
    # each row is formatted from one tolist() call; the bytes are those
    # of format(float(M[i, j]), ".16e") entry by entry, at signed zero,
    # subnormal and near-overflow values too, and the reload keeps the sign of -0.0
    spec = BasisSpec(2, 2)
    A = np.random.default_rng(5).normal(size=(spec.size, spec.size))
    A[1, 0], A[2, 1], A[3, 3], A[4, 2], A[5, 0] = -0.0, 5e-324, 1e308, -2.2e-310, 0.0
    A = np.where(np.tri(spec.size, dtype=bool), A, A.T)
    M = MomentMatrix(spec, A, Provenance.EMPIRICAL, 2.5)
    path = tmp_path / "m.txt"
    save_text(M, path)
    lines = path.read_text().splitlines()
    start = lines.index("entries lower") + 1
    assert "mass " + format(float(M.mass_m), ".16e") in lines[:start]
    expected = [" ".join(format(float(A[i, j]), ".16e") for j in range(i + 1)) for i in range(spec.size)]
    assert lines[start:] == expected and "-0.0000000000000000e+00" in lines[start + 1]
    back = load_text(path).entries
    assert np.array_equal(back, A) and np.array_equal(np.signbit(back), np.signbit(A))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_text_round_trip_property(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    spec = BasisSpec(2, 2)
    B = rng.normal(size=(12, spec.size))
    M = MomentMatrix(spec, B.T @ B / 12, Provenance.EMPIRICAL, 1.0)
    path = tmp_path_factory.mktemp("rt") / "m.txt"
    save_text(M, path)
    assert np.array_equal(load_text(path).entries, M.entries)


def json_doc(M: MomentMatrix) -> dict:
    """A JSON moment document built by hand, sharing no code with the loader."""
    spec = M.spec
    return {
        "format": "cdmoments",
        "version": 1,
        "p": spec.p,
        "d": spec.d,
        "family": spec.family.value,
        "ordering": "grevlex",
        "domain": [[lo, hi] for lo, hi in spec.domain],
        "mass": M.mass_m,
        "provenance": M.provenance.value,
        "note": M.note,
        "entries": M.entries.tolist(),
    }


def test_json_round_trip(tmp_path):
    M = get_benchmark("sign").moment_matrix(2)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(json_doc(M)))
    back = load_json(path)
    np.testing.assert_array_equal(back.entries, M.entries)
    assert back.spec == M.spec
    assert back.mass_m == M.mass_m


def test_json_symmetrizes_mild_skew(tmp_path):
    spec = BasisSpec(2, 1)
    doc = json_doc(MomentMatrix(spec, np.eye(3), Provenance.ANALYTIC, 2.0))
    path = tmp_path / "m.json"
    doc["entries"][0][1] = 1e-8
    path.write_text(json.dumps(doc))
    with pytest.warns(RuntimeWarning, match="symmetrizing"):
        back = load_json(path)
    assert back.entries[0, 1] == pytest.approx(5e-9)
    doc["entries"][0][1] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(MomentFileError, match="symmetric"):
        load_json(path)


def test_loaders_reject_structural_errors(tmp_path):
    from cdapprox.benchmarks import get_benchmark

    M = get_benchmark("sign").moment_matrix(2)
    path = tmp_path / "m.txt"
    save_text(M, path)
    text = path.read_text()

    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("ordering grevlex", "ordering lex"))
    with pytest.raises(MomentFileError, match="ordering"):
        load_text(bad)

    bad.write_text(text.replace("family legendre-orthonormal", "family chebyshev"))
    with pytest.raises(MomentFileError, match="malformed"):
        load_text(bad)

    bad.write_text(text.replace("cdmoments 1", "cdmoments 9"))
    with pytest.raises(MomentFileError, match="version"):
        load_text(bad)

    bad.write_text(text.replace("cdmoments 1", "cdmoments"))  # used to escape as IndexError
    with pytest.raises(MomentFileError, match="malformed"):
        load_text(bad)

    lines = text.splitlines()
    bad.write_text("\n".join(lines[:-1]) + "\n")  # drop one entry row
    with pytest.raises(MomentFileError, match="entries"):
        load_text(bad)

    bad.write_text(text.replace("entries lower", "entries upper"))
    with pytest.raises(MomentFileError, match="layout"):
        load_text(bad)

    with pytest.raises(MomentFileError, match="JSON"):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        load_json(bad_json)


@pytest.mark.parametrize("suffix", [".txt", ".json"])
@pytest.mark.parametrize("field,value", [("entry", "nan"), ("entry", "inf"), ("mass", "nan")])
def test_loaders_reject_non_finite_entries_and_mass(tmp_path, suffix, field, value):
    # such files used to load: a nan or inf entry then failed in the eigensolver
    # as a numerical error, and a nan mass passed every check
    path = tmp_path / f"m{suffix}"
    M = get_benchmark("sign").moment_matrix(2)
    if suffix == ".json":
        doc = json_doc(M)
        if field == "mass":
            doc["mass"] = float(value)
        else:
            doc["entries"][-1][-1] = float(value)
        path.write_text(json.dumps(doc))
    else:
        save_text(M, path)
        lines = path.read_text().splitlines()
        if field == "mass":
            lines = [f"mass {value}" if line.startswith("mass ") else line for line in lines]
        else:
            lines[-1] = " ".join(lines[-1].split()[:-1] + [value])
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MomentFileError, match="finite"):
        load(path)


def test_load_rejects_indefinite_file(tmp_path):
    spec = BasisSpec(2, 1)
    M = MomentMatrix(spec, np.diag([1.0, 1.0, -0.5]), Provenance.FILE, 1.0)
    path = tmp_path / "m.txt"
    save_text(M, path)
    with pytest.raises(IndefiniteMatrixError):
        load_text(path)


def test_load_dispatches_on_extension(tmp_path):
    # a hand-written JSON document and the text file of one matrix load to the same bits
    M = get_benchmark("disk1").moment_matrix(3, mode="empirical", grid=9)
    t, j = tmp_path / "m.txt", tmp_path / "m.json"
    save_text(M, t)
    j.write_text(json.dumps(json_doc(M), indent=1))
    a, b = load(t), load(j)
    assert a.entries.tobytes() == b.entries.tobytes() == M.entries.tobytes()
    assert a.spec == b.spec == M.spec
    assert a.mass_m == b.mass_m == M.mass_m
    assert a.provenance is b.provenance is Provenance.EMPIRICAL
    assert a.note == b.note == "disk1"


@pytest.mark.parametrize(
    "key,value",
    [
        ("entries", {"a": 1}),
        ("entries", [[1.0, 0.0], [0.0]]),
        ("entries", [["1", "0", "0"]] * 3),
        ("entries", [[True, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ("entries", None),
        ("domain", 3),
        ("domain", [[-1.0, 1.0], [-1.0]]),
        ("domain", [[-1.0, 1.0]]),
        ("domain", [["-1", "1"], ["-1", "1"]]),
        ("p", "2"),
        ("p", 2.0),
        ("d", True),
        ("mass", "2.0"),
        ("version", True),
        ("family", 3),
        ("provenance", None),
        ("note", None),
        ("note", 7),
    ],
)
def test_json_loader_rejects_wrong_value_types(tmp_path, key, value):
    # the loader used to pass each value through str() and the text parser: a dict of
    # entries or an int domain escaped as TypeError, and strings for numbers or a null note loaded
    doc = json_doc(MomentMatrix(BasisSpec(2, 1), np.eye(3), Provenance.ANALYTIC, 4.0))
    doc[key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MomentFileError):
        load(path)


@pytest.mark.parametrize("key", ["version", "p", "domain", "mass", "entries"])
def test_json_loader_rejects_missing_keys(tmp_path, key):
    doc = json_doc(MomentMatrix(BasisSpec(2, 1), np.eye(3), Provenance.ANALYTIC, 4.0))
    del doc[key]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MomentFileError, match="missing"):
        load(path)
