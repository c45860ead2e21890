"""Moment matrix construction and file round-trips."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdapprox.basis import (
    _BLOCK,
    BasisSpec,
    Family,
    _axis_expansion,
    basis_size,
    eval_basis_batch,
    leggauss,
    monomial_expansion_matrix,
)
from cdapprox.benchmarks import get_benchmark
from cdapprox.errors import IndefiniteMatrixError, MomentFileError
from cdapprox.moments import (
    MomentMatrix,
    Provenance,
    analytic_moment_matrix,
    box_moment_fn,
    empirical_moment_matrix,
    graph_quadrature_rule,
    load,
    load_json,
    load_text,
    quadrature_moment_matrix,
    reference_moment_matrix,
    save_json,
    save_text,
)


def test_box_moment_fn_matches_product_formula():
    spec = BasisSpec(2, 3, domain=((0.0, 2.0), (-1.0, 1.0)))
    mom = box_moment_fn(spec)
    for a in [(0, 0), (1, 0), (2, 1), (3, 2), (0, 4)]:
        expected = (2.0 ** (a[0] + 1) / (a[0] + 1)) * (
            (1.0 - (-1.0) ** (a[1] + 1)) / (a[1] + 1)
        )
        assert mom(a) == pytest.approx(expected, rel=1e-14)


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


def test_reference_matrix_is_identity_for_orthonormal_family():
    for domain in (None, ((0.0, 2.0), (-3.0, 1.0))):
        spec = BasisSpec(2, 4, domain=domain)
        ref = reference_moment_matrix(spec)
        np.testing.assert_allclose(ref.entries, np.eye(spec.size), atol=1e-10)
        assert ref.mass_m == pytest.approx(spec.domain_volume())


def test_reference_matrix_monomial_family():
    # 1D monomial moments of Lebesgue on [-1,1]: int x^(i+j) dx
    spec = BasisSpec(1, 2, family=Family.MONOMIAL_GREVLEX)
    ref = reference_moment_matrix(spec)
    expected = np.array([[2, 0, 2 / 3], [0, 2 / 3, 0], [2 / 3, 0, 2 / 5]])
    np.testing.assert_allclose(ref.entries, expected, rtol=1e-14)


def test_analytic_agrees_with_quadrature_for_polynomial_graph():
    # f is a polynomial, so Gauss-Legendre integrates every entry exactly
    def f(X):
        return X[:, 0] ** 2 - 0.3

    def moment(a):
        poly = np.polynomial.polynomial.polypow([-0.3, 0.0, 1.0], a[1])
        shifted = np.zeros(len(poly) + a[0])
        shifted[a[0] :] = poly
        integ = np.polynomial.polynomial.polyint(shifted)
        return np.polynomial.polynomial.polyval(1.0, integ) - np.polynomial.polynomial.polyval(
            -1.0, integ
        )

    for family in Family:
        spec = BasisSpec(2, 3, family=family)
        Ma = analytic_moment_matrix(spec, moment)
        Mq = quadrature_moment_matrix(spec, f)
        np.testing.assert_allclose(Ma.entries, Mq.entries, atol=1e-10)
        assert Ma.mass_m == pytest.approx(2.0)
        assert Mq.mass_m == pytest.approx(2.0)
        assert Ma.provenance is Provenance.ANALYTIC
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
    spec = bench.spec(3)
    exact = analytic_moment_matrix(spec, bench.moment_fn).entries / 2.0
    errs = []
    for N in (1000, 10_000):
        M = bench.moment_matrix(3, mode="empirical", grid=N)
        errs.append(float(np.max(np.abs(M.entries - exact))))
    assert errs[1] <= 0.6 * errs[0]


def _loop_expansion(spec):
    """Reference: the per-entry loop over nonzero axis coefficients that the table product replaced."""
    n = spec.size
    G = np.zeros((n, n))
    if spec.family is Family.MONOMIAL_GREVLEX:
        np.fill_diagonal(G, 1.0)
        return G
    pos = {tuple(a): i for i, a in enumerate(spec.indices.tolist())}
    axes = [_axis_expansion(spec.d, lo, hi) for lo, hi in spec.domain]
    for i, a in enumerate(spec.indices):
        terms = [np.nonzero(axes[k][a[k]])[0] for k in range(spec.p)]
        for c in itertools.product(*terms):
            G[i, pos[c]] = math.prod(axes[k][a[k], c[k]] for k in range(spec.p))
    return G


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("p,d", [(1, 12), (2, 8), (3, 6)])
def test_monomial_expansion_matrix_is_bit_identical_to_the_per_entry_loop(p, d, family):
    spec = BasisSpec(p, d, family=family, domain=((-0.5, 2.0), (0.0, 3.0), (-2.0, -1.0))[:p])
    G, ref = monomial_expansion_matrix(spec), _loop_expansion(spec)
    assert np.array_equal(G, ref)
    assert G.tobytes() == ref.tobytes()  # zeros carry the loop's sign too


def _loop_analytic(spec, moment_fn):
    """Reference: the per-pair double loop with a dict cache that the one-pass assembly replaced."""
    idx = spec.indices
    cache = {}

    def mom(a):
        key = tuple(int(v) for v in a)
        if key not in cache:
            cache[key] = float(moment_fn(key))
        return cache[key]

    n = spec.size
    H = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            H[i, j] = H[j, i] = mom(idx[i] + idx[j])
    if spec.family is not Family.MONOMIAL_GREVLEX:
        G = _loop_expansion(spec)
        H = G @ H @ G.T
    return 0.5 * (H + H.T), float(moment_fn((0,) * spec.p))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("name,p", [("box", 1), ("box", 2), ("box", 3), ("sign", 2), ("step", 2), ("disk1", 3)])
def test_one_pass_hankel_is_bit_identical_to_the_double_loop(name, p, family):
    if name == "box":
        spec = BasisSpec(p, 6, family=family, domain=((-0.5, 2.0), (-1.0, 1.0), (0.0, 3.0))[:p])
        M = reference_moment_matrix(spec)
        H, mass = _loop_analytic(spec, box_moment_fn(spec))
    else:
        bench = get_benchmark(name)
        M = bench.moment_matrix(8, family=family)
        H, mass = _loop_analytic(M.spec, bench.moment_fn)
    assert np.array_equal(M.entries, H)
    assert M.mass_m == mass


@pytest.mark.parametrize("p,d", [(1, 9), (2, 6), (3, 4)])
def test_analytic_build_calls_moment_fn_once_per_distinct_exponent(p, d):
    spec = BasisSpec(p, d)
    calls = []

    def counting(a):
        calls.append(a)
        return box_moment_fn(spec)(a)

    analytic_moment_matrix(spec, counting)
    assert len(calls) == basis_size(p, 2 * d)
    assert set(calls) == {tuple(int(v) for v in a) for a in BasisSpec(p, 2 * d).indices}


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


def test_json_round_trip(tmp_path):
    from cdapprox.benchmarks import get_benchmark

    M = get_benchmark("sign").moment_matrix(2)
    path = tmp_path / "m.json"
    save_json(M, path)
    back = load_json(path)
    np.testing.assert_array_equal(back.entries, M.entries)
    assert back.spec == M.spec
    assert back.mass_m == M.mass_m


def test_json_symmetrizes_mild_skew(tmp_path):
    import json

    spec = BasisSpec(2, 1)
    M = MomentMatrix(spec, np.eye(3), Provenance.ANALYTIC, 2.0)
    path = tmp_path / "m.json"
    save_json(M, path)
    doc = json.loads(path.read_text())
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


def test_load_rejects_indefinite_file(tmp_path):
    spec = BasisSpec(2, 1)
    M = MomentMatrix(spec, np.diag([1.0, 1.0, -0.5]), Provenance.FILE, 1.0)
    path = tmp_path / "m.txt"
    save_text(M, path)
    with pytest.raises(IndefiniteMatrixError):
        load_text(path)


def test_load_dispatches_on_extension(tmp_path):
    from cdapprox.benchmarks import get_benchmark

    M = get_benchmark("sign").moment_matrix(2)
    t, j = tmp_path / "m.txt", tmp_path / "m.json"
    save_text(M, t)
    save_json(M, j)
    np.testing.assert_array_equal(load(t).entries, load(j).entries)
