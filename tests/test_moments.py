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
from moment_oracle import MOMENTS, closed_form, hankel, orthonormal_entry
from numpy.polynomial import legendre, polynomial

from cdapprox import moments
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
    require_psd,
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


def _refusal(check, *args):
    """None where ``check(*args)`` accepts, else its IndefiniteMatrixError message."""
    try:
        check(*args)
    except IndefiniteMatrixError as err:
        return str(err)
    return None


def _assert_check_psd_is_the_eigvalsh_rule(entries):
    """check_psd accepts and refuses as require_psd(eigvalsh(M)), with the same message."""
    d = {3: 1, 6: 2, 10: 3}[entries.shape[0]]
    mm = MomentMatrix(BasisSpec(2, d), entries, Provenance.EMPIRICAL, 1.0)
    expected = _refusal(require_psd, np.linalg.eigvalsh(mm.entries))
    assert _refusal(mm.check_psd) == expected
    return expected


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("c", [0.25, 0.45, 0.55, 0.75, 0.95, 1.05, 1.5, 3.0])
def test_check_psd_decides_as_eigvalsh_on_both_sides_of_the_tolerance(c, rotated, monkeypatch):
    # lambda_min = -c 1e-8 lambda_max: accepted for c < 1 and refused above.  The Cholesky
    # proof shifts by s = 1/2 1e-8 max(diag M), so between -s and -1e-8 lambda_max only the
    # eigvalsh fallback can accept; the diagonal matrix has max(diag M) = lambda_max = 1
    evals = np.array([1.0, 0.7, 0.5, 0.3, 0.2, 0.1, 1e-3, 0.0, 0.0, -c * 1e-8])
    Q = np.linalg.qr(np.random.default_rng(3).normal(size=(10, 10)))[0] if rotated else np.eye(10)
    M = (Q * evals) @ Q.T
    M = np.tril(M) + np.tril(M, -1).T
    s = 0.5e-8 * float(M.diagonal().max())
    calls = _count_eigvalsh(monkeypatch)
    refusal = _assert_check_psd_is_the_eigvalsh_rule(M)
    assert (refusal is None) == (c < 1)
    if c * 1e-8 > s:  # M + s I is indefinite: the fallback decides
        assert len(calls) == 2
    if not rotated and c < 0.5:  # proven by the factor alone
        assert len(calls) == 1


def test_check_psd_on_the_zero_matrix_and_a_negative_diagonal(monkeypatch):
    # max(diag M) <= 0 leaves nothing to shift by: eigvalsh decides and words the refusal
    calls = _count_eigvalsh(monkeypatch)
    assert _assert_check_psd_is_the_eigvalsh_rule(np.zeros((3, 3))) is None
    assert _assert_check_psd_is_the_eigvalsh_rule(np.diag([-1.0, -2.0, -3.0])) is not None
    assert len(calls) == 4
    # a positive diagonal with a negative entry fails the factor and falls back
    assert _assert_check_psd_is_the_eigvalsh_rule(np.diag([1.0, -1.0, 2.0])) is not None


@given(
    n=st.sampled_from([3, 6, 10]),
    rank=st.integers(min_value=0, max_value=10),
    scale=st.integers(min_value=-60, max_value=60),
    c=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=200, deadline=None)
def test_check_psd_decides_as_eigvalsh_on_random_psd_matrices(n, rank, scale, c, seed):
    # B B^T of any rank and scale, shifted down by c 1e-8 of its largest eigenvalue
    B = np.random.default_rng(seed).normal(size=(n, min(rank, n))) * 10.0 ** (scale / 2)
    G = B @ B.T
    M = G - c * 1e-8 * max(float(np.linalg.eigvalsh(G)[-1]), 0.0) * np.eye(n)
    _assert_check_psd_is_the_eigvalsh_rule(np.tril(M) + np.tril(M, -1).T)


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
        # the quad route ends in rule_moment_matrix on this rule, at a node count of its own
        X, w = graph_quadrature_rule(spec, size, breaks)
        M = rule_moment_matrix(spec, bench.graph_points(X), w, Provenance.QUADRATURE, spec.x_spec().domain_volume())
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


def _route(monkeypatch, force_level=False):
    """The specs that ``_weighted_gram`` sends down the level route, as a list filled by later builds.

    ``force_level`` makes the route's count pick the level route on every input with p >= 2.
    """
    if force_level:
        monkeypatch.setattr(moments, "_SCATTER_COST", 0)
        monkeypatch.setattr(moments, "_LEVEL_CALLS", 1e-9)
    calls = []
    level_gram = moments._level_gram

    def spy(spec, *args):
        calls.append(spec)
        return level_gram(spec, *args)

    monkeypatch.setattr(moments, "_level_gram", spy)
    return calls


@pytest.mark.parametrize(
    "name,mode", [("sign", "analytic"), ("sign", "quad"), ("step", "analytic"), ("step", "quad"), ("disk1", "analytic")]
)
def test_level_route_matches_the_closed_form_moments(name, mode, monkeypatch):
    # the monomial entries against the 40-digit closed forms, at the tolerances of the
    # exact-rule and quadrature tests; the disk indicator's quadrature is not exact, so
    # disk1 by quad is checked against a Gram of its own nodes below
    levels = _route(monkeypatch, force_level=True)
    bench = get_benchmark(name)
    for d in (2, 4, 8):
        M = bench.moment_matrix(d, mode=mode, family=Family.MONOMIAL_GREVLEX).entries
        H = hankel(MOMENTS[name], bench.spec(d, Family.MONOMIAL_GREVLEX))
        if mode == "analytic":
            np.testing.assert_allclose(M, H, rtol=0, atol=1e-12)
        else:
            assert np.max(np.abs(M - H)) <= 1e-13 * np.max(np.abs(H))
    assert len(levels) == 3


@pytest.mark.parametrize("name", ["sign", "step", "disk1"])
def test_level_route_matches_the_40_digit_basis_change(name, monkeypatch):
    # the orthonormal family at d = 12, where the level route's x-Grams and phi
    # carry the whole build, as the exact-rule test samples it
    levels = _route(monkeypatch, force_level=True)
    M = get_benchmark(name).moment_matrix(12)
    n = M.n
    rng = np.random.default_rng(12)
    pairs = [(0, 0), (0, n - 1), (n - 1, n - 1), *rng.integers(0, n, size=(9, 2)).tolist()]
    for i, j in pairs:
        assert M.entries[i, j] == pytest.approx(float(orthonormal_entry(MOMENTS[name], M.spec, i, j)), abs=1e-12)
    assert len(levels) == 1


def _numpy_gram(spec, Z, w):
    """sum_k w_k b(z_k) b(z_k)^T from numpy.polynomial's Vandermonde matrices on [-1, 1]^p.

    Shares no code with the library beyond the exponent order.
    """
    if spec.family is Family.MONOMIAL_GREVLEX:
        tables = [polynomial.polyvander(Z[:, k], spec.d) for k in range(spec.p)]
    else:
        scale = np.sqrt((2 * np.arange(spec.d + 1) + 1) / 2.0)
        tables = [legendre.legvander(Z[:, k], spec.d) * scale for k in range(spec.p)]
    B = np.ones((Z.shape[0], spec.size))
    for k, T in enumerate(tables):
        B *= T[:, spec.indices[:, k]]
    return B.T @ (w[:, None] * B)


# name, build, and the y-levels of its nodes
_DISK_BUILDS = {
    "empirical": ("disk1", {"mode": "empirical", "grid": 30}, [0.0, 1.0]),
    "quad": ("disk1", {"mode": "quad"}, [0.0, 1.0]),
    "disk2-quad": ("disk2", {"mode": "quad"}, [-0.5, 0.0, 0.5, 1.0]),
    "grid-40": ("disk1", {"mode": "empirical", "grid": 40}, [0.0, 1.0]),
}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("mode", list(_DISK_BUILDS))
def test_disk_level_route_matches_a_numpy_polynomial_gram(mode, family, monkeypatch):
    # disk1 from midpoint grids and by quadrature, and disk2 by quadrature, through the
    # count's own choice; on the 40 x 40 grid the level y = 0 spans more than one block
    levels = _route(monkeypatch)
    name, build, ys = _DISK_BUILDS[mode]
    bench = get_benchmark(name)
    spec = bench.spec(6, family)
    M = bench.moment_matrix(6, family=family, **build)
    if build["mode"] == "empirical":
        X = bench.grid_x(build["grid"])
        w = np.full(X.shape[0], 1.0 / X.shape[0])
    else:
        X, w = graph_quadrature_rule(spec, 32)
    Z = bench.graph_points(X)
    y, count = np.unique(Z[:, -1], return_counts=True)
    assert y.tolist() == ys
    assert (count.max() > _BLOCK) == (mode == "grid-40")
    ref = _numpy_gram(spec, Z, w)
    assert levels == [spec]
    assert np.max(np.abs(M.entries - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("mode", ["analytic", "quad"])
def test_abs_keeps_the_node_route_and_matches_the_closed_form(mode, monkeypatch):
    # y = |x| takes a value per node pair, so a level would hold two nodes
    levels = _route(monkeypatch)
    bench = get_benchmark("abs")
    for d in (4, 8, 16):
        M = bench.moment_matrix(d, mode=mode, family=Family.MONOMIAL_GREVLEX).entries
        H = hankel(MOMENTS["abs"], bench.spec(d, Family.MONOMIAL_GREVLEX))
        if mode == "analytic":
            np.testing.assert_allclose(M, H, rtol=0, atol=1e-12)
        else:
            assert np.max(np.abs(M - H)) <= 1e-13 * np.max(np.abs(H))
    assert levels == []


@pytest.mark.parametrize(
    "name,d,mode,kwargs,level",
    [
        ("sign", 4, "quad", {}, False),
        ("sign", 20, "quad", {}, True),
        ("step", 20, "quad", {}, True),
        ("sign", 20, "analytic", {}, False),
        ("disk1", 8, "analytic", {}, True),
        ("disk1", 8, "empirical", {"grid": 100}, True),
        ("disk1", 4, "empirical", {"samples": 3000, "rng": np.random.default_rng(0)}, True),
        ("abs", 20, "quad", {}, False),
        ("abs", 8, "empirical", {"samples": 3000, "rng": np.random.default_rng(0)}, False),
        ("disk2", 8, "quad", {}, True),
    ],
)
def test_the_operation_count_picks_the_route(name, d, mode, kwargs, level, monkeypatch):
    # the level route where y takes few values on many nodes; abs, random samples of a
    # continuous f, small builds and the 1-D exact rules (d + 1 nodes a level) keep the node route
    levels = _route(monkeypatch)
    get_benchmark(name).moment_matrix(d, mode=mode, **kwargs)
    assert len(levels) == level


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_level_route_holds_one_n_by_n_temporary():
    # M, the gather buffer of the second level, and the symmetrization's and
    # MomentMatrix's check's temporaries one after another: the node route peaked
    # at 4.4 n x n arrays beyond M here
    bench = get_benchmark("disk1")
    M, peak = _traced_peak(lambda: bench.moment_matrix(12))
    nn = 8 * M.n**2
    assert peak - nn <= 2.5 * nn


def test_node_route_frees_each_blocks_tables_before_its_product(monkeypatch):
    # f = x1 x2 + x1 / 4 takes a value per node, so its 36 x 36 quadrature rule keeps the
    # node route: two blocks (1,024 and 272 nodes) of a basis-major B, the first 6.2 n x n
    # arrays at n = 165.  The peak, at the first block's product, holds M, B, B * w and the
    # product: 13.93 n x n arrays beyond M.  A block's tables kept alive through the product
    # read 14.58
    spec = BasisSpec(3, 8)
    X, w = graph_quadrature_rule(spec, max(4 * spec.d + 4, 32))
    Z = np.c_[X, X[:, 0] * X[:, 1] + X[:, 0] / 4]
    assert Z.shape[0] == 1296 and spec.size == 165
    levels = _route(monkeypatch)

    def build():
        return rule_moment_matrix(spec, Z, w, Provenance.QUADRATURE, 4.0)

    build()  # the cached grevlex rows and Gauss rules are made before the trace
    M, peak = _traced_peak(build)
    assert levels == []
    nn = 8 * M.n**2
    assert peak - nn <= 14.2 * nn


def test_load_text_holds_the_matrix_and_the_checks_temporaries_only(tmp_path):
    # the row-by-row parse makes no Python float per entry and no index or mask array;
    # the whole-body parse peaked at ten n x n arrays at n = 455
    M = get_benchmark("disk1").moment_matrix(12)
    path = tmp_path / "m.txt"
    save_text(M, path)
    back, peak = _traced_peak(lambda: load_text(path))
    assert np.array_equal(back.entries, M.entries)
    assert peak <= 4 * 8 * M.n**2


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


def _special_matrix():
    """A symmetric matrix holding -0.0, subnormals and +-1.7e308 that check_psd accepts."""
    A = np.eye(6)
    A[3, 3] = A[4, 4] = 1.7e308
    A[4, 3] = A[3, 4] = -1.7e308
    A[1, 0] = A[0, 1] = -0.0
    A[2, 1] = A[1, 2] = 5e-324
    A[5, 2] = A[2, 5] = -2.2e-310
    return MomentMatrix(BasisSpec(2, 2), A, Provenance.EMPIRICAL, 2.5)


def test_save_text_writes_the_bytes_of_the_per_entry_formatter(tmp_path):
    M = _special_matrix()
    path = tmp_path / "m.txt"
    save_text(M, path)
    header = (
        "cdmoments 1\np 2\nd 2\nfamily legendre-orthonormal\nordering grevlex\n"
        "domain -1.0 1.0 -1.0 1.0\nmass 2.5000000000000000e+00\nprovenance empirical\nentries lower\n"
    )
    A = M.entries
    body = "".join(" ".join(format(float(A[i, j]), ".16e") for j in range(i + 1)) + "\n" for i in range(M.n))
    assert path.read_bytes() == (header + body).encode()
    back = load_text(path).entries
    assert np.array_equal(back, A) and np.array_equal(np.signbit(back), np.signbit(A))


def test_text_with_crlf_line_ends_loads(tmp_path):
    M = _special_matrix()
    path = tmp_path / "m.txt"
    save_text(M, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    back = load_text(path)
    assert np.array_equal(back.entries, M.entries) and np.array_equal(np.signbit(back.entries), np.signbit(M.entries))
    assert back.spec == M.spec and back.mass_m == M.mass_m


def _fromstring_numpy1(text, sep=" "):
    """np.fromstring as numpy 1.x parses: on unmatched data it warns and returns the values read so far."""
    out = []
    for token in text.split():
        try:
            out.append(float(token.split("_")[0]))
        except ValueError:
            token = "_"
        if "_" in token:
            warnings.warn("string or file could not be read to its end due to unmatched data", DeprecationWarning)
            break
    return np.array(out)


@pytest.mark.parametrize("numpy1", [False, True], ids=["numpy", "numpy1-parser"])
@pytest.mark.parametrize(
    "fault",
    ["bad token", "underscore", "trailing junk", "short row", "long row", "missing row", "missing entry", "extra row"],
)
def test_malformed_text_body_raises_moment_file_error_with_no_warning(tmp_path, monkeypatch, fault, numpy1):
    # numpy 1.x only warns on unmatched data where numpy 2 raises: the loader refuses both alike
    if numpy1:
        monkeypatch.setattr(np, "fromstring", _fromstring_numpy1)
    path = tmp_path / "m.txt"
    save_text(get_benchmark("sign").moment_matrix(2), path)
    lines = path.read_text().splitlines()
    last = lines[-1].split()
    lines[-1] = " ".join(
        {
            "bad token": last[:-1] + ["abc"],
            "underscore": last[:-1] + ["1_0"],
            "trailing junk": last[:-1] + [last[-1] + "x"],
            "short row": last[:-1],
            "long row": last + ["0.0"],
            "missing row": [],
            "missing entry": last,
            "extra row": last,
        }[fault]
    )
    if fault == "missing entry":
        lines[-2] = " ".join(lines[-2].split()[:-1])
    if fault == "extra row":
        lines.append(lines[-1])
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(MomentFileError, match="entries"):
            load_text(path)
    assert caught == []


@pytest.mark.parametrize("d", [200, 1000, 100_000])
def test_a_header_larger_than_its_body_raises_moment_file_error(tmp_path, d):
    # the matrix is allocated from the header before the body is read: a basis too
    # large to hold, or a body that ends early, is a malformed file all the same
    path = tmp_path / "m.txt"
    save_text(get_benchmark("sign").moment_matrix(2), path)
    path.write_text(path.read_text().replace("\nd 2\n", f"\nd {d}\n"))
    with pytest.raises(MomentFileError):
        load_text(path)


def test_blank_lines_in_the_text_body_are_skipped(tmp_path):
    # numpy reads a blank line as [-1.0]; the loader never hands it one
    M = get_benchmark("sign").moment_matrix(3)
    path = tmp_path / "m.txt"
    save_text(M, path)
    path.write_text(path.read_text().replace("\n", "\n \n\t\n") + "\n\n")
    assert np.array_equal(load_text(path).entries, M.entries)


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
