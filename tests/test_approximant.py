"""Fiber minimization and the graph approximant."""

import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev, legendre
from numpy.polynomial import polynomial as npoly

from cdapprox import approximant
from cdapprox.approximant import (
    _CHUNK_BYTES,
    _WINDOW_MIN_DEGREE,
    ApproxConfig,
    Approximant,
    _fiber_argmin,
    _full_argmin,
    _real_roots,
    _window_argmin,
    _window_maps,
    partial_argmin,
)
from cdapprox.basis import BasisSpec, Family, axis_tables, eval_basis_batch
from cdapprox.benchmarks import get_benchmark
from cdapprox.cdkernel import CDKernel, _levels, beta_schedule
from cdapprox.moments import MomentMatrix, Provenance


def legendre_rows(polys):
    # monomial coefficient rows -> rows in the orthonormal Legendre basis of [-1, 1]
    polys = [np.atleast_1d(np.asarray(h, dtype=float)) for h in polys]
    k = max(len(h) for h in polys)
    out = np.zeros((len(polys), k))
    for i, h in enumerate(polys):
        leg = legendre.poly2leg(h)  # drops trailing zeros
        out[i, : len(leg)] = leg
    return out / np.sqrt(np.arange(k) + 0.5)


UNIT = (-1.0, 1.0)


def legendre_argmin(A, alpha):
    # the stacked solver on rows in the orthonormal Legendre basis of [-1, 1]
    return _fiber_argmin(A, Family.LEGENDRE_ORTHONORMAL, UNIT, UNIT, alpha, 1e-13)


def sos_value(rows, y, interval=(-1.0, 1.0)):
    # q(y) = sum_i (rows_i . L(y))^2, L orthonormal Legendre on the interval
    lo, hi = interval
    y = np.asarray(y, dtype=float)
    u = (2.0 * y - (lo + hi)) / (hi - lo)
    L = legendre.legvander(u, rows.shape[1] - 1) * np.sqrt((2.0 * np.arange(rows.shape[1]) + 1.0) / (hi - lo))
    return np.sum((L @ rows.T) ** 2, axis=-1).reshape(y.shape)


def sos_rows(c):
    # rows whose squares sum to the monomial polynomial c, which is >= 0 on R:
    # c = |h|^2 with h = sqrt(lead) * prod (y - z) over the upper-half-plane roots z
    c = np.asarray(c, dtype=float)
    roots = np.roots(c[::-1])
    roots = roots[np.argsort(-roots.imag, kind="stable")][: len(roots) // 2]
    h = np.sqrt(c[-1]) * np.poly(roots)[::-1]
    rows = legendre_rows([h.real, h.imag])
    ys = np.linspace(-1, 1, 101)
    np.testing.assert_allclose(sos_value(rows, ys), npoly.polyval(ys, c), rtol=1e-12, atol=1e-12)
    return rows


def sign_argmin_coeffs(x):
    # quartic family in y whose fiber argmin over [-1, 1] is sign(x)
    return np.array([4.0, -3.0 * x, -4.0, x, 2.0])


def abs_argmin_coeffs(x):
    # quartic family in y whose fiber argmin over [-1, 1] is |x|
    return np.array([11.0, -12.0 * x**4, -6.0 * x**2, 4.0 * x**2, 3.0])


def test_partial_argmin_recovers_sign():
    # near the flat boundary minimum the argmin is conditioned like
    # sqrt(eps |q| / q''), so 1e-6 is all double precision supports
    for x in (-0.9, -0.5, -0.01, 0.01, 0.5, 0.9):
        y, q = partial_argmin(sos_rows(sign_argmin_coeffs(x)), (-1.0, 1.0))
        assert y == pytest.approx(np.sign(x), abs=1e-6)
        assert q == pytest.approx(npoly.polyval(y, sign_argmin_coeffs(x)), rel=1e-12)


def test_partial_argmin_recovers_abs():
    for x in (-0.8, -0.3, 0.2, 0.7, 1.0):
        y, _ = partial_argmin(sos_rows(abs_argmin_coeffs(x)), (-1.0, 1.0))
        assert y == pytest.approx(abs(x), abs=1e-6)


def test_symmetric_fiber_ties_to_smaller_minimizer():
    # the x = 0 fiber of the sign quartic has argmin {-1, +1}
    y, _ = partial_argmin(sos_rows(sign_argmin_coeffs(0.0)), (-1.0, 1.0))
    assert y == pytest.approx(-1.0, abs=1e-6)
    y, _ = partial_argmin(legendre_rows([[-0.25, 0.0, 1.0]])[0], (-1.0, 1.0))
    assert y == pytest.approx(-0.5, abs=1e-6)  # (y^2 - 1/4)^2, leftmost of +-1/2


@given(
    c1=st.floats(min_value=-3, max_value=3),
    c2=st.floats(min_value=0.1, max_value=5),
    shift=st.floats(min_value=-2, max_value=2),
)
@settings(max_examples=60)
def test_quadratic_argmin(c1, c2, shift):
    # q = c2 y^2 + c1 y + c1^2 / (4 c2) + shift^2
    rows = legendre_rows([[c1 / (2.0 * np.sqrt(c2)), np.sqrt(c2)], [shift]])
    y, q = partial_argmin(rows, (-1.0, 1.0))
    expected = float(np.clip(-c1 / (2.0 * c2), -1.0, 1.0))
    assert y == pytest.approx(expected, abs=1e-6)
    assert q <= sos_value(rows, expected) + 1e-12


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_value_within_epsilon_of_brute_minimum(data):
    # q = sum of 1-3 squares of random polynomials, of degree 2 to 8
    deg = data.draw(st.integers(min_value=1, max_value=4))
    n_rows = data.draw(st.integers(min_value=1, max_value=3))
    rows = legendre_rows(
        [[data.draw(st.floats(min_value=-10, max_value=10)) for _ in range(deg + 1)] for _ in range(n_rows)]
    )
    eps = data.draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    _, q = partial_argmin(rows, (-1.0, 1.0), epsilon=eps)
    ys = np.linspace(-1, 1, 200_001)
    true_min = float(sos_value(rows, ys).min())
    assert q <= true_min + eps + 1e-12 * max(1.0, abs(true_min))


@pytest.mark.parametrize("poly, root", [([1.0, 2.0, 0.0], -0.5), ([0.5, 1.0, 0.0], -0.5), ([6.0, 7.0, 0.0], -6.0 / 7.0)])
def test_a_fiber_of_lower_degree_than_its_rows_keeps_its_root(poly, root):
    # (poly)^2 in a degree-2 row: dq/du is linear, and its top Chebyshev coefficients from the
    # node values are rounding noise.  The unrotated colleague matrix read the root -0.5 as
    # -0.25; the rotated one, as numpy's chebroots solves it, keeps it
    y, q = partial_argmin(legendre_rows([poly]), UNIT)
    assert y == pytest.approx(root, abs=1e-12)
    assert q <= 1e-24


def test_robust_window_widens_selection():
    # 0.1 (y^2 - 0.36)^2 - 0.001 y + 0.002: wells near +-0.6 with values
    # ~0.0014 and ~0.0026.  Plain selection takes the right well; with
    # alpha = 0.9 every y with q(y) <= 19 * qmin is acceptable and the
    # smallest such y (left flank of the left well) is returned.
    c = np.array([0.01496, -0.001, -0.072, 0.0, 0.1])
    rows = sos_rows(c)
    y_plain, _ = partial_argmin(rows, (-1.0, 1.0))
    assert y_plain == pytest.approx(0.6, abs=2e-2)
    y_robust, q_robust = partial_argmin(rows, (-1.0, 1.0), alpha=0.9)
    ys = np.linspace(-1, 1, 2_000_001)
    qs = npoly.polyval(ys, c)
    thresh = 19.0 * qs.min()
    brute_left = float(ys[qs <= thresh].min())
    assert y_robust == pytest.approx(brute_left, abs=1e-3)
    assert q_robust <= thresh * (1.0 + 1e-6)


def test_partial_argmin_validation():
    with pytest.raises(ValueError):
        partial_argmin(np.array([1.0, 2.0]), (1.0, 1.0))
    with pytest.raises(ValueError):
        partial_argmin(np.array([1.0, np.nan]), (-1.0, 1.0))
    with pytest.raises(ValueError):
        partial_argmin(np.ones((2, 2, 3)), (-1.0, 1.0))
    # rows with no coefficients used to fail inside numpy's leggauss on "deg must be a positive integer"
    for rows in (np.zeros(0), np.zeros((3, 0))):
        with pytest.raises(ValueError, match=rf"at least one coefficient, got shape \({rows.shape[0]},"):
            partial_argmin(rows, (-1.0, 1.0))


def test_degenerate_fibers():
    # zero top coefficients: q = (y - 0.2)^2 stored at degree 8, whose
    # derivative has a vanishing leading coefficient
    y, q = partial_argmin(legendre_rows([[-0.2, 1.0, 0.0, 0.0, 0.0]]), (-1.0, 1.0))
    assert y == pytest.approx(0.2, abs=1e-12)
    assert q == pytest.approx(0.0, abs=1e-15)
    # constant and identically zero q: every y ties, so the left end wins
    for rows, value in ((np.array([2.0, 0.0, 0.0]), 2.0), (np.zeros((3, 4)), 0.0)):
        for alpha in (0.0, 0.5):
            y, q = partial_argmin(rows, (-1.0, 1.0), alpha=alpha)
            assert y == -1.0
            assert q == pytest.approx(value, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (-1e308, 1e308)])
def test_infinite_or_overflowing_search_intervals_are_refused(interval):
    # such an interval used to give (nan, 0.0) from partial_argmin, and an
    # Approximant that failed every call on "non-finite fiber coefficients"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not a finite interval"):
            partial_argmin(np.array([1.0, 2.0]), interval)
        kern = CDKernel(get_benchmark("sign").moment_matrix(4), 1e-8)
        with pytest.raises(ValueError, match="not a finite interval"):
            Approximant(kern, ApproxConfig(y_interval=interval))


@pytest.mark.parametrize("interval", [(0.0, 5e-324), (0.0, 1e-310), (0.0, 1e-308)])
def test_too_narrow_search_intervals_are_refused(interval):
    # a subnormal width, or one where (2d+1)/width overflows at d = 20, used to
    # warn "overflow encountered in divide" and then fail in eigvals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"search interval \[0.0, .*\] is too narrow for degree 20"):
            partial_argmin(np.ones((2, 21)), interval)
        kern = CDKernel(get_benchmark("sign").moment_matrix(20), 1e-8)
        with pytest.raises(ValueError, match=r"search interval \[0.0, .*\] is too narrow for degree 20"):
            Approximant(kern, ApproxConfig(y_interval=interval))
        # a narrow width whose squared scale stays finite is still solved: L_0 = 1/sqrt(width)
        y, q = partial_argmin(np.eye(21)[:1], (0.0, 1e-300))
    assert y == 0.0 and q == pytest.approx(1e300, rel=1e-12)


@pytest.mark.parametrize("rows, interval", [(np.ones((2, 21)), (0.0, 1e-305)), (np.full((2, 3), 1e160), (-1.0, 1.0))])
def test_search_intervals_where_q_overflows_are_refused(rows, interval):
    # (2d+1)/width is finite here but q is not: these used to warn "invalid value
    # encountered in matmul" and then fail in eigvals on infs or nans
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"q overflows on the search interval \[{interval[0]}, {interval[1]}\]"):
            partial_argmin(rows, interval)
        # a width at which q stays finite is still solved
        y, q = partial_argmin(np.ones((2, 21)), (0.0, 1e-300))
    assert 0.0 <= y <= 1e-300 and np.isfinite(q) and q > 1e270


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_refused_by_row(bad):
    # these used to fail on "non-finite fiber coefficients", after a matmul RuntimeWarning for inf
    app = Approximant(CDKernel(get_benchmark("disk1").moment_matrix(2), 1e-4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"point row 2 has a non-finite coordinate"):
            app.evaluate_batch([[0.1, 0.2], [0.3, 0.4], [0.5, bad], [bad, 0.0]])


def test_config_validation_and_resolution():
    with pytest.raises(ValueError):
        ApproxConfig(alpha=1.0)
    assert ApproxConfig(epsilon=1e-4).resolve_epsilon() == 1e-4
    assert ApproxConfig(gamma=1e-2).resolve_epsilon() == 5e-3
    assert ApproxConfig().resolve_epsilon() is None


@pytest.mark.parametrize("tie_tol", [-1.0, -1e-300, np.nan, np.inf])
def test_config_refuses_a_tie_tol_that_is_negative_or_not_finite(tie_tol):
    # a negative or nan tie window admits no candidate as the minimum, and an
    # infinite one admits every candidate: sign d=8 at x = 0.5 then gave
    # y = -0.996 with q = 2.9e7 against the true minimum q = 4.84 at y = 1;
    # partial_argmin takes the same knobs and refuses them too
    with pytest.raises(ValueError, match="tie_tol"):
        ApproxConfig(tie_tol=tie_tol)
    app = Approximant(CDKernel(get_benchmark("sign").moment_matrix(8), 1e-8), ApproxConfig(tie_tol=0.0))
    y, q = app.evaluate_batch(np.array([[0.5]]))
    assert y[0] == 1.0 and q[0] == pytest.approx(4.8448, rel=1e-4)
    rows = app.y_coefficients([0.5])
    assert partial_argmin(rows, (-1.0, 1.0), tie_tol=0.0) == (y[0], q[0])
    with pytest.raises(ValueError, match="tie_tol"):
        partial_argmin(rows, (-1.0, 1.0), tie_tol=tie_tol)
    with pytest.raises(ValueError, match="alpha"):
        partial_argmin(rows, (-1.0, 1.0), alpha=1.0)  # was a ZeroDivisionError


@pytest.mark.parametrize("family", list(Family))
def test_y_coefficients_reproduce_kernel(family):
    # the sum-of-squares rows, in the kernel's last-axis family phi on the
    # domain's y-axis, must reproduce direct kernel evaluation
    M = get_benchmark("sign").moment_matrix(3, family=family)
    kern = CDKernel(M, 1e-4)
    app = Approximant(kern)
    rng = np.random.default_rng(9)
    for x in rng.uniform(-1, 1, size=5):
        rows = app.y_coefficients([x])
        # the range rows, then one row sqrt(W_k(x) / beta) n_k per null direction k = 2, 3
        assert rows.shape == (kern._rows.shape[1] + 2, 4) == (7 + 2, 4)
        for y in rng.uniform(-1, 1, size=5):
            direct = kern.eval_q_batch([[x, y]])[0]
            if family is Family.MONOMIAL_GREVLEX:
                value = float(np.sum((rows @ y ** np.arange(4)) ** 2))  # phi_j(y) = y^j
            else:
                value = float(sos_value(rows, y))
            assert value == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_y_coefficients_reproduce_kernel_p3():
    M = get_benchmark("disk1").moment_matrix(2)
    kern = CDKernel(M, 1e-4)
    app = Approximant(kern)
    rng = np.random.default_rng(10)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        rows = app.y_coefficients(x)
        y = rng.uniform(-1, 1)
        direct = kern.eval_q_batch([[x[0], x[1], y]])[0]
        assert float(sos_value(rows, y)) == pytest.approx(direct, rel=1e-9, abs=1e-12)


@lru_cache(maxsize=None)
def quad_kernel(name, d):
    return CDKernel(get_benchmark(name).moment_matrix(d, mode="quad"), 1e-8)


def dense_rows_map(app):
    # the dense (n_x, r, d+1) rows map in phi: W's column (a, j) placed at
    # x-index a and y-degree j
    spec, W = app.spec, app.kernel.sos_decomposition()
    x_spec = spec.x_spec()
    pos = {a: i for i, a in enumerate(map(tuple, x_spec.indices.tolist()))}
    xcol = [pos[a] for a in map(tuple, spec.indices[:, :-1].tolist())]
    T = np.zeros((x_spec.size, W.shape[0], spec.d + 1))
    T[xcol, :, spec.indices[:, -1]] = W.T
    return x_spec, T


@pytest.mark.parametrize(
    "case",
    [("sign", 4, "quad"), ("step", 4, "quad"), ("sign", 12, "quad"), ("step", 12, "quad"), ("sign", 20, "quad"),
     ("step", 20, "quad"), ("disk1", 8, "empirical"), ("sign", 8, "monomial"), ("sign", 8, "interval")],
    ids=lambda case: f"{case[0]}-d{case[1]}-{case[2]}",
)
def test_y_coefficients_match_the_dense_rows_map(case):
    # the fiber's (d+1, d+1) Gram A(x)^T A(x), q(x, y) = phi(y)^T A^T A phi(y), is the one of
    # the dense rows map built from all n rows of sos_decomposition, null rows included: the
    # y-degree blocks drop only the (x-index, y-degree) pairs that carry no weight, the null
    # rows fold the null directions into d + 1 - L rows, and a custom search interval leaves
    # the rows as they are
    name, d, how = case
    if name == "disk1":
        app = Approximant(empirical_disk_kernel())
    elif how == "monomial":
        app = Approximant(CDKernel(get_benchmark(name).moment_matrix(d, family=Family.MONOMIAL_GREVLEX), 1e-8))
    else:
        config = ApproxConfig(y_interval=(-0.3, 0.7)) if how == "interval" else None
        app = Approximant(quad_kernel(name, d), config)
    x_spec, T = dense_rows_map(app)
    X = get_benchmark(name).random_x(9, np.random.default_rng(d))
    for x in X:
        dense = np.einsum("a,ark->rk", eval_basis_batch(x_spec, x[None])[0], T)
        want = dense.T @ dense
        got = app.y_coefficients(x)
        assert got.shape == (app.kernel._rows.shape[1] + app.kernel._null.shape[0], d + 1) and got.flags.c_contiguous
        np.testing.assert_allclose(got.T @ got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("name, d, n_range", [("sign", 20, 41), ("disk1", 8, 81)])
def test_approximant_stores_n_r_doubles_of_fiber_rows(name, d, n_range):
    # the blocks keep one double per (basis column, range row) pair, views of the kernel's
    # (n, n_range) rows, and the null term reads the kernel's (d + 1 - L, d + 1) directions;
    # the approximant adds only the d + 1 - L ends of its x-basis sums
    kern = quad_kernel(name, d) if name == "sign" else empirical_disk_kernel()
    app = Approximant(kern)
    n = kern.spec.size
    arrays = [v for v in vars(app).values() if isinstance(v, np.ndarray)]
    arrays += [b for v in vars(app).values() if isinstance(v, tuple) for b in v if isinstance(b, np.ndarray)]
    bases = {id(a.base if a.base is not None else a): a.base if a.base is not None else a for a in arrays}
    assert kern._rows.shape == (n, n_range) and kern._null.shape == (d - 1, d + 1)  # L = 2 levels
    assert sum(a.nbytes for a in bases.values()) == 8 * n * n_range + 8 * (d - 1)
    assert sum(b.size for b in app._blocks) == n * n_range


@pytest.mark.parametrize("name, d", [("sign", 20), ("disk1", 8)])
def test_approximant_allocates_no_n_by_n_array(name, d):
    # the y-degree blocks are views of the rows the kernel stores: building an approximant
    # copies none of them
    kern = quad_kernel(name, d) if name == "sign" else empirical_disk_kernel()
    n = kern.spec.size
    tracemalloc.start()
    try:
        app = Approximant(kern)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
    assert all(np.shares_memory(b, kern._rows) for b in app._blocks)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.name.lower())
def test_evaluate_batch_refuses_an_overflowing_point_without_a_warning(family):
    # the x-basis overflows at x = 1e40, so the fiber rows are not finite: the solver's
    # ValueError, not the RuntimeWarning of the overflow, reaches the caller
    app = Approximant(CDKernel(get_benchmark("sign").moment_matrix(8, family=family), 1e-8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite fiber coefficients"):
            app.evaluate_batch([[0.5], [1e40]])


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.name.lower())
def test_y_coefficients_refuses_an_overflowing_point_without_a_warning(family):
    # the same point through the one-point entry: it used to return the non-finite rows,
    # after the RuntimeWarning of the overflow
    app = Approximant(CDKernel(get_benchmark("sign").moment_matrix(8, family=family), 1e-8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite fiber coefficients"):
            app.y_coefficients([1e40])


@lru_cache(maxsize=None)
def _gram_entries(n):
    # a dense, well-conditioned PSD matrix of size n: every sum-of-squares column differs
    A = np.random.default_rng(n).standard_normal((n, n))
    return A @ A.T / n + np.eye(n)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.name.lower())
@pytest.mark.parametrize("p, d", [(p, d) for p in (2, 3, 4) for d in (0, 1, 8)] + [(2, 20), (3, 20)])
def test_blocks_equal_the_lexsorted_layout(p, d, family):
    # the blocks are one stable sort of the basis by y-degree; the reference builds the
    # layout by hand: each column's x-index from the (p-1)-variable grevlex table, then
    # a lexsort by (y-degree, x-index), and block j takes the next n_{d-j} columns
    spec = BasisSpec(p, d, family)
    kern = CDKernel(MomentMatrix(spec, _gram_entries(spec.size), Provenance.EMPIRICAL, 1.0), 1e-8)
    x_spec = spec.x_spec()
    pos = {a: i for i, a in enumerate(map(tuple, x_spec.indices.tolist()))}
    xcol = np.array([pos[a] for a in map(tuple, spec.indices[:, :-1].tolist())])
    G = kern.sos_decomposition().T[np.lexsort((xcol, spec.indices[:, -1]))]
    first = np.cumsum([0] + [BasisSpec(p - 1, d - j).size for j in range(d + 1)])
    blocks = Approximant(kern)._blocks
    assert len(blocks) == d + 1
    for j, M in enumerate(blocks):
        assert np.array_equal(M, G[first[j] : first[j + 1]])


def window_route_ok(app, X):
    """The points of X whose fibers the window route answers, read from its own verdict."""
    spec = app.spec
    return _window_argmin(app._rows(X), spec.family, spec.domain[-1], app._y_interval, app.config.tie_tol)[0]


@pytest.mark.parametrize("case", ["sign-d20", "step-d20", "disk1-d8", "step-d8-monomial", "sign-d32"])
def test_evaluate_batch_is_bit_identical_per_point(case):
    # evaluate_batch at any batch size, one point included, and, in the orthonormal family,
    # y_coefficients followed by partial_argmin share one routine whose per-point arithmetic
    # ignores the batch; the grid spans more than two of the approximant's chunks, and batches of chunk + 1
    # points straddle the whole-grid call's chunk boundaries.  At d = 20 and 32 the window route
    # answers every point, at d = 8 the full solve
    if case == "disk1-d8":
        app = Approximant(empirical_disk_kernel())
    elif case == "step-d8-monomial":
        app = Approximant(CDKernel(get_benchmark("step").moment_matrix(8, mode="quad", family=Family.MONOMIAL_GREVLEX), 1e-8))
    else:
        app = Approximant(quad_kernel(case.split("-")[0], int(case[-2:])))
    m = 2 * app._chunk + 6
    X = get_benchmark(case.split("-")[0]).grid_x(m if app.spec.p == 2 else (m // 12 + 1, 12))
    assert X.shape[0] > 2 * app._chunk
    if app.spec.d >= _WINDOW_MIN_DEGREE:
        assert window_route_ok(app, X).all()
    ys, qs = app.evaluate_batch(X)
    for size in (1, 7, app._chunk + 1):
        for s in range(0, X.shape[0], size):
            y, q = app.evaluate_batch(X[s : s + size])
            np.testing.assert_array_equal(y, ys[s : s + size])
            np.testing.assert_array_equal(q, qs[s : s + size])
    if app.spec.family is Family.LEGENDRE_ORTHONORMAL:  # the basis partial_argmin reads
        for i in range(0, X.shape[0], 17):
            assert partial_argmin(app.y_coefficients(X[i]), app.spec.domain[-1]) == (ys[i], qs[i])


@pytest.mark.parametrize(
    "d, family", [(20, Family.LEGENDRE_ORTHONORMAL), (32, Family.LEGENDRE_ORTHONORMAL), (32, Family.MONOMIAL_GREVLEX)]
)
def test_reported_q_is_the_kernel_at_the_reported_y(d, family):
    # the candidates are scored at y itself; mapping the rows into the Legendre
    # basis of the search interval first put q off by up to 1.8e-11 relative
    bench = get_benchmark("sign")
    if family is Family.MONOMIAL_GREVLEX:
        kern = CDKernel(bench.moment_matrix(d, family=family), 1e-8)
    else:
        kern = quad_kernel("sign", d)
    X = bench.grid_x(64)
    ys, qs = Approximant(kern).evaluate_batch(X)
    np.testing.assert_allclose(qs, kern.eval_q_batch(np.c_[X, ys]), rtol=2e-12, atol=0.0)


@pytest.mark.parametrize("beta", [1e-8, beta_schedule(32)], ids=["windows", "fallback"])
def test_evaluate_batch_working_set_stays_within_the_chunk_budget(beta):
    # chunks are sized so each large work array takes at most _CHUNK_BYTES: the (chunk, r, 2d+1)
    # node terms, a window's beside the phi table they come from, and the full solve's
    # (chunk, 2d-1, 2d-1) colleague matrices; the solver frees each work array once it is dead.  The traced peak was 1.5x the budget at sign
    # d = 32 (n = 561), and 110 MiB with 128-point chunks that held two (128, r, 2d+1) and
    # two (128, r, d+1) arrays at once.  At beta = 1e-8 the windows answer every point, under
    # the beta schedule none
    app = Approximant(CDKernel(get_benchmark("sign").moment_matrix(32, mode="quad"), beta))
    X = get_benchmark("sign").random_x(300, np.random.default_rng(32))
    ok = window_route_ok(app, X)
    assert ok.all() if beta == 1e-8 else not ok.any()
    tracemalloc.start()
    try:
        app.evaluate_batch(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * _CHUNK_BYTES


def _check_fibers_against_spectral_brute_force(kern, name):
    # the midpoint grid of 8 keeps every x at least 0.075 away from a jump
    X = get_benchmark(name).grid_x(8)
    ys, qs = Approximant(kern).evaluate_batch(X)
    q_ref = kern.eval_q_batch(np.c_[X, ys])
    np.testing.assert_allclose(qs, q_ref, rtol=1e-9, atol=0.0)
    yy = np.linspace(-1.0, 1.0, 20_001)
    for x, y, q in zip(X[:, 0], ys, qs):
        dense = kern.eval_q_batch(np.c_[np.full(yy.size, x), yy])
        j = int(np.argmin(dense))
        assert q <= dense[j] * (1.0 + 1e-9)
        assert y == pytest.approx(yy[j], abs=1e-3)


@pytest.mark.parametrize("d", [12, 16, 20])
@pytest.mark.parametrize("name", ["sign", "step", "abs"])
def test_high_degree_fibers_match_spectral_brute_force(name, d):
    _check_fibers_against_spectral_brute_force(quad_kernel(name, d), name)


@pytest.mark.parametrize("d", [24, 32])
@pytest.mark.parametrize("name", ["sign", "step", "abs"])
def test_high_degree_analytic_fibers_match_spectral_brute_force(name, d):
    # the default route's exact graph rule stays PSD to rounding at these degrees
    kern = CDKernel(get_benchmark(name).moment_matrix(d, mode="analytic"), 1e-8)
    _check_fibers_against_spectral_brute_force(kern, name)


def test_approximant_tracks_sign_function():
    M = get_benchmark("sign").moment_matrix(4)
    app = Approximant(CDKernel(M, 1e-8))
    (y_neg,), _ = app.evaluate_batch([[-0.5]])
    (y_pos,), _ = app.evaluate_batch([[0.5]])
    assert y_neg == pytest.approx(-1.0, abs=1e-3)
    assert y_pos == pytest.approx(1.0, abs=1e-3)
    # at the jump the argmin set is {-1, +1}; the smaller one is returned
    (y_zero,), _ = app.evaluate_batch([[0.0]])
    assert y_zero == pytest.approx(-1.0, abs=1e-3)


def test_approximant_validation():
    spec = BasisSpec(1, 2)
    M = MomentMatrix(spec, np.eye(spec.size), Provenance.ANALYTIC, spec.domain_volume())
    with pytest.raises(ValueError, match="p >= 2"):
        Approximant(CDKernel(M, 1e-3))
    M2 = get_benchmark("sign").moment_matrix(2)
    app = Approximant(CDKernel(M2, 1e-3))
    with pytest.raises(ValueError):
        app.evaluate_batch([[0.1, 0.2]])
    with pytest.raises(ValueError):
        app.evaluate_batch(np.zeros((3, 2)))


def test_custom_y_interval_restricts_search():
    # restricting the fiber to [0, 1] forces the positive branch at x < 0
    M = get_benchmark("sign").moment_matrix(4)
    app = Approximant(CDKernel(M, 1e-8), ApproxConfig(y_interval=(0.0, 1.0)))
    (y,), (q,) = app.evaluate_batch([[-0.5]])
    assert 0.0 <= y <= 1.0
    assert q == pytest.approx(app.kernel.eval_q_batch([[-0.5, y]])[0], rel=1e-9)
    # the rows live in the Legendre basis of the domain's y-axis, not of the search interval
    rows = app.y_coefficients([-0.5])
    for t in (-0.9, 0.1, 0.5, 0.9):
        assert float(sos_value(rows, t, app.spec.domain[-1])) == pytest.approx(app.kernel.eval_q_batch([[-0.5, t]])[0], rel=1e-9)


def test_mixed_degree_stacks_match_their_one_row_calls(monkeypatch):
    # a stack holding a fiber whose dq/du loses its top coefficient solves its
    # roots degree by degree; each row must still match its one-row call, which
    # takes the single eigenvalue call, and the dense-grid minimum
    full = [legendre_rows([[0.3, -1.0, 0.2, 0.5, 1.0], [0.1, 0.4]]), legendre_rows([[0.5, 0.3, -1.5, 0.0, 2.0]])]
    low = [sos_rows(sign_argmin_coeffs(-0.5)), sos_rows(abs_argmin_coeffs(0.6)), legendre_rows([[-0.2, 1.0]])]
    fibers = full + low + [np.zeros((2, 5))]
    A = np.zeros((len(fibers), 2, 5))
    for i, rows in enumerate(fibers):
        A[i, : rows.shape[0], : rows.shape[1]] = rows
    tops = []

    def spy(c, **kw):
        tops.append(c[:, -1].copy())
        return _real_roots(c, **kw)

    monkeypatch.setattr(approximant, "_real_roots", spy)
    for alpha in (0.0, 0.3):
        tops.clear()
        ys, qs = legendre_argmin(A, alpha)
        assert not tops[0].all() and tops[0][:2].all()  # the stack took the degree-grouped path
        for i in range(A.shape[0]):
            y, q = legendre_argmin(A[i : i + 1], alpha)
            np.testing.assert_array_equal(y, ys[i : i + 1])
            np.testing.assert_array_equal(q, qs[i : i + 1])
    ys, qs = legendre_argmin(A, 0.0)
    grid = np.linspace(-1.0, 1.0, 200_001)
    for i in range(A.shape[0]):
        dense = sos_value(A[i], grid)
        j = int(np.argmin(dense))
        assert qs[i] <= dense[j] + 1e-12 * max(1.0, dense[j])
        assert ys[i] == pytest.approx(grid[j], abs=1e-4)
    # Chebyshev rows of several exact degrees, in one call: the roots of each row, as numpy finds them alone
    c = np.array([[0.5, -1.0, 0.25, 1.0], [0.1, 1.0, 0.0, 0.0], [0.3, -0.2, 2.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    roots = _real_roots(c)
    for row, got in zip(c, roots):
        n = np.flatnonzero(row)[-1]
        want = np.sort(np.clip(chebyshev.chebroots(row[: n + 1]).real, -1.0, 1.0))
        np.testing.assert_allclose(np.sort(got[:n]), want, rtol=0.0, atol=1e-14)
        assert np.all(got[n:] == -1.0)


def _plain_fiber_argmin(A, spec, interval, alpha, tie_tol):
    # the fiber solver in its plain formulation: phi from a one-axis table at the Gauss nodes
    # and the candidates, axis-1 square sums, the Chebyshev series of q and dq/du from
    # _window_maps, and numpy's chebcompanion matrices, rotated as chebroots solves them,
    # degree by degree
    def roots(c):
        out = np.full((c.shape[0], c.shape[1] - 1), -1.0)
        live = c != 0.0
        deg = np.where(live.any(axis=1), c.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1), 0)
        for n in sorted(set(deg.tolist()) - {0}):
            sel = deg == n
            mats = np.stack([chebyshev.chebcompanion(row)[::-1, ::-1] for row in c[sel, : n + 1]])
            out[sel, :n] = np.linalg.eigvals(mats).real
        return np.clip(lo + 0.5 * (np.clip(out, -1.0, 1.0) + 1.0) * (hi - lo), lo, hi)

    y_axis = BasisSpec(1, spec.d, family=spec.family, domain=(spec.domain[-1],))

    def phi(y):
        return axis_tables(y_axis, y[:, None])[0]

    def values(y):
        t = A @ phi(y.ravel()).reshape(*y.shape, -1).transpose(0, 2, 1)
        return (t * t).sum(axis=1)

    lo, hi = interval
    d = A.shape[2] - 1
    _, value, slope = _window_maps(d)[:3]
    at_nodes = A @ phi(lo + 0.5 * (legendre.leggauss(2 * d + 1)[0] + 1.0) * (hi - lo)).T
    qn = (at_nodes * at_nodes).sum(axis=1)[:, None, :]
    c = (qn @ value)[:, 0]
    y = np.concatenate([roots((qn @ slope)[:, 0]), np.broadcast_to([lo, hi], (A.shape[0], 2))], axis=1)
    q = values(y)
    qmin, qmax = q.min(axis=1), q.max(axis=1)
    window = tie_tol * np.maximum(1.0, np.abs(qmin)) + 1e-14 * np.abs(qmax)
    if alpha > 0.0:
        thresh = (1.0 + alpha) / (1.0 - alpha) * np.maximum(qmin, 0.0) + window
        shifted = c.copy()
        shifted[:, 0] -= thresh
        cross = roots(shifted)
        y, q = np.concatenate([y, cross], axis=1), np.concatenate([q, values(cross)], axis=1)
        thresh = thresh + approximant._CROSS_TOL * np.abs(qmax)
    else:
        thresh = qmin + window
    pick = np.argmin(np.where(q <= thresh[:, None], y, np.inf), axis=1)
    at = np.arange(A.shape[0])
    return y[at, pick], q[at, pick]


@lru_cache(maxsize=None)
def empirical_disk_kernel():
    return CDKernel(get_benchmark("disk1").moment_matrix(8, mode="empirical", grid=100), 1e-3)


@pytest.mark.parametrize(
    "case",
    [(name, d, 0.0, "") for name in ("sign", "step") for d in (4, 8, 12, 16, 20)]
    + [("disk1", 8, 0.0, ""), ("step", 12, 0.1, ""), ("sign", 8, 0.0, "-monomial"), ("step", 8, 0.1, "-interval")],
    ids=lambda case: f"{case[0]}-d{case[1]}-alpha{case[2]}{case[3]}",
)
def test_full_solve_is_bit_equal_to_the_plain_formulation(case):
    # the monomial case reads phi_j(y) = y^j at the nodes, and the interval case
    # searches (-0.3, 0.7) with rows still in phi on the domain's y-axis.  The full solve
    # matches the plain formulation everywhere, and so does evaluate_batch where the
    # windows cannot run: below their degree, and at alpha > 0
    name, d, alpha, how = case
    if name == "disk1":
        kern = empirical_disk_kernel()
    elif how == "-monomial":
        kern = CDKernel(get_benchmark(name).moment_matrix(d, family=Family.MONOMIAL_GREVLEX), 1e-8)
    else:
        kern = quad_kernel(name, d)
    app = Approximant(kern, ApproxConfig(alpha=alpha, y_interval=(-0.3, 0.7) if how == "-interval" else None))
    X = get_benchmark(name).grid_x(16 if name != "disk1" else (4, 4))
    A = np.stack([app.y_coefficients(x) for x in X])
    spec = app.spec
    for size in (1, 8, 16):
        for s in range(0, X.shape[0], size):
            y_ref, q_ref = _plain_fiber_argmin(A[s : s + size], spec, app._y_interval, alpha, app.config.tie_tol)
            y, q = _full_argmin(A[s : s + size], spec.family, spec.domain[-1], app._y_interval, alpha, app.config.tie_tol)
            np.testing.assert_array_equal(y, y_ref)
            np.testing.assert_array_equal(q, q_ref)
            if d < _WINDOW_MIN_DEGREE or alpha > 0.0:
                y, q = app.evaluate_batch(X[s : s + size])
                np.testing.assert_array_equal(y, y_ref)
                np.testing.assert_array_equal(q, q_ref)


def _scan_minimum(kern, x, centers, lo, hi):
    # the least eval_q_batch over grids of 401 points at half-widths 1e-3 down to 1e-12 around
    # each center, the largest over 20,001 points spanning [lo, hi] ends included, and the
    # argmin
    grids = [np.clip(c + np.linspace(-w, w, 401), lo, hi) for c in centers for w in (1e-3, 1e-6, 1e-9, 1e-12)]
    yy = np.concatenate(grids + [np.linspace(lo, hi, 20_001)])
    q = kern.eval_q_batch(np.c_[np.broadcast_to(x, (yy.size, x.size)), yy])
    local = q[: -20_001]
    j = int(np.argmin(local))
    return local[j], yy[j], q.max()


@pytest.mark.parametrize(
    "name, d, mode, family",
    [(name, d, "quad", Family.LEGENDRE_ORTHONORMAL) for name in ("sign", "step") for d in (12, 16, 20)]
    + [(name, d, "analytic", Family.LEGENDRE_ORTHONORMAL) for name in ("sign", "step") for d in (24, 32, 40)]
    + [("sign", 12, "analytic", Family.MONOMIAL_GREVLEX)],
)
def test_window_route_finds_the_minimum_of_a_dense_local_scan(name, d, mode, family):
    # independent of either solver: q at the reported y is at most the least eval_q_batch of a
    # dense scan around every level and the reported y, times 1 + 1e-11.  Near a minimum q
    # reads with a rounding noise of 7e-13 relative (std over 800 consecutive doubles of y at
    # sign d = 20), so the least of the scan's 3,200 or more values lies up to 2.7e-12 below
    # the true minimum, for the full solve too; 1e-11 is 14 of those stds.  A point may report
    # more only where a tie decided: then its y lies below the scan's argmin and its q within
    # the tie window, tie_tol max(1, min) + 1e-14 max q, of the scanned minimum.  The fiber-1d
    # grids (32 points; the windows answer all) and the analytic d = 24-40 kernels (8 points;
    # at step d = 40 one point's certificate fails) at beta = 1e-8
    bench = get_benchmark(name)
    M = bench.moment_matrix(d, mode=mode, family=family)
    kern = CDKernel(M, 1e-8)
    app = Approximant(kern)
    X = bench.grid_x(32 if mode == "quad" else 8)
    ok = window_route_ok(app, X)
    assert ok.all() if mode == "quad" else ok.sum() >= 7
    levels = _levels(M.entries, M.spec)
    lo, hi = app._y_interval
    ys, qs = app.evaluate_batch(X)
    np.testing.assert_allclose(qs, kern.eval_q_batch(np.c_[X, ys]), rtol=1e-12, atol=0.0)
    ends = kern.eval_q_batch(np.c_[np.repeat(X, 2, axis=0), np.tile([lo, hi], X.shape[0])]).reshape(-1, 2)
    for x, y, q, (q_lo, q_hi) in zip(X, ys, qs, ends):
        least, at, top = _scan_minimum(kern, x, np.append(levels, y), lo, hi)
        if q > least * (1.0 + 1e-11):
            assert y < at
            assert q <= least * (1.0 + 1e-11) + app.config.tie_tol * max(1.0, least) + 1e-14 * top
        # the ends are candidates, and the tie window is at least 1e-14 max(q(lo), q(hi)) above
        # the least candidate: where q(lo) lies that close to the minimum, lo wins the tie
        if q_lo <= least * (1.0 - 1e-11) + 1e-14 * max(q_lo, q_hi):
            assert y == lo


@pytest.mark.parametrize(
    "name, d, mode",
    [(name, d, "quad") for name in ("sign", "step") for d in (12, 16, 20)]
    + [(name, d, "analytic") for name in ("sign", "step") for d in (24, 32)],
)
def test_window_route_agrees_with_the_full_solve(name, d, mode):
    # both routes on the same rows, at the 32-point grid and beta = 1e-8.  Where neither pick
    # is an end of the interval, so no tie with y = lo decides, the window route's y and q
    # stay within |dy| <= 5e-13 and |dq| <= 1.5e-11 q of the full solve's: 10x the largest
    # seen over these ten kernels, 4.8e-14 and 1.5e-12, both at analytic sign d = 32.  Sign's
    # ends are levels, so only a third of its points pick an interior y
    app = Approximant(CDKernel(get_benchmark(name).moment_matrix(d, mode=mode), 1e-8))
    X = get_benchmark(name).grid_x(32)
    spec, A, (lo, hi) = app.spec, app._rows(X), app._y_interval
    ok, y_win, q_win = _window_argmin(A, spec.family, spec.domain[-1], app._y_interval, app.config.tie_tol)
    y_full, q_full = _full_argmin(A, spec.family, spec.domain[-1], app._y_interval, 0.0, app.config.tie_tol)
    inner = ok & ~np.isin(y_win, (lo, hi)) & ~np.isin(y_full, (lo, hi))
    assert inner.sum() >= 8
    assert np.abs(y_win - y_full)[inner].max() <= 5e-13
    assert (np.abs(q_win - q_full) / q_full)[inner].max() <= 1.5e-11


def test_a_window_holding_two_minima_is_not_certified():
    # q = u^2 + (K (u^2 - w^2))^2 at degree 10: the degree-1 row u bounds q >= u^2, and q at its
    # root, K^2 w^4, sets one window |u| <= about K w^2 = 0.01 around it.  That window holds the
    # two minima u = -+sqrt(w^2 - 1/(2 K^2)) and the local maximum u = 0 between them, where
    # dq/dt = 2e-4 t + 4 t^3 - 0.04 t has a_1 = 2.96 and a_3 = 1: a_1 > sum_{j>=2} |a_j| holds,
    # a_1 > sum_{j>=2} j^2 |a_j| does not, so the point takes the full solve and the tie
    # between the two minima goes to the smaller y
    K, w = 1e4, 1e-3
    rows = np.zeros((2, 11))
    rows[:, :3] = legendre_rows([[0.0, 1.0], [-K * w**2, 0.0, K]])
    ok = _window_argmin(rows[None], Family.LEGENDRE_ORTHONORMAL, UNIT, UNIT, 1e-13)[0]
    assert not ok[0]
    y, q = partial_argmin(rows, UNIT)
    u = np.sqrt(w**2 - 0.5 / K**2)
    assert y == pytest.approx(-u, abs=1e-9)
    assert q == pytest.approx(u**2 + (K * (u**2 - w**2)) ** 2, rel=1e-9)


@pytest.mark.parametrize(
    "case", ["abs-d12", "sign-d20-schedule", "step-d20-schedule", "step-d20-alpha", "sign-d8", "step-d8-monomial"]
)
def test_points_the_windows_leave_take_the_full_solve_bit_for_bit(case, monkeypatch):
    # abs has no levels, so no row has degree below d; under the beta schedule the windows
    # cover too much of the interval or their crossings are complex; alpha > 0 and d below
    # _WINDOW_MIN_DEGREE never try the windows.  Each point is then the retained full solve's
    name, d = case.split("-")[0], int(case.split("-")[1][1:])
    family = Family.MONOMIAL_GREVLEX if case.endswith("monomial") else Family.LEGENDRE_ORTHONORMAL
    bench = get_benchmark(name)
    beta = beta_schedule(d) if case.endswith("schedule") else 1e-8
    app = Approximant(CDKernel(bench.moment_matrix(d, mode="quad", family=family), beta),
                      ApproxConfig(alpha=0.1 if case.endswith("alpha") else 0.0))
    X = bench.grid_x(24)
    answered = []

    def spy(*args):
        out = _window_argmin(*args)
        answered.append(int(out[0].sum()))
        return out

    monkeypatch.setattr(approximant, "_window_argmin", spy)
    y, q = app.evaluate_batch(X)
    assert answered == ([0] if case in ("abs-d12", "sign-d20-schedule", "step-d20-schedule") else [])
    spec, A = app.spec, app._rows(X)
    y_ref, q_ref = _full_argmin(A, spec.family, spec.domain[-1], app._y_interval, app.config.alpha, app.config.tie_tol)
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(q, q_ref)
