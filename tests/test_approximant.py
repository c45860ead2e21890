"""Fiber minimization and the graph approximant."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

from cdapprox.approximant import _CHUNK, ApproxConfig, Approximant, partial_argmin
from cdapprox.basis import BasisSpec, Family
from cdapprox.benchmarks import get_benchmark
from cdapprox.cdkernel import CDKernel
from cdapprox.moments import reference_moment_matrix


def legendre_rows(polys):
    # monomial coefficient rows -> rows in the orthonormal Legendre basis of [-1, 1]
    polys = [np.atleast_1d(np.asarray(h, dtype=float)) for h in polys]
    k = max(len(h) for h in polys)
    out = np.zeros((len(polys), k))
    for i, h in enumerate(polys):
        leg = legendre.poly2leg(h)  # drops trailing zeros
        out[i, : len(leg)] = leg
    return out / np.sqrt(np.arange(k) + 0.5)


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


def test_config_validation_and_resolution():
    with pytest.raises(ValueError):
        ApproxConfig(alpha=1.0)
    assert ApproxConfig(epsilon=1e-4).resolve_epsilon() == 1e-4
    assert ApproxConfig(gamma=1e-2).resolve_epsilon() == 5e-3
    assert ApproxConfig().resolve_epsilon() is None


@pytest.mark.parametrize("family", list(Family))
def test_y_coefficients_reproduce_kernel(family):
    # the sum-of-squares rows must reproduce direct kernel evaluation
    M = get_benchmark("sign").moment_matrix(3, family=family)
    kern = CDKernel(M, 1e-4)
    app = Approximant(kern)
    rng = np.random.default_rng(9)
    for x in rng.uniform(-1, 1, size=5):
        rows = app.y_coefficients([x])
        assert rows.shape == (M.n, 4)
        for y in rng.uniform(-1, 1, size=5):
            direct = kern.eval_q([x, y])
            assert float(sos_value(rows, y)) == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_y_coefficients_reproduce_kernel_p3():
    M = get_benchmark("disk1").moment_matrix(2)
    kern = CDKernel(M, 1e-4)
    app = Approximant(kern)
    rng = np.random.default_rng(10)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        rows = app.y_coefficients(x)
        y = rng.uniform(-1, 1)
        direct = kern.eval_q([x[0], x[1], y])
        assert float(sos_value(rows, y)) == pytest.approx(direct, rel=1e-9, abs=1e-12)


@lru_cache(maxsize=None)
def quad_kernel(name, d):
    return CDKernel(get_benchmark(name).moment_matrix(d, mode="quad"), 1e-8)


def test_evaluate_batch_is_bit_identical_per_point():
    # evaluate, evaluate_batch at any batch size, and y_coefficients followed by
    # partial_argmin share one routine whose per-point arithmetic ignores the batch
    app = Approximant(quad_kernel("sign", 20))
    X = get_benchmark("sign").grid_x(2 * _CHUNK + 6)
    ys, qs = app.evaluate_batch(X)
    for size in (1, 7):
        for s in range(0, X.shape[0], size):
            y, q = app.evaluate_batch(X[s : s + size])
            np.testing.assert_array_equal(y, ys[s : s + size])
            np.testing.assert_array_equal(q, qs[s : s + size])
    for i in range(0, X.shape[0], 17):
        assert app.evaluate(X[i]) == (ys[i], qs[i])
        assert partial_argmin(app.y_coefficients(X[i]), (-1.0, 1.0)) == (ys[i], qs[i])


@pytest.mark.parametrize("d", [12, 16, 20])
@pytest.mark.parametrize("name", ["sign", "step", "abs"])
def test_high_degree_fibers_match_spectral_brute_force(name, d):
    # the midpoint grid of 8 keeps every x at least 0.075 away from a jump
    kern = quad_kernel(name, d)
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


def test_approximant_tracks_sign_function():
    M = get_benchmark("sign").moment_matrix(4)
    app = Approximant(CDKernel(M, 1e-8))
    y_neg, _ = app.evaluate([-0.5])
    y_pos, _ = app.evaluate([0.5])
    assert y_neg == pytest.approx(-1.0, abs=1e-3)
    assert y_pos == pytest.approx(1.0, abs=1e-3)
    # at the jump the argmin set is {-1, +1}; the smaller one is returned
    y_zero, _ = app.evaluate([0.0])
    assert y_zero == pytest.approx(-1.0, abs=1e-3)


def test_approximant_validation():
    M = reference_moment_matrix(BasisSpec(1, 2))
    with pytest.raises(ValueError, match="p >= 2"):
        Approximant(CDKernel(M, 1e-3))
    M2 = get_benchmark("sign").moment_matrix(2)
    app = Approximant(CDKernel(M2, 1e-3))
    with pytest.raises(ValueError):
        app.evaluate([0.1, 0.2])
    with pytest.raises(ValueError):
        app.evaluate_batch(np.zeros((3, 2)))


def test_custom_y_interval_restricts_search():
    # restricting the fiber to [0, 1] forces the positive branch at x < 0
    M = get_benchmark("sign").moment_matrix(4)
    app = Approximant(CDKernel(M, 1e-8), ApproxConfig(y_interval=(0.0, 1.0)))
    y, q = app.evaluate([-0.5])
    assert 0.0 <= y <= 1.0
    assert q == pytest.approx(app.kernel.eval_q([-0.5, y]), rel=1e-9)
    # the rows live in the Legendre basis of the search interval
    rows = app.y_coefficients([-0.5])
    for t in (0.1, 0.5, 0.9):
        assert float(sos_value(rows, t, (0.0, 1.0))) == pytest.approx(app.kernel.eval_q([-0.5, t]), rel=1e-9)
