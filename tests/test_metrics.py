"""Error metrics, the L2 projection read off the moment matrix, and the L1 rate bounds."""

import numpy as np
import pytest
from numpy.polynomial import legendre

from cdapprox.basis import BasisSpec, Family, eval_basis_batch
from cdapprox.benchmarks import get_benchmark
from cdapprox.cdkernel import ThresholdParams
from cdapprox.metrics import bv_rate_bound, l1_error, l2_projection, lipschitz_rate_bound, overshoot
from cdapprox.moments import quadrature_moment_matrix


def test_l1_error_hand_values():
    assert l1_error([1.0, 2.0], [0.0, 0.0], 0.5) == pytest.approx(1.5)
    assert l1_error([1.0, -1.0], [1.0, 1.0], [0.25, 0.75]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        l1_error([1.0, 2.0], [0.0], 1.0)


def test_l1_error_is_midpoint_rule():
    # int |x| over [-1, 1] = 1 via midpoint cells
    xs = -1.0 + 2.0 * (np.arange(1000) + 0.5) / 1000
    val = l1_error(np.abs(xs), np.zeros_like(xs), 2.0 / 1000)
    assert val == pytest.approx(1.0, abs=1e-5)


def test_overshoot():
    assert overshoot([0.5, 1.2, -0.1], (0.0, 1.0)) == pytest.approx(0.2)
    assert overshoot([0.5, -0.4], (0.0, 1.0)) == pytest.approx(0.4)
    assert overshoot([0.2, 0.8], (0.0, 1.0)) == 0.0


def _projection_values(matrix, X):
    return eval_basis_batch(matrix.spec.x_spec(), X) @ l2_projection(matrix)


def test_projection_reproduces_polynomials():
    # projecting a polynomial of degree <= the basis degree returns it exactly,
    # on [-1, 1] and on a shifted interval
    f = lambda X: 0.3 - 1.2 * X[:, 0] + 0.5 * X[:, 0] ** 3
    for domain, atol in [(((-1.0, 1.0), (-1.0, 1.5)), 1e-12), (((0.0, 3.0), (-1.0, 11.0)), 1e-11)]:
        M = quadrature_moment_matrix(BasisSpec(2, 5, domain=domain), f)
        X = np.linspace(*domain[0], 33)[:, None]
        np.testing.assert_allclose(_projection_values(M, X), f(X), rtol=0.0, atol=atol)


def test_projection_reproduces_a_polynomial_of_two_variables():
    f = lambda X: 0.2 + X[:, 0] - 0.5 * X[:, 0] * X[:, 1] + 0.3 * X[:, 1] ** 2
    M = quadrature_moment_matrix(BasisSpec(3, 4, domain=((-1.0, 1.0), (0.0, 2.0), (-2.0, 3.0))), f)
    X = np.random.default_rng(4).uniform([-1.0, 0.0], [1.0, 2.0], size=(200, 2))
    np.testing.assert_allclose(_projection_values(M, X), f(X), rtol=0.0, atol=1e-12)


def test_projection_of_sign_has_odd_coefficients():
    coeffs = l2_projection(get_benchmark("sign").moment_matrix(9))
    np.testing.assert_allclose(coeffs[::2], 0.0, atol=1e-14)
    assert abs(coeffs[1]) > 1.0  # dominant linear term


@pytest.mark.parametrize("d", [9, 20])
@pytest.mark.parametrize("name", ["sign", "step", "abs"])
def test_projection_matches_piecewise_legendre_integration(name, d):
    # oracle: int f Ltilde_j dx by Gauss-Legendre between the breakpoints, with
    # Ltilde_j = sqrt((2j+1)/2) P_j on [-1, 1] from numpy's legvander; f is
    # integrated itself, which the moment matrix never sees
    bench = get_benchmark(name)
    cuts = [-1.0, *bench.breakpoints, 1.0]
    u, w = legendre.leggauss(64)
    ref = np.zeros(d + 1)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        t = lo + 0.5 * (hi - lo) * (u + 1.0)
        ref += (legendre.legvander(t, d) * np.sqrt(np.arange(d + 1) + 0.5)).T @ (0.5 * (hi - lo) * w * bench.f(t[:, None]))
    np.testing.assert_allclose(l2_projection(bench.moment_matrix(d)), ref, rtol=0.0, atol=1e-13)


def test_projection_is_the_same_in_both_families():
    sign = get_benchmark("sign")
    X = np.linspace(-1, 1, 101)[:, None]
    by_family = [_projection_values(sign.moment_matrix(8, family=family), X) for family in Family]
    np.testing.assert_allclose(*by_family, rtol=0.0, atol=1e-11)


def test_projection_does_not_depend_on_the_mass_convention():
    # empirical matrices carry mass 1 and analytic ones the x-box volume 2; the
    # solve is scale-invariant, so only the grid's midpoint error separates them
    sign = get_benchmark("sign")
    analytic, empirical = sign.moment_matrix(8), sign.moment_matrix(8, mode="empirical", grid=20_000)
    assert (analytic.mass_m, empirical.mass_m) == (2.0, 1.0)
    np.testing.assert_allclose(l2_projection(empirical), l2_projection(analytic), rtol=0.0, atol=1e-6)


def test_projection_of_sign_exhibits_overshoot():
    # smooth L2 approximations overshoot a jump by a fixed fraction
    vals = _projection_values(get_benchmark("sign").moment_matrix(20), np.linspace(-1, 1, 4001)[:, None])
    assert overshoot(vals, (-1.0, 1.0)) > 0.05


def test_projection_needs_the_moments_of_y():
    with pytest.raises(ValueError, match="d >= 1"):
        l2_projection(get_benchmark("sign").moment_matrix(0))


def test_rate_bound_frozen_values():
    tp = ThresholdParams(p=2, r=2.5, m=2.0, m0=4.0)
    delta0 = 2.0 * np.sqrt(2.0)
    vals = [
        bv_rate_bound(d, tp, vol_x=2.0, diam_y=2.0, delta0=delta0, variation=2.0)
        for d in (2, 4, 6, 8)
    ]
    expected = [148311.11324901824, 38615.564437487395, 22604.914719983964, 16577.61347937857]
    np.testing.assert_allclose(vals, expected, rtol=1e-10)
    # strictly decreasing in d
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lipschitz_rate_bound_behaves():
    tp = ThresholdParams(p=2, r=2.5, m=2.0, m0=2.0)
    delta0 = 2.0 * np.sqrt(2.0)
    vals = [
        lipschitz_rate_bound(d, tp, vol_x=2.0, diam_y=2.0, delta0=delta0, lipschitz=1.0)
        for d in (4, 16, 64)
    ]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError, match="d > 1"):
        lipschitz_rate_bound(1, tp, 2.0, 2.0, delta0, 1.0)


def test_rate_bound_preconditions():
    delta0 = 2.0 * np.sqrt(2.0)
    tp_low_r = ThresholdParams(p=2, r=1.8, m=1.0, m0=1.0)
    with pytest.raises(ValueError, match="r > p"):
        lipschitz_rate_bound(4, tp_low_r, 2.0, 2.0, delta0, 1.0)
    tp_r2 = ThresholdParams(p=2, r=2.0, m=1.0, m0=1.0)
    with pytest.raises(ValueError, match="r > 2"):
        bv_rate_bound(4, tp_r2, 2.0, 2.0, delta0, 2.0)
    tp_p3 = ThresholdParams(p=3, r=3.5, m=1.0, m0=1.0)
    with pytest.raises(ValueError, match="p = 2"):
        bv_rate_bound(4, tp_p3, 2.0, 2.0, delta0, 2.0)
