"""Error metrics, Legendre projections, and the L1 rate bounds."""

import numpy as np
import pytest

from cdapprox.benchmarks import get_benchmark
from cdapprox.cdkernel import ThresholdParams
from cdapprox.metrics import (
    bv_rate_bound,
    eval_projection,
    l1_error,
    legendre_projection,
    lipschitz_rate_bound,
    overshoot,
)


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


def test_projection_reproduces_polynomials():
    # projecting a polynomial of degree <= the basis degree returns it exactly
    f = lambda t: 0.3 - 1.2 * t + 0.5 * t**3
    coeffs = legendre_projection(f, 5)
    t = np.linspace(-1, 1, 33)
    np.testing.assert_allclose(eval_projection(coeffs, (-1, 1), t), f(t), atol=1e-12)
    # and on a shifted interval
    coeffs = legendre_projection(f, 5, interval=(0.0, 3.0))
    t = np.linspace(0, 3, 33)
    np.testing.assert_allclose(eval_projection(coeffs, (0, 3), t), f(t), atol=1e-11)


def test_projection_of_sign_has_odd_coefficients():
    bench = get_benchmark("sign")
    coeffs = legendre_projection(lambda t: bench.f(t[:, None]), 9, jumps=bench.breakpoints)
    np.testing.assert_allclose(coeffs[::2], 0.0, atol=1e-14)
    assert abs(coeffs[1]) > 1.0  # dominant linear term


def test_projection_of_sign_exhibits_overshoot():
    # smooth L2 approximations overshoot a jump by a fixed fraction
    bench = get_benchmark("sign")
    coeffs = legendre_projection(lambda t: bench.f(t[:, None]), 20, jumps=bench.breakpoints)
    t = np.linspace(-1, 1, 4001)
    vals = eval_projection(coeffs, (-1, 1), t)
    assert overshoot(vals, (-1.0, 1.0)) > 0.05


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
