"""The float bound constants against a 40-digit mpmath evaluation of the same formulas.

The library sums ``outside_mass_bound`` in log space and builds both rate
bounds from it in plain floats.  The oracle here writes each formula out as
printed, products and powers included, in 40-digit arithmetic, so the
intermediate (3r)^(2r) that overflows double precision is harmless to it.
"""

import sys

import mpmath
import pytest

from cdapprox.cdkernel import ThresholdParams
from cdapprox.metrics import bv_rate_bound, lipschitz_rate_bound
from cdapprox.support import outside_mass_bound

RTOL = 1e-11
DELTA0, VOL_X, DIAM_Y, LIPSCHITZ, VARIATION = 2.8284271247461903, 2.0, 2.0, 1.0, 2.0


def _tail(d, tp):
    # (1+a)/(1-a) 8 (m+m0) (3r)^(2r) e^(p^2/d) / (p^p e^(2r-p) d^(r-p))
    a, m, m0 = mpmath.mpf(tp.alpha), mpmath.mpf(tp.m), mpmath.mpf(tp.m0)
    p, r, d = mpmath.mpf(tp.p), mpmath.mpf(tp.r), mpmath.mpf(d)
    return (
        (1 + a) / (1 - a) * 8 * (m + m0) * (3 * r) ** (2 * r) * mpmath.e ** (p * p / d)
        / (p**p * mpmath.e ** (2 * r - p) * d ** (r - p))
    )


def _radius(d):
    return mpmath.mpf(DELTA0) / (mpmath.sqrt(d) - 1)


def _lipschitz(d, tp):
    return VOL_X * _radius(d) * (1 + LIPSCHITZ) + DIAM_Y * _tail(d, tp)


def _bv(d, tp):
    q = mpmath.mpf(d) ** mpmath.mpf("0.25")
    return VOL_X * (2 * _radius(d) + 1 / q) + DIAM_Y * (_tail(d, tp) + 4 * q * VARIATION * _radius(d))


BOUNDS = {
    "outside_mass": (outside_mass_bound, _tail),
    "lipschitz": (lambda d, tp: lipschitz_rate_bound(d, tp, VOL_X, DIAM_Y, DELTA0, LIPSCHITZ), _lipschitz),
    "bv": (lambda d, tp: bv_rate_bound(d, tp, VOL_X, DIAM_Y, DELTA0, VARIATION), _bv),
}


def _mismatch(value, exact):
    """None when the float value matches the exact one: inf beyond double range, else to RTOL."""
    top = mpmath.mpf(sys.float_info.max)
    if exact > top * (1 + RTOL):
        return None if value == float("inf") else f"{value!r} where the exact bound {exact} overflows"
    if exact < top * (1 - RTOL) and abs(value - exact) <= RTOL * exact:
        return None
    return f"{value!r} vs exact {mpmath.nstr(exact, 20)}"


def _sweep(p):
    rs = [p + 0.01, p + 0.5, p + 1.0, 5.5, 10.0, 20.0, 33.3, 50.0, 77.0, 100.0, 126.0, 150.0, 160.0]
    for r in rs:
        for alpha in (0.0, 0.3, 0.9):
            for m, m0 in ((2.0, 4.0), (0.37, 0.0)):
                yield ThresholdParams(p=p, r=r, m=m, m0=m0, alpha=alpha)


# the variation bound applies to p = 2 only
@pytest.mark.parametrize("name, p", [(n, p) for n in sorted(BOUNDS) for p in (2, 3) if n != "bv" or p == 2])
def test_bounds_match_a_40_digit_evaluation(name, p):
    lib, exact = BOUNDS[name]
    bad, finite, overflowed = [], 0, 0
    with mpmath.workdps(40):
        for tp in _sweep(p):
            for d in (2, 3, 4, 7, 16, 64, 255, 1024, 4096):
                value = lib(d, tp)
                err = _mismatch(value, exact(d, tp))
                if err:
                    bad.append(f"p={p} r={tp.r} alpha={tp.alpha} m={tp.m} m0={tp.m0} d={d}: {err}")
                finite += value < float("inf")
                overflowed += value == float("inf")
    assert bad == []
    # the sweep reaches both regimes: representable bounds and bounds beyond double range
    assert finite > 100 and overflowed > 100


@pytest.mark.parametrize("d", [2, 4, 16, 4096])
def test_bounds_are_exact_where_the_intermediate_power_overflows(d):
    # at r = 77, (3r)^(2r) ~ 1e364 is beyond double range but every bound is not
    tp = ThresholdParams(p=2, r=77.0, m=1.0, m0=1.0)
    with mpmath.workdps(40):
        assert (3 * mpmath.mpf(tp.r)) ** (2 * tp.r) > sys.float_info.max
        for lib, exact in BOUNDS.values():
            value = lib(d, tp)
            assert value < float("inf")
            assert _mismatch(value, exact(d, tp)) is None


@pytest.mark.parametrize("r, d, alpha", [(150.0, 4, 0.0), (160.0, 2, 0.9), (120.0, 2, 0.0)])
def test_bounds_beyond_double_range_are_inf(r, d, alpha):
    tp = ThresholdParams(p=2, r=r, m=1.0, m0=1.0, alpha=alpha)
    with mpmath.workdps(40):
        assert _tail(d, tp) > sys.float_info.max
    for lib, _ in BOUNDS.values():
        assert lib(d, tp) == float("inf")
