"""Closed-form monomial moments of the benchmark graph measures.

This is the tests' independent oracle for the library's exact graph rules:
the moments are integrated by hand, evaluated in 40-digit mpmath, and turned
into Gram matrices here without any library code beyond the exponent order.
``tests/test_benchmarks.py`` checks the moments themselves against
``scipy.integrate.quad``.
"""

import itertools
import math
from functools import lru_cache

import mpmath
import numpy as np

DPS = 40


def _sign(a1, a2):
    return mpmath.mpf((-1) ** (a1 + a2) + 1) / (a1 + 1)


def _abs(a1, a2):
    return mpmath.mpf(1 + (-1) ** a1) / (a1 + a2 + 1)


def _step(a1, a2, edges=(-1.0, -0.5, 0.3, 1.0), values=(-0.6, 0.8, -0.2)):
    # the library's breakpoints and values, taken as the exact binary numbers it holds
    e = [mpmath.mpf(t) for t in edges]
    pieces = zip(values, e, e[1:])
    return sum(mpmath.mpf(v) ** a2 * (hi ** (a1 + 1) - lo ** (a1 + 1)) / (a1 + 1) for v, lo, hi in pieces)


def _disk1(a1, a2, a3, radius=mpmath.mpf(1) / 2):
    if a3 == 0:  # f = 0 off the disk and f^0 = 1 on it: the plain box moment
        return _abs(a1, 0) * _abs(a2, 0)
    if a1 % 2 or a2 % 2:  # the powers of the indicator all equal the indicator
        return mpmath.mpf(0)
    u, v = mpmath.mpf(a1 + 1) / 2, mpmath.mpf(a2 + 1) / 2
    return 2 * radius ** (a1 + a2 + 2) / (a1 + a2 + 2) * mpmath.beta(u, v)


def closed_form(fn):
    """The moment function a -> fn(*a), evaluated in 40 digits and cached per exponent tuple."""

    @lru_cache(maxsize=None)
    def moment(a: tuple):
        with mpmath.workdps(DPS):
            return fn(*a)

    return moment


# int z^a d(graph measure of each benchmark that has an exact rule), as 40-digit mpf
MOMENTS = {
    "sign": closed_form(_sign),
    "abs": closed_form(_abs),
    "step": closed_form(_step),
    "disk1": closed_form(_disk1),
}
NAMES = tuple(MOMENTS)


def _add(a, b) -> tuple:
    return tuple(int(s) + int(t) for s, t in zip(a, b))


def hankel(moment, spec) -> np.ndarray:
    """Monomial-grevlex moment matrix H[i, j] = moment(a_i + a_j), rounded to double."""
    idx = spec.indices
    return np.array([[float(moment(_add(a, b))) for b in idx] for a in idx])


@lru_cache(maxsize=None)
def _legendre_terms(k: int) -> tuple:
    """(exponent, coefficient) of the orthonormal Legendre polynomial of degree k on [-1, 1].

    P_k(t) = 2^-k sum_m (-1)^m C(k, m) C(2k - 2m, k) t^(k - 2m), scaled by sqrt((2k + 1) / 2).
    """
    with mpmath.workdps(DPS):
        norm = mpmath.sqrt(mpmath.mpf(2 * k + 1) / 2) / 2**k
        return tuple(
            (k - 2 * m, norm * (-1) ** m * math.comb(k, m) * math.comb(2 * k - 2 * m, k)) for m in range(k // 2 + 1)
        )


def _expansion(a) -> list:
    # monomial terms (exponent tuple, coefficient) of the tensor basis element with degrees a
    out = []
    for terms in itertools.product(*(_legendre_terms(int(k)) for k in a)):
        out.append((tuple(e for e, _ in terms), mpmath.fprod(c for _, c in terms)))
    return out


def orthonormal_entry(moment, spec, i: int, j: int):
    """M[i, j] in the orthonormal Legendre family on [-1, 1]^p: the basis change of the moments in 40 digits."""
    with mpmath.workdps(DPS):
        rows = [_expansion(spec.indices[i]), _expansion(spec.indices[j])]
        return mpmath.fsum(ci * cj * moment(_add(ei, ej)) for ei, ci in rows[0] for ej, cj in rows[1])
