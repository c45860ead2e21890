"""A 50-digit reference for the regularized Christoffel-Darboux polynomial q.

M is the moment matrix of a benchmark's graph measure in the orthonormal
Legendre family on [-1, 1]^p, each entry ``moment_oracle.orthonormal_entry``'s
40-digit basis change of the closed-form moments.  With L the mpmath Cholesky
factor of M + beta I, q*(z) = b(z)^T (M + beta I)^-1 b(z) = ||L^-1 b(z)||^2,
the basis b(z) in mpmath Legendre values and the triangular solve written
out here, all at 50 digits.  Nothing is shared with the library beyond the
exponent order.
"""

from functools import lru_cache

import mpmath

from moment_oracle import MOMENTS, orthonormal_entry

DPS = 50


@lru_cache(maxsize=None)
def _cholesky(name: str, spec, beta: float):
    """The lower Cholesky factor of M + beta I for the benchmark ``name``, as an mpmath matrix."""
    n = spec.size
    moment = MOMENTS[name]
    with mpmath.workdps(DPS):
        A = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(i + 1):
                A[i, j] = A[j, i] = orthonormal_entry(moment, spec, i, j)
            A[i, i] += mpmath.mpf(beta)
        return mpmath.cholesky(A)


def _basis(spec, z) -> list:
    """b(z): the orthonormal Legendre basis of ``spec`` on [-1, 1]^p at one point, in mpmath."""
    values = [[mpmath.sqrt(mpmath.mpf(2 * k + 1) / 2) * mpmath.legendre(k, mpmath.mpf(t)) for k in range(spec.d + 1)]
              for t in z]
    return [mpmath.fprod(values[axis][int(k)] for axis, k in enumerate(a)) for a in spec.indices]


def reference_q(name: str, spec, beta: float, Z) -> list:
    """q*(z) at each row of Z, as 50-digit mpf, for the graph measure of ``name`` and the orthonormal ``spec``."""
    with mpmath.workdps(DPS):
        L = _cholesky(name, spec, beta)
        out = []
        for z in Z:
            b = _basis(spec, z)
            y = []
            for i in range(spec.size):  # forward substitution: y = L^-1 b
                y.append((b[i] - mpmath.fsum(L[i, k] * y[k] for k in range(i))) / L[i, i])
            out.append(mpmath.fsum(t * t for t in y))
        return out
