"""Spectral kernel, its Tikhonov values, thresholds, and the perturbation bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdapprox import basis, cdkernel
from cdapprox.basis import _BLOCK, BasisSpec, Family, axis_tables, basis_sqnorm, eval_basis_batch
from cdapprox.benchmarks import get_benchmark
from cdapprox.cdkernel import (
    _BOUND_MARGIN,
    CDKernel,
    ThresholdParams,
    beta_schedule,
    certified_floor,
    gamma_threshold,
    perturbation_alpha,
    threshold_params,
)
from cdapprox.cdkernel import _legendre_christoffel_min as rho
from cdapprox.errors import IndefiniteMatrixError
from cdapprox.moments import MomentMatrix, Provenance


def random_psd_matrix(spec, seed, n_samples=60):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n_samples, spec.size))
    return MomentMatrix(spec, B.T @ B / n_samples, Provenance.EMPIRICAL, 1.0)


@pytest.mark.parametrize("family", list(Family))
def test_filter_values_are_the_tikhonov_values(family):
    # g = 1/(beta + s) bit for bit, on the eigenvalues clipped at zero, and
    # certified_floor's min(g) factor is 1/(beta + lambda_max) from eigvalsh
    mild = MomentMatrix(BasisSpec(2, 1, family=family), np.diag([2.0, 1.0, -1e-9]), Provenance.EMPIRICAL, 1.0)
    for M, beta in [(mild, 0.5), (get_benchmark("sign").moment_matrix(6, family=family), beta_schedule(6))]:
        kern = CDKernel(M, beta)
        assert np.array_equal(kern.eigenvalues, np.clip(np.linalg.eigh(M.entries)[0], 0.0, None))
        assert np.array_equal(kern.filter_values, 1.0 / (beta + kern.eigenvalues))
        sqnorm = 1.0
        if family is Family.LEGENDRE_ORTHONORMAL:
            sqnorm = rho(M.spec.d // M.spec.p) ** M.spec.p / M.spec.domain_volume()
        g_min = 1.0 / (beta + np.linalg.eigvalsh(M.entries)[-1])
        assert certified_floor(M, beta) == g_min * (1.0 - _BOUND_MARGIN) * sqnorm
    assert np.array_equal(CDKernel(mild, 0.5).filter_values, [2.0, 1.0 / 1.5, 0.4])


def test_beta_schedule_values():
    # 2 ** (3 - sqrt(d))
    assert beta_schedule(2) == pytest.approx(3.001713817971854, rel=1e-14)
    assert beta_schedule(4) == pytest.approx(2.0, rel=1e-14)
    assert beta_schedule(6) == pytest.approx(1.4646036102644495, rel=1e-14)
    assert beta_schedule(8) == pytest.approx(1.1262857306253955, rel=1e-14)
    with pytest.raises(ValueError):
        beta_schedule(0)


def test_eval_q_matches_dense_solve():
    # oracle: b^T (M + beta I)^(-1) b via a direct linear solve; beta = 1e-6
    # keeps kappa(M + beta I) ~ 5e6 so both routes agree to 8+ digits
    M = get_benchmark("sign").moment_matrix(2, family=Family.MONOMIAL_GREVLEX)
    beta = 1e-6
    kern = CDKernel(M, beta)
    rng = np.random.default_rng(0)
    Z = rng.uniform(-1, 1, size=(50, 2))
    B = eval_basis_batch(M.spec, Z)
    sol = np.linalg.solve(M.entries + beta * np.eye(M.n), B.T)
    oracle = np.einsum("ij,ji->i", B, sol)
    np.testing.assert_allclose(kern.eval_q_batch(Z), oracle, rtol=1e-8)
    assert kern.eval_q_batch(Z[:1])[0] == pytest.approx(oracle[0], rel=1e-8)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("name", ["disk1", "sign"])
def test_blocked_eval_q_batch_matches_one_shot_spectral_form(name, family):
    # oracle: the whole (N, n) basis projected on the eigenvectors at once
    bench = get_benchmark(name)
    M = bench.moment_matrix(8, family=family)
    kern = CDKernel(M, beta_schedule(8))
    rng = np.random.default_rng(3)
    Z = rng.uniform(-1, 1, size=(2 * _BLOCK + 3, bench.p))
    C = eval_basis_batch(M.spec, Z) @ kern.eigenvectors
    oracle = np.einsum("ij,ij,j->i", C, C, kern.filter_values)
    np.testing.assert_allclose(kern.eval_q_batch(Z), oracle, rtol=1e-13)


def test_eval_q_batch_shapes_and_validation():
    M = get_benchmark("sign").moment_matrix(4)
    kern = CDKernel(M, 1e-3)
    assert kern.eval_q_batch(np.zeros((0, 2))).shape == (0,)
    with pytest.raises(ValueError):
        kern.eval_q_batch(np.zeros((5, 3)))


def test_eval_q_batch_memory_stays_below_the_whole_basis():
    # blocked evaluation never holds the (N, n) basis; no timing is asserted
    M = get_benchmark("disk1").moment_matrix(8)
    kern = CDKernel(M, beta_schedule(8))
    Z = np.random.default_rng(5).uniform(-1, 1, size=(50_000, 3))
    whole = Z.shape[0] * M.n * 8
    tracemalloc.start()
    try:
        kern.eval_q_batch(Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole / 2


def test_eval_q_batch_memory_does_not_grow_with_the_point_count():
    # tables and basis are built per block: beyond the 8N-byte output, the
    # tracemalloc peak stays within a few (n, block) blocks at N = 2e5
    M = get_benchmark("disk1").moment_matrix(8)
    kern = CDKernel(M, beta_schedule(8))
    Z = np.random.default_rng(6).uniform(-1, 1, size=(200_000, 3))
    tracemalloc.start()
    try:
        kern.eval_q_batch(Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 8 * Z.shape[0] < 4 * _BLOCK * M.n * 8


def _count_exact_points(monkeypatch) -> list:
    """Make q_at_least record how many points each of its exact-q basis products receives."""
    sent = []
    product = cdkernel.basis_product

    def counting(spec, tabs):
        sent.append(len(tabs[0]))
        return product(spec, tabs)

    monkeypatch.setattr(cdkernel, "basis_product", counting)
    return sent


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("name,d", [("sign", 4), ("sign", 6), ("sign", 10), ("disk1", 4), ("disk1", 8)])
def test_q_at_least_equals_the_exact_comparison(name, d, family, monkeypatch):
    bench = get_benchmark(name)
    M = bench.moment_matrix(d, family=family)
    kern = CDKernel(M, beta_schedule(d))
    rng = np.random.default_rng(d)
    N = 2 * _BLOCK + 5  # the last block is partial
    box = M.spec.domain_array()
    Z = np.vstack([
        bench.graph_points(bench.random_x(N // 2, rng)),
        rng.uniform(box[:, 0], box[:, 1], size=(N - N // 2, bench.p)),
    ])
    q = kern.eval_q_batch(Z)
    qs = np.sort(q)
    gamma = gamma_threshold(d, threshold_params(M))
    quantiles = [0.5 * (qs[i] + qs[i + 1]) for i in (N // 10, N // 2, 9 * N // 10)]
    sent = _count_exact_points(monkeypatch)
    for level in [gamma, *quantiles, 2.0 * qs[-1]]:
        sent.clear()
        got = kern.q_at_least(Z, level)
        assert got.dtype == bool and got.shape == (N,)
        assert np.array_equal(got, q >= level)
        if level == gamma:
            assert sum(sent) == 0  # gamma_d is vacuous: the bound settles every point
        elif level == quantiles[1]:
            assert 0 < sum(sent) < N  # the bound settles some points, exact q the rest
        elif level > qs[-1]:
            assert sum(sent) == N  # above every q the bound settles none
    assert kern.q_at_least(np.zeros((0, bench.p)), gamma).shape == (0,)
    with pytest.raises(ValueError):
        kern.q_at_least(np.zeros((0, bench.p + 1)), gamma)


@pytest.mark.parametrize("name,d", [("sign", 8), ("disk1", 6)])
def test_q_at_least_at_levels_the_bound_never_settles(name, d, monkeypatch):
    # above max min(g)||b||^2 every point takes exact q from its block's own
    # tables, and the answer is still eval_q_batch's, bit for bit
    bench = get_benchmark(name)
    kern = CDKernel(bench.moment_matrix(d), beta_schedule(d))
    box = kern.spec.domain_array()
    N = _BLOCK + 7
    Z = np.random.default_rng(d).uniform(box[:, 0], box[:, 1], size=(N, bench.p))
    q = kern.eval_q_batch(Z)
    bound = kern.filter_values.min() * basis_sqnorm(kern.spec, axis_tables(kern.spec, Z))
    sent = _count_exact_points(monkeypatch)
    for level in (np.inf, 1.01 * bound.max()):
        sent.clear()
        got = kern.q_at_least(Z, level)
        assert sum(sent) == N
        assert np.array_equal(got, q >= level)
    assert 0 < got.sum() < N  # at the finite level exact q answers both ways


def test_q_at_least_memory_does_not_grow_with_the_point_count():
    # beyond the N-byte output, the tracemalloc peak stays within a few (n, block)
    # blocks at N = 2e5, whether the bound settles every point or none
    M = get_benchmark("disk1").moment_matrix(8)
    kern = CDKernel(M, beta_schedule(8))
    Z = np.random.default_rng(7).uniform(-1, 1, size=(200_000, 3))
    gamma = gamma_threshold(8, threshold_params(M, r=3.5))
    for level, expected in ((gamma, True), (np.inf, False)):
        tracemalloc.start()
        try:
            out = kern.q_at_least(Z, level)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(out == expected)
        assert peak - Z.shape[0] < 4 * _BLOCK * M.n * 8


def _count_table_calls(monkeypatch) -> list:
    """Make every ``axis_tables`` call record how many points it tabulates."""
    calls = []
    tables = basis.axis_tables

    def counting(spec, Z):
        calls.append(len(Z))
        return tables(spec, Z)

    monkeypatch.setattr(basis, "axis_tables", counting)
    return calls


def _box_points(spec, N, seed):
    box = spec.domain_array()
    return np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(N, spec.p))


def _kernel_floor(kern):
    """min(g) (1 - 1e-8) b_0^2 rho(d // p)^p of a kernel (rho = 1 and b_0 = 1 in the monomial family)."""
    spec = kern.spec
    tensor = 1.0
    if spec.family is Family.LEGENDRE_ORTHONORMAL:
        tensor = rho(spec.d // spec.p) ** spec.p / spec.domain_volume()
    return kern.filter_values.min() * (1.0 - _BOUND_MARGIN) * tensor


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("name,d", [("sign", 4), ("disk1", 8)])
def test_q_at_least_at_the_certified_floor_forms_no_exact_q(name, d, family, monkeypatch):
    # q(z) >= min(g) ||b(z)||^2 >= certified_floor at every finite z: at that level
    # the per-point bound settles every finite row with no exact-q product, and rows
    # with a nan or inf coordinate still get eval_q_batch's answer
    M = get_benchmark(name).moment_matrix(d, family=family)
    kern = CDKernel(M, beta_schedule(d))
    level = certified_floor(M, beta_schedule(d))
    assert level > gamma_threshold(d, threshold_params(M))  # the level support_report certifies at
    Z = _box_points(M.spec, _BLOCK + 7, d)
    bad = Z.copy()
    bad[3, 0], bad[10, -1], bad[11, 0] = np.nan, np.inf, -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        q, q_bad = kern.eval_q_batch(Z), kern.eval_q_batch(bad)
        sent = _count_exact_points(monkeypatch)
        got = kern.q_at_least(Z, level)
        assert sent == []
        assert np.array_equal(got, q >= level) and got.all()
        got_bad = kern.q_at_least(bad, level)
    assert sent == [3]  # only the non-finite rows get exact q
    assert np.array_equal(got_bad, q_bad >= level) and not got_bad[3]


def test_q_at_least_bounds_in_blocks_larger_than_a_basis_block(monkeypatch):
    # sign d=8 at 1.5 times the certified minimum min(g) rho(4)^2 / vol:
    # the per-point bound runs and settles every point; it tabulates in blocks
    # above _BLOCK points, which pays numpy's per-call cost less often than one
    # table call per basis block would
    M = get_benchmark("sign").moment_matrix(8)
    kern = CDKernel(M, beta_schedule(8))
    floor = kern.filter_values.min()
    level = 1.5 * floor * rho(4) ** 2 / M.spec.domain_volume()
    N = 8 * _BLOCK + 5
    Z = _box_points(M.spec, N, 8)
    assert floor * basis_sqnorm(M.spec, axis_tables(M.spec, Z)).min() * (1.0 - _BOUND_MARGIN) >= level
    q = kern.eval_q_batch(Z)
    calls = _count_table_calls(monkeypatch)
    sent = _count_exact_points(monkeypatch)
    got = kern.q_at_least(Z, level)
    assert sum(calls) == N and len(calls) < N / _BLOCK
    assert sent == []
    assert np.array_equal(got, q >= level) and got.all()


def _mp_christoffel_grid(m_max, N):
    """Per m <= m_max, (grid min, certified lower bound) of f_m(u) = sum_{j<=m} (2j+1) P_j(u)^2 on [-1, 1].

    f_m is even, so the grid is u = i/N, i = 0..N, evaluated at 40 digits by
    the three-term recurrence for P_j and P_j' = P_{j-2}' + (2j-1) P_{j-1}.
    Every u in [0, 1] lies within h = 1/(2N) of a node g, and Taylor's theorem
    gives f(u) >= f(g) - |f'(g)| h - max|f''| h^2 / 2.  Markov's inequality
    ||p'|| <= n^2 ||p|| on [-1, 1], applied twice to f_m of degree n = 2m with
    ||f_m|| = f_m(1) = (m+1)^2 (as |P_j| <= 1), bounds max|f''|.
    """
    import mpmath

    out = []
    with mpmath.workdps(40):
        u = np.array([mpmath.mpf(i) / N for i in range(N + 1)], dtype=object)
        one, zero = mpmath.mpf(1), mpmath.mpf(0)
        P_prev, P = np.full(N + 1, zero, dtype=object), np.full(N + 1, one, dtype=object)
        D_prev, D = np.full(N + 1, zero, dtype=object), np.full(N + 1, zero, dtype=object)
        f, df = np.full(N + 1, zero, dtype=object), np.full(N + 1, zero, dtype=object)
        h = mpmath.mpf(1) / (2 * N)
        for j in range(m_max + 1):
            # here P = P_j, D = P_j'
            f = f + (2 * j + 1) * P * P
            df = df + 2 * (2 * j + 1) * P * D
            n = 2 * j
            f2_max = mpmath.mpf(n**2 * max(n - 1, 0) ** 2 * (j + 1) ** 2)
            lower = min(f - abs(df) * h) - f2_max * h * h / 2
            out.append((float(min(f)), float(lower)))
            P_prev, P = P, ((2 * j + 1) * u * P - j * P_prev) / (j + 1)
            D_prev, D = D, D_prev + (2 * j + 1) * P_prev
    return out


def test_legendre_christoffel_min_against_a_40_digit_grid():
    # rho(m) is the exact minimum up to rounding: never above the 40-digit grid
    # minimum, never below the grid's Markov-certified lower bound
    for m, (grid_min, lower) in enumerate(_mp_christoffel_grid(12, 4000)):
        assert lower <= rho(m) <= grid_min * (1.0 + 1e-14), m
        assert grid_min - lower < 0.1 * grid_min  # the lower reference is not vacuous
    assert rho(0) == pytest.approx(1.0, rel=1e-14) and rho(1) == pytest.approx(1.0, rel=1e-14)
    assert rho(3) ** 2 > 1 / 0.88 and rho(4) ** 2 > 1 / 0.27  # settles sign at d = 6 and 8


def _sqnorm(spec, Z):
    """||b(z)||^2 at each row of Z from the full basis, block by block."""
    out = np.empty(len(Z))
    for rows, B in basis.basis_blocks(spec, Z):
        out[rows] = np.einsum("ij,ij->j", B, B)
    return out


@pytest.mark.parametrize(
    "domain,d",
    [
        (((0.0, 3.0), (-2.0, 5.0)), 6),
        (((0.0, 3.0), (-2.0, 5.0)), 9),
        (((-1.0, 2.0), (0.0, 0.5), (1.0, 4.0)), 7),
    ],
)
def test_tensor_certificate_is_below_the_squared_basis_norm_inside_and_outside_the_box(domain, d):
    # b_0^2 rho(d // p)^p <= ||b(z)||^2 at every finite z: a dense grid of the
    # box brute-forces the minimum from above, and random points outside the
    # box must clear the certificate too
    spec = BasisSpec(len(domain), d, domain=domain)
    cert = rho(d // spec.p) ** spec.p / spec.domain_volume()
    box = spec.domain_array()
    per_axis = 301 if spec.p == 2 else 61
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, spec.p)
    inside = _sqnorm(spec, grid)
    assert cert <= inside.min() * (1.0 + 1e-12)
    assert cert > 1.0 / spec.domain_volume()  # sharper than b_0^2 at these degrees
    rng = np.random.default_rng(d)
    width = box[:, 1] - box[:, 0]
    Z = rng.uniform(box[:, 0] - 2 * width, box[:, 1] + 2 * width, size=(20_000, spec.p))
    Z = Z[~spec.contains(Z)]
    assert len(Z) > 10_000
    assert np.all(_sqnorm(spec, Z) >= cert * (1.0 - 1e-12))


def test_q_at_least_bound_settles_points_outside_the_box(monkeypatch):
    # sign d=8: just below min(g) b_0^2 rho(4)^2 the per-point bound settles
    # every row, points far outside the box included, with no exact-q product,
    # and the answer is still eval_q_batch's
    M = get_benchmark("sign").moment_matrix(8)
    kern = CDKernel(M, beta_schedule(8))
    level = kern.filter_values.min() * rho(4) ** 2 / M.spec.domain_volume() * (1.0 - 2 * _BOUND_MARGIN)
    rng = np.random.default_rng(5)
    Z = np.vstack([_box_points(M.spec, 500, 5), rng.uniform(-4.0, 4.0, size=(1500, 2))])
    q = kern.eval_q_batch(Z)
    sent = _count_exact_points(monkeypatch)
    got = kern.q_at_least(Z, level)
    assert sent == []
    assert np.array_equal(got, q >= level) and got.all()


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("name,d", [("sign", 8), ("disk1", 6)])
def test_certified_floor_is_below_q_inside_and_outside_the_box(name, d, family, monkeypatch):
    # certified_floor is below q in the box and at points up to 4 outside it;
    # q_at_least settles every such row at that level with no exact-q product,
    # and halfway to min q it forms exact q where the bound is tightest
    M = get_benchmark(name).moment_matrix(d, family=family)
    beta = beta_schedule(d)
    kern = CDKernel(M, beta)
    floor = certified_floor(M, beta)
    rng = np.random.default_rng(d)
    Z = np.vstack([_box_points(M.spec, 1000, d), rng.uniform(-4.0, 4.0, size=(1000, M.spec.p))])
    q = kern.eval_q_batch(Z)
    assert q.min() >= floor
    sent = _count_exact_points(monkeypatch)
    assert kern.q_at_least(Z, floor).all() and sent == []
    level = 0.5 * (floor + q.min())
    assert np.array_equal(kern.q_at_least(Z, level), q >= level) and sent


@pytest.mark.parametrize(
    "name,d,family",
    [("sign", d, Family.LEGENDRE_ORTHONORMAL) for d in range(4, 17)]
    + [(name, d, Family.LEGENDRE_ORTHONORMAL) for name, d in [("step", 8), ("disk1", 4), ("disk1", 8)]]
    + [("sign", 8, Family.MONOMIAL_GREVLEX)],
)
def test_certified_floor_is_the_kernel_floor_from_the_eigenvalues(name, d, family):
    # the min(g) (1 - 1e-8) b_0^2 rho(d // p)^p floor from eigvalsh instead of eigh:
    # equal to eigenvalue rounding, far inside the 1e-8 margin
    M = get_benchmark(name).moment_matrix(d, family=family)
    beta = beta_schedule(d)
    assert certified_floor(M, beta) == pytest.approx(_kernel_floor(CDKernel(M, beta)), rel=1e-13, abs=0.0)


def test_certified_floor_refuses_what_cdkernel_refuses():
    spec = BasisSpec(2, 1)
    base = np.diag([2.0, 1.0, 0.0])
    mild = MomentMatrix(spec, base + np.diag([0, 0, -1e-9]), Provenance.EMPIRICAL, 1.0)
    assert certified_floor(mild, 1e-3) == pytest.approx(_kernel_floor(CDKernel(mild, 1e-3)), rel=1e-13, abs=0.0)
    bad = MomentMatrix(spec, base + np.diag([0, 0, -1e-3]), Provenance.EMPIRICAL, 1.0)
    M = get_benchmark("sign").moment_matrix(2)
    for matrix, beta, error in [(bad, 1e-3, IndefiniteMatrixError)] + [
        (M, beta, ValueError) for beta in (0.0, math.nan, math.inf)
    ]:
        with pytest.raises(error) as by_kernel:
            CDKernel(matrix, beta)
        with pytest.raises(error) as by_floor:
            certified_floor(matrix, beta)
        assert str(by_floor.value) == str(by_kernel.value)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_beta_must_be_positive_and_finite(beta):
    # nan and inf used to pass the beta <= 0 test and give an all-nan or all-zero kernel
    M = get_benchmark("sign").moment_matrix(2)
    with pytest.raises(ValueError, match="finite"):
        CDKernel(M, beta)
    with pytest.raises(ValueError, match="finite"):
        perturbation_alpha(M, M, beta)


def test_filtered_matrix_is_tikhonov_inverse():
    M = random_psd_matrix(BasisSpec(2, 2), seed=5)
    kern = CDKernel(M, 0.1)
    expected = np.linalg.inv(M.entries + 0.1 * np.eye(M.n))
    np.testing.assert_allclose(kern.filtered_matrix(), expected, rtol=1e-10, atol=1e-12)


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=30, deadline=None)
def test_kernel_is_nonnegative(seed):
    M = random_psd_matrix(BasisSpec(2, 2), seed)
    kern = CDKernel(M, 1e-6)
    rng = np.random.default_rng(seed + 1)
    Z = rng.uniform(-1, 1, size=(20, 2))
    assert np.all(kern.eval_q_batch(Z) >= 0.0)


@pytest.mark.parametrize("family", list(Family))
def test_sos_decomposition_reconstructs_kernel(family):
    M = get_benchmark("sign").moment_matrix(2, family=family)
    kern = CDKernel(M, 1e-4)
    W = kern.sos_decomposition()
    assert W.shape == (M.n, M.n)
    z = np.array([[0.3, -0.6]])
    b = eval_basis_batch(M.spec, z)[0]
    assert float(np.sum((W @ b) ** 2)) == pytest.approx(kern.eval_q_batch(z)[0], rel=1e-10)
    # rows follow ascending eigenvalues, so squared row norms are nonincreasing
    norms = np.sum(kern.sos_decomposition() ** 2, axis=1)
    assert np.all(np.diff(norms) <= 1e-12)


def test_eigenvalue_clip_rule():
    spec = BasisSpec(2, 1)
    base = np.diag([2.0, 1.0, 0.0])
    # within the clip window: accepted and clipped to zero
    mild = MomentMatrix(spec, base + np.diag([0, 0, -1e-9]), Provenance.EMPIRICAL, 1.0)
    kern = CDKernel(mild, 1e-3)
    assert kern.eigenvalues[0] == 0.0
    assert np.all(np.isfinite(kern.filter_values))
    # clearly indefinite: rejected
    bad = MomentMatrix(spec, base + np.diag([0, 0, -1e-3]), Provenance.EMPIRICAL, 1.0)
    with pytest.raises(IndefiniteMatrixError):
        CDKernel(bad, 1e-3)
    with pytest.raises(ValueError):
        CDKernel(mild, 0.0)


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=30, deadline=None)
def test_markov_mass_at_most_n(seed):
    M = random_psd_matrix(BasisSpec(2, 3), seed, n_samples=30)
    kern = CDKernel(M, 10.0 ** -(seed % 6 + 1))
    assert kern.markov_mass() <= M.n + 1e-9


def test_threshold_params_validation():
    with pytest.raises(ValueError):
        ThresholdParams(p=0, r=2.5, m=1.0, m0=1.0)
    with pytest.raises(ValueError):
        ThresholdParams(p=2, r=0.0, m=1.0, m0=1.0)
    with pytest.raises(ValueError):
        ThresholdParams(p=2, r=2.5, m=0.0, m0=1.0)
    with pytest.raises(ValueError):
        ThresholdParams(p=2, r=2.5, m=1.0, m0=1.0, alpha=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ThresholdParams(p=2, r=bad, m=1.0, m0=1.0)
        with pytest.raises(ValueError, match="finite"):
            ThresholdParams(p=2, r=2.5, m=bad, m0=1.0)
        with pytest.raises(ValueError, match="finite"):
            ThresholdParams(p=2, r=2.5, m=1.0, m0=bad)
    # r <= p is allowed in general, rejected only for the rate statements
    tp = ThresholdParams(p=2, r=1.0, m=1.0, m0=1.0)
    with pytest.raises(ValueError, match="r > p"):
        tp.validate_rate()
    ThresholdParams(p=2, r=2.5, m=1.0, m0=1.0).validate_rate()


def test_threshold_params_defaults():
    M = get_benchmark("sign").moment_matrix(2)
    tp = threshold_params(M)
    assert tp.p == 2
    assert tp.r == 2.5
    assert tp.m == pytest.approx(2.0)  # mass of the graph measure, vol [-1,1]
    assert tp.m0 == pytest.approx(4.0)  # volume of the box [-1,1]^2
    assert tp.alpha == 0.0


def test_gamma_threshold_frozen_values():
    # (1-alpha)/(8(m+m0)) * e^(2r) d^r / (3r)^(2r) at r=2.5, m=2, m0=4
    tp = ThresholdParams(p=2, r=2.5, m=2.0, m0=4.0)
    assert gamma_threshold(2, tp) == pytest.approx(7.370549111659801e-4, rel=1e-12)
    assert gamma_threshold(4, tp) == pytest.approx(4.169412206338504e-3, rel=1e-12)
    assert gamma_threshold(6, tp) == pytest.approx(1.1489548986968773e-2, rel=1e-12)
    assert gamma_threshold(8, tp) == pytest.approx(2.3585757157311357e-2, rel=1e-12)
    with pytest.raises(ValueError):
        gamma_threshold(0, tp)
    # the alpha factor scales the level linearly
    tp_a = ThresholdParams(p=2, r=2.5, m=2.0, m0=4.0, alpha=0.5)
    assert gamma_threshold(2, tp_a) == pytest.approx(0.5 * gamma_threshold(2, tp), rel=1e-12)


def test_gamma_threshold_does_not_require_rate_condition():
    # evaluating at r = e/3 (< p) normalizes (3r)^(2r) to e^(2r)
    r = math.e / 3.0
    tp = ThresholdParams(p=2, r=r, m=1.0, m0=1.0)
    assert gamma_threshold(5, tp) == pytest.approx(5.0**r / 16.0, rel=1e-12)


def test_perturbation_alpha_basics():
    M = get_benchmark("sign").moment_matrix(2, family=Family.MONOMIAL_GREVLEX)
    assert perturbation_alpha(M, M, 1e-3) == pytest.approx(0.0, abs=1e-10)
    rng = np.random.default_rng(1)
    E = rng.uniform(-1e-4, 1e-4, size=(6, 6))
    E = np.tril(E) + np.tril(E, -1).T
    Ma = MomentMatrix(M.spec, M.entries + E, M.provenance, M.mass_m)
    a_small = perturbation_alpha(M, Ma, 1e-3)
    assert 0.0 < a_small < 1.0
    Mb = MomentMatrix(M.spec, M.entries + 10 * E, M.provenance, M.mass_m)
    assert perturbation_alpha(M, Mb, 1e-3) > a_small
    with pytest.raises(ValueError):
        perturbation_alpha(M, Ma, 0.0)
    other = get_benchmark("sign").moment_matrix(3, family=Family.MONOMIAL_GREVLEX)
    with pytest.raises(ValueError, match="bases"):
        perturbation_alpha(M, other, 1e-3)


def test_perturbation_alpha_rejects_non_pd_shift():
    spec = BasisSpec(2, 1)
    Me = MomentMatrix(spec, np.eye(3), Provenance.ANALYTIC, 1.0)
    Ma = MomentMatrix(spec, np.diag([1.0, 1.0, -0.5]), Provenance.EMPIRICAL, 1.0)
    with pytest.raises(IndefiniteMatrixError):
        perturbation_alpha(Me, Ma, 0.1)
    # a beta restoring definiteness is accepted; alpha >= 1 means no guarantee
    alpha = perturbation_alpha(Me, Ma, 1.0)
    assert math.isfinite(alpha) and alpha == pytest.approx(3.0, rel=1e-12)


@given(seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=20, deadline=None)
def test_perturbation_alpha_bounds_relative_kernel_error(seed):
    # the advertised guarantee: sup_z |1 - q_a(z)/q_e(z)| <= alpha
    spec = BasisSpec(2, 2, family=Family.MONOMIAL_GREVLEX)
    Me = random_psd_matrix(spec, seed)
    rng = np.random.default_rng(seed + 1000)
    E = rng.uniform(-1e-3, 1e-3, size=(6, 6))
    E = np.tril(E) + np.tril(E, -1).T
    Ma = MomentMatrix(spec, Me.entries + E, Provenance.EMPIRICAL, 1.0)
    beta = 1e-2
    alpha = perturbation_alpha(Me, Ma, beta)
    Z = rng.uniform(-1, 1, size=(200, 2))
    B = eval_basis_batch(spec, Z)
    qe = np.einsum("ij,ji->i", B, np.linalg.solve(Me.entries + beta * np.eye(6), B.T))
    qa = np.einsum("ij,ji->i", B, np.linalg.solve(Ma.entries + beta * np.eye(6), B.T))
    assert np.max(np.abs(1.0 - qa / qe)) <= alpha + 1e-10
