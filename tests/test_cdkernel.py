"""Spectral kernel, filters, thresholds, and the perturbation bound."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdapprox.basis import BasisSpec, Family, eval_basis, eval_basis_batch
from cdapprox.benchmarks import get_benchmark
from cdapprox.cdkernel import (
    _BLOCK,
    CDKernel,
    FilterKind,
    ThresholdParams,
    apply_filter,
    beta_schedule,
    gamma_threshold,
    perturbation_alpha,
    threshold_params,
)
from cdapprox.errors import IndefiniteMatrixError
from cdapprox.moments import MomentMatrix, Provenance


def random_psd_matrix(spec, seed, n_samples=60):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n_samples, spec.size))
    return MomentMatrix(spec, B.T @ B / n_samples, Provenance.EMPIRICAL, 1.0)


def test_filter_values():
    s = np.array([0.0, 0.5, 2.0])
    np.testing.assert_allclose(
        apply_filter(FilterKind.TIKHONOV, s, 0.5), [2.0, 1.0, 0.4]
    )
    np.testing.assert_allclose(apply_filter(FilterKind.CUTOFF, s, 0.5), [2.0, 2.0, 0.5])
    np.testing.assert_allclose(apply_filter(FilterKind.LOWPASS, s, 0.5), [2.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        apply_filter(FilterKind.TIKHONOV, s, 0.0)


@given(
    s=st.floats(min_value=0.0, max_value=1e6),
    beta=st.floats(min_value=1e-9, max_value=10.0),
)
def test_filters_dominated_by_tikhonov_shape(s, beta):
    # all three filters satisfy s * g(s) <= 1 and g(s) <= 1/beta
    for kind in FilterKind:
        g = float(apply_filter(kind, np.array([s]), beta)[0])
        assert 0.0 <= g <= 1.0 / beta + 1e-12
        assert s * g <= 1.0 + 1e-9


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
    assert kern.eval_q(Z[0]) == pytest.approx(oracle[0], rel=1e-8)


@pytest.mark.parametrize("kind", list(FilterKind))
@pytest.mark.parametrize("name", ["disk1", "sign"])
def test_blocked_eval_q_batch_matches_one_shot_spectral_form(name, kind):
    # oracle: the whole (N, n) basis projected on the eigenvectors at once
    bench = get_benchmark(name)
    M = bench.moment_matrix(8)
    kern = CDKernel(M, beta_schedule(8), kind)
    if kind is FilterKind.LOWPASS:
        assert np.any(kern.filter_values == 0.0)  # zero rows in the SOS form
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


def test_eval_q_checks_its_point():
    M = get_benchmark("sign").moment_matrix(4)
    kern = CDKernel(M, 1e-3)
    z = np.array([0.3, -0.2])
    assert kern.eval_q(z) == kern.eval_q_batch(z[None, :])[0]
    with pytest.raises(ValueError):
        kern.eval_q(np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        kern.eval_q(np.array([np.inf, 0.0]))
    with pytest.warns(RuntimeWarning):
        kern.eval_q(np.array([1.5, 0.0]))
    mono = CDKernel(get_benchmark("sign").moment_matrix(4, family=Family.MONOMIAL_GREVLEX), 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mono.eval_q(np.array([1.5, 0.0]))


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


def test_sos_decomposition_reconstructs_kernel():
    M = get_benchmark("sign").moment_matrix(2)
    for kind in FilterKind:
        kern = CDKernel(M, 1e-4, kind)
        W = kern.sos_decomposition()
        assert W.shape == (M.n, M.n)
        z = np.array([0.3, -0.6])
        b = eval_basis(M.spec, z)
        assert float(np.sum((W @ b) ** 2)) == pytest.approx(kern.eval_q(z), rel=1e-10)
    # rows follow ascending eigenvalues, so squared row norms are nonincreasing
    kern = CDKernel(M, 1e-4)
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
    for kind in FilterKind:
        kern = CDKernel(M, 10.0 ** -(seed % 6 + 1), kind)
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
