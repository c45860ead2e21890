"""Benchmark graph functions: values, exact graph rules, matrix builders."""

import math

import numpy as np
import pytest
from moment_oracle import MOMENTS, NAMES, hankel, orthonormal_entry
from scipy import integrate

from cdapprox.basis import Family
from cdapprox.benchmarks import BENCHMARKS, get_benchmark, midpoint_grid, uniform_box
from cdapprox.moments import Provenance, empirical_moment_matrix

MONO = Family.MONOMIAL_GREVLEX


def test_registry_and_lookup():
    assert sorted(BENCHMARKS) == ["abs", "disk1", "disk2", "sign", "step"]
    assert get_benchmark("sign").name == "sign"
    with pytest.raises(ValueError, match="unknown benchmark"):
        get_benchmark("nope")


def test_function_values():
    sign = get_benchmark("sign")
    np.testing.assert_array_equal(
        sign.f(np.array([[-0.5], [0.0], [0.5]])), [-1.0, 1.0, 1.0]
    )
    assert sign.jumps == (0.0,)
    assert sign.variation == 2.0

    ab = get_benchmark("abs")
    np.testing.assert_allclose(ab.f(np.array([[-0.3], [0.4]])), [0.3, 0.4])
    assert ab.lipschitz == 1.0

    step = get_benchmark("step")
    X = np.array([[-0.9], [-0.5], [0.0], [0.3], [0.9]])
    np.testing.assert_allclose(step.f(X), [-0.6, 0.8, 0.8, -0.2, -0.2])
    assert step.jumps == (-0.5, 0.3)
    assert step.variation == float(np.sum(np.abs(np.diff([-0.6, 0.8, -0.2]))))  # |0.8 + 0.6| + |-0.2 - 0.8|

    disk = get_benchmark("disk1")
    np.testing.assert_array_equal(
        disk.f(np.array([[0.0, 0.0], [0.5, 0.0], [0.6, 0.0]])), [1.0, 1.0, 0.0]
    )

    disk2 = get_benchmark("disk2")
    np.testing.assert_allclose(
        disk2.f(np.array([[0.0, 0.0], [-0.5, -0.5], [0.9, 0.9], [-0.3, -0.3]])),
        [1.0, -0.5, 0.0, 0.5],  # overlap region scores 1 - 0.5
    )


@pytest.mark.parametrize("name", ["sign", "abs", "step"])
def test_univariate_oracle_moments_match_quadrature(name):
    # the tests' closed forms against piecewise adaptive quadrature of x^a1 f(x)^a2 between jumps
    bench = get_benchmark(name)
    cuts = [-1.0, *bench.jumps, 1.0]
    for a1, a2 in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2), (1, 3), (4, 4)]:
        expect = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            val, _ = integrate.quad(
                lambda t: t**a1 * float(bench.f(np.array([[t]]))[0]) ** a2, lo, hi
            )
            expect += val
        assert float(MOMENTS[name]((a1, a2))) == pytest.approx(expect, abs=1e-12)


def test_disk_oracle_moments_match_quadrature():
    # oracle in polar form (smooth integrand): the radial part integrates to
    # R^(a1+a2+2)/(a1+a2+2) and the angular part is quadratured
    bench = get_benchmark("disk1")
    for a1, a2, a3 in [(0, 0, 1), (2, 0, 1), (0, 2, 2), (2, 2, 1), (1, 2, 1), (4, 0, 3)]:
        ang, _ = integrate.quad(
            lambda t: np.cos(t) ** a1 * np.sin(t) ** a2, 0.0, 2.0 * np.pi, epsabs=1e-13
        )
        val = 0.5 ** (a1 + a2 + 2) / (a1 + a2 + 2) * ang
        assert float(MOMENTS["disk1"]((a1, a2, a3))) == pytest.approx(val, abs=1e-12)
    # a3 = 0 reduces to plain box moments
    assert float(MOMENTS["disk1"]((0, 0, 0))) == pytest.approx(4.0)
    assert float(MOMENTS["disk1"]((2, 2, 0))) == pytest.approx(4.0 / 9.0)


def test_grids_and_graph_points():
    bench = get_benchmark("sign")
    X = bench.grid_x(10)
    assert X.shape == (10, 1)
    assert X[0, 0] == pytest.approx(-1.0 + 0.1)  # midpoint of the first cell
    assert X[-1, 0] == pytest.approx(1.0 - 0.1)
    Z = bench.graph_points(X)
    assert Z.shape == (10, 2)
    np.testing.assert_array_equal(Z[:, 1], bench.f(X))

    disk = get_benchmark("disk1")
    G = disk.grid_x(7)
    assert G.shape == (49, 2)
    rng = np.random.default_rng(0)
    R = disk.random_x(100, rng)
    assert R.shape == (100, 2)
    assert np.all(np.abs(R) <= 1.0)


def test_midpoint_grid_refuses_counts_that_do_not_fit_the_box():
    # per-axis counts must name every axis of the box with an integer: a short tuple used to
    # drop axes, and 2.5 points put one on the box edge; scalar and integer counts still work
    square = [(-1.0, 1.0), (-1.0, 1.0)]
    assert midpoint_grid(square, 3).shape == (9, 2)
    assert midpoint_grid(square, (2, np.int64(3))).shape == (6, 2)
    assert get_benchmark("disk1").grid_x((4, 5)).shape == (20, 2)
    for box, counts in [(square, (3,)), (square, (2, 3, 4)), (square[:1], (2.5,)), (square, (2, 2.0))]:
        with pytest.raises(ValueError, match="one integer per axis"):
            midpoint_grid(box, counts)
    with pytest.raises(ValueError, match="one integer per axis"):
        get_benchmark("disk1").grid_x((4,))


def test_midpoint_grid_refuses_a_count_that_is_not_an_integer_or_is_a_bool():
    # a scalar count went through int(): 2.5 gave 2 points per axis, np.float64(3.9) gave 3,
    # "3" gave 3 and True gave 1; a bool passed as an integer, alone or in a tuple
    square = [(-1.0, 1.0), (-1.0, 1.0)]
    assert midpoint_grid(square, np.int64(2)).shape == (4, 2)
    for counts in [2.5, np.float64(3.9), "3", True, np.True_, (True, 2), (2, np.False_)]:
        with pytest.raises(ValueError, match="one integer per axis"):
            midpoint_grid(square, counts)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_uniform_box_draws_what_rng_uniform_draws(k, seed):
    # widths that are not powers of two round in the scaling, so equal bits
    # mean the same two operations in the same order
    setup = np.random.default_rng(100 + seed)
    for _ in range(10):
        lo = setup.normal(scale=3.0, size=k)
        box = np.c_[lo, lo + setup.uniform(0.1, 5.0, size=k)]
        assert not np.any(np.log2(box[:, 1] - box[:, 0]) % 1 == 0)
        got = uniform_box(np.random.default_rng(seed), box, 1000)
        want = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], (1000, k))
        assert got.shape == (1000, k)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("box", [[[-np.inf, 1.0]], [[-1.0, 1.0], [0.0, np.inf]], [[-1e308, 1e308]]])
def test_uniform_box_rejects_infinite_sides(box):
    with pytest.raises(ValueError, match="infinite side"):
        uniform_box(np.random.default_rng(0), np.asarray(box), 10)


@pytest.mark.parametrize("name", ["sign", "disk1"])
def test_sampled_empirical_matrix_is_the_rng_uniform_one(name):
    bench = get_benchmark(name)
    M = bench.moment_matrix(3, mode="empirical", samples=500, rng=np.random.default_rng(5))
    box = bench.x_box()
    X = np.random.default_rng(5).uniform(box[:, 0], box[:, 1], size=(500, box.shape[0]))
    ref = empirical_moment_matrix(bench.spec(3), bench.graph_points(X), note=name)
    np.testing.assert_array_equal(M.entries.view(np.int64), ref.entries.view(np.int64))


def test_moment_matrix_modes():
    bench = get_benchmark("sign")
    Ma = bench.moment_matrix(2)
    assert Ma.provenance is Provenance.ANALYTIC
    assert Ma.spec.family is Family.LEGENDRE_ORTHONORMAL
    Mq = bench.moment_matrix(2, mode="quad")
    np.testing.assert_allclose(Ma.entries, Mq.entries, atol=1e-10)
    Me = bench.moment_matrix(2, mode="empirical", grid=5000)
    np.testing.assert_allclose(Me.entries, Ma.entries / 2.0, atol=2e-3)
    assert Me.mass_m == 1.0
    with pytest.raises(ValueError, match="rng"):
        bench.moment_matrix(2, mode="empirical", samples=10)
    with pytest.raises(ValueError, match="grid or samples"):
        bench.moment_matrix(2, mode="empirical")
    with pytest.raises(ValueError, match="unknown"):
        bench.moment_matrix(2, mode="fancy")
    with pytest.raises(ValueError, match="no exact graph rule; use mode 'quad' or 'empirical'"):
        get_benchmark("disk2").moment_matrix(2)


def test_quadrature_handles_jumps_exactly():
    # without breakpoint splitting the step moments would be off by >> 1e-10
    bench = get_benchmark("step")
    Ma = bench.moment_matrix(3)
    Mq = bench.moment_matrix(3, mode="quad")
    np.testing.assert_allclose(Ma.entries, Mq.entries, atol=1e-10)


@pytest.mark.parametrize("d", [4, 8])
def test_quadrature_cuts_at_the_abs_kink(d):
    # |x| is linear on each side of its kink, so a cut there makes the rule
    # exact; the closed-form monomial moments are the independent reference
    bench = get_benchmark("abs")
    assert bench.kinks == (0.0,) and bench.jumps == () and bench.breakpoints == (0.0,)
    H = hankel(MOMENTS["abs"], bench.spec(d, MONO))
    Q = bench.moment_matrix(d, mode="quad", family=MONO).entries
    assert np.max(np.abs(Q - H)) <= 1e-13 * np.max(np.abs(H))


def test_breakpoints_join_jumps_and_kinks():
    assert get_benchmark("sign").breakpoints == (0.0,)
    assert get_benchmark("step").breakpoints == (-0.5, 0.3)
    assert get_benchmark("disk1").breakpoints == ()


@pytest.mark.parametrize("d", [1, 2, 4, 8])
@pytest.mark.parametrize("name", NAMES)
def test_exact_rule_matches_the_closed_form_moments(name, d):
    # monomial family: every entry is one closed-form moment
    M = get_benchmark(name).moment_matrix(d, family=MONO)
    H = hankel(MOMENTS[name], M.spec)
    assert M.provenance is Provenance.ANALYTIC
    np.testing.assert_allclose(M.entries, H, rtol=0, atol=1e-12)
    assert M.mass_m == pytest.approx(H[0, 0], abs=1e-12)


@pytest.mark.parametrize("d", [12, 16])
@pytest.mark.parametrize("name", NAMES)
def test_exact_rule_matches_the_40_digit_basis_change(name, d):
    # orthonormal family at degrees where a double-precision change of basis
    # from monomial moments has already lost digits: sampled entries, among them
    # the top-degree corner, against the closed forms expanded in mpmath
    M = get_benchmark(name).moment_matrix(d)
    n = M.n
    rng = np.random.default_rng(d)
    pairs = [(0, 0), (0, n - 1), (n - 1, n - 1), *rng.integers(0, n, size=(9, 2)).tolist()]
    for i, j in pairs:
        assert M.entries[i, j] == pytest.approx(float(orthonormal_entry(MOMENTS[name], M.spec, i, j)), abs=1e-12)


@pytest.mark.parametrize(
    "name,d",
    [(name, d) for name in ("sign", "step", "abs") for d in (8, 16, 24, 32)] + [("disk1", 8), ("disk1", 16)],
)
def test_exact_rule_matrix_is_psd_to_rounding(name, d):
    # disk1 stops at d = 16: n is 2925 at d = 24
    evals = np.linalg.eigvalsh(get_benchmark(name).moment_matrix(d).entries)
    assert evals[0] >= -1e-14 * evals[-1]


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("name", NAMES)
def test_graph_measure_mass_is_the_x_box_volume_exactly(name, d):
    # the graph measure pushes Lebesgue measure on the x-box forward, so its
    # mass is the box's volume; a sum of rule weights would carry rounding
    bench = get_benchmark(name)
    volume = math.prod(hi - lo for lo, hi in bench.domain[:-1])
    for mode in ("analytic", "quad"):
        assert bench.moment_matrix(d, mode=mode).mass_m == volume
