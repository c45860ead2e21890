"""Support-localization bounds and the Monte Carlo evidence report."""

import dataclasses

import numpy as np
import pytest

from cdapprox import basis, benchmarks, support
from cdapprox.benchmarks import get_benchmark
from cdapprox.cdkernel import CDKernel, ThresholdParams, beta_schedule, certified_floor
from cdapprox.support import (
    SupportReport,
    distance_bound,
    graph_mesh,
    outside_mass_bound,
    support_report,
)


def test_outside_mass_bound_frozen_values():
    # (1+a)/(1-a) * 8 (m+m0) (3r)^(2r) e^(p^2/d) / (p^p e^(2r-p) d^(r-p))
    tp = ThresholdParams(p=2, r=2.5, m=2.0, m0=4.0)
    assert outside_mass_bound(2, tp) == pytest.approx(74076.09556087617, rel=1e-10)
    assert outside_mass_bound(4, tp) == pytest.approx(19269.41825771302, rel=1e-10)
    assert outside_mass_bound(6, tp) == pytest.approx(11273.483841990335, rel=1e-10)
    assert outside_mass_bound(8, tp) == pytest.approx(8264.305532834347, rel=1e-10)


def test_outside_mass_bound_decays_at_the_advertised_rate():
    tp = ThresholdParams(p=2, r=2.5, m=2.0, m0=4.0)
    # r - p = 1/2: quadrupling d should roughly halve the bound
    b = [outside_mass_bound(d, tp) for d in (16, 64, 256)]
    assert b[1] / b[0] == pytest.approx(0.5, abs=0.1)
    assert b[2] / b[1] == pytest.approx(0.5, abs=0.05)


def test_outside_mass_bound_validation():
    tp = ThresholdParams(p=2, r=1.5, m=1.0, m0=1.0)
    with pytest.raises(ValueError, match="r > p"):
        outside_mass_bound(4, tp)
    tp_ok = ThresholdParams(p=2, r=2.5, m=1.0, m0=1.0)
    with pytest.raises(ValueError, match="degree"):
        outside_mass_bound(0, tp_ok)


def test_outside_mass_bound_survives_large_r():
    # at r = 77 the intermediate (3r)^(2r) ~ 1e364 overflows double
    # arithmetic, but the bound itself (~7.3e253) is representable
    tp = ThresholdParams(p=2, r=77.0, m=1.0, m0=1.0)
    assert outside_mass_bound(4, tp) == pytest.approx(7.333964065993378e253, rel=1e-8)
    # a result beyond double range saturates to inf instead of raising
    tp_huge = ThresholdParams(p=2, r=150.0, m=1.0, m0=1.0)
    assert outside_mass_bound(4, tp_huge) == np.inf


def test_distance_bound():
    delta0 = 2.0 * np.sqrt(2.0)
    assert distance_bound(4, delta0) == pytest.approx(2.8284271247461903, rel=1e-12)
    assert distance_bound(6, delta0) == pytest.approx(1.9513260710043403, rel=1e-12)
    assert distance_bound(8, delta0) == pytest.approx(1.5469181606780271, rel=1e-12)
    with pytest.raises(ValueError):
        distance_bound(1, delta0)
    with pytest.raises(ValueError):
        distance_bound(4, 0.0)


def test_graph_mesh_lies_on_graph_and_reports_slack():
    bench = get_benchmark("sign")
    Z, slack = graph_mesh(bench, 1000)
    assert Z.shape == (1000, 2)
    np.testing.assert_array_equal(Z[:, 1], bench.f(Z[:, :1]))
    # jump-straddling gaps are excluded, so the slack tracks the x spacing
    assert slack == pytest.approx(0.5 * 2.0 / 1000, rel=0.1)

    disk = get_benchmark("disk1")
    Z3, slack3 = graph_mesh(disk, 900)
    assert Z3.shape == (900, 3)
    assert slack3 > 0.0

    # p = 2 against an independent computation: half the largest np.linalg.norm of the
    # mesh differences, skipping the gaps across a declared jump or a dropped grid point
    # (the non-finite sign drops two end runs, the holed one a run inside)
    holed = dataclasses.replace(bench, f=lambda X: np.where(np.abs(X[:, 0] - 0.3) < 0.1, np.nan, bench.f(X)))
    for graph in (bench, get_benchmark("step"), get_benchmark("abs"), _sign_with_non_finite_f(), holed):
        for n in (50, 500, 10_000):
            Z, slack = graph_mesh(graph, n)
            x = Z[:, 0]
            gaps = np.linalg.norm(np.diff(Z, axis=0), axis=1)
            adjacent = np.diff(x) < 1.5 * 2.0 / n  # the x-box is [-1, 1], so the grid step is 2/n
            clear = np.array([not any(a < t <= b for t in graph.jumps) for a, b in zip(x[:-1], x[1:])])
            assert slack == 0.5 * np.max(gaps[adjacent & clear])
    # p = 3 in closed form: half the diagonal of a cell of the 30 x 30 and 100 x 100 grids on [-1, 1]^2
    assert slack3 == 0.5 * (2.0 / 30) * np.sqrt(2.0)
    assert graph_mesh(disk, 10_000)[1] == 0.5 * (2.0 / 100) * np.sqrt(2.0)


def test_support_report_fields_and_determinism():
    bench = get_benchmark("sign")
    M = bench.moment_matrix(4)
    kwargs = dict(n_mass_samples=2000, n_probes=2000, mesh_points=500, seed=7)
    rep = support_report(bench, M, beta_schedule(4), **kwargs)
    assert isinstance(rep, SupportReport)
    assert rep.benchmark == "sign" and rep.d == 4 and rep.seed == 7
    assert rep.r == 2.5 and rep.m == pytest.approx(2.0) and rep.m0 == pytest.approx(4.0)
    # theorem constants dwarf the actual mass/distances at these degrees, so
    # both checks hold (the sublevel set is empty: vacuous but correct)
    assert rep.mass_ok and rep.distance_ok
    assert rep.outside_mass <= rep.outside_mass_bound
    assert rep.n_members == 0 and rep.max_distance == 0.0
    assert rep.sublevel_empty  # the certificate, not the sample, shows the set is empty
    rep2 = support_report(bench, M, beta_schedule(4), **kwargs)
    assert rep.to_dict() == rep2.to_dict()
    d = rep.to_dict()
    assert set(d) >= {"gamma", "outside_mass", "max_distance", "mesh_slack", "sublevel_empty"}


def test_support_report_rejects_degree_one():
    bench = get_benchmark("sign")
    M = bench.moment_matrix(1)
    with pytest.raises(ValueError, match="d > 1"):
        support_report(bench, M, 1e-3)


@pytest.mark.parametrize(
    "sizes",
    [
        dict(n_mass_samples=0),
        dict(n_probes=0),
        dict(n_mass_samples=-5),
        dict(mesh_points=0),
        dict(mesh_points=1),
    ],
)
def test_support_report_rejects_empty_samples_and_meshes(sizes):
    # an empty sample has no mean and a one-point mesh no gap: both used to
    # come out as a silent nan or zero instead of an error
    bench = get_benchmark("sign")
    M = bench.moment_matrix(4)
    kwargs = {**dict(n_mass_samples=100, n_probes=100, mesh_points=50), **sizes}
    with pytest.raises(ValueError, match="at least"):
        support_report(bench, M, beta_schedule(4), **kwargs)


@pytest.mark.parametrize("name", ["sign", "disk1"])
@pytest.mark.parametrize("mesh_points", [2.5, 1e4, np.float64(500.0), "500", True, None])
def test_support_report_refuses_a_mesh_count_that_is_not_an_integer(name, mesh_points):
    # one refusal, up front, on every path: before, sign refused some of these in
    # midpoint_grid, disk1 accepted them silently and "500" escaped as a TypeError
    bench = get_benchmark(name)
    M = bench.moment_matrix(4)
    with pytest.raises(ValueError, match="integer count of at least 2 points"):
        support_report(bench, M, beta_schedule(4), n_mass_samples=100, n_probes=100, mesh_points=mesh_points)
    rep = support_report(bench, M, beta_schedule(4), n_mass_samples=100, n_probes=100, mesh_points=np.int64(500))
    assert rep.sublevel_empty and rep.mesh_slack == 0.0


@pytest.mark.parametrize("d", [4, 12])
@pytest.mark.parametrize(
    "counts",
    [dict(n_mass_samples=100.5, n_probes=200.5), dict(n_mass_samples=True), dict(n_probes=np.float64(100.0)),
     dict(n_probes="100"), dict(n_mass_samples=None)],
)
def test_support_report_refuses_sample_counts_that_are_not_integers(d, counts):
    # one refusal, up front, on both paths: sign d = 4 is certified and used to echo 100.5
    # and 200.5 in its report, sign d = 12 samples and raised TypeError from the sampler
    bench = get_benchmark("sign")
    M = bench.moment_matrix(d)
    kwargs = {**dict(n_mass_samples=100, n_probes=100, mesh_points=50), **counts}
    with pytest.raises(ValueError, match="integer counts of at least one mass sample and one probe"):
        support_report(bench, M, beta_schedule(d), **kwargs)
    rep = support_report(bench, M, beta_schedule(d), n_mass_samples=np.int64(100), n_probes=np.int32(100), mesh_points=50)
    assert rep.sublevel_empty == (d == 4) and rep.n_mass_samples == 100


@pytest.mark.parametrize("beta", [True, np.True_])
def test_support_report_refuses_a_bool_beta(beta):
    # True used to pass as beta = 1
    bench = get_benchmark("sign")
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        support_report(bench, bench.moment_matrix(4), beta, n_mass_samples=100, n_probes=100, mesh_points=50)


def _eval_q_report(bench, M, beta, **kwargs):
    """The report that draws every probe and makes each q >= gamma test on the exact q of eval_q_batch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(support, "_floor_reaches", lambda matrix, beta, level: False)
        mp.setattr(CDKernel, "q_at_least", lambda self, Z, level: self.eval_q_batch(Z) >= level)
        rep = support_report(bench, M, beta, **kwargs)
    assert not rep.sublevel_empty
    return rep


def _count_q_at_least_rows(monkeypatch):
    """Patch CDKernel.q_at_least to record the row count of each call; returns the list."""
    calls = []
    q_at_least = CDKernel.q_at_least

    def counting(self, Z, level):
        calls.append(len(Z))
        return q_at_least(self, Z, level)

    monkeypatch.setattr(CDKernel, "q_at_least", counting)
    return calls


def _without_certificate(report):
    out = report.to_dict()
    del out["sublevel_empty"]
    return out


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name,d", [("sign", 4), ("sign", 6), ("sign", 8), ("disk1", 4)])
def test_support_report_equals_the_eval_q_batch_report(name, d, seed, monkeypatch):
    # at r = p + 1/2 and the beta schedule the certified floor
    # min(g) b_0^2 rho(d // p)^p reaches gamma_d in every case here (for sign
    # at d = 6 and 8 only with the tensor factor rho): no table is built, no
    # graph sample or probe is drawn, and q_at_least is never called
    bench = get_benchmark(name)
    M = bench.moment_matrix(d)
    kwargs = dict(r=bench.p + 0.5, n_mass_samples=3000, n_probes=2000, mesh_points=500, seed=seed)
    expected = _eval_q_report(bench, M, beta_schedule(d), **kwargs)
    calls = []
    tables = basis.axis_tables

    def counting(spec, Z):
        calls.append(len(Z))
        return tables(spec, Z)

    monkeypatch.setattr(basis, "axis_tables", counting)
    rows = _count_q_at_least_rows(monkeypatch)
    rep = support_report(bench, M, beta_schedule(d), **kwargs)
    assert calls == []
    assert rows == []  # the floor settles the escaping mass with no graph sample drawn
    assert rep.sublevel_empty
    assert _without_certificate(rep) == _without_certificate(expected)


@pytest.mark.parametrize("name,d", [("sign", 4), ("sign", 6), ("sign", 8), ("disk1", 4), ("disk1", 8)])
def test_certified_report_computes_no_eigenvector_and_no_kernel(name, d, monkeypatch):
    # the support benchmark's four cases and disk1 at d = 4: a Cholesky PSD proof and the
    # norm bound on lambda_max settle the certificate, so no eigenvalue, eigenvector or
    # CDKernel is computed, and the report is still the exact-q one
    bench = get_benchmark(name)
    M = bench.moment_matrix(d)
    kwargs = dict(r=bench.p + 0.5, n_mass_samples=3000, n_probes=2000, mesh_points=500, seed=0)
    expected = _eval_q_report(bench, M, beta_schedule(d), **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the norm bound should settle the certificate with no eigenvalue")

    for attr in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, attr, refuse)
    monkeypatch.setattr(CDKernel, "__init__", refuse)
    rep = support_report(bench, M, beta_schedule(d), **kwargs)
    assert rep.sublevel_empty
    assert _without_certificate(rep) == _without_certificate(expected)


def test_certificate_falls_back_to_eigvalsh_where_the_norm_bound_falls_short(monkeypatch):
    # sign at d = 10: the norm floor is about 0.84 of gamma_d and certified_floor about 1.26,
    # so the eigvalsh calls are certified_floor's; the PSD proof needs none.  sign has levels,
    # so they are the level read's (d+1) x (d+1) y-marginal Gram and the n_range-sized M_r,
    # never all of M
    bench = get_benchmark("sign")
    M = bench.moment_matrix(10)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rep = support_report(bench, M, beta_schedule(10), n_mass_samples=200, n_probes=200, mesh_points=100)
    assert calls == [(11, 11), (21, 21)]
    assert rep.sublevel_empty


_SWEEP = (
    [("sign", d) for d in range(2, 17)]
    + [(name, d) for name in ("step", "abs") for d in range(2, 13)]
    + [("disk1", d) for d in range(2, 11)]
)


@pytest.mark.parametrize("name,d", _SWEEP)
def test_certificate_decides_as_certified_floor(name, d):
    # the two tiers change the cost of the certificate, never its decision
    bench = get_benchmark(name)
    M = bench.moment_matrix(d)
    beta = beta_schedule(d)
    rep = support_report(bench, M, beta, r=bench.p + 0.5, n_mass_samples=200, n_probes=200, mesh_points=100)
    assert rep.sublevel_empty == (certified_floor(M, beta) >= rep.gamma)


@pytest.mark.parametrize("name,d", [("sign", 6), ("disk1", 4)])
def test_support_report_with_alpha_equals_the_eval_q_batch_report(name, d):
    # alpha scales gamma_d by 1 - alpha and the mass bound by (1 + alpha)/(1 - alpha)
    bench = get_benchmark(name)
    M = bench.moment_matrix(d)
    kwargs = dict(alpha=0.3, n_mass_samples=3000, n_probes=2000, mesh_points=500, seed=0)
    expected = _eval_q_report(bench, M, beta_schedule(d), **kwargs)
    rep = support_report(bench, M, beta_schedule(d), **kwargs)
    assert rep.alpha == 0.3 and rep.sublevel_empty
    assert _without_certificate(rep) == _without_certificate(expected)


def _sign_with_non_finite_f():
    """The sign bench with f = inf for x > 0.9 and nan for x < -0.95."""
    sign = get_benchmark("sign")

    def f(X):
        return np.where(X[:, 0] > 0.9, np.inf, np.where(X[:, 0] < -0.95, np.nan, sign.f(X)))

    return dataclasses.replace(sign, f=f)


def _counting_f(bench):
    """The benchmark with an f that records the row count of each call, and that list."""
    rows = []

    def f(X):
        rows.append(len(X))
        return bench.f(X)

    return dataclasses.replace(bench, f=f), rows


def _refuse_draws(monkeypatch):
    def refuse(rng, box, n):
        raise AssertionError(f"drew {n} points where nothing should be drawn")

    monkeypatch.setattr(benchmarks, "uniform_box", refuse)
    monkeypatch.setattr(support, "uniform_box", refuse)


@pytest.mark.parametrize("name,d", [("sign", 4), ("sign", 6), ("sign", 8), ("disk1", 4)])
def test_certified_report_draws_no_graph_sample(name, d, monkeypatch):
    # where the certified floor reaches gamma_d (here its norm bound already does)
    # every graph point escapes, so the mass is exactly m: nothing is drawn, and
    # with no member there is no distance to measure, so f is never called
    bench = get_benchmark(name)
    M = bench.moment_matrix(d)
    kwargs = dict(r=bench.p + 0.5, n_mass_samples=3000, n_probes=2000, mesh_points=500, seed=0)
    expected = _eval_q_report(bench, M, beta_schedule(d), **kwargs)
    counted, f_rows = _counting_f(bench)
    _refuse_draws(monkeypatch)
    rows = _count_q_at_least_rows(monkeypatch)
    rep = support_report(counted, M, beta_schedule(d), **kwargs)
    assert f_rows == []
    assert rows == []
    assert rep.sublevel_empty and rep.outside_mass == M.mass_m
    assert _without_certificate(rep) == _without_certificate(expected)


def test_graph_mesh_drops_non_finite_points():
    sign = get_benchmark("sign")
    bench = _sign_with_non_finite_f()
    Z, slack = graph_mesh(bench, 1000)
    X = sign.grid_x(1000)
    keep = (X[:, 0] <= 0.9) & (X[:, 0] >= -0.95)
    np.testing.assert_array_equal(Z, sign.graph_points(X[keep]))
    # the gaps across the dropped runs are not counted, so the slack is the finite f's
    assert slack == graph_mesh(sign, 1000)[1]

    disk = get_benchmark("disk1")
    holed = dataclasses.replace(disk, f=lambda X: np.where(X[:, 0] > 0.5, np.nan, disk.f(X)))
    Z3, slack3 = graph_mesh(holed, 900)
    full, full_slack = graph_mesh(disk, 900)
    np.testing.assert_array_equal(Z3, full[full[:, 0] <= 0.5])
    assert slack3 == full_slack

    nowhere = dataclasses.replace(sign, f=lambda X: np.full(X.shape[0], np.nan))
    with pytest.raises(ValueError, match="not finite at any of the 50 mesh points"):
        graph_mesh(nowhere, 50)


@pytest.mark.parametrize(
    "name,n",
    [(name, n) for name in ("sign", "step", "abs", "sign-non-finite") for n in (50, 500, 10_000)]
    + [("disk1", 900), ("disk1", 10_000)],
)
def test_report_without_members_reads_no_graph(name, n, monkeypatch):
    # with no member there is no distance to measure: the distance and the mesh
    # slack are 0, and neither graph_mesh nor f is called, whatever the mesh size
    bench = _sign_with_non_finite_f() if name == "sign-non-finite" else get_benchmark(name)
    M = bench.moment_matrix(4)
    counted, f_rows = _counting_f(bench)

    def refuse(bench, n):
        raise AssertionError("a mesh was built with no member to measure")

    monkeypatch.setattr(support, "graph_mesh", refuse)
    rep = support_report(counted, M, beta_schedule(4), n_mass_samples=100, n_probes=100, mesh_points=n)
    assert rep.sublevel_empty and rep.n_members == 0
    assert rep.max_distance == 0.0 and rep.mesh_slack == 0.0 and rep.distance_ok
    assert f_rows == []


@pytest.mark.parametrize("d", [4, 8])
def test_certified_report_counts_non_finite_graph_samples_as_escaping(d, monkeypatch):
    # f is inf for x > 0.9 and nan for x < -0.95: those graph points are not
    # points of R^p, so they escape as every finite one does where the floor
    # certifies, and the mesh leaves them out, so its slack stays finite
    bench = _sign_with_non_finite_f()
    M = bench.moment_matrix(d)
    kwargs = dict(r=2.5, n_mass_samples=3000, n_probes=2000, mesh_points=500, seed=0)
    rows = _count_q_at_least_rows(monkeypatch)
    rep = support_report(bench, M, beta_schedule(d), **kwargs)
    assert rows == []
    assert rep.sublevel_empty
    assert rep.outside_mass == M.mass_m
    assert np.isfinite(rep.mesh_slack) and rep.distance_ok


@pytest.mark.parametrize("seed", [0, 1])
def test_uncertified_report_counts_non_finite_graph_samples_as_escaping(seed, monkeypatch):
    # sign at d = 12, where certified_floor is about 0.83 of gamma_d: the finite graph
    # samples go through q_at_least, the others escape without a q test
    bench = _sign_with_non_finite_f()
    d = 12
    M = bench.moment_matrix(d)
    beta = beta_schedule(d)
    kwargs = dict(r=2.5, n_mass_samples=3000, n_probes=2000, mesh_points=500, seed=seed)
    rows = _count_q_at_least_rows(monkeypatch)
    rep = support_report(bench, M, beta, **kwargs)
    assert not rep.sublevel_empty

    X = bench.random_x(3000, np.random.default_rng(seed))
    y = bench.f(X)
    finite = np.isfinite(y)
    escaping = ~finite
    escaping[finite] = CDKernel(M, beta).eval_q_batch(np.column_stack((X[finite], y[finite]))) >= rep.gamma
    assert 0 < np.count_nonzero(~finite) < 3000
    assert rows == [np.count_nonzero(finite), 2000]
    assert rep.outside_mass == M.mass_m * np.mean(escaping)
    assert np.isfinite(rep.mesh_slack) and rep.distance_ok


@pytest.mark.parametrize("d", [6, 12])
def test_support_report_refuses_a_negative_seed_on_both_paths(d):
    # sign at r = 2.5: d = 6 is certified and draws nothing, d = 12 draws; both
    # refuse the seed that np.random.default_rng refuses, before any work
    bench = get_benchmark("sign")
    M = bench.moment_matrix(d)
    kwargs = dict(r=2.5, n_mass_samples=100, n_probes=100, mesh_points=50)
    assert support_report(bench, M, beta_schedule(d), seed=0, **kwargs).sublevel_empty == (d == 6)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        support_report(bench, M, beta_schedule(d), seed=-1, **kwargs)


def test_certified_report_rejects_a_mismatched_benchmark():
    # where the floor settles the mass samples no graph array is built and no
    # q is formed, so support_report itself must refuse a benchmark that does
    # not fit the matrix
    sign = get_benchmark("sign")
    kwargs = dict(n_mass_samples=100, n_probes=100, mesh_points=50)
    with pytest.raises(ValueError, match="p=2"):
        support_report(sign, get_benchmark("disk1").moment_matrix(2), 1e-3, **kwargs)


@pytest.mark.parametrize("d,seed,ratio", [(12, 0, 0.83), (12, 1, 0.83), (16, 0, 0.40)])
def test_support_report_probes_where_the_certificate_falls_short(d, seed, ratio, monkeypatch):
    # sign at r = 2.5 and the beta schedule: certified_floor is about 0.83 of gamma_d
    # at d = 12 and 0.40 at d = 16, so the probes are drawn and q_at_least's
    # per-point bound decides them (at d = 16 about a quarter of them by exact
    # q); the report is still the exact-q one
    bench = get_benchmark("sign")
    M = bench.moment_matrix(d)
    beta = beta_schedule(d)
    kwargs = dict(r=2.5, n_mass_samples=3000, n_probes=2000, mesh_points=500, seed=seed)
    expected = _eval_q_report(bench, M, beta, **kwargs)
    rows = _count_q_at_least_rows(monkeypatch)
    rep = support_report(bench, M, beta, **kwargs)
    assert certified_floor(M, beta) / rep.gamma == pytest.approx(ratio, abs=0.01)
    assert rows == [3000, 2000]
    assert not rep.sublevel_empty
    assert rep.to_dict() == expected.to_dict()


def test_sublevel_probes_stay_near_graph_at_empirical_level():
    # non-vacuous variant: thresholding at twice the on-graph maximum keeps
    # the sublevel set within a thin neighborhood of the graph.  About 8e-5 of
    # the box lies below that level (73-96 members in 10^6 probes over six
    # seeds), so 5 * 10^5 probes expect about 40 members and no seed finds none
    bench = get_benchmark("sign")
    M = bench.moment_matrix(8)
    kern = CDKernel(M, 1e-6)
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(4000, 1))
    gamma = 2.0 * float(np.max(kern.eval_q_batch(bench.graph_points(X))))
    probes = rng.uniform(-1, 1, size=(500_000, 2))
    q = kern.eval_q_batch(probes)
    members = probes[q < gamma]
    assert members.shape[0] > 0
    mesh, slack = graph_mesh(bench, 20_000)
    from scipy.spatial import cKDTree

    dists, _ = cKDTree(mesh).query(members)
    assert float(np.max(dists)) <= 0.2 + slack


def _member_level(monkeypatch, bench, M, beta):
    """Patch support.gamma_threshold to 100 times the largest on-graph q: about 1e-3 of the box is below it."""
    X = bench.random_x(4000, np.random.default_rng(3))
    level = 100.0 * float(np.max(CDKernel(M, beta).eval_q_batch(bench.graph_points(X))))
    monkeypatch.setattr(support, "gamma_threshold", lambda d, params: level)
    return level


def test_report_with_members_measures_against_the_graph_mesh(monkeypatch):
    # sign at d = 8 and beta = 1e-6: at 100 times the on-graph maximum of q the
    # probes find members, and their distance is measured against graph_mesh's mesh
    from scipy.spatial import cKDTree

    bench = get_benchmark("sign")
    M = bench.moment_matrix(8)
    beta = 1e-6
    level = _member_level(monkeypatch, bench, M, beta)
    kwargs = dict(n_mass_samples=3000, n_probes=20_000, mesh_points=2000, seed=0)
    rep = support_report(bench, M, beta, **kwargs)

    rng = np.random.default_rng(0)
    bench.random_x(3000, rng)  # the mass samples come first in the stream
    probes = benchmarks.uniform_box(rng, M.spec.domain_array(), 20_000)
    members = probes[CDKernel(M, beta).eval_q_batch(probes) < level]
    mesh, slack = graph_mesh(bench, 2000)
    assert rep.gamma == level and not rep.sublevel_empty
    assert rep.n_members == members.shape[0] > 0
    assert rep.max_distance == float(np.max(cKDTree(mesh).query(members)[0])) > 0.0
    assert rep.mesh_slack == slack > 0.0
    assert rep.distance_ok == (rep.max_distance <= rep.distance_bound + slack)


def test_report_with_members_refuses_a_bad_f_on_the_mesh(monkeypatch):
    # the mesh is where a report with members reads f: an f that is finite nowhere
    # on it is refused as graph_mesh refuses it, and so is one that gives too few values
    sign = get_benchmark("sign")
    M = sign.moment_matrix(8)
    _member_level(monkeypatch, sign, M, 1e-6)
    kwargs = dict(n_mass_samples=3000, n_probes=20_000, mesh_points=50)
    nowhere = dataclasses.replace(sign, f=lambda X: np.full(X.shape[0], np.nan))
    with pytest.raises(ValueError) as by_mesh:
        graph_mesh(nowhere, 50)
    with pytest.raises(ValueError, match="not finite at any of the 50 mesh points") as by_report:
        support_report(nowhere, M, 1e-6, **kwargs)
    assert str(by_report.value) == str(by_mesh.value)
    # short only on the 50-point mesh grid, so the mass samples pass and the mesh refuses
    short = dataclasses.replace(sign, f=lambda X: sign.f(X)[: 49 if X.shape[0] == 50 else None])
    with pytest.raises(ValueError, match="49 values for 50 points"):
        support_report(short, M, 1e-6, **kwargs)
