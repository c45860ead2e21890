"""Support-localization bounds and the Monte Carlo evidence report."""

import dataclasses
import json

import numpy as np
import pytest

from cdapprox import basis
from cdapprox.benchmarks import get_benchmark
from cdapprox.cdkernel import CDKernel, ThresholdParams, beta_schedule
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


def _eval_q_report(bench, M, beta, **kwargs):
    """The report that draws every probe and makes each q >= gamma test on the exact q of eval_q_batch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CDKernel, "q_floor", lambda self: -np.inf)
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
    # at r = p + 1/2 and the beta schedule the box-wide certificate
    # min(g) b_0^2 rho(d // p)^p reaches gamma_d in every case here (for sign
    # at d = 6 and 8 only with the tensor factor rho): no table is built, no
    # probe is drawn, and q_at_least sees the mass samples only
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
    assert rows == []  # the floor settles the mass samples too, where f is finite on all of them
    assert rep.sublevel_empty
    assert _without_certificate(rep) == _without_certificate(expected)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("d", [4, 8])
def test_certified_report_tests_non_finite_graph_samples(d, monkeypatch):
    # f is inf for x > 0.9 and nan for x < -0.95: those graph points are not
    # finite, so the floor does not settle them and every mass sample goes
    # through q_at_least, which gives the non-finite rows exact q
    sign = get_benchmark("sign")

    def f(X):
        return np.where(X[:, 0] > 0.9, np.inf, np.where(X[:, 0] < -0.95, np.nan, sign.f(X)))

    bench = dataclasses.replace(sign, f=f)
    M = sign.moment_matrix(d)
    kwargs = dict(r=2.5, n_mass_samples=3000, n_probes=2000, mesh_points=500, seed=0)
    expected = _eval_q_report(bench, M, beta_schedule(d), **kwargs)
    rows = _count_q_at_least_rows(monkeypatch)
    rep = support_report(bench, M, beta_schedule(d), **kwargs)
    assert rows == [3000]
    assert rep.sublevel_empty
    assert 0.0 < rep.outside_mass / M.mass_m < 1.0  # nan q compares False
    # json.dumps writes nan as NaN, so equal reports give equal text
    assert json.dumps(_without_certificate(rep)) == json.dumps(_without_certificate(expected))


def test_certified_report_rejects_a_mismatched_benchmark():
    # where the floor settles the mass samples no graph array is built and no
    # q is formed, so support_report itself must refuse a benchmark that does
    # not fit the matrix or whose f gives the wrong number of values
    sign = get_benchmark("sign")
    M = sign.moment_matrix(4)
    kwargs = dict(n_mass_samples=100, n_probes=100, mesh_points=50)
    with pytest.raises(ValueError, match="p=2"):
        support_report(sign, get_benchmark("disk1").moment_matrix(2), 1e-3, **kwargs)
    short = dataclasses.replace(sign, f=lambda X: np.ones(X.shape[0] - 1))
    with pytest.raises(ValueError, match="99 values for 100 points"):
        support_report(short, M, beta_schedule(4), **kwargs)


@pytest.mark.parametrize("d,seed,ratio", [(12, 0, 0.83), (12, 1, 0.83), (16, 0, 0.40)])
def test_support_report_probes_where_the_certificate_falls_short(d, seed, ratio, monkeypatch):
    # sign at r = 2.5 and the beta schedule: q_floor is about 0.83 of gamma_d
    # at d = 12 and 0.40 at d = 16, so the probes are drawn and q_at_least's
    # per-point tier decides them (at d = 16 about a quarter of them by exact
    # q); the report is still the exact-q one
    bench = get_benchmark("sign")
    M = bench.moment_matrix(d)
    beta = beta_schedule(d)
    kwargs = dict(r=2.5, n_mass_samples=3000, n_probes=2000, mesh_points=500, seed=seed)
    expected = _eval_q_report(bench, M, beta, **kwargs)
    rows = _count_q_at_least_rows(monkeypatch)
    rep = support_report(bench, M, beta, **kwargs)
    assert CDKernel(M, beta).q_floor() / rep.gamma == pytest.approx(ratio, abs=0.01)
    assert rows == [3000, 2000]
    assert not rep.sublevel_empty
    assert rep.to_dict() == expected.to_dict()


def test_sublevel_probes_stay_near_graph_at_empirical_level():
    # non-vacuous variant: thresholding at twice the on-graph maximum keeps
    # the sublevel set within a thin neighborhood of the graph
    bench = get_benchmark("sign")
    M = bench.moment_matrix(8)
    kern = CDKernel(M, 1e-6)
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(4000, 1))
    gamma = 2.0 * float(np.max(kern.eval_q_batch(bench.graph_points(X))))
    probes = rng.uniform(-1, 1, size=(20_000, 2))
    q = kern.eval_q_batch(probes)
    members = probes[q < gamma]
    assert members.shape[0] > 0
    mesh, slack = graph_mesh(bench, 20_000)
    from scipy.spatial import cKDTree

    dists, _ = cKDTree(mesh).query(members)
    assert float(np.max(dists)) <= 0.2 + slack
