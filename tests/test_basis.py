"""Basis enumeration and evaluation against independent oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdapprox.basis import (
    _BLOCK,
    BasisSpec,
    Family,
    _stacked_tables,
    axis_tables,
    basis_product,
    basis_size,
    basis_sqnorm,
    eval_basis_batch,
    table_blocks,
    x_degree_members,
    y_layout,
)

small_p = st.integers(min_value=1, max_value=4)
small_d = st.integers(min_value=0, max_value=6)


def test_basis_size_matches_binomial():
    assert basis_size(2, 2) == 6
    assert basis_size(3, 8) == 165
    assert basis_size(1, 7) == 8
    for p in range(1, 5):
        for d in range(7):
            assert basis_size(p, d) == math.comb(p + d, d)


def test_basis_size_rejects_bad_arguments():
    with pytest.raises(ValueError):
        basis_size(0, 3)
    with pytest.raises(ValueError):
        basis_size(2, -1)
    with pytest.raises(OverflowError):
        basis_size(40, 40)


def test_grevlex_order_p2_d2():
    spec = BasisSpec(2, 2)
    expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert [tuple(a) for a in spec.indices] == expected


def test_grevlex_order_p3_d2_block():
    # degree-2 block in 3 variables: x^2, xy, y^2, xz, yz, z^2
    spec = BasisSpec(3, 2)
    idx = [tuple(a) for a in spec.indices]
    assert idx[4:] == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]


@given(p=small_p, d=small_d)
def test_grevlex_degree_blocks_and_tie_break(p, d):
    idx = BasisSpec(p, d).indices
    assert idx.shape == (basis_size(p, d), p)
    totals = idx.sum(axis=1)
    assert np.all(np.diff(totals) >= 0)
    for i in range(len(idx) - 1):
        if totals[i] == totals[i + 1]:
            assert tuple(idx[i][::-1]) < tuple(idx[i + 1][::-1])


@given(p=small_p, d=small_d)
def test_grevlex_nesting(p, d):
    # the degree-d enumeration is a prefix of the degree-(d+1) enumeration
    lo = BasisSpec(p, d).indices
    hi = BasisSpec(p, d + 1).indices
    assert np.array_equal(hi[: len(lo)], lo)


@given(p=small_p, d=small_d)
def test_grevlex_indices_roundtrip(p, d):
    # exponent tuple -> position -> exponent tuple: every exponent of degree <= d once
    idx = BasisSpec(p, d).indices
    pos = {tuple(a): i for i, a in enumerate(idx.tolist())}
    assert len(pos) == basis_size(p, d)
    for a, i in pos.items():
        assert sum(a) <= d and tuple(idx[i]) == a


def _enumerated_grevlex(p, d):
    # reference: every tuple in range(total + 1)^p, kept if it sums to total, sorted reverse-lex
    rows = []
    for total in range(d + 1):
        block = [a for a in itertools.product(range(total + 1), repeat=p) if sum(a) == total]
        block.sort(key=lambda a: a[::-1])
        rows.extend(block)
    return np.array(rows, dtype=np.int64).reshape(len(rows), p)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_grevlex_indices_match_the_full_enumeration(p):
    for d in range(7):
        idx = BasisSpec(p, d).indices
        ref = _enumerated_grevlex(p, d)
        assert idx.dtype == ref.dtype and idx.shape == ref.shape
        assert np.array_equal(idx, ref)
        assert not idx.flags.writeable


@pytest.mark.parametrize("p, d", [(2, 20), (3, 12), (4, 8), (6, 4), (9, 2)])
def test_grevlex_indices_are_the_itertools_enumeration_sorted_by_degree_then_reverse_lex(p, d):
    # one stable sort per axis builds the table; the reference sorts every exponent of
    # degree <= d by (degree, reversed exponent) in Python
    ref = sorted((a for a in itertools.product(range(d + 1), repeat=p) if sum(a) <= d), key=lambda a: (sum(a), a[::-1]))
    idx = BasisSpec(p, d).indices
    assert idx.dtype == np.int64 and idx.flags.c_contiguous and not idx.flags.writeable
    assert idx.tolist() == [list(a) for a in ref]


@pytest.mark.parametrize("p, d", [(1, 3), (2, 0), (2, 6), (3, 5), (4, 3)])
def test_x_degree_members_group_the_layout_by_x_index_and_y_degree(p, d):
    # from itertools' exponents alone: row a of entry s holds, at column j, the layout place of
    # the member whose x-exponents are the a-th of the (p - 1)-variable basis and whose y-degree is j
    rows = [tuple(r) for r in _enumerated_grevlex(p, d).tolist()]
    layout = sorted(rows, key=lambda r: r[-1])
    x_rows = [tuple(r) for r in _enumerated_grevlex(p - 1, d).tolist()] if p > 1 else [()]
    groups = x_degree_members(p, d)
    assert len(groups) == d + 1
    for s, pos in enumerate(groups):
        members = [a for a in x_rows if sum(a) == s]
        assert pos.shape == (len(members), d + 1 - s) and not pos.flags.writeable
        for a, row in zip(members, pos.tolist()):
            assert [layout[i] for i in row] == [a + (j,) for j in range(d + 1 - s)]
    assert sorted(np.concatenate([g.ravel() for g in groups]).tolist()) == list(range(len(rows)))


@pytest.mark.parametrize("d", [0, 1, 5, 12])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_y_layout_matches_the_full_enumeration(p, d):
    # from itertools' exponents alone: the stable y-degree sort by Python's stable sort, the
    # runs by counting, each member's x-index as the place of its x-exponents in the
    # enumerated (p - 1)-variable basis, and the exponent rows in the sorted order
    rows = [tuple(r) for r in _enumerated_grevlex(p, d).tolist()]
    x_place = {tuple(r): a for a, r in enumerate(_enumerated_grevlex(p - 1, d).tolist())}
    lay = y_layout(p, d)
    assert lay.order.tolist() == sorted(range(len(rows)), key=lambda i: rows[i][-1])
    assert [tuple(r) for r in lay.indices.tolist()] == sorted(rows, key=lambda r: r[-1])
    assert lay.indices.dtype == np.int64 and lay.indices.shape == (len(rows), p)
    assert lay.runs.tolist() == [sum(r[-1] == j for r in rows) for j in range(d + 1)]
    assert lay.runs.tolist() == [math.comb(p - 1 + d - j, d - j) for j in range(d + 1)]
    assert lay.x_index.tolist() == [x_place[r[:-1]] for r in rows]
    # so a member's x-index is its position within its run of the sort
    assert lay.x_index[lay.order].tolist() == [a for n in lay.runs.tolist() for a in range(n)]
    assert not any(a.flags.writeable for a in lay)
    assert y_layout(p, d) is lay


def test_kernel_fiber_and_level_route_read_the_one_cached_layout(monkeypatch):
    # CDKernel's rows and q, the Approximant's blocks and the level route's scatter all
    # come from basis.y_layout, and from no derivation of their own
    from cdapprox import approximant, cdkernel, moments
    from cdapprox.approximant import Approximant
    from cdapprox.benchmarks import get_benchmark
    from cdapprox.cdkernel import CDKernel

    calls = []
    for mod in (approximant, cdkernel, moments):
        def spy(p, d, mod=mod):
            calls.append((mod.__name__, p, d))
            return y_layout(p, d)

        monkeypatch.setattr(mod, "y_layout", spy)
    level_gram = moments._level_gram
    routed = []
    monkeypatch.setattr(moments, "_level_gram", lambda spec, *args: routed.append(spec) or level_gram(spec, *args))
    kern = CDKernel(get_benchmark("disk1").moment_matrix(6, mode="quad"), 1e-3)
    app = Approximant(kern)
    assert routed == [kern.spec]
    assert sorted(set(calls)) == [(m.__name__, 3, 6) for m in (approximant, cdkernel, moments)]
    lay = y_layout(3, 6)
    assert not any(isinstance(a, np.ndarray) and a.dtype == np.int64 for a in vars(kern).values())
    # the range rows are sos_decomposition's last n_range rows, in y-degree order
    range_rows = kern.sos_decomposition().T[lay.order][:, kern.spec.size - kern._rows.shape[1] :]
    assert kern._rows.tobytes() == np.ascontiguousarray(range_rows).tobytes()
    calls.clear()
    kern.eval_q_batch(np.zeros((3, 3)))
    assert calls == [("cdapprox.cdkernel", 3, 6)]
    assert [b.shape[0] for b in app._blocks] == lay.runs.tolist()
    assert all(np.shares_memory(b, kern._rows) for b in app._blocks)


def test_grevlex_indices_in_many_variables():
    # (total + 1)^p enumeration never returns here; degree by degree it is 41 rows
    idx = BasisSpec(40, 1).indices
    assert idx.shape == (41, 40)
    assert np.array_equal(idx, np.vstack([np.zeros(40, dtype=np.int64), np.eye(40, dtype=np.int64)]))


def test_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(2, 2, domain=((-1.0, 1.0),))  # wrong axis count
    with pytest.raises(ValueError):
        BasisSpec(1, 2, domain=((1.0, 1.0),))  # degenerate axis
    for axis in ((-math.inf, 1.0), (-1.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="domain axis .* is not a finite interval"):
            BasisSpec(2, 2, domain=(axis, (-1.0, 1.0)))
    spec = BasisSpec(2, 3)
    assert spec.domain == ((-1.0, 1.0), (-1.0, 1.0))
    assert spec.domain_volume() == pytest.approx(4.0)
    assert spec.domain_diameter() == pytest.approx(2.0 * math.sqrt(2.0))


def test_x_spec_drops_last_axis():
    spec = BasisSpec(3, 4, domain=((-1, 1), (0, 2), (-3, -1)))
    xs = spec.x_spec()
    assert xs.p == 2 and xs.d == 4
    assert xs.domain == ((-1.0, 1.0), (0.0, 2.0))
    with pytest.raises(ValueError):
        BasisSpec(1, 2).x_spec()


def test_contains():
    spec = BasisSpec(2, 2, domain=((0, 1), (-1, 1)))
    flags = spec.contains(np.array([[0.5, 0.0], [1.5, 0.0], [0.5, -2.0]]))
    assert list(flags) == [True, False, False]


@given(
    p=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
@settings(max_examples=50)
def test_monomial_values_match_naive_products(p, d, data):
    z = np.array(
        [data.draw(st.floats(min_value=-1, max_value=1, allow_nan=False)) for _ in range(p)]
    )
    spec = BasisSpec(p, d, family=Family.MONOMIAL_GREVLEX)
    vals = eval_basis_batch(spec, z[None, :])[0]
    naive = [math.prod(z[k] ** a[k] for k in range(p)) for a in spec.indices]
    np.testing.assert_allclose(vals, naive, rtol=1e-12, atol=1e-12)


def test_orthonormal_legendre_matches_clenshaw():
    # oracle: numpy's Clenshaw evaluation of each normalized Legendre series
    lo, hi = -0.5, 2.0
    w = hi - lo
    spec = BasisSpec(1, 6, family=Family.LEGENDRE_ORTHONORMAL, domain=((lo, hi),))
    t = np.linspace(lo, hi, 17)
    u = (2.0 * t - (lo + hi)) / w
    table = eval_basis_batch(spec, t[:, None])
    for k in range(7):
        ref = np.polynomial.legendre.legval(u, np.eye(7)[k]) * math.sqrt((2 * k + 1) / w)
        np.testing.assert_allclose(table[:, k], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("domain", [((-1.0, 1.0),) * 2, ((0.0, 3.0), (-2.0, -1.0))])
def test_orthonormality_under_quadrature(domain):
    # Gram matrix under an exact Gauss-Legendre rule must be the identity
    spec = BasisSpec(2, 4, family=Family.LEGENDRE_ORTHONORMAL, domain=domain)
    u, w = np.polynomial.legendre.leggauss(12)
    axes = [
        (lo + 0.5 * (hi - lo) * (u + 1.0), 0.5 * (hi - lo) * w) for lo, hi in domain
    ]
    X, Y = np.meshgrid(axes[0][0], axes[1][0], indexing="ij")
    W = np.multiply.outer(axes[0][1], axes[1][1]).ravel()
    Z = np.stack([X.ravel(), Y.ravel()], axis=1)
    B = eval_basis_batch(spec, Z)
    gram = (B * W[:, None]).T @ B
    np.testing.assert_allclose(gram, np.eye(spec.size), atol=1e-12)


def test_eval_basis_input_validation():
    spec = BasisSpec(2, 2)
    with pytest.raises(ValueError):
        eval_basis_batch(spec, np.zeros((4, 3)))


def _one_axis_table(spec, k, t):
    # reference: axis k's table alone, filled one strided column at a time
    lo, hi = spec.domain[k]
    tab = np.empty((t.shape[0], spec.d + 1))
    tab[:, 0] = 1.0
    if spec.family is Family.MONOMIAL_GREVLEX:
        for j in range(spec.d):
            tab[:, j + 1] = tab[:, j] * t
    else:
        w = hi - lo
        u = (2.0 * t - (lo + hi)) / w
        if spec.d >= 1:
            tab[:, 1] = u
        for j in range(1, spec.d):
            tab[:, j + 1] = ((2 * j + 1) * u * tab[:, j] - j * tab[:, j - 1]) / (j + 1)
        tab *= np.sqrt((2 * np.arange(spec.d + 1) + 1) / w)
    return tab


@pytest.mark.parametrize("d", [0, 1, 20])
@pytest.mark.parametrize("domain", ["default", "shifted"])
@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_stacked_axis_tables_equal_the_one_axis_recurrence(p, family, domain, d):
    # one recurrence over all axes at once gives every entry the float
    # operations of the axis's own recurrence, so the tables agree bit for bit
    dom = None if domain == "default" else ((-0.5, 2.0), (-3.0, -1.0), (0.0, 3.0))[:p]
    spec = BasisSpec(p, d, family=family, domain=dom)
    box = spec.domain_array()
    Z = np.random.default_rng(30 + p + d).uniform(box[:, 0], box[:, 1], size=(131, p))
    tabs = axis_tables(spec, Z)
    assert len(tabs) == p
    for k, tab in enumerate(tabs):
        ref = _one_axis_table(spec, k, Z[:, k])
        assert tab.shape == (Z.shape[0], d + 1) and tab.T[d].flags.c_contiguous  # column j is contiguous
        assert np.array_equal(tab, ref)
        one_axis = BasisSpec(1, d, family=family, domain=(spec.domain[k],))
        assert np.array_equal(axis_tables(one_axis, Z[:, k : k + 1])[0], ref)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("axes", [1, 2, 3])
def test_stacked_tables_are_bit_identical_to_the_allocating_loop(axes, family):
    # the recurrence and the powers written into their preallocated rows, against the loop they
    # replaced, which allocated every step's temporaries
    def loop(family, d, T, box):
        out = np.empty((d + 1,) + T.shape)
        out[0] = 1.0
        if family is Family.LEGENDRE_ORTHONORMAL:
            lo, hi = box[:, :1], box[:, 1:]
            w = hi - lo
            u = (2.0 * T - (lo + hi)) / w
            if d >= 1:
                out[1] = u
            for k in range(1, d):
                out[k + 1] = ((2 * k + 1) * u * out[k] - k * out[k - 1]) / (k + 1)
            out *= np.sqrt((2 * np.arange(d + 1)[:, None] + 1) / w[:, 0])[:, :, None]
        else:
            for k in range(d):
                out[k + 1] = out[k] * T
        return out

    box = np.array([(-0.5, 2.0), (-1.0, 1.0), (0.0, 3.0)][:axes])
    rng = np.random.default_rng(axes)
    for m in (1, 32, 328, 2048):
        # points inside and up to half a width outside each axis
        T = rng.uniform(box[:, :1] - 0.5 * (box[:, 1:] - box[:, :1]), box[:, 1:], size=(axes, m))
        for d in range(41):
            assert np.array_equal(_stacked_tables(family, d, T, box), loop(family, d, T, box))


def _column_recurrence_basis(spec, Z):
    # reference: per-axis tables filled one strided column at a time, then the
    # fancy-indexed product over the exponent columns
    tabs = [_one_axis_table(spec, k, Z[:, k]) for k in range(spec.p)]
    idx = spec.indices
    out = tabs[0][:, idx[:, 0]].copy()
    for k in range(1, spec.p):
        out *= tabs[k][:, idx[:, k]]
    return out


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_eval_basis_batch_is_c_ordered_and_bit_identical_to_column_recurrence(p, family):
    domain = ((-0.5, 2.0), (-1.0, 1.0), (0.0, 3.0))[:p]
    spec = BasisSpec(p, 7, family=family, domain=domain)
    rng = np.random.default_rng(p)
    box = spec.domain_array()
    Z = rng.uniform(box[:, 0], box[:, 1], size=(257, p))
    B = eval_basis_batch(spec, Z)
    assert B.flags.c_contiguous
    assert np.array_equal(B, _column_recurrence_basis(spec, Z))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_table_blocks_with_basis_product_are_basis_major_and_bit_identical_to_eval_basis_batch(p, family):
    domain = ((-0.5, 2.0), (-1.0, 1.0), (0.0, 3.0))[:p]
    spec = BasisSpec(p, 6, family=family, domain=domain)
    box = spec.domain_array()
    Z = np.random.default_rng(10 + p).uniform(box[:, 0], box[:, 1], size=(2 * _BLOCK + 5, p))
    ref = eval_basis_batch(spec, Z)
    blocks = [(rows, basis_product(spec, tabs)) for rows, tabs in table_blocks(spec, Z)]
    assert [B.shape[1] for _, B in blocks] == [_BLOCK, _BLOCK, 5]  # the last block partial
    for rows, B in blocks:
        assert B.shape[0] == spec.size and B.flags.c_contiguous
        assert np.array_equal(B, ref[rows].T)
    whole = basis_product(spec, axis_tables(spec, Z))
    assert whole.shape == (spec.size, Z.shape[0]) and np.array_equal(whole, ref.T)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("p", [2, 3])
def test_table_blocks_over_nodes_match_the_column_recurrence_at_those_rows(p, family):
    # unsorted nodes with repeats, over several blocks with the last one partial, read the
    # rows Z[nodes] in the order given; an empty node list yields no block
    domain = ((-0.5, 2.0), (-1.0, 1.0), (0.0, 3.0))[:p]
    spec = BasisSpec(p, 5, family=family, domain=domain)
    box = spec.domain_array()
    rng = np.random.default_rng(30 + p)
    Z = rng.uniform(box[:, 0], box[:, 1], size=(500, p))
    nodes = rng.integers(0, Z.shape[0], size=2 * 128 + 9)
    assert np.any(np.diff(nodes) < 0)
    ref = _column_recurrence_basis(spec, Z[nodes])
    blocks = list(table_blocks(spec, Z, 128, nodes))
    assert [len(rows) for rows, _ in blocks] == [128, 128, 9]
    got = np.hstack([basis_product(spec, tabs) for _, tabs in blocks])
    assert np.array_equal(np.concatenate([rows for rows, _ in blocks]), nodes)
    assert np.array_equal(got, ref.T)
    assert list(table_blocks(spec, Z, 128, np.zeros(0, dtype=np.int64))) == []


@pytest.mark.parametrize("d", [0, 7])
@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_basis_sqnorm_equals_the_summed_squares_of_the_basis(p, family, d):
    domain = ((-0.5, 2.0), (-1.0, 1.0), (0.0, 3.0))[:p]
    spec = BasisSpec(p, d, family=family, domain=domain)
    box = spec.domain_array()
    Z = np.random.default_rng(20 + p).uniform(box[:, 0], box[:, 1], size=(257, p))
    ref = (eval_basis_batch(spec, Z) ** 2).sum(1)
    got = basis_sqnorm(spec, axis_tables(spec, Z))
    assert got.shape == (Z.shape[0],)
    np.testing.assert_allclose(got, ref, rtol=1e-13)
