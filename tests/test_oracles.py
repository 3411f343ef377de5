import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import discrete_srm_search_loop
from outagebf import oracles, sampling
from outagebf.model import CnfFormula, SisoInstance, WeightedGraph
from outagebf.oracles import (
    GridSpec,
    SeparableObjective,
    discrete_srm_search,
    exhaustive_3sat,
    exhaustive_maxcut,
    gadget_grid_objective,
    grid_search,
    sign_pattern,
    vectorize_scalar,
)
from outagebf.reductions import (
    GADGET_RHO,
    GADGET_SIGMA2,
    cut_from_powers,
    powers_from_cut,
    reduce_maxcut,
)
from outagebf.solvers import srm_rates_from_powers
from outagebf.zeta import zeta_roots


def test_exhaustive_maxcut_path(path_graph):
    S, w = exhaustive_maxcut(path_graph)
    # {2} and {1,3} both cut weight 2; the smaller bitmask wins
    assert S == (2,)
    assert w == 2.0


def test_exhaustive_maxcut_weighted():
    # 4-cycle is bipartite, so the optimum cuts every edge
    g = WeightedGraph(V=4, edges=((1, 2, 3.0), (2, 3, 1.0), (3, 4, 2.0), (1, 4, 0.5)))
    S, w = exhaustive_maxcut(g)
    assert w == 6.5
    assert S == (1, 3)
    assert g.cut_weight(S) == w


def test_exhaustive_maxcut_empty_cut():
    g = WeightedGraph(V=2, edges=())
    S, w = exhaustive_maxcut(g)
    assert S == () and w == 0.0


def test_exhaustive_maxcut_size_guard():
    g = WeightedGraph(V=25, edges=((1, 2, 1.0),))
    with pytest.raises(ValueError, match="24 vertices"):
        exhaustive_maxcut(g)


def test_exhaustive_3sat_witness_order(small_cnf):
    sat, witness = exhaustive_3sat(small_cnf)
    assert sat
    assert witness == (0, 0, 1, 0)
    assert small_cnf.evaluate(witness)


def test_exhaustive_3sat_unsat(unsat_cnf):
    sat, witness = exhaustive_3sat(unsat_cnf)
    assert not sat
    assert witness is None


def test_exhaustive_3sat_size_guard():
    clauses = ((1, 2, 3),)
    cnf = CnfFormula(N=25, clauses=clauses)
    with pytest.raises(ValueError, match="24 variables"):
        exhaustive_3sat(cnf)


def test_discrete_srm_search_path(path_graph):
    gad = reduce_maxcut(path_graph)
    best_p, best_val = discrete_srm_search(gad)
    assert best_val == pytest.approx(2.0257162238459094, rel=1e-12)
    assert cut_from_powers(best_p, gad) == (2,)
    assert np.array_equal(best_p, powers_from_cut((2,), gad))


def test_discrete_srm_search_agrees_with_maxcut(single_edge_graph):
    gad = reduce_maxcut(single_edge_graph)
    best_p, best_val = discrete_srm_search(gad)
    S, w = exhaustive_maxcut(single_edge_graph)
    assert gad.graph.cut_weight(cut_from_powers(best_p, gad)) == w


@pytest.mark.parametrize("block", [3, oracles._PATTERN_BLOCK])
def test_discrete_srm_search_equals_per_pattern_loop(block, path_graph, single_edge_graph, monkeypatch):
    monkeypatch.setattr(oracles, "_PATTERN_BLOCK", block)
    graphs = [path_graph, single_edge_graph] + [
        sampling.random_connected_graph(np.random.default_rng(100 * V + s), V)
        for V in range(2, 8)
        for s in range(3)
    ]
    for graph in graphs:
        gad = reduce_maxcut(graph)
        p, val = discrete_srm_search(gad)
        p_ref, val_ref = discrete_srm_search_loop(
            gad, lambda q: srm_rates_from_powers(gad.instance, q), lambda S: powers_from_cut(S, gad)
        )
        assert val == val_ref and p.tobytes() == p_ref.tobytes()


def test_discrete_srm_search_breaks_exact_ties_to_the_lowest_bitmask(path_graph, single_edge_graph):
    # both orientations of these maximum cuts score the same bits
    for graph, low, high in ((single_edge_graph, (1,), (2,)), (path_graph, (2,), (1, 3))):
        gad = reduce_maxcut(graph)
        P = np.array([powers_from_cut(low, gad), powers_from_cut(high, gad)])
        r = srm_rates_from_powers(gad.instance, P)
        assert float(gad.instance.alpha @ r[0]) == float(gad.instance.alpha @ r[1])
        assert np.array_equal(discrete_srm_search(gad)[0], P[0])


def test_discrete_srm_search_size_guard():
    edges = tuple((i, i + 1, 1.0) for i in range(1, 21))
    gad = reduce_maxcut(WeightedGraph(V=21, edges=edges))
    with pytest.raises(ValueError, match="20 vertices"):
        discrete_srm_search(gad)


def test_gridspec_axes():
    grid = GridSpec(lower=(0.0, -1.0), upper=(1.0, 1.0), step=(0.25, 0.5))
    ax = grid.axes()
    assert np.array_equal(ax[0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(ax[1], [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert grid.n_points() == 25


def test_gridspec_endpoint_roundoff():
    # 0.7/0.05 is not exact in binary; the endpoint must still be included
    grid = GridSpec(lower=(0.0,), upper=(0.7,), step=(0.05,))
    ax = grid.axes()[0]
    assert ax.size == 15
    assert ax[-1] == pytest.approx(0.7, abs=1e-12)


def test_gridspec_validation():
    with pytest.raises(ValueError, match="equal lengths"):
        GridSpec(lower=(0.0,), upper=(1.0, 2.0), step=(0.1,))
    with pytest.raises(ValueError, match="step > 0"):
        GridSpec(lower=(0.0,), upper=(1.0,), step=(0.0,))
    with pytest.raises(ValueError, match="step > 0"):
        GridSpec(lower=(1.0,), upper=(0.0,), step=(0.1,))


def test_gridspec_indices_rejects_extra_or_missing_columns():
    grid = GridSpec(lower=(0.0, -1.0), upper=(1.0, 1.0), step=(0.25, 0.5))
    assert grid.indices(np.array([[0.5, 0.5]])).tolist() == [[2, 3]]
    for shape in ((3, 4), (3, 1), (2,)):
        with pytest.raises(ValueError, match=r"expected \(n, 2\) points"):
            grid.indices(np.zeros(shape))


def test_grid_search_quadratic():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), step=(0.1, 0.1))
    obj = vectorize_scalar(lambda x: -((x[0] - 0.3) ** 2) - (x[1] - 0.8) ** 2)
    point, val = grid_search(obj, grid)
    assert np.allclose(point, [0.3, 0.8])
    assert val == pytest.approx(0.0, abs=1e-15)


def test_grid_search_tie_break_first_in_order():
    grid = GridSpec(lower=(0.0,), upper=(1.0,), step=(0.25,))
    point, val = grid_search(lambda pts: np.ones(len(pts)), grid)
    assert point[0] == 0.0 and val == 1.0


def test_grid_search_batching_invariant():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), step=(0.05, 0.05))
    obj = lambda pts: np.sin(7 * pts[:, 0]) + np.cos(5 * pts[:, 1])
    p1, v1 = grid_search(obj, grid)
    p2, v2 = grid_search(obj, grid, batch_size=7)
    assert np.array_equal(p1, p2) and v1 == v2


@pytest.mark.parametrize("batch_size", [1, 3, 4, 5, 19, 20, 21, 60, 61, 1 << 18])
def test_grid_search_visits_every_point_in_order(batch_size):
    # shape (3, 4, 5): batches split the lattice after each axis in turn
    grid = GridSpec(lower=(0.0, 0.0, 0.0), upper=(1.0, 1.5, 2.0), step=(0.5, 0.5, 0.5))
    axes = grid.axes()
    lattice = np.array(list(itertools.product(*axes)))
    seen = []

    def obj(pts):
        seen.append(pts.copy())
        return np.minimum(pts @ [2.0, 1.0, 1.0], 4.0)  # first maximum: point 34 of 60

    point, val = grid_search(obj, grid, batch_size=batch_size)
    assert np.array_equal(np.concatenate(seen), lattice)
    assert max(len(b) for b in seen) <= batch_size
    best = int(np.argmax(obj(lattice)))
    assert np.array_equal(point, lattice[best]) and val == obj(lattice)[best]


def test_grid_search_size_guard():
    grid = GridSpec(lower=(0.0,) * 10, upper=(1.0,) * 10, step=(0.01,) * 10)
    with pytest.raises(ValueError, match="limit"):
        grid_search(lambda pts: np.zeros(len(pts)), grid)


def test_gadget_grid_objective_matches_direct(single_edge_graph):
    gad = reduce_maxcut(single_edge_graph)
    grid, obj = gadget_grid_objective(gad, step=0.1)
    axes = grid.axes()
    rng = np.random.default_rng(41)
    pts = np.column_stack([ax[rng.integers(0, ax.size, 60)] for ax in axes])
    fast = obj(pts)
    alpha = gad.instance.alpha
    for row, got in zip(pts, fast):
        direct = float(alpha @ srm_rates_from_powers(gad.instance, row))
        assert got == pytest.approx(direct, rel=1e-11)


def test_gadget_grid_objective_step_guard(single_edge_graph):
    gad = reduce_maxcut(single_edge_graph)
    with pytest.raises(ValueError, match="does not divide"):
        gadget_grid_objective(gad, step=0.3)


@pytest.mark.parametrize(
    "point",
    [
        [1.0, -0.1, 1.0, 0.0, 0.7, 0.7],  # below the range: must not wrap to the table's end
        [1.0, 1.2, 1.0, 0.0, 0.7, 0.7],  # above the range
        [1.0, 0.03, 1.0, 0.0, 0.7, 0.7],  # between lattice points
        [1.0, 0.0, 1.0, 0.0, 0.75, 0.7],  # edge power above its budget
        [1.0, math.nan, 1.0, 0.0, 0.7, 0.7],
    ],
)
def test_gadget_grid_objective_rejects_points_off_the_lattice(single_edge_graph, point):
    _, obj = gadget_grid_objective(reduce_maxcut(single_edge_graph), step=0.1)
    with pytest.raises(ValueError, match="not on the lattice"):
        obj(np.array([point]))


def test_gadget_grid_objective_reads_lattice_points_within_rounding(single_edge_graph):
    # 0.7 is the lattice point 7 * 0.1 = 0.7000000000000001
    grid, obj = gadget_grid_objective(reduce_maxcut(single_edge_graph), step=0.1)
    on_lattice = np.array([[1.0, 0.0, 0.0, 1.0] + [grid.axes()[4][7]] * 2])
    assert obj(on_lattice)[0] == obj(np.array([[1.0, 0.0, 0.0, 1.0, 0.7, 0.7]]))[0]
    with pytest.raises(ValueError, match="points"):
        obj(np.array([1.0, 0.0, 0.0, 1.0, 0.7, 0.7]))


def _scan_values(objective, grid, batch_size=1 << 18):
    """Every value of a grid_search scan, in visiting order, and the batch lengths."""
    batches = list(oracles._batches(objective, grid, batch_size))
    starts = np.cumsum([0] + [len(v) for _, v in batches[:-1]])
    assert [first for first, _ in batches] == starts.tolist()
    return np.concatenate([v for _, v in batches]), [len(v) for _, v in batches]


@st.composite
def separable_problems(draw):
    """A lattice of 2-5 axes and terms over 1-3 of them, with tied table entries."""
    d = draw(st.integers(2, 5))
    shape = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    lower = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5]), min_size=d, max_size=d))
    step = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=d, max_size=d))
    grid = GridSpec(
        lower=lower, upper=[l + s * (n - 1) for l, s, n in zip(lower, step, shape)], step=step
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        axes = tuple(rng.permutation(d)[: draw(st.integers(1, min(3, d)))].tolist())
        # few distinct values, so many lattice points tie at the maximum
        values = rng.choice([0.1, 0.2, 0.7, 1.0], size=[shape[a] for a in axes])
        terms.append((axes, values))
    return SeparableObjective(grid, terms)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(objective=separable_problems())
def test_separable_scan_matches_brute_force(objective):
    grid = objective.grid
    axes = grid.axes()
    brute = []
    for idx in itertools.product(*(range(n) for n in grid.shape())):
        total = 0.0
        for term_axes, table in objective.terms:
            total += float(table[tuple(idx[a] for a in term_axes)])
        brute.append(total)
    brute = np.array(brute)
    best = 0
    for k, v in enumerate(brute):
        if v > brute[best]:
            best = k  # the first maximum
    lattice = np.array(list(itertools.product(*axes)))
    assert np.array_equal(objective(lattice), brute)
    for batch_size in [1, 3, 4, 5, 19, 20, 21, 60, 61, 1 << 18]:
        values, lengths = _scan_values(objective, grid, batch_size)
        assert max(lengths) <= batch_size
        assert np.array_equal(values, brute)
        point, val = grid_search(objective, grid, batch_size=batch_size)
        assert np.array_equal(point, lattice[best]) and val == brute[best]


def test_separable_objective_checks_table_shapes():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 2.0), step=(1.0, 1.0))
    with pytest.raises(ValueError, match="does not fit"):
        SeparableObjective(grid, [((0, 1), np.zeros((3, 2)))])


def _rate_sum_per_point(gadget, pts):
    """A gadget's weighted sum rate with every root solved at every point.

    The point objective the lattice scan used before its tables: the same
    terms in the same order, vertex users first and then both directions of
    each edge, with alpha * log1p(p * zeta) / ln2 in that order.
    """
    um, ln2 = gadget.usermap, math.log(2.0)
    total = np.zeros(len(pts))
    for i in range(1, gadget.graph.V + 1):
        for a in (0, 1):
            u, partner = um.vertex(i, a), um.vertex(i, 1 - a)
            zeta = zeta_roots(GADGET_SIGMA2, GADGET_RHO, pts[:, partner][None, :])
            total += np.log1p(pts[:, u] * zeta) / ln2
    for i, j, _ in gadget.graph.edges:
        for t, h in ((i, j), (j, i)):
            e = um.edge(t, h)
            interference = np.stack([pts[:, um.vertex(t, 0)], pts[:, um.vertex(h, 1)]])
            zeta = zeta_roots(GADGET_SIGMA2, GADGET_RHO, interference)
            total += float(gadget.instance.alpha[e]) * np.log1p(pts[:, e] * zeta) / ln2
    return total


def test_gadget_scan_equals_point_values_bit_for_bit():
    # a single-edge gadget normalizes both edge weights to 1/2, whatever the
    # edge weight; give the edge users weights that are not powers of two
    gadget = reduce_maxcut(WeightedGraph(V=2, edges=((1, 2, 0.3),)))
    inst = gadget.instance
    alpha = inst.alpha.copy()
    alpha[[gadget.usermap.edge(1, 2), gadget.usermap.edge(2, 1)]] = [0.3, 0.7]
    gadget = dataclasses.replace(
        gadget, instance=SisoInstance(Q=inst.Q, sigma2=inst.sigma2, rho=inst.rho, P=inst.P, alpha=alpha)
    )
    grid, obj = gadget_grid_objective(gadget, step=0.1)
    scanned, _ = _scan_values(obj, grid)
    per_point, _ = _scan_values(lambda pts: _rate_sum_per_point(gadget, pts), grid)
    assert scanned.size == grid.n_points() == 937024
    assert np.array_equal(scanned.view(np.int64), per_point.view(np.int64))
    best = int(np.argmax(per_point))
    point, val = grid_search(obj, grid)
    multi = np.unravel_index(best, grid.shape())
    assert point.tolist() == [ax[i] for ax, i in zip(grid.axes(), multi)]
    assert val == per_point[best]


def test_sign_pattern_counts():
    grid = GridSpec(lower=(0.0,), upper=(3.0,), step=(0.1,))
    s = sign_pattern(lambda x: np.sin(3 * x), grid)
    assert s.plus_to_minus == 1
    assert s.minus_to_plus == 1
    kinds = [k for k, _ in s.transitions]
    assert kinds == ["+-", "-+"]
    # the location is the grid point where the new sign first shows up
    assert s.transitions[0][1] == pytest.approx(1.1)
    assert s.transitions[1][1] == pytest.approx(2.1)


def test_sign_pattern_skips_zeros():
    grid = GridSpec(lower=(0.0,), upper=(4.0,), step=(1.0,))
    vals = {0.0: -1.0, 1.0: 0.0, 2.0: 0.0, 3.0: 1.0, 4.0: 1.0}
    s = sign_pattern(lambda x: vals[x], grid)
    assert s.minus_to_plus == 1 and s.plus_to_minus == 0
    assert s.transitions == (("-+", 3.0),)


def test_sign_pattern_requires_1d():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), step=(0.5, 0.5))
    with pytest.raises(ValueError, match="1-D"):
        sign_pattern(lambda x: 0.0, grid)
