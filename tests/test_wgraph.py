import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entlap import states, wgraph
from entlap.corpus import build, build_stack
from entlap.criteria import classify
from entlap.errors import DimensionMismatch, NotAnEdge, VertexOutOfRange
from entlap.exact import Exact
from entlap.laplacian import laplacian_of_density
from entlap.matops import BipartiteDims, eigvals_sym
from entlap.states import validate
from entlap.wgraph import (
    WConvention,
    edge_w,
    edges,
    export_dot,
    graph_from_laplacian,
    is_connected,
    max_w,
)

from _bench import pool_keys, wl
from _oracles import bf_connected, bf_edge_w, bf_edges, bf_max_w, random_psd
from _sampling import corpus_points


def _graph_of(rho):
    return graph_from_laplacian(laplacian_of_density(rho.literal))


def _edge_list(g):
    """(i, j, w) for every edge of one graph, i < j, in row-major order."""
    return [(int(i), int(j), g[i, j]) for i, j in zip(*edges(g))]


def _degree(g, i):
    """w_i, the sum of vertex i's incident edge weights: a row sum of the weights."""
    return g[i].sum()


def _random_density(rng, d1, d2):
    n = d1 * d2
    a = random_psd(rng, n)
    return validate(a / np.trace(a).real, BipartiteDims(d1, d2))


class TestGraphFromLaplacian:
    def test_rho2_edge_set(self, rho2):
        g = _graph_of(rho2)
        assert g.shape == (8, 8)
        weight = Exact.of(Fraction(1, 81))
        assert set(_edge_list(g)) == {(0, 4, weight), (0, 7, weight), (3, 4, weight), (3, 7, weight)}

    def test_zero_laplacian_edgeless(self):
        rho = validate(np.diag([0.25] * 4), BipartiteDims(2, 2))
        assert _edge_list(_graph_of(rho)) == []

    def test_rho5_edge_set(self, rho5):
        g = _graph_of(rho5)
        weight = Exact.of(Fraction(1, 20))
        assert set(_edge_list(g)) == {(0, 1, weight), (0, 3, weight), (2, 3, weight)}

    @pytest.mark.parametrize("name, param", list(corpus_points()))
    def test_exact_graph_is_the_float_graph(self, name, param):
        # one edge rule for both entry types: a state's exact Laplacian is exactly
        # symmetric, so its graph is, with the float graph's values and edges
        rho = build(name, param)
        g = graph_from_laplacian(laplacian_of_density(rho.exact))
        assert g.dtype == object and (g == g.T).all()
        floats = g.astype(float)
        assert floats.shape == rho.graph.shape and floats.tobytes() == rho.graph.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(edges(g), rho.edges, strict=True))

    def test_round_trip_reconstruction(self, rng):
        for _ in range(500):
            rho = _random_density(rng, 2, 2)
            lap = laplacian_of_density(rho)
            g = graph_from_laplacian(lap)
            rebuilt = np.zeros((4, 4))
            for i, j, w in _edge_list(g):
                rebuilt[i, j] = rebuilt[j, i] = -float(w)
            np.fill_diagonal(rebuilt, -rebuilt.sum(axis=1))
            assert np.max(np.abs(rebuilt - lap)) <= 1e-12

    def test_total_degree_consistency(self, rho2, psi, rng):
        for rho in [rho2, psi] + [_random_density(rng, 2, 3) for _ in range(100)]:
            g = _graph_of(rho)
            total = sum(float(_degree(g, i)) for i in range(len(g)))
            assert total == pytest.approx(rho.total_degree, abs=1e-12)


class TestConnectivity:
    def test_rho2_disconnected(self, rho2):
        assert not is_connected(_graph_of(rho2))

    def test_rho3_connected(self, rho3):
        assert is_connected(_graph_of(rho3))

    def test_single_vertex(self):
        assert is_connected(np.zeros((1, 1)))
        assert math.isnan(max_w(np.zeros((1, 1))))  # W is defined on edges only

    def test_no_vertex(self):
        assert is_connected(np.zeros((0, 0)))
        assert math.isnan(max_w(np.zeros((0, 0)))) and math.isnan(max_w(np.zeros((0, 0)), WConvention.INCLUSIVE))

    def test_matches_bruteforce(self, rng):
        for _ in range(300):
            rho = _random_density(rng, 2, 2)
            # sparsify by zeroing some coherences
            m = rho.array.copy()
            mask = rng.random((4, 4)) < 0.5
            mask = mask & mask.T
            np.fill_diagonal(mask, False)
            m[mask] = 0.0
            rho2_ = validate(m / np.trace(m).real, BipartiteDims(2, 2), tol=1.0)
            g = _graph_of(rho2_)
            lap = laplacian_of_density(rho2_)
            assert is_connected(g) == bf_connected(4, bf_edges(lap))


def _complete_but_one(n):
    """K_{n-1} on vertices 1..n-1 and vertex 0 isolated: (n-1)(n-2)/2 edges, the
    most a disconnected simple graph on n vertices has."""
    g = np.ones((n, n)) - np.eye(n)
    g[0] = g[:, 0] = 0.0
    return g


def _searches(monkeypatch):
    """A list that gets "graph" for each depth-first pass `is_connected` runs
    over one graph's edge list, and "stack" for each breadth-first level it
    runs over a stack."""
    searches, spans, matmul = [], wgraph._spans, np.matmul
    monkeypatch.setattr(wgraph, "_spans", lambda *a: searches.append("graph") or spans(*a))
    monkeypatch.setattr(np, "matmul", lambda *a: searches.append("stack") or matmul(*a))
    return searches


@st.composite
def _graphs(draw, n):
    """A symmetric weight array with a zero diagonal: each vertex pair an edge
    or not, or all pairs but a few, so graphs above the edge bound come up too."""
    i, j = np.triu_indices(n, 1)
    present = draw(st.one_of(
        st.lists(st.booleans(), min_size=len(i), max_size=len(i)),
        st.sets(st.integers(0, max(len(i) - 1, 0))).map(lambda gone: [k not in gone for k in range(len(i))])))
    g = np.zeros((n, n))
    g[i, j] = g[j, i] = np.where(present, 0.5, 0.0)
    return g


@st.composite
def _graphs_near_the_bound(draw, n):
    """A graph on n vertices, some of them isolated, whose other pairs hold a
    random set of edges: of any size, or exactly (n-1)(n-2)/2, the most a
    disconnected graph has, or one more."""
    isolated = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(i, j) for i, j in zip(*np.triu_indices(n, 1)) if not isolated[i] and not isolated[j]]
    bound = (n - 1) * (n - 2) // 2
    size = draw(st.sampled_from([bound, bound + 1]) | st.integers(0, len(pairs)))
    g = np.zeros((n, n))
    for i, j in draw(st.permutations(pairs))[:size]:
        g[i, j] = g[j, i] = draw(st.sampled_from([0.5, 1e-3, 2.0]))
    return g


class TestConnectivityFromEdgeCount:
    """More than (n-1)(n-2)/2 edges answer one graph without a search; at or
    under it one depth-first pass over its edge list runs, and every stack is
    searched breadth first."""

    @pytest.mark.parametrize("n", range(4, 10))
    def test_most_edges_of_a_disconnected_graph(self, n, monkeypatch):
        g = _complete_but_one(n)
        assert len(edges(g)[0]) == (n - 1) * (n - 2) // 2
        searches = _searches(monkeypatch)
        assert not is_connected(g)
        assert searches == ["graph"]

    @pytest.mark.parametrize("n", range(4, 10))
    def test_any_edge_more_connects_it(self, n, monkeypatch):
        searches = _searches(monkeypatch)
        for v in range(1, n):  # every edge K_{n-1} plus a vertex lacks ends at the isolated vertex
            g = _complete_but_one(n)
            g[0, v] = g[v, 0] = 0.25
            assert is_connected(g)
        assert not searches

    def test_rho5_at_the_bound_is_searched(self, rho5, monkeypatch):
        g = rho5.graph
        assert len(edges(g)[0]) == 3 == (4 - 1) * (4 - 2) // 2
        searches = _searches(monkeypatch)
        assert is_connected(g)
        assert searches == ["graph"]

    def test_a_stack_above_and_at_the_bound(self, rho5, monkeypatch):
        complete = np.ones((4, 4)) - np.eye(4)
        mixed = np.stack([complete, rho5.graph, _complete_but_one(4), complete])
        searches = _searches(monkeypatch)
        assert is_connected(mixed).tolist() == [True, True, False, True]
        assert is_connected(np.stack([complete, complete])).tolist() == [True, True]
        assert searches.count("stack") > 2 and "graph" not in searches  # each stack is searched, level by level

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.lists(_graphs(n), min_size=1, max_size=5)))
    def test_matches_bruteforce(self, graphs):
        want = [bf_connected(len(g), bf_edges(-g)) for g in graphs]  # -g: the off-diagonal of a Laplacian
        assert [bool(is_connected(g)) for g in graphs] == want
        assert is_connected(np.stack(graphs)).tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.lists(_graphs_near_the_bound(n), min_size=1, max_size=4)))
    def test_one_graph_matches_bruteforce_and_its_stack_slice(self, graphs):
        stacked = is_connected(np.stack(graphs))
        for k, g in enumerate(graphs):
            alone = is_connected(g)
            assert alone == bf_connected(len(g), bf_edges(-g)) == stacked[k]
            assert alone == is_connected(g, lambda: edges(g))


class TestVertexWeight:
    """The vertex weights w_i of W[i,j], read off a graph's weights: each is the
    Laplacian diagonal entry, in the graph's entry type."""

    def test_isolated_vertex(self, rho2):
        g = _graph_of(rho2)
        assert _degree(g, 1) == Exact.of(0)

    def test_rho3_vertex_zero(self, rho3):
        g = _graph_of(rho3)
        assert float(_degree(g, 0)) == pytest.approx(0.4, abs=1e-15)

    def test_rho5_vertex_zero(self, rho5):
        g = _graph_of(rho5)
        assert _degree(g, 0) == Exact.of(Fraction(1, 10))

    def test_equals_laplacian_diagonal(self, rho3):
        g = _graph_of(rho3)
        lap = laplacian_of_density(rho3)
        for i in range(4):
            assert float(_degree(g, i)) == pytest.approx(lap[i, i], abs=1e-15)


class TestEdgeW:
    def test_not_an_edge(self, rho5):
        with pytest.raises(NotAnEdge):
            edge_w(_graph_of(rho5), 0, 2)

    def test_vertex_out_of_range(self, rho3):
        g = _graph_of(rho3)
        for i, j in [(0, 4), (-1, 0)]:  # numpy would read -1 as vertex 3
            with pytest.raises(VertexOutOfRange):
                edge_w(g, i, j)

    def test_path_graph_values(self, rho5):
        # path 2 - 1 - 4 - 3 (0-based 1-0-3-2), all weights 1/20:
        # endpoint edges carry w_i + w_j + one outside weight = 1/5,
        # the middle edge carries two outside weights = 3/10
        g = _graph_of(rho5)
        assert edge_w(g, 0, 1) == Exact.of(Fraction(1, 5))
        assert edge_w(g, 0, 3) == Exact.of(Fraction(3, 10))
        assert edge_w(g, 2, 3) == Exact.of(Fraction(1, 5))

    def test_isomorphic_edges_get_equal_values(self, rho5):
        # swapping 1<->4 and 2<->3 is a weight-preserving automorphism that
        # carries edge (1,2) to (3,4); any convention must match them
        g = _graph_of(rho5)
        for convention in WConvention:
            assert edge_w(g, 0, 1, convention) == edge_w(g, 2, 3, convention)

    def test_inclusive_adds_shared_edge_twice(self, rho5):
        g = _graph_of(rho5)
        for i, j, w in _edge_list(g):
            assert edge_w(g, i, j, WConvention.INCLUSIVE) == edge_w(g, i, j) + w + w

    def test_matches_bruteforce_both_conventions(self, rng):
        for _ in range(200):
            rho = _random_density(rng, 2, 3)
            g = _graph_of(rho)
            lap = laplacian_of_density(rho)
            edges = bf_edges(lap)
            for i, j, _ in _edge_list(g):
                for convention, inclusive in [(WConvention.EXCLUDED, False), (WConvention.INCLUSIVE, True)]:
                    got = float(edge_w(g, i, j, convention))
                    want = bf_edge_w(6, edges, i, j, inclusive)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_a_negative_weight_is_refused(self):
        # the closed form adds 4 |w_ij| for a negative w_ij: 12 here, where the neighbour sums give 0
        weights = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): -3.0, (1, 3): 1.0, (2, 3): 1.0}
        g = np.zeros((4, 4))
        for (i, j), w in weights.items():
            g[i, j] = g[j, i] = w
        assert wgraph._w_values(g, (1, 2), WConvention.EXCLUDED) == 12.0
        assert bf_edge_w(4, weights, 1, 2, inclusive=False) == 0.0
        for convention in WConvention:
            with pytest.raises(ValueError, match=r"^W is not defined on the edge \(1, 2\) of weight -3.0$"):
                edge_w(g, 1, 2, convention)
            assert edge_w(g, 0, 1, convention) == bf_edge_w(4, weights, 0, 1, convention == WConvention.INCLUSIVE)

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_weight_is_refused(self, weight):
        # EXCLUDED's closed form would read inf - inf, with numpy's invalid-value warning
        g = np.ones((3, 3)) - np.eye(3)
        g[0, 1] = g[1, 0] = weight
        for convention in WConvention:
            with pytest.raises(ValueError, match=r"^W is not defined on the edge \(0, 1\)"):
                edge_w(g, 0, 1, convention)

    def test_a_negative_exact_weight_is_refused(self):
        g = np.array([[0, 1], [1, 0]]) * Exact.radical(-1, 2)
        with pytest.raises(ValueError, match="^W is not defined on the edge"):
            edge_w(g, 0, 1)
        assert edge_w(-g, 0, 1) == Exact.radical(2, 2)
        assert edge_w(-g, 0, 1, WConvention.INCLUSIVE) == Exact.radical(4, 2)


class TestOneEdgeRead:
    """`edge_w` reads its edge from the edge's two rows, and `max_w` reads the
    edge lists; both are `_w_values`, so they agree bit for bit."""

    def test_float_pool_states_bit_for_bit(self):
        for d1, d2, kind, index in pool_keys():
            graph = validate(wl.make_state(d1, d2, kind, index), BipartiteDims(d1, d2)).graph
            for g in (graph, graph.astype(np.float32)):
                ends = edges(g)
                for convention in WConvention:
                    want = [float(v).hex() for v in wgraph._w_values(g, ends, convention)]
                    got = [edge_w(g, int(i), int(j), convention).hex() for i, j in zip(*ends)]
                    assert got == want, (d1, d2, kind, index, g.dtype, convention)

    @pytest.mark.parametrize("name, param", list(corpus_points()))
    def test_exact_corpus_graphs(self, name, param):
        g = graph_from_laplacian(laplacian_of_density(build(name, param).exact))
        ends = edges(g)
        for convention in WConvention:
            want = wgraph._w_values(g, ends, convention)
            assert [edge_w(g, int(i), int(j), convention) for i, j in zip(*ends)] == list(want)


class TestMaxW:
    def test_no_edges(self):
        rho = validate(np.diag([0.25] * 4), BipartiteDims(2, 2))
        assert math.isnan(max_w(_graph_of(rho)))

    def test_no_edges_on_an_exact_graph(self):
        g = graph_from_laplacian(laplacian_of_density(build("rho_ab", 0.0).exact))
        assert g.dtype == object and not g.any()
        assert math.isnan(max_w(g))

    def test_rho5(self, rho5):
        assert max_w(_graph_of(rho5)) == Exact.of(Fraction(3, 10))

    def test_rho3_both_conventions(self, rho3):
        # K4 with weights in tenths: endpoint-degree sums peak at 0.9 and the
        # common-neighbour terms add 0.1, so the default convention gives 1.0;
        # the inclusive convention additionally counts the shared edge twice
        g = _graph_of(rho3)
        assert float(max_w(g)) == pytest.approx(1.0, abs=1e-12)
        assert float(max_w(g, WConvention.INCLUSIVE)) == pytest.approx(1.4, abs=1e-12)

    def test_rho6_closed_form(self):
        for a in (0.01, 0.25, 1.0):
            rho = build("rho6", a)
            g = _graph_of(rho)
            n_const = 400 * a + 1
            assert float(max_w(g)) == pytest.approx((4 * a + 0.04) / n_const, abs=1e-12)

    def test_matches_bruteforce(self, rng):
        for _ in range(100):
            rho = _random_density(rng, 2, 2)
            g = _graph_of(rho)
            lap = laplacian_of_density(rho)
            edges = bf_edges(lap)
            assert float(max_w(g)) == pytest.approx(bf_max_w(4, edges, False), abs=1e-12)
            assert float(max_w(g, WConvention.INCLUSIVE)) == pytest.approx(
                bf_max_w(4, edges, True), abs=1e-12)


def _sparse_density(rng, d1, d2, keep, split):
    """A random state with each coherence kept with probability `keep`; with
    `split`, none between the first and second half of the vertices.  A
    diagonal shift keeps it positive semidefinite."""
    n = d1 * d2
    m = random_psd(rng, n)
    mask = np.triu(rng.random((n, n)) < keep, 1)
    if split:
        mask[: n // 2, n // 2:] = False
    mask = mask | mask.T | np.eye(n, dtype=bool)
    m = np.where(mask, m, 0) + np.abs(m).sum() * np.eye(n)
    return validate(m / np.trace(m).real, BipartiteDims(d1, d2))


class TestClosedFormW:
    """The dense closed form for W against the neighbour-set brute force."""

    @pytest.mark.parametrize("d1, d2", [(2, 2), (2, 4), (3, 3)])
    def test_matches_bruteforce(self, rng, d1, d2):
        n = d1 * d2
        seen = Counter()
        for trial in range(90):
            kind = ("dense", "sparse", "disconnected")[trial % 3]
            if kind == "dense":
                rho = _random_density(rng, d1, d2)
            else:
                rho = _sparse_density(rng, d1, d2, keep=0.35, split=kind == "disconnected")
            g = _graph_of(rho)
            edges = bf_edges(laplacian_of_density(rho))
            assert {(i, j) for i, j, _ in _edge_list(g)} == set(edges)
            seen["sparse"] += len(edges) <= n * (n - 1) / 4
            seen["disconnected"] += not bf_connected(n, edges)
            for convention, inclusive in [(WConvention.EXCLUDED, False), (WConvention.INCLUSIVE, True)]:
                for i, j in edges:
                    assert edge_w(g, i, j, convention) == pytest.approx(
                        bf_edge_w(n, edges, i, j, inclusive), abs=1e-12)
                if edges:
                    assert max_w(g, convention) == pytest.approx(bf_max_w(n, edges, inclusive), abs=1e-12)
        assert seen["sparse"] >= 20 and seen["disconnected"] >= 30


class TestWAcrossSlices:
    """Graphs whose edge list spans more than one slice of the W kernel."""

    @staticmethod
    def _slices(g):
        per_slice = wgraph.SLICE_ENTRIES // g.shape[-1]
        return -(-len(edges(g)[0]) // per_slice)

    def test_float_matches_bruteforce_at_4x8(self, rng):
        for kind in ("dense", "sparse", "dense", "sparse"):
            if kind == "dense":
                rho = _random_density(rng, 4, 8)
            else:
                rho = _sparse_density(rng, 4, 8, keep=0.35, split=False)
            g = _graph_of(rho)
            edges = bf_edges(laplacian_of_density(rho))
            assert {(i, j) for i, j, _ in _edge_list(g)} == set(edges)
            if kind == "dense":
                assert len(_edge_list(g)) == 496 and self._slices(g) >= 2
            for convention, inclusive in [(WConvention.EXCLUDED, False), (WConvention.INCLUSIVE, True)]:
                want = {(i, j): bf_edge_w(32, edges, i, j, inclusive) for i, j in edges}
                for (i, j), value in want.items():
                    assert edge_w(g, i, j, convention) == pytest.approx(value, abs=1e-12)
                assert max_w(g, convention) == pytest.approx(max(want.values()), abs=1e-12)

    def test_exact_matches_bruteforce_on_dense_rational_graph(self, rng):
        n = 26
        fractions = {(i, j): Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 12)))
                     for i in range(n) for j in range(i + 1, n)}
        g = np.full((n, n), Exact.of(0), dtype=object)
        for (i, j), value in fractions.items():
            g[i, j] = g[j, i] = Exact.of(value)
        assert self._slices(g) >= 2
        for convention, inclusive in [(WConvention.EXCLUDED, False), (WConvention.INCLUSIVE, True)]:
            assert max_w(g, convention) == Exact.of(bf_max_w(n, fractions, inclusive))
            for i, j in fractions:
                assert edge_w(g, i, j, convention) == Exact.of(bf_edge_w(n, fractions, i, j, inclusive))


class TestStackedGraphs:
    """A stack of graphs gives each graph's connectivity and max W, as the graph alone does."""

    @staticmethod
    def _stack(rng, n, count):
        graphs = []
        for k in range(count):
            w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < (0.15, 0.5, 1.0)[k % 3]), 1)
            graphs.append(w + w.T)
        graphs[1] = np.zeros((n, n))  # no edges
        return np.stack(graphs)

    @pytest.mark.parametrize("n, count", [(4, 9), (9, 7), (64, 12)])  # the last spans many W slices
    def test_matches_each_graph_alone(self, rng, n, count):
        stack = self._stack(rng, n, count)
        alone = list(stack)
        assert len(edges(stack)[0]) == sum(len(edges(g)[0]) for g in alone)
        assert list(is_connected(stack)) == [is_connected(g) for g in alone]
        for convention in WConvention:
            best = max_w(stack, convention)
            assert np.isnan(best[1])
            for k, g in enumerate(alone):
                if g.any():
                    assert best[k] == max_w(g, convention)

    def test_stack_without_edges(self):
        stack = np.zeros((3, 4, 4))
        assert not is_connected(stack).any()
        assert np.isnan(max_w(stack)).all()

    def test_one_graph_readers_reject_a_stack(self):
        values = [0.1, 0.5, 0.9]
        stack = build_stack("rho6", values).graph
        for read in (lambda g: edge_w(g, 0, 1), lambda g: export_dot(g, edges(g))):
            with pytest.raises(DimensionMismatch, match="^expected one graph, got a stack of 3$"):
                read(stack)
        alone = [build("rho6", a).graph for a in values]
        assert is_connected(stack).tolist() == [is_connected(g) for g in alone]
        assert max_w(stack).tolist() == [max_w(g) for g in alone]

    def test_graph_from_stacked_laplacians(self, rng):
        states = [_random_density(rng, 2, 3), _sparse_density(rng, 2, 3, keep=0.35, split=True)]
        stack = graph_from_laplacian(np.stack([laplacian_of_density(rho) for rho in states]))
        for k, rho in enumerate(states):
            assert stack[k].tobytes() == _graph_of(rho).tobytes()


class TestWMemory:
    def test_dense_64_vertex_peak_below_512_kib(self, rng):
        # a kernel that gathers all (E, n) rows or an n^3 broadcast peaks at megabytes here
        g = np.triu(rng.random((64, 64)), 1)
        g = g + g.T
        assert len(edges(g)[0]) == 2016
        tracemalloc.start()
        try:
            for convention in WConvention:
                max_w(g, convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_dense_20_vertex_peak_below_256_kib(self, rng):
        # the all-pairs broadcast: its (20, 20, 20) float64 output is 62.5 KiB, and numpy
        # buffers each of its two broadcast inputs in at most a buffer of 8192 entries
        g = _symmetric(rng.random((20, 20)))
        tracemalloc.start()
        try:
            for convention in WConvention:
                max_w(g, convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def _all_edges_max(g, convention):
    """The max of W over every edge of one graph, by the kernel alone."""
    return wgraph._w_values(g, edges(g), convention).max()


def _symmetric(upper):
    """The graph with the strict upper triangle of `upper` as its weights."""
    w = np.triu(upper, 1)
    return w + w.T


def _weighed(monkeypatch):
    """A list that gets the edge count of every `_w_values` call."""
    weighed, kernel = [], wgraph._w_values
    monkeypatch.setattr(wgraph, "_w_values", lambda w, ends, c: weighed.append(np.size(ends[0])) or kernel(w, ends, c))
    return weighed


def _assert_max_w_is_all_edges_max(g):
    for convention in WConvention:
        got, want = max_w(g, convention), _all_edges_max(g, convention)
        assert got == want and type(got) is float, (convention, got, want)


@st.composite
def _bounded_graphs(draw):
    """A graph on 20..64 vertices: random weights at one of many scales, with a
    share of pairs cut, or near-equal weights, where bounds are tight."""
    n = draw(st.integers(20, 64))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["uniform", "log-uniform", "near-equal", "sparse"]))
    if kind == "uniform":
        upper = rng.random((n, n))
    elif kind == "log-uniform":
        upper = 10.0 ** rng.uniform(-12, 0, (n, n))
    elif kind == "near-equal":
        upper = 0.3 + rng.integers(-2, 3, (n, n)) * 2.0 ** -52
    else:
        upper = rng.random((n, n)) * (rng.random((n, n)) < draw(st.floats(0.3, 1.0)))
    return np.ldexp(_symmetric(upper), draw(st.integers(-40, 40)))


class TestBoundedMaxW:
    """One float graph whose edges fill more than one slice weighs only the
    edges whose Cauchy-Schwarz bound reaches its seed edge's W; its max W is
    still bit for bit the max over every edge."""

    def test_pool_states(self):
        keys = pool_keys()
        assert len(keys) == 640
        for d1, d2, kind, index in keys:
            g = validate(wl.make_state(d1, d2, kind, index), BipartiteDims(d1, d2)).graph
            for convention in WConvention:
                assert max_w(g, convention) == _all_edges_max(g, convention), (d1, d2, kind, index, convention)

    @pytest.mark.parametrize("n", [26, 32, 47, 64])
    @pytest.mark.parametrize("weight", [0.1, 1 / 3, 0.7, 2.0 ** -30])
    def test_complete_graph_ties_keep_every_edge(self, n, weight):
        g = np.full((n, n), weight) - np.diag(np.full(n, weight))
        for convention in WConvention:
            assert len(wgraph._contenders(g, convention)[0]) == n * (n - 1) // 2
        _assert_max_w_is_all_edges_max(g)

    @pytest.mark.parametrize("n", [26, 40, 64])
    def test_near_duplicate_rows(self, rng, n):
        # q_i + q_j - 2 G_ij cancels to the last bits where two rows nearly agree
        for spread in (2.0 ** -52, 2.0 ** -40, 1e-9):
            base = np.full((n, n), 0.25)
            _assert_max_w_is_all_edges_max(_symmetric(base + spread * rng.standard_normal((n, n))))
            v = 1 + spread * rng.standard_normal(n)
            _assert_max_w_is_all_edges_max(_symmetric(np.outer(v, v)))

    def test_weights_from_the_edge_threshold_to_one(self, rng):
        for n in (26, 48, 64):
            for _ in range(5):
                g = _symmetric(10.0 ** rng.uniform(math.log10(wgraph.EDGE_THRESHOLD), 0, (n, n)))
                assert len(edges(g)[0]) == n * (n - 1) // 2
                _assert_max_w_is_all_edges_max(g)

    @pytest.mark.parametrize("exponent", [500, -500, -1060, 1018])
    def test_weights_scaled_by_powers_of_two(self, rng, exponent):
        # 2^-1060 makes every weight subnormal: the bound is read on a copy scaled by 2^1060;
        # at 2^1018 every W overflows to inf, the seed edge's too
        g = _symmetric(rng.uniform(0.5, 1.0, (48, 48)))
        scaled = np.ldexp(g, exponent)
        assert np.count_nonzero(scaled) == np.count_nonzero(g)
        with np.errstate(over="ignore"):
            _assert_max_w_is_all_edges_max(scaled)
            assert math.isinf(max_w(scaled)) == (exponent > 1000)
        if abs(exponent) <= 500:  # no W rounds differently when scaled
            for convention in WConvention:
                assert max_w(scaled, convention) == np.ldexp(max_w(g, convention), exponent)

    def test_float32_graphs_keep_their_precision(self, rng):
        for n in (32, 64):
            g = _symmetric(rng.random((n, n))).astype(np.float32)
            _assert_max_w_is_all_edges_max(g)
            assert max_w(g) != max_w(g.astype(np.float64))  # the kernel sums in float32

    def test_float32_ties_need_a_float32_margin(self, rng):
        # a circulant graph on 2h vertices, h odd, where c[m] and c[h - m] differ by exactly 1/4:
        # every |w_ik - w_jk| of an edge (i, i + h) is 1/4, so these h edges share one exact W,
        # equal to their bound U, and float32 sums of the rotated rows round apart by an ulp or
        # two, far more than a margin at float64's precision covers
        h, n = 29, 58
        for _ in range(40):
            low = rng.uniform(0.5, 0.75, h // 2).astype(np.float32)
            pair = np.stack([low, low + np.float32(0.25)])
            c = np.zeros(n, dtype=np.float32)
            c[1:h // 2 + 1], c[h - 1:h // 2:-1] = np.where(rng.random(h // 2) < 0.5, pair, pair[::-1])
            c[h], c[h + 1:] = rng.uniform(0.5, 1.0), c[h - 1:0:-1]
            g = c[(np.arange(n) - np.arange(n)[:, None]) % n]
            assert (g == g.T).all()
            _assert_max_w_is_all_edges_max(g)

    @settings(max_examples=60, deadline=None)
    @given(_bounded_graphs())
    def test_matches_all_edges(self, g):
        _assert_max_w_is_all_edges_max(g)

    @pytest.mark.parametrize("weight", [-30.0, math.inf, math.nan])
    def test_a_negative_or_non_finite_weight_weighs_every_edge(self, rng, monkeypatch, weight):
        # the bound holds for non-negative weights only: a negative w_ij adds 4 |w_ij| to W[i,j]
        g = _symmetric(rng.random((40, 40)))
        g[3, 7] = g[7, 3] = weight
        with np.errstate(invalid="ignore"):  # EXCLUDED's W of an inf edge is inf - inf
            want = [_all_edges_max(g, convention) for convention in WConvention]
            weighed = _weighed(monkeypatch)
            got = [max_w(g, convention) for convention in WConvention]
        assert weighed == [40 * 39 // 2] * 2
        assert np.array_equal(got, want, equal_nan=True)


@st.composite
def _small_graphs(draw):
    """A graph on 0..20 vertices, in float64, float32, bool or integer weights:
    complete, with a share of pairs cut, with isolated vertices, or edgeless."""
    n = draw(st.integers(0, 20))
    dtype = draw(st.sampled_from([np.float64, np.float32, bool, np.uint8, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if dtype is bool:
        upper = rng.random((n, n)) < 0.5
    elif np.issubdtype(dtype, np.integer):
        upper = rng.integers(0, 256, (n, n))
    elif draw(st.booleans()):
        upper = np.ldexp(rng.random((n, n)), draw(st.integers(-60, 60)))
    else:  # near-equal weights, where W ties
        upper = 0.3 + rng.integers(-2, 3, (n, n)) * 2.0 ** -52
    kind = draw(st.sampled_from(["complete", "cut", "isolated", "edgeless"]))
    if kind == "cut":
        upper = upper * (rng.random((n, n)) < draw(st.floats(0.0, 1.0)))
    elif kind == "isolated":
        alone = rng.random(n) < draw(st.floats(0.0, 1.0))
        upper = upper * ~(alone[:, None] | alone)
    elif kind == "edgeless":
        upper = upper * 0
    return _symmetric(upper).astype(dtype)


class TestAllPairsMaxW:
    """One float graph on up to 20 vertices (n^3 <= SLICE_ENTRIES) weighs all
    vertex pairs in one broadcast, with no edge list; its max W is still bit
    for bit the max of the kernel over its edge list."""

    @staticmethod
    def _assert_matches_the_edge_list(g):
        listed = []
        for convention in WConvention:
            got = max_w(g, convention, lambda: listed.append(convention) or edges(g))
            assert type(got) is float
            if len(edges(g)[0]):
                want = float(_all_edges_max(wgraph._weights(g), convention))
                assert got.hex() == want.hex(), (convention, got, want)
            else:
                assert math.isnan(got)
        return listed

    @settings(max_examples=300, deadline=None)
    @given(_small_graphs())
    def test_matches_the_edge_list_and_never_lists_it(self, g):
        assert self._assert_matches_the_edge_list(g) == []

    @pytest.mark.parametrize("n, listed", [(20, 0), (21, 2)])
    def test_either_side_of_the_switch(self, rng, n, listed):
        # 21^3 > 8192, and K_21's 210 edges fit one slice of 8192 // 21 = 390: the edge-list path
        g = _symmetric(rng.random((n, n)))
        assert len(self._assert_matches_the_edge_list(g)) == listed

    def test_edgeless_graphs_are_nan(self):
        for n in (0, 1, 2, 20):
            for dtype in (np.float64, np.float32, bool, np.int64):
                g = np.zeros((n, n), dtype=dtype)
                assert all(math.isnan(max_w(g, convention, lambda: pytest.fail("edges listed")))
                           for convention in WConvention)


class TestIntegerGraphs:
    """Bool and integer weights are read as float64: no W wraps an integer type."""

    def test_uint8_complete_graph(self):
        g = np.full((4, 4), 200, dtype=np.uint8) - np.diag(np.full(4, 200, dtype=np.uint8))
        assert max_w(g) == 1200.0 and max_w(g, WConvention.INCLUSIVE) == 1600.0
        assert edge_w(g, 0, 1) == 1200.0 and edge_w(g, 0, 1, WConvention.INCLUSIVE) == 1600.0

    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int16, np.int64])
    def test_equal_the_float_graph(self, rng, n, dtype):
        weights = rng.integers(0, 2 if dtype is bool else 120, (n, n))
        g = _symmetric(weights).astype(dtype)
        want = _symmetric(weights).astype(np.float64)
        i, j = (int(v[0]) for v in edges(g))
        for convention in WConvention:
            assert max_w(g, convention) == max_w(want, convention)
            assert edge_w(g, i, j, convention) == edge_w(want, i, j, convention)
        stack = np.stack([g, g])
        assert max_w(stack).tolist() == [max_w(want)] * 2


class TestContenders:
    def test_dense_8x8_pool_states_weigh_few_edges(self, monkeypatch):
        """Besides its seed edge, max_w of an 8x8 dense or rank-2 pool state
        weighs at most two slices of 128 edges, and half a slice on average,
        where weighing every edge takes 2016 edges in 16 slices."""
        weighed = _weighed(monkeypatch)
        per_slice = wgraph.SLICE_ENTRIES // 64
        extra = []
        for kind in ("dense", "rank2"):
            for index in range(wl.POOL_PER_CLASS):
                g = validate(wl.make_state(8, 8, kind, index), BipartiteDims(8, 8)).graph
                weighed.clear()
                max_w(g)
                assert weighed[0] == 1 and len(weighed) == 2, (kind, index, weighed)
                extra.append(weighed[1])
        assert max(extra) <= 2 * per_slice
        assert sum(extra) <= len(extra) * per_slice // 2


class TestEdgeIndex:
    def test_found_once_per_graph(self, monkeypatch):
        """`classify` finds the edges of a state's graph with one np.nonzero
        when a reader needs them, and with none when none does: rho3's complete
        graph is connected by its edge count and max W weighs all its vertex
        pairs; rho5's path graph lists its edges once, for its depth-first search."""
        calls = []
        nonzero = np.nonzero

        def counting(a):
            calls.append(a)
            return nonzero(a)

        states = [(build("rho3"), 0), (build("rho5"), 1)]
        monkeypatch.setattr(wgraph.np, "nonzero", counting)
        for rho, count in states:
            calls.clear()
            classify(rho)
            assert len(calls) == count

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 8), (8, 8)], ids=["2x2", "2x3", "3x3", "4x8", "8x8"])
    def test_listed_only_for_a_reader(self, dims, monkeypatch):
        """A state lists its graph's edges once, for connectivity and max W
        alike, and not at all when the edge count answers connectivity and max
        W weighs all vertex pairs (up to 20 vertices) or its contenders only:
        the dense and rank-2 pool states."""
        listed = []
        monkeypatch.setattr(states, "edges", lambda g: listed.append(g) or edges(g))
        for kind in wl.KINDS:
            for index in range(wl.POOL_PER_CLASS):
                rho = validate(wl.make_state(*dims, kind, index), BipartiteDims(*dims))
                listed.clear()
                classify(rho)
                assert len(listed) == (kind.startswith("sparse")), (kind, index)


class TestSpectralBound:
    def test_holds_with_inclusive_convention_on_random_states(self, rng):
        violations = 0
        checked = 0
        for _ in range(1000):
            d1, d2 = [(2, 2), (2, 3), (3, 3)][int(rng.integers(3))]
            rho = _random_density(rng, d1, d2)
            g = _graph_of(rho)
            if not g.any() or not is_connected(g):
                continue
            checked += 1
            lam_max = float(eigvals_sym(laplacian_of_density(rho))[-1])
            if lam_max > float(max_w(g, WConvention.INCLUSIVE)) / 2 + 1e-9:
                violations += 1
        assert checked >= 900
        assert violations == 0

    def test_exactly_tight_on_single_edge(self):
        # K2 with weight w: lambda_max(L) = 2w and W/2 = 2w under the
        # inclusive convention; the default convention gives only w, which is
        # why the bound is asserted with INCLUSIVE
        rho = validate(np.array([[0.5, 0.3, 0, 0], [0.3, 0.5, 0, 0],
                                 [0, 0, 0, 0], [0, 0, 0, 0]]), BipartiteDims(2, 2))
        lap = laplacian_of_density(rho)
        g = graph_from_laplacian(lap)
        lam_max = float(eigvals_sym(lap)[-1])
        assert lam_max == pytest.approx(0.6, abs=1e-12)
        assert float(max_w(g, WConvention.INCLUSIVE)) / 2 == pytest.approx(0.6, abs=1e-12)
        assert float(max_w(g)) / 2 == pytest.approx(0.3, abs=1e-12)

    def test_default_convention_violates_bound_on_corpus_paths(self, rho5, rho3):
        # measured counterexamples documenting why the property suite uses
        # the inclusive convention for the bound
        for rho, lam_max_expected, half_expected in [
            (rho5, (2 + np.sqrt(2)) / 20, 0.15),
            (rho3, 0.7, 0.5),
        ]:
            g = _graph_of(rho)
            lam_max = float(eigvals_sym(laplacian_of_density(rho))[-1])
            assert lam_max == pytest.approx(lam_max_expected, abs=1e-12)
            assert float(max_w(g)) / 2 == pytest.approx(half_expected, abs=1e-12)
            assert lam_max > float(max_w(g)) / 2
            assert lam_max <= float(max_w(g, WConvention.INCLUSIVE)) / 2 + 1e-9


class TestExportDot:
    def test_edgeless_two_vertices(self):
        g = np.zeros((2, 2))
        dot = export_dot(g, edges(g))
        assert dot == "graph G {\n  1;\n  2;\n}\n"

    def test_rho5_labels(self, rho5):
        g = _graph_of(rho5)
        dot = export_dot(g, edges(g))
        assert dot.count('[label="1/20"]') == 3

    def test_rho2_labels(self, rho2):
        g = _graph_of(rho2)
        dot = export_dot(g, edges(g))
        assert dot.count('[label="1/81"]') == 4
        assert "1 -- 5" in dot and "1 -- 8" in dot and "4 -- 5" in dot and "4 -- 8" in dot

    def test_byte_identical_across_runs(self, rho3):
        g, h = _graph_of(rho3), graph_from_laplacian(laplacian_of_density(build("rho3").exact))
        a, b = export_dot(g, edges(g)), export_dot(h, edges(h))
        assert a == b

    def test_float_weights_render_decimal(self, rng):
        rho = _random_density(rng, 2, 2)
        g = _graph_of(rho)
        dot = export_dot(g, edges(g))
        assert "sqrt" not in dot and "/" not in dot.replace("--", "")

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
    def test_a_float_states_entries_label_its_graph(self, rng, dtype):
        a = _random_density(rng, 2, 3).array  # complex; its real part is a real state
        rho = validate((a.real if dtype is np.float64 else a).astype(dtype), BipartiteDims(2, 3))
        assert rho.exact is None
        assert export_dot(rho.literal, edges(rho.graph)) == export_dot(rho.graph, edges(rho.graph))
