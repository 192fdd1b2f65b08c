"""Max-flow connectivity queries, minimum cuts and fan extraction."""

from __future__ import annotations

from itertools import combinations, permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from cliquecuts import (
    CutResult,
    FanInfeasible,
    GraphError,
    MultiGraph,
    directed_edge_connectivity,
    menger_fan,
    min_cut,
    random_multigraph,
    thick_star,
)
from cliquecuts.flow import _net_for
from strategies import digraphs, eulerian_digraphs, multigraphs

graphs_or_digraphs = st.one_of(
    multigraphs(max_n=6, max_m=12, min_n=2), digraphs(max_n=6, max_m=12, min_n=2)
)


def complete_graph(n):
    return MultiGraph.undirected(n, list(combinations(range(n), 2)))


def bridge_of_triangles():
    """Two triangles {0,1,2} and {3,4,5} joined by the single edge 2-3."""
    return MultiGraph.undirected(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    )


class TestEdgeConnectivity:
    def test_three_parallel_edges(self):
        g = MultiGraph.undirected(2, [(0, 1)] * 3)
        assert min_cut(g, 0, 1).value == 3

    def test_complete_graph_every_pair(self):
        g = complete_graph(5)
        assert all(
            min_cut(g, u, v).value == 4
            for u, v in combinations(range(5), 2)
        )

    def test_disconnected_pair(self):
        g = MultiGraph.undirected(4, [(0, 1), (2, 3)])
        assert min_cut(g, 0, 3).value == 0

    def test_same_vertex_rejected(self):
        with pytest.raises(GraphError):
            min_cut(MultiGraph.undirected(2, [(0, 1)]), 1, 1)

    @given(multigraphs(max_n=6, max_m=12, min_n=2), st.data())
    @settings(max_examples=120)
    def test_matches_bipartition_enumeration(self, g, data):
        u, v = data.draw(
            st.lists(
                st.sampled_from(g.vertices), min_size=2, max_size=2, unique=True
            )
        )
        assert min_cut(g, u, v).value == brute.min_cut_undirected(g, u, v)


class TestDirectedConnectivity:
    def test_digon(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (1, 0)])
        assert directed_edge_connectivity(d, 0, 1) == 1
        assert directed_edge_connectivity(d, 1, 0) == 1

    def test_bidirected_triangle(self):
        d = MultiGraph.directed_graph(
            3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
        )
        assert all(
            directed_edge_connectivity(d, u, v) == 2
            for u, v in permutations(range(3), 2)
        )

    def test_directed_cycle(self):
        d = MultiGraph.directed_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert all(
            directed_edge_connectivity(d, u, v) == 1
            for u, v in permutations(range(5), 2)
        )

    def test_one_way_pair(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (0, 1)])
        assert directed_edge_connectivity(d, 0, 1) == 2
        assert directed_edge_connectivity(d, 1, 0) == 0

    def test_undirected_input_rejected(self):
        with pytest.raises(GraphError):
            directed_edge_connectivity(MultiGraph.undirected(2, [(0, 1)]), 0, 1)

    def test_long_cycle_has_no_recursion_limit(self):
        n = 1500
        d = MultiGraph.directed_graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert directed_edge_connectivity(d, 0, n - 1) == 1
        assert directed_edge_connectivity(d, n - 1, 0) == 1

    @given(digraphs(max_n=6, max_m=12, min_n=2), st.data())
    @settings(max_examples=120)
    def test_matches_bipartition_enumeration(self, d, data):
        u, v = data.draw(
            st.lists(
                st.sampled_from(d.vertices), min_size=2, max_size=2, unique=True
            )
        )
        assert directed_edge_connectivity(d, u, v) == brute.min_cut_directed(
            d, u, v
        )

    @given(eulerian_digraphs(max_n=7, max_cycles=4), st.data())
    @settings(max_examples=100)
    def test_eulerian_symmetry(self, d, data):
        u, v = data.draw(
            st.lists(
                st.sampled_from(d.vertices), min_size=2, max_size=2, unique=True
            )
        )
        assert directed_edge_connectivity(d, u, v) == directed_edge_connectivity(
            d, v, u
        )


class TestMinCut:
    def test_bridge_graph(self):
        cut = min_cut(bridge_of_triangles(), 0, 5)
        assert cut.value == 1
        assert cut.side == frozenset({0, 1, 2})

    def test_parallel_edges_side(self):
        g = MultiGraph.undirected(2, [(0, 1)] * 3)
        cut = min_cut(g, 0, 1)
        assert cut.value == 3
        assert cut.side == frozenset({0})

    def test_path_two_optima(self):
        # {0} and {0, 1} both cut one edge; the side is the smaller one.
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        cut = min_cut(g, 0, 2)
        assert cut.value == 1
        assert cut.side == frozenset({0})

    def test_directed_cut_side(self):
        d = MultiGraph.directed_graph(3, [(0, 1), (1, 2), (2, 0)])
        cut = min_cut(d, 0, 2)
        assert cut.value == 1
        assert 0 in cut.side and 2 not in cut.side

    def test_directed_arcs_count_one_way(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (0, 1)])
        assert min_cut(d, 0, 1) == CutResult(2, frozenset({0}))
        assert min_cut(d, 1, 0) == CutResult(0, frozenset({1}))

    def test_long_path_has_no_recursion_limit(self):
        n = 1500
        g = MultiGraph.undirected(n, [(i, i + 1) for i in range(n - 1)])
        cut = min_cut(g, 0, n - 1)
        assert cut.value == 1
        assert cut.side == frozenset({0})

    @given(multigraphs(max_n=6, max_m=12, min_n=2), st.data())
    @settings(max_examples=120)
    def test_side_recounts_to_value(self, g, data):
        u, v = data.draw(
            st.lists(
                st.sampled_from(g.vertices), min_size=2, max_size=2, unique=True
            )
        )
        cut = min_cut(g, u, v)
        assert u in cut.side and v not in cut.side
        assert brute.cut_size(g, cut.side) == cut.value

    @given(digraphs(max_n=6, max_m=12, min_n=2), st.data())
    @settings(max_examples=100)
    def test_directed_side_recounts_to_value(self, d, data):
        u, v = data.draw(
            st.lists(
                st.sampled_from(d.vertices), min_size=2, max_size=2, unique=True
            )
        )
        cut = min_cut(d, u, v)
        assert u in cut.side and v not in cut.side
        assert brute.out_arcs(d, cut.side) == cut.value

    @given(graphs_or_digraphs, st.data())
    @settings(max_examples=150)
    def test_side_is_the_smallest_minimum_side(self, g, data):
        # The u-sides of the minimum u-v cuts are closed under intersection,
        # so one of them lies inside all the others.  It does not depend on
        # which maximum flow the solver finds, so neither do cut trees.
        u, v = data.draw(
            st.lists(
                st.sampled_from(g.vertices), min_size=2, max_size=2, unique=True
            )
        )
        sides = brute.min_cut_sides(g, u, v)
        smallest = min(sides, key=len)
        assert all(smallest <= side for side in sides)
        assert min_cut(g, u, v).side == smallest

    @given(multigraphs(max_n=5, max_m=8, min_n=2), st.data())
    @settings(max_examples=60)
    def test_loops_do_not_matter(self, g, data):
        u, v = data.draw(
            st.lists(
                st.sampled_from(g.vertices), min_size=2, max_size=2, unique=True
            )
        )
        looped = MultiGraph(
            g.vertex_set,
            list(g.edges) + [(g.next_edge_id + i, w, w) for i, w in
                             enumerate(g.vertices)],
            False,
        )
        assert min_cut(looped, u, v).value == min_cut(g, u, v).value


def assert_feasible_flow(net, s, t, value):
    """The flow left in `net` respects every capacity and carries `value`
    units from s to t, conserved at every other vertex."""
    res, init, to, verts = net._res, net._init, net._to, net._verts
    out = dict.fromkeys(verts, 0)  # net outflow per vertex
    for a in range(0, len(to), 2):
        # Arc a and its reverse hold the bundle's capacities between them;
        # neither residual is negative exactly when the flow fits.
        assert res[a] >= 0 and res[a + 1] >= 0
        assert res[a] + res[a + 1] == init[a] + init[a + 1]
        f = init[a] - res[a]  # flow along arc a, negative when reversed
        out[verts[to[a + 1]]] += f
        out[verts[to[a]]] -= f
    assert out == {
        w: value if w == s else -value if w == t else 0 for w in verts
    }


class TestLimitedMaxFlow:
    @given(graphs_or_digraphs, st.data())
    @settings(max_examples=80)
    def test_pushes_exactly_the_limit(self, g, data):
        u, v = data.draw(
            st.lists(
                st.sampled_from(g.vertices), min_size=2, max_size=2, unique=True
            )
        )
        lam = (brute.min_cut_directed(g, u, v) if g.directed
               else brute.min_cut_undirected(g, u, v))
        for k in range(lam + 2):
            net = _net_for(g)
            assert net.max_flow(u, v, limit=k) == min(k, lam)
            assert_feasible_flow(net, u, v, min(k, lam))

    def test_last_path_pushed_in_part(self):
        # One path of capacity 5: a limit of 3 takes 3 units of it.
        g = MultiGraph.undirected(3, [(0, 1)] * 5 + [(1, 2)] * 5)
        net = _net_for(g)
        assert net.max_flow(0, 2, limit=3) == 3
        assert_feasible_flow(net, 0, 2, 3)
        assert net.max_flow(0, 2) == 2
        assert_feasible_flow(net, 0, 2, 5)


class TestReset:
    """One network, reset between flows, answers every pair as a fresh
    network would: the same value and the same cut side."""

    @pytest.mark.parametrize("seed", range(3))
    def test_reused_network_matches_fresh(self, seed):
        g = random_multigraph(12, 40, Random(seed))
        net = _net_for(g)
        for u, v in permutations(g.vertices, 2):
            net.reset()
            fresh = _net_for(g)
            assert net.max_flow(u, v) == fresh.max_flow(u, v)
            assert net.cut_side(u) == fresh.cut_side(u)

    @pytest.mark.parametrize("seed", range(3))
    def test_reused_network_matches_fresh_with_limit(self, seed):
        g = random_multigraph(12, 40, Random(seed))
        net = _net_for(g)
        for u, v in combinations(g.vertices, 2):
            for k in (1, 3):
                net.reset()
                fresh = _net_for(g)
                assert (net.max_flow(u, v, limit=k)
                        == fresh.max_flow(u, v, limit=k))
                assert net.cut_side(u) == fresh.cut_side(u)


class TestMengerFan:
    def test_doubled_star_uses_single_edges(self):
        star = thick_star(3)
        fan = menger_fan(star.graph, 0, {1: 2, 2: 2})
        assert len(fan) == 4
        assert all(len(tr.edges) == 1 for tr in fan)
        assert sorted(tr.end for tr in fan) == [1, 1, 2, 2]
        assert sorted([e for tr in fan for e in tr.edges]) == [0, 1, 2, 3]

    def test_complete_graph_fan(self):
        g = complete_graph(5)
        fan = menger_fan(g, 0, {1: 2, 2: 2})
        assert len(fan) == 4
        assert sorted(tr.end for tr in fan) == [1, 1, 2, 2]
        edges = [e for tr in fan for e in tr.edges]
        assert len(edges) == len(set(edges))
        for tr in fan:
            assert tr.start == 0
            assert brute.trail_is_consistent(g, tr.edges, tr.start, tr.end)

    def test_path_infeasible(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        with pytest.raises(FanInfeasible) as info:
            menger_fan(g, 0, {2: 2})
        assert info.value.required == 2
        assert info.value.cut.value == 1
        assert info.value.cut.side in (frozenset({0}), frozenset({0, 1}))

    def test_zero_demand(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        assert menger_fan(g, 0, {2: 0}) == ()

    def test_source_demand_rejected(self):
        g = MultiGraph.undirected(2, [(0, 1)])
        with pytest.raises(GraphError):
            menger_fan(g, 0, {0: 1})

    def test_duality_with_min_cut(self):
        g = bridge_of_triangles()
        k = min_cut(g, 0, 5).value
        fan = menger_fan(g, 0, {5: k})
        assert len(fan) == k == 1

    def test_directed_trails_follow_arcs(self):
        # Against the arcs, 2->0 would be a shorter way to 2.
        d = MultiGraph.directed_graph(
            3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 0)])
        fan = menger_fan(d, 0, {2: 2})
        assert sorted(tr.edges for tr in fan) == [(0, 1), (3,)]

    def test_directed_cut_counts_arcs_out(self):
        # Two edges cross {0}, but only 0->1 leaves it.
        d = MultiGraph.directed_graph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(FanInfeasible) as info:
            menger_fan(d, 0, {2: 2})
        assert info.value.cut == CutResult(1, frozenset({0}))

    @given(multigraphs(max_n=6, max_m=12, min_n=2), st.data())
    @settings(max_examples=100)
    def test_fan_at_capacity(self, g, data):
        u, v = data.draw(
            st.lists(
                st.sampled_from(g.vertices), min_size=2, max_size=2, unique=True
            )
        )
        k = min_cut(g, u, v).value
        if k == 0:
            with pytest.raises(FanInfeasible):
                menger_fan(g, u, {v: 1})
            return
        fan = menger_fan(g, u, {v: k})
        assert len(fan) == k
        edges = [e for tr in fan for e in tr.edges]
        assert len(edges) == len(set(edges))
        for tr in fan:
            assert tr.start == u and tr.end == v
            assert brute.trail_is_consistent(g, tr.edges, u, v)
        with pytest.raises(FanInfeasible):
            menger_fan(g, u, {v: k + 1})

    @given(st.one_of(multigraphs(max_n=6, max_m=10, min_n=3),
                     digraphs(max_n=6, max_m=14, min_n=3)), st.data())
    @settings(max_examples=160)
    def test_multi_target_demands(self, g, data):
        # On a digraph the trails follow the arcs and the cut counts only
        # the arcs that leave its side.
        source, a, b = data.draw(
            st.lists(
                st.sampled_from(g.vertices), min_size=3, max_size=3, unique=True
            )
        )
        demands = {a: 1, b: 2}
        try:
            fan = menger_fan(g, source, demands)
        except FanInfeasible as exc:
            side = exc.cut.side
            recount = brute.out_arcs if g.directed else brute.cut_size
            assert recount(g, side) == exc.cut.value
            assert source in side
            assert exc.cut.value < sum(
                k for v, k in demands.items() if v not in side)
            return
        assert sorted(tr.end for tr in fan) == sorted([a, b, b])
        edges = [e for tr in fan for e in tr.edges]
        assert len(edges) == len(set(edges))
        for tr in fan:
            assert tr.start == source
            assert brute.trail_is_consistent(g, tr.edges, source, tr.end)
