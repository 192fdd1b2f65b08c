"""Gomory-Hu tree construction and query behaviour."""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

import brute
from cliquecuts import (
    GomoryHuTree,
    GraphError,
    MultiGraph,
    TreeEdge,
    build_gomory_hu,
    min_cut,
    random_multigraph,
)
from strategies import multigraphs
from test_flow import bridge_of_triangles, complete_graph


class TestBuild:
    def test_two_vertices_three_parallels(self):
        tree = build_gomory_hu(MultiGraph.undirected(2, [(0, 1)] * 3))
        assert tree.edges == (TreeEdge(0, 1, 3),)

    def test_triangle(self):
        tree = build_gomory_hu(MultiGraph.undirected(3, [(0, 1), (1, 2), (0, 2)]))
        assert len(tree.edges) == 2
        assert all(e.weight == 2 for e in tree.edges)

    def test_bridge_of_triangles_weights(self):
        g = bridge_of_triangles()
        tree = build_gomory_hu(g)
        assert sorted(e.weight for e in tree.edges) == [1, 2, 2, 2, 2]
        (light,) = [e for e in tree.edges if e.weight == 1]
        side, other = tree.fundamental_partition(light)
        assert {side, other} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_bridge_of_triangles_dump_golden(self):
        tree = build_gomory_hu(bridge_of_triangles())
        assert tree.dump() == "0 2 2\n1 2 2\n2 3 1\n3 5 2\n4 5 2\n"

    def test_edgeless_graph_yields_empty_forest(self):
        tree = build_gomory_hu(MultiGraph.undirected(3, []))
        assert tree.edges == ()
        assert len({tree.component_of(v) for v in range(3)}) == 3

    def test_components_numbered_by_smallest_member(self):
        g = MultiGraph.undirected(6, [(4, 1), (0, 5), (2, 3)])
        tree = build_gomory_hu(g)
        assert [tree.component_of(v) for v in range(6)] == [0, 1, 2, 2, 1, 0]

    def test_many_components_in_linear_time(self):
        # Numbering each new component by counting the ones before it took
        # about 13 s here; a running count takes well under a second.
        start = time.perf_counter()
        tree = build_gomory_hu(MultiGraph.undirected(30_000, []))
        assert time.perf_counter() - start < 4.0
        assert tree.component_of(29_999) == 29_999

    def test_spanning_forest_shape(self):
        g = MultiGraph.undirected(5, [(0, 1), (1, 2), (3, 4)])
        tree = build_gomory_hu(g)
        assert len(tree.edges) == 3
        assert tree.component_of(0) != tree.component_of(3)

    def test_directed_input_rejected(self):
        with pytest.raises(GraphError):
            build_gomory_hu(MultiGraph.directed_graph(2, [(0, 1)]))

    def test_deterministic_rebuild(self):
        g = complete_graph(5)
        assert build_gomory_hu(g).dump() == build_gomory_hu(g).dump()


class TestQueries:
    def test_fundamental_partition_leaf_edge(self):
        tree = GomoryHuTree(
            range(4), [TreeEdge(0, 1, 5), TreeEdge(0, 2, 5), TreeEdge(0, 3, 5)]
        )
        side, other = tree.fundamental_partition(TreeEdge(0, 3, 5))
        assert side == frozenset({0, 1, 2})
        assert other == frozenset({3})

    def test_fundamental_partition_path_tree(self):
        tree = GomoryHuTree(range(3), [TreeEdge(0, 1, 2), TreeEdge(1, 2, 4)])
        side, other = tree.fundamental_partition(TreeEdge(0, 1, 2))
        assert (side, other) == (frozenset({0}), frozenset({1, 2}))

    def test_fundamental_partition_single_edge(self):
        tree = GomoryHuTree(range(2), [TreeEdge(0, 1, 7)])
        assert tree.fundamental_partition(TreeEdge(0, 1, 7)) == (
            frozenset({0}),
            frozenset({1}),
        )

    def test_partition_ignores_other_components(self):
        tree = GomoryHuTree(range(4), [TreeEdge(0, 1, 3)])
        side, other = tree.fundamental_partition(TreeEdge(0, 1, 3))
        assert side | other == frozenset({0, 1})

    def test_unknown_edge_rejected(self):
        tree = GomoryHuTree(range(2), [TreeEdge(0, 1, 7)])
        with pytest.raises(GraphError):
            tree.fundamental_partition(TreeEdge(0, 1, 8))

    def test_min_cut_value_adjacent(self):
        tree = GomoryHuTree(range(3), [TreeEdge(0, 1, 2), TreeEdge(1, 2, 4)])
        assert tree.min_cut_value(1, 2) == 4
        assert tree.min_cut_value(0, 2) == 2

    def test_min_cut_value_triangle_pairs(self):
        tree = build_gomory_hu(MultiGraph.undirected(3, [(0, 1), (1, 2), (0, 2)]))
        assert all(
            tree.min_cut_value(u, v) == 2 for u, v in combinations(range(3), 2)
        )

    def test_min_cut_value_across_components(self):
        tree = GomoryHuTree(range(4), [TreeEdge(0, 1, 3), TreeEdge(2, 3, 5)])
        assert tree.min_cut_value(0, 3) == 0

    def test_blocks_without(self):
        tree = GomoryHuTree(range(3), [TreeEdge(0, 1, 2), TreeEdge(1, 2, 4)])
        assert tree.blocks_without([TreeEdge(0, 1, 2)]) == ((0,), (1, 2))
        assert tree.blocks_without([]) == ((0, 1, 2),)


class TestForestCheck:
    def test_cycle_rejected(self):
        with pytest.raises(GraphError):
            GomoryHuTree(
                range(3), [TreeEdge(0, 1, 1), TreeEdge(1, 2, 1), TreeEdge(0, 2, 1)]
            )

    def test_repeated_pair_rejected(self):
        with pytest.raises(GraphError):
            GomoryHuTree(range(2), [TreeEdge(0, 1, 1), TreeEdge(0, 1, 5)])

    def test_repeated_vertices_collapsed(self):
        tree = GomoryHuTree([0, 0, 1], [TreeEdge(0, 1, 3)])
        assert tree.vertices == (0, 1)
        assert tree.blocks_without([TreeEdge(0, 1, 3)]) == ((0,), (1,))

    def test_reversed_edge_is_the_same_edge(self):
        tree = GomoryHuTree(range(3), [TreeEdge(2, 1, 4), TreeEdge(1, 0, 2)])
        assert tree.edges == (TreeEdge(0, 1, 2), TreeEdge(1, 2, 4))
        assert tree.fundamental_partition(TreeEdge(2, 1, 4)) == (
            frozenset({0, 1}),
            frozenset({2}),
        )


class TestAgainstOracle:
    @given(multigraphs(max_n=6, max_m=12))
    @settings(max_examples=100, deadline=None)
    def test_both_exactness_bullets(self, g):
        tree = build_gomory_hu(g)
        comps = g.components()
        assert len(tree.edges) == len(g.vertices) - len(comps)
        for e in tree.edges:
            side, other = tree.fundamental_partition(e)
            assert brute.cut_size(g, side) == e.weight
            assert side | other in {frozenset(c) for c in comps}
        for u, v in combinations(g.vertices, 2):
            assert tree.min_cut_value(u, v) == brute.min_cut_undirected(g, u, v)

    @given(multigraphs(max_n=6, max_m=12))
    @settings(max_examples=60, deadline=None)
    def test_fundamental_cuts_pairwise_uncrossed(self, g):
        tree = build_gomory_hu(g)
        sides = [tree.fundamental_partition(e)[0] for e in tree.edges]
        assert brute.first_crossing_pair(g, sides) is None


class TestMidSizeAgainstFlow:
    """Cut trees of 8 to 25 vertices, deep enough that every query walks
    several levels, checked against max flows and recounted cuts."""

    @pytest.mark.parametrize("seed", range(12))
    def test_queries_match_flows(self, seed):
        rng = random.Random(seed)
        n = rng.randint(8, 25)
        g = random_multigraph(n, rng.randint(n // 2, 3 * n), rng)
        tree = build_gomory_hu(g)
        lam = {}
        for u, v in combinations(g.vertices, 2):
            lam[u, v] = lam[v, u] = min_cut(g, u, v).value
            assert tree.min_cut_value(u, v) == lam[u, v]
        comps = {frozenset(c) for c in g.components()}
        for e in tree.edges:
            side, other = tree.fundamental_partition(e)
            assert e.a in side and e.b in other
            assert side | other in comps
            assert brute.cut_size(g, side) == e.weight
        for k in {e.weight for e in tree.edges}:
            classes = {
                tuple(v for v in g.vertices if v == u or lam[u, v] >= k)
                for u in g.vertices
            }
            lighter = [e for e in tree.edges if e.weight < k]
            assert tree.blocks_without(lighter) == tuple(sorted(classes))
