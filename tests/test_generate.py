"""Random instance families used by the acceptance corpus and the CLI."""

from __future__ import annotations

import random

import pytest

import brute
from cliquecuts import (
    GraphError,
    random_eulerian_digraph,
    random_multigraph,
    simple_eulerian_min_outdeg,
)


class TestRandomMultigraph:
    def test_shape(self):
        g = random_multigraph(6, 14, random.Random(0))
        assert not g.directed
        assert g.vertices == tuple(range(6))
        assert g.edge_count == 14

    def test_deterministic_for_equal_seed(self):
        a = random_multigraph(7, 10, random.Random(5))
        b = random_multigraph(7, 10, random.Random(5))
        assert [(e.tail, e.head) for e in a.edges] == [
            (e.tail, e.head) for e in b.edges
        ]

    def test_zero_edges(self):
        assert random_multigraph(3, 0, random.Random(1)).edge_count == 0

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(GraphError):
            random_multigraph(0, 1, random.Random(0))


class TestRandomEulerianDigraph:
    @pytest.mark.parametrize("seed", range(8))
    def test_balanced_and_big_enough(self, seed):
        d = random_eulerian_digraph(6, 12, random.Random(seed))
        assert d.directed
        assert d.is_eulerian()
        assert d.edge_count >= 12
        assert all(not e.is_loop() for e in d.edges)

    def test_zero_arcs(self):
        assert random_eulerian_digraph(4, 0, random.Random(0)).edge_count == 0

    def test_rejects_single_vertex_with_arcs(self):
        with pytest.raises(GraphError):
            random_eulerian_digraph(1, 3, random.Random(0))


class TestSimpleEulerianMinOutdeg:
    @pytest.mark.parametrize("n,floor", [(7, 6), (8, 6), (10, 7), (12, 6)])
    def test_simple_balanced_with_exact_outdegree(self, n, floor):
        d = simple_eulerian_min_outdeg(n, floor, random.Random(n * 31 + floor))
        assert d.is_eulerian()
        arcs = {(e.tail, e.head) for e in d.edges}
        assert len(arcs) == d.edge_count
        assert all(t != h for t, h in arcs)
        assert all(brute.degree(d, v) == (floor, floor) for v in d.vertices)

    def test_rejects_floor_at_least_n(self):
        with pytest.raises(GraphError, match="infeasible"):
            simple_eulerian_min_outdeg(5, 5, random.Random(0))

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(GraphError):
            simple_eulerian_min_outdeg(5, 0, random.Random(0))
