"""Graph values, parsing, split-off, contraction and provenance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
import cliquecuts.graphs
from cliquecuts import (
    GraphError,
    MultiGraph,
    ParseError,
    ProvenanceMap,
    UnsupportedSizeError,
    parse_graph,
    serialize_graph,
    split_off,
)
from cliquecuts.graphs import SIZE_LIMIT
from strategies import digraphs, multigraphs


def edge_pairs(g):
    return sorted((e.tail, e.head) for e in g.edges)


class TestParse:
    def test_parallel_edges(self):
        g = parse_graph("graph 2 3\n0 1\n0 1\n0 1\n")
        assert not g.directed
        assert g.vertices == (0, 1)
        assert edge_pairs(g) == [(0, 1), (0, 1), (0, 1)]
        assert [e.id for e in g.edges] == [0, 1, 2]

    def test_directed_triangle(self):
        g = parse_graph("digraph 3 3\n0 1\n1 2\n2 0\n")
        assert g.directed
        assert edge_pairs(g) == [(0, 1), (1, 2), (2, 0)]

    def test_loop(self):
        g = parse_graph("graph 1 1\n0 0\n")
        assert g.edges[0].is_loop()
        assert brute.degree(g, 0) == 2

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\ngraph 2 1  # two vertices\n0 1 # the edge\n"
        g = parse_graph(text)
        assert edge_pairs(g) == [(0, 1)]

    def test_missing_edge_lines(self):
        with pytest.raises(ParseError, match="expected 3 edge lines"):
            parse_graph("graph 2 3\n0 1\n0 1\n")

    def test_extra_edge_lines(self):
        with pytest.raises(ParseError):
            parse_graph("graph 2 1\n0 1\n1 0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("grraph 2 1\n0 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("graph 2 2\n0 1\n0 2\n")

    def test_negative_vertex(self):
        with pytest.raises(ParseError):
            parse_graph("graph 2 1\n0 -1\n")

    def test_non_numeric_tokens(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("graph 2 1\na b\n")

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_graph("# nothing here\n")

    @pytest.mark.parametrize("text, line", [
        ("graph 1_0 1\n0 9\n", 1),
        ("graph +3 0\n", 1),
        ("graph \uff13 0\n", 1),       # full-width digit three
        ("graph 3 -0\n", 1),
        ("digraph 3 1\n0 +1\n", 2),
        ("digraph 3 1\n0 \u0661\n", 2),  # Arabic-Indic digit one
        ("graph 3 1\n0 \u00b2\n", 2),    # superscript two
        ("graph 12 1\n0 1_1\n", 2),
    ])
    def test_integers_are_ascii_digits_only(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}"):
            parse_graph(text)

    def test_leading_zeros_allowed(self):
        g = parse_graph("graph 03 1\n0 02\n")
        assert g.vertices == (0, 1, 2)
        assert [e.ends() for e in g.edges] == [(0, 2)]


class TestSizeLimit:
    def test_vertex_count_over_limit(self):
        # Checked before a vertex is allocated: a 20-byte header must not
        # be able to exhaust memory.
        with pytest.raises(UnsupportedSizeError, match="line 1"):
            parse_graph(f"graph {SIZE_LIMIT + 1} 0\n")

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cliquecuts.graphs, "SIZE_LIMIT", 3)
        assert parse_graph("# small\ngraph 3 0\n").vertices == (0, 1, 2)
        with pytest.raises(UnsupportedSizeError, match="line 2"):
            parse_graph("# small\ngraph 4 0\n")

    @pytest.mark.parametrize("header", [
        f"graph {'9' * 5000} 0", f"digraph 3 {'9' * 5000}",
    ])
    def test_header_count_too_long_for_int(self, header):
        with pytest.raises(UnsupportedSizeError):
            parse_graph(header + "\n")

    def test_index_too_long_for_int(self):
        with pytest.raises(ParseError, match="line 2: vertex index out of range"):
            parse_graph(f"graph 3 1\n0 {'1' * 5000}\n")


class TestSerialize:
    def test_canonical_text(self):
        g = MultiGraph.undirected(3, [(1, 0), (1, 2)])
        assert serialize_graph(g) == "graph 3 2\n0 1\n1 2\n"

    def test_digraph_keeps_direction(self):
        d = MultiGraph.directed_graph(2, [(1, 0)])
        assert serialize_graph(d) == "digraph 2 1\n1 0\n"

    def test_sparse_ids_rejected(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)]).contract([0, 1])
        assert g.vertices == (0, 2)
        with pytest.raises(GraphError, match="dense"):
            serialize_graph(g)

    @given(multigraphs(max_n=6, max_m=10))
    def test_round_trip(self, g):
        assert edge_pairs(parse_graph(serialize_graph(g))) == edge_pairs(g)

    @given(digraphs(max_n=6, max_m=10))
    def test_round_trip_directed(self, d):
        again = parse_graph(serialize_graph(d))
        assert again.directed
        assert edge_pairs(again) == edge_pairs(d)


class TestDegreeAndBalance:
    def test_parallel_degree(self):
        g = parse_graph("graph 2 3\n0 1\n0 1\n0 1\n")
        assert brute.degree(g, 0) == 3
        assert brute.degree(g, 1) == 3

    def test_loop_counts_twice(self):
        g = parse_graph("graph 1 1\n0 0\n")
        assert brute.degree(g, 0) == 2

    def test_directed_degree_pair(self):
        d = MultiGraph.directed_graph(
            3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
        )
        assert all(brute.degree(d, v) == (2, 2) for v in d.vertices)

    def test_eulerian_bidirected_triangle(self):
        d = MultiGraph.directed_graph(
            3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
        )
        assert d.is_eulerian()

    def test_single_arc_not_eulerian(self):
        assert not MultiGraph.directed_graph(2, [(0, 1)]).is_eulerian()

    def test_two_disjoint_cycles_eulerian(self):
        d = MultiGraph.directed_graph(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert d.is_eulerian()

    def test_eulerian_rejects_undirected(self):
        with pytest.raises(GraphError):
            MultiGraph.undirected(2, [(0, 1)]).is_eulerian()


class TestComponents:
    def test_connected(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        assert g.components() == ((0, 1, 2),)

    def test_edgeless(self):
        assert MultiGraph.undirected(3, []).components() == ((0,), (1,), (2,))

    def test_cycle_plus_isolated(self):
        g = MultiGraph.undirected(4, [(0, 1), (1, 2), (2, 0)])
        assert g.components() == ((0, 1, 2), (3,))

    def test_directed_uses_weak_connectivity(self):
        d = MultiGraph.directed_graph(2, [(0, 1)])
        assert d.components() == ((0, 1),)


class TestSplitOff:
    def test_directed_path_becomes_shortcut(self):
        d = MultiGraph.directed_graph(3, [(0, 1), (1, 2), (2, 0)])
        d2, prov = split_off(d, 0, 1)
        assert edge_pairs(d2) == [(0, 2), (2, 0)]
        assert d2.edge(3).ends() == (0, 2)
        assert prov.of(3) == (0, 1)
        assert prov.of(2) == (2,)

    def test_rejects_undirected(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="digraphs"):
            split_off(g, 0, 1)

    def test_digon_split_leaves_loop(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (1, 0)])
        d2, _ = split_off(d, 0, 1)
        assert d2.edge_count == 1
        assert d2.edge(2).is_loop()
        assert d2.edge(2).tail == 0

    def test_fresh_id_is_next_edge_id(self):
        d = MultiGraph(range(3), [(0, 0, 1), (5, 1, 2)], True, 9)
        fresh = d.next_edge_id
        d2, _ = split_off(d, 0, 5)
        assert d2.has_edge(fresh)
        assert d2.next_edge_id == fresh + 1

    def test_rejects_non_adjacent_edges(self):
        d = MultiGraph.directed_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError, match="directed path"):
            split_off(d, 0, 1)

    def test_rejects_wrong_direction(self):
        d = MultiGraph.directed_graph(3, [(0, 1), (2, 1)])
        with pytest.raises(GraphError):
            split_off(d, 0, 1)

    def test_rejects_same_edge_twice(self):
        d = MultiGraph.directed_graph(1, [(0, 0)])
        with pytest.raises(GraphError, match="two distinct edges"):
            split_off(d, 0, 0)

    @given(digraphs(max_n=6, max_m=12), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_split_preserves_balance_and_count(self, d, rnd):
        choices = [
            (a.id, b.id)
            for a in d.edges
            if not a.is_loop()
            for b in d.out_edges(a.head)
            if b.id != a.id
        ]
        if not choices:
            return
        e1, e2 = rnd.choice(choices)
        d2, prov = split_off(d, e1, e2)
        assert d2.edge_count == d.edge_count - 1
        for v in d.vertices:
            din, dout = brute.degree(d, v)
            din2, dout2 = brute.degree(d2, v)
            assert (din - dout) == (din2 - dout2)
        originals = sorted(i for _, trail in prov.items() for i in trail)
        assert originals == sorted(e.id for e in d.edges)


class TestContract:
    def test_triangle_pair(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2), (2, 0)])
        c = g.contract([0, 1])
        assert c.vertices == (0, 2)
        assert c.edge_count == 3
        assert edge_pairs(c) == [(0, 0), (0, 2), (0, 2)]

    def test_singleton_identity(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        c = g.contract([1])
        assert c.vertices == g.vertices
        assert edge_pairs(c) == edge_pairs(g)

    def test_four_cycle_opposite_pair(self):
        g = MultiGraph.undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        c = g.contract([0, 2])
        assert c.vertices == (0, 1, 3)
        assert edge_pairs(c) == [(0, 1), (0, 1), (0, 3), (0, 3)]

    def test_edge_ids_survive(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2), (2, 0)])
        c = g.contract([1, 2])
        assert sorted(e.id for e in c.edges) == [0, 1, 2]

    def test_empty_block_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph.undirected(2, []).contract([])

    @given(multigraphs(max_n=7, max_m=12), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_contract_preserves_edge_count(self, g, rnd):
        k = rnd.randint(1, len(g.vertices))
        block = rnd.sample(g.vertices, k)
        c = g.contract(block)
        assert c.edge_count == g.edge_count
        assert len(c.vertices) == len(g.vertices) - k + 1


class TestRewrites:
    def test_induced_subgraph(self):
        g = MultiGraph.undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = g.induced_subgraph([0, 1, 2])
        assert edge_pairs(sub) == [(0, 1), (1, 2)]

    def test_underlying_keeps_ids(self):
        d = MultiGraph.directed_graph(3, [(2, 0), (0, 1)])
        u = d.underlying()
        assert not u.directed
        assert u.edge(0).ends() == (0, 2)
        assert u.edge(1).ends() == (0, 1)

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph(range(2), [(0, 0, 1), (0, 1, 0)], False)


class TestProvenance:
    def test_identity(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        prov = ProvenanceMap.identity(g)
        assert prov.of(0) == (0,)
        assert len(prov) == 2

    def test_chained_splits_concatenate(self):
        d = MultiGraph.directed_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        d2, prov = split_off(d, 0, 1)
        d3, prov = split_off(d2, 4, 2, prov)
        assert prov.of(5) == (0, 1, 2)
        assert prov.of(3) == (3,)
