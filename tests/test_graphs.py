"""Graph values, parsing, split-off and contraction."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
import cliquecuts.graphs
from cliquecuts import (
    EdgeRecord,
    GraphError,
    MultiGraph,
    ParseError,
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

    # Unicode line breaks that str.splitlines() would also split at.
    @pytest.mark.parametrize("sep", [
        "\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
    ])
    def test_comment_runs_to_newline(self, sep):
        text = f"0 1 # note{sep} 1 0\n"
        with pytest.raises(ParseError, match="expected 2 edge lines, found 1"):
            parse_graph("graph 2 2\n" + text)
        assert edge_pairs(parse_graph("graph 2 1\n" + text)) == [(0, 1)]

    def test_undirected_ends_ordered(self):
        assert parse_graph("graph 4 1\n3 1\n").edges == (EdgeRecord(0, 1, 3),)
        assert parse_graph("digraph 4 1\n3 1\n").edges == (EdgeRecord(0, 3, 1),)


# The pieces parser texts are built from: separators, comments, blank
# lines, ASCII digits with and without leading zeros, a numeral too long
# for int(), a non-ASCII digit and a sign.
_SPACE = st.sampled_from([" ", "\t", "  ", " \t ", "\r"])
_END = st.sampled_from(["\n", "\r\n", "\n\n", " # note\n", "#\n",
                        "\n# comment line\n", "\n \t\n"])
_NUMERAL = st.one_of(
    *[st.integers(0, 6).map(str)] * 6,
    st.integers(0, 6).map(lambda k: "00" + str(k)),
    st.sampled_from(["9" * 5000, "0" * 4999 + "1", "\u0663", "-1", "1-", "12"]),
)
_PIECES = st.sampled_from([
    "graph", "digraph", "\n", "\r", "\t", " ", "# c", "#", "\n\n",
    *"0123456789", "\u0663", "00", "9" * 5000, "-",
])


def _mostly(draw, good, bad):
    """good nine times in ten, else one of the strategy bad's values."""
    return good if draw(st.integers(0, 9)) else draw(bad)


@st.composite
def edge_list_texts(draw):
    """A header and rows, mostly well formed, so that both accepted texts
    and every kind of rejection occur."""
    rows = [_mostly(draw, draw(_NUMERAL) + draw(_SPACE) + draw(_NUMERAL),
                    st.sampled_from(["0", "0 1 2", "a b", "0 -"]))
            for _ in range(draw(st.integers(0, 5)))]
    kind = _mostly(draw, draw(st.sampled_from(["graph", "digraph"])),
                   st.sampled_from(["grap", "graph 1", "-"]))
    n = _mostly(draw, str(draw(st.integers(5, 7))), _NUMERAL)
    m = _mostly(draw, str(len(rows)), st.sampled_from(
        [str(len(rows) + 1), "7_", "9" * 5000]))
    text = draw(st.sampled_from(["", "# lead\n", "\n"]))
    text += kind + draw(_SPACE) + n + draw(_SPACE) + m + draw(_END)
    return text + "".join(row + draw(_END) for row in rows)


def parse_outcome(parse, text):
    """The graph a parser returns, as the fields that make two graphs
    equal, or the type and message of what it raises."""
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return g.directed, g.vertices, g.edges, g.next_edge_id


class TestParseDifferential:
    """parse_graph against the line-by-line reference in brute."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(edge_list_texts(), st.lists(_PIECES).map("".join)))
    @example("graph 3 2\n0 5\nx y\n")
    @example("digraph 4 2\n3\n0 1 2\n")
    @example("graph 3 2\n0 1 # a\n\n0 5\n")
    @example(f"digraph 3 2\n0 {'0' * 4999}1\n0 1 2\n")
    def test_matches_reference(self, text):
        assert parse_outcome(parse_graph, text) == parse_outcome(
            brute.parse_graph, text)

    @pytest.mark.parametrize("text, message", [
        # The first bad row decides, whatever is wrong further down.
        ("graph 3 3\n0 1\n0 5\nx y\n", "line 3: vertex index out of range in '0 5'"),
        ("graph 3 3\n0 1\nx y\n0 5\n", "line 3: expected 'u v', got 'x y'"),
        # Three numbers on one row and one on the next: four in all.
        ("graph 4 2\n0 1 2\n3\n", "line 2: expected 'u v', got '0 1 2'"),
        ("# c\n\ngraph 3 2 # h\n\n0 1\n# c\n1 \u0663\n",
         "line 7: expected 'u v', got '1 \u0663'"),
    ])
    def test_first_bad_row_named(self, text, message):
        assert parse_outcome(parse_graph, text) == (ParseError, message)
        assert parse_outcome(brute.parse_graph, text) == (ParseError, message)


class TestEdgeRecord:
    def test_fields_are_read_only(self):
        e = EdgeRecord(0, 1, 3)
        for field in ("id", "tail", "head"):
            with pytest.raises(AttributeError):
                setattr(e, field, 7)
        assert e == EdgeRecord(0, 1, 3)

    def test_repr(self):
        assert repr(EdgeRecord(0, 1, 3)) == "EdgeRecord(id=0, tail=1, head=3)"

    def test_methods(self):
        e = EdgeRecord(4, 1, 3)
        assert (e.is_loop(), e.ends(), e.other_end(1), e.other_end(3)) == (
            False, (1, 3), 3, 1)
        assert EdgeRecord(5, 2, 2).is_loop()
        with pytest.raises(GraphError, match="vertex 2 is not an end of edge 4"):
            e.other_end(2)


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
        d2 = split_off(d, 0, 1)
        assert edge_pairs(d2) == [(0, 2), (2, 0)]
        assert d2.edge(3).ends() == (0, 2)

    def test_rejects_undirected(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="digraphs"):
            split_off(g, 0, 1)

    def test_digon_split_leaves_loop(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (1, 0)])
        d2 = split_off(d, 0, 1)
        assert d2.edge_count == 1
        assert d2.edge(2).is_loop()
        assert d2.edge(2).tail == 0

    def test_fresh_id_is_next_edge_id(self):
        d = MultiGraph(range(3), [(0, 0, 1), (5, 1, 2)], True, 9)
        fresh = d.next_edge_id
        d2 = split_off(d, 0, 5)
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
        d2 = split_off(d, e1, e2)
        assert d2.edge_count == d.edge_count - 1
        for v in d.vertices:
            din, dout = brute.degree(d, v)
            din2, dout2 = brute.degree(d2, v)
            assert (din - dout) == (din2 - dout2)
        ids = {e.id for e in d.edges} - {e1, e2} | {d.next_edge_id}
        assert {e.id for e in d2.edges} == ids


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


@st.composite
def edge_collections(draw):
    """(vertices, edges, directed) for MultiGraph: a vertex set with gaps,
    edges given as records, tuples or a mix, ids in ascending or shuffled
    order, ends in either order, and now and then an id repeated or an end
    outside the vertex set."""
    vertices = draw(st.sets(st.integers(0, 8), min_size=1, max_size=6))
    end = st.sampled_from(sorted(vertices))
    ids = draw(st.lists(st.integers(0, 20), max_size=10, unique=True))
    if draw(st.booleans()):
        ids.sort()
    forms = draw(st.sampled_from([[EdgeRecord], [tuple], [EdgeRecord, tuple]]))
    edges = []
    for eid in ids:
        if edges:
            eid = _mostly(draw, eid, st.sampled_from([e[0] for e in edges]))
        ends = [_mostly(draw, draw(end), st.integers(0, 10)) for _ in "th"]
        form = draw(st.sampled_from(forms))
        edges.append(form([eid, *ends]) if form is tuple else form(eid, *ends))
    return vertices, edges, draw(st.booleans())


def graph_outcome(build, vertices, edges, directed):
    """The edges and next edge id build gives, or its GraphError message."""
    try:
        if build is MultiGraph:
            g = MultiGraph(vertices, edges, directed)
            return g.edges, g.next_edge_id
        return build(vertices, edges, directed)
    except GraphError as exc:
        return str(exc)


class TestConstructorDifferential:
    """MultiGraph's whole-collection checks against the per-edge reference
    in brute: the same graph, or the same first fault."""

    @settings(max_examples=400)
    @given(edge_collections())
    @example(({0, 1, 2}, [(2, 1, 0), EdgeRecord(0, 0, 9), (2, 0, 1)], False))
    @example(({0, 2}, [EdgeRecord(3, 2, 0), (1, 0, 2), EdgeRecord(1, 0, 1)],
              True))
    def test_matches_reference(self, case):
        vertices, edges, directed = case
        got = graph_outcome(MultiGraph, vertices, edges, directed)
        assert got == graph_outcome(brute.graph_edges, vertices, edges,
                                    directed)
        if not isinstance(got, str):
            assert all(type(e) is EdgeRecord for e in got[0])


class TestRewrites:
    def test_underlying_keeps_ids(self):
        d = MultiGraph.directed_graph(3, [(2, 0), (0, 1)])
        u = d.underlying()
        assert not u.directed
        assert u.edge(0).ends() == (0, 2)
        assert u.edge(1).ends() == (0, 1)

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph(range(2), [(0, 0, 1), (0, 1, 0)], False)

    @given(st.one_of(multigraphs(max_n=6, max_m=10), digraphs(max_n=6, max_m=10)),
           st.randoms(use_true_random=False))
    def test_records_and_tuples_agree(self, g, rnd):
        # Records in id order with ordered ends are checked collection by
        # collection; shuffled ones, with undirected ends reversed, and
        # tuples one at a time.  All give g.
        recs = list(g.edges)
        rnd.shuffle(recs)
        if not g.directed:
            recs = [EdgeRecord(e.id, e.head, e.tail) for e in recs]
        for edges in (list(g.edges), recs, [tuple(e) for e in recs]):
            again = MultiGraph(g.vertices, edges, g.directed)
            assert (again.edges, again.next_edge_id) == (g.edges, g.next_edge_id)

    @pytest.mark.parametrize("edges, message", [
        ([(0, 0, 1), (1, 1, 2), (0, 1, 0)], "duplicate edge id 0"),
        ([(0, 0, 1), (0, 1, 2)], "duplicate edge id 0"),
        ([(0, 0, 1), (1, 5, 2)], "edge 1 touches unknown vertex"),
        ([(0, 0, 1), (1, 1, 5), (1, 0, 1)], "edge 1 touches unknown vertex"),
        ([(3, 0, 1), (1, 1, 5), (3, 0, 1)], "edge 1 touches unknown vertex"),
        ([(0, 0, 1), (1, 1, 5)], "edge 1 touches unknown vertex"),
        ([(1, 5, 2), (0, 0, 1)], "edge 1 touches unknown vertex"),
    ])
    def test_records_name_first_fault(self, edges, message):
        for directed in (False, True):
            for form in (tuple, lambda e: EdgeRecord(*e)):
                with pytest.raises(GraphError, match=f"^{message}$"):
                    MultiGraph(range(3), map(form, edges), directed)
