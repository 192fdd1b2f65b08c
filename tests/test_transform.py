"""Splitting-off reductions and arborescence packing."""

from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from cliquecuts import transform
from cliquecuts import (
    GraphError,
    MultiGraph,
    NoAdmissiblePairError,
    NotEulerianError,
    PackInfeasible,
    UnsupportedSizeError,
    admissible_split,
    directed_edge_connectivity,
    pack_arborescences,
    reduce_to_terminals,
    split_off,
)
from strategies import eulerian_digraphs


def reference_split(d, v, guard, baseline):
    """The first in/out edge pair at v (ascending ids) whose split keeps
    every ordered guard pair at its baseline connectivity, or None: every
    trial split built as a digraph, every pair solved afresh."""
    for ei in d.in_edges(v):
        for eo in d.out_edges(v):
            trial = split_off(d, ei.id, eo.id)
            if all(
                directed_edge_connectivity(trial, a, b) == baseline[(a, b)]
                for a, b in guard
            ):
                return ei.id, eo.id
    return None


def reference_reduce(d, terminals):
    """reduce_to_terminals the slow way, through reference_split.  Returns
    the reduced digraph, its provenance as a dict, and every digraph on the
    way."""
    terms = sorted(set(terminals))
    g = MultiGraph(d.vertices, [e for e in d.edges if not e.is_loop()], True,
                   d.next_edge_id)
    prov = {e.id: (e.id,) for e in g.edges}
    guard = list(permutations(terms, 2))
    baseline = {pair: directed_edge_connectivity(g, *pair) for pair in guard}
    steps = []
    for v in sorted(g.vertex_set - set(terms)):
        while brute.degree(g, v) != (0, 0):
            steps.append(g)
            e1, e2 = reference_split(g, v, guard, baseline)
            trail = prov.pop(e1) + prov.pop(e2)
            fresh = g.next_edge_id
            g = split_digraph(g, (e1, e2))
            if g.has_edge(fresh):
                prov[fresh] = trail
        g = MultiGraph(g.vertex_set - {v}, g.edges, True, g.next_edge_id)
    steps.append(g)
    return g, prov, steps


def split_digraph(d, pair):
    """d with the arc pair u->v, v->w replaced by a fresh arc u->w, which
    takes d's next edge id; a loop u == w is dropped at once."""
    e1, e2 = pair
    u, w = d.edge(e1).tail, d.edge(e2).head
    fresh = d.next_edge_id
    edges = [e for e in d.edges if e.id not in pair]
    if u != w:
        edges.append((fresh, u, w))
    return MultiGraph(d.vertices, edges, True, fresh + 1)


def edge_table(g):
    return [(e.id, e.tail, e.head) for e in g.edges]


def bidirected_triangle():
    return MultiGraph.directed_graph(
        3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    )


def directed_cycle(n):
    return MultiGraph.directed_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestAdmissibleSplit:
    def test_directed_triangle_forced_pair(self):
        d = directed_cycle(3)
        pair = admissible_split(d, 1, [(0, 2), (2, 0)])
        assert pair == (0, 1)
        trial = split_off(d, *pair)
        assert directed_edge_connectivity(trial, 0, 2) == 1
        assert directed_edge_connectivity(trial, 2, 0) == 1

    def test_two_digons_cross_pairs_only(self):
        # Digons v<->a and v<->b; splitting within one digon makes a loop
        # and disconnects a from b.
        d = MultiGraph.directed_graph(
            3, [(1, 0), (0, 1), (2, 0), (0, 2)]
        )
        guard = [(1, 2), (2, 1)]
        base = {
            pair: directed_edge_connectivity(d, *pair) for pair in guard
        }
        admissible = []
        for ein in d.in_edges(0):
            for eout in d.out_edges(0):
                trial = split_off(d, ein.id, eout.id)
                ok = all(
                    directed_edge_connectivity(trial, *pair) == base[pair]
                    for pair in guard
                )
                admissible.append(((ein.id, eout.id), ok))
        assert dict(admissible) == {
            (0, 1): False,  # a->v, v->a: loop at a
            (0, 3): True,   # a->v, v->b
            (2, 1): True,   # b->v, v->a
            (2, 3): False,  # b->v, v->b: loop at b
        }
        assert admissible_split(d, 0, guard) == (0, 3)

    def test_bidirected_triangle_preserves_two(self):
        d = bidirected_triangle()
        guard = [(0, 1), (1, 0)]
        e_in, e_out = admissible_split(d, 2, guard)
        trial = split_off(d, e_in, e_out)
        assert directed_edge_connectivity(trial, 0, 1) == 2
        assert directed_edge_connectivity(trial, 1, 0) == 2

    def test_ordered_and_unordered_guard_agree(self):
        # Vertex 0 sits on digons with 1, 2 and 3, and 1, 2 share a digon.
        # Splitting 1->0, 0->1 into a loop lowers lambda(1, 2) but not
        # lambda(1, 3), so the pairs pick different splits, whichever way
        # round they are given.
        d = MultiGraph.directed_graph(
            4, [(1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3), (1, 2), (2, 1)]
        )
        for pair in ((1, 2), (1, 3), (2, 3)):
            a, b = pair
            both = admissible_split(d, 0, [(a, b), (b, a)])
            assert admissible_split(d, 0, [(a, b)]) == both
            assert admissible_split(d, 0, [(b, a)]) == both
        guard = list(permutations((1, 2, 3), 2))
        baseline = {p: directed_edge_connectivity(d, *p) for p in guard}
        assert admissible_split(d, 0, guard) == reference_split(
            d, 0, guard, baseline)

    @pytest.mark.parametrize("pairs, terminals, v, expected", [
        # 1->0 runs direct and by 1->2->0; splitting 1->2, 2->0 keeps both.
        ([(0, 1), (0, 1), (1, 2), (2, 0), (1, 0)], [0, 1], 2, (2, 3)),
        # The only 0->1 path runs through v and becomes the new arc.
        ([(0, 2), (2, 1), (1, 0)], [0, 1], 2, (0, 1)),
        # The 0->2->1 path loses 0->2, and 0->3->2 stands in for it.
        ([(0, 2), (2, 3), (0, 3), (0, 3), (3, 2), (3, 2), (2, 1), (1, 0),
          (3, 0), (2, 0)], [0, 1], 2, (0, 1)),
        # Splitting 1->0, 0->1 makes a loop and cuts 1 from 2.
        ([(1, 0), (0, 1), (2, 0), (0, 2)], [1, 2], 0, (0, 3)),
    ], ids=["short-cut-round-v", "path-through-v", "detour-round-v",
            "digon-loop"])
    def test_hand_built_host(self, pairs, terminals, v, expected):
        d = MultiGraph.directed_graph(max(max(p) for p in pairs) + 1, pairs)
        guard = list(permutations(terminals, 2))
        baseline = {p: directed_edge_connectivity(d, *p) for p in guard}
        assert reference_split(d, v, guard, baseline) == expected
        assert admissible_split(d, v, guard) == expected

    @given(eulerian_digraphs(max_n=6, max_cycles=4, max_copies=3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, d, data):
        movable = [v for v in d.vertices if d.in_edges(v)]
        if not movable:
            return
        v = data.draw(st.sampled_from(movable))
        pairs = list(permutations([u for u in d.vertices if u != v], 2))
        guard = data.draw(st.lists(
            st.sampled_from(pairs), max_size=4, unique=True)) if pairs else []
        baseline = {p: directed_edge_connectivity(d, *p) for p in guard}
        expected = reference_split(d, v, guard, baseline)
        assert admissible_split(d, v, guard) == expected
        # The same baselines handed in, keyed by unordered pair.
        unordered = {(min(p), max(p)): k for p, k in baseline.items()}
        assert admissible_split(d, v, guard, unordered) == expected

    def test_rejects_unbalanced(self):
        d = MultiGraph.directed_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotEulerianError):
            admissible_split(d, 1, [(0, 2)])

    def test_rejects_guard_through_split_vertex(self):
        with pytest.raises(GraphError):
            admissible_split(directed_cycle(3), 1, [(0, 1)])

    def test_rejects_isolated_vertex(self):
        d = MultiGraph.directed_graph(3, [(0, 1), (1, 0)])
        with pytest.raises(GraphError):
            admissible_split(d, 2, [(0, 1)])


class TestReduceToTerminals:
    def test_directed_triangle_to_digon(self):
        d = directed_cycle(3)
        red = reduce_to_terminals(d, [0, 2])
        g = red.digraph
        assert g.vertices == (0, 2)
        assert sorted((e.tail, e.head) for e in g.edges) == [(0, 2), (2, 0)]
        by_ends = {(e.tail, e.head): e.id for e in g.edges}
        assert red.provenance[by_ends[(0, 2)]] == (0, 1)
        assert red.provenance[by_ends[(2, 0)]] == (2,)

    def test_bidirected_triangle_keeps_connectivity_two(self):
        red = reduce_to_terminals(bidirected_triangle(), [0, 1])
        g = red.digraph
        assert g.vertex_set == frozenset({0, 1})
        assert directed_edge_connectivity(g, 0, 1) == 2
        assert directed_edge_connectivity(g, 1, 0) == 2
        assert g.is_eulerian()

    def test_identity_when_all_terminals(self):
        d = bidirected_triangle()
        red = reduce_to_terminals(d, [0, 1, 2])
        assert sorted((e.tail, e.head) for e in red.digraph.edges) == sorted(
            (e.tail, e.head) for e in d.edges
        )
        assert red.provenance == {e.id: (e.id,) for e in d.edges}

    def test_split_into_loop_keeps_its_id_and_no_provenance(self):
        # Vertex 2 hangs off 0 by a digon; its only split is a loop at 0,
        # which takes id 4 and leaves the two original arcs.
        d = MultiGraph.directed_graph(3, [(0, 2), (2, 0), (0, 1), (1, 0)])
        red = reduce_to_terminals(d, [0, 1])
        assert edge_table(red.digraph) == [(2, 0, 1), (3, 1, 0)]
        assert red.digraph.next_edge_id == 5
        assert red.provenance == {2: (2,), 3: (3,)}

    def test_drops_preexisting_loops(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (1, 0), (0, 0)])
        red = reduce_to_terminals(d, [0, 1])
        assert all(not e.is_loop() for e in red.digraph.edges)

    def test_provenance_lifts_to_directed_trails(self):
        d = MultiGraph.directed_graph(
            5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        )
        red = reduce_to_terminals(d, [0, 2])
        for e in red.digraph.edges:
            assert brute.trail_is_consistent(
                d, red.provenance[e.id], e.tail, e.head
            )

    def test_rejects_single_terminal(self):
        with pytest.raises(GraphError):
            reduce_to_terminals(directed_cycle(3), [0])

    def test_rejects_unbalanced(self):
        d = MultiGraph.directed_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotEulerianError):
            reduce_to_terminals(d, [0, 2])

    @given(eulerian_digraphs(max_n=6, max_cycles=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_preserves_terminal_connectivity(self, d, data):
        terms = data.draw(
            st.lists(
                st.sampled_from(d.vertices), min_size=2, max_size=3, unique=True
            )
        )
        red = reduce_to_terminals(d, terms)
        g = red.digraph
        assert g.vertex_set == frozenset(terms)
        assert g.is_eulerian()
        for a, b in permutations(terms, 2):
            assert directed_edge_connectivity(
                g, a, b
            ) == directed_edge_connectivity(d, a, b)
        originals = {e.id for e in d.edges}
        seen: list[int] = []
        for trail in red.provenance.values():
            seen.extend(trail)
        assert len(seen) == len(set(seen))
        assert set(seen) <= originals

    def test_baselines_solved_once(self, monkeypatch):
        # Every split hands admissible_split the one baseline table that
        # the reduction solved before its first split.
        tables = []

        def spy(d, v, guard, baselines=None):
            tables.append(baselines)
            return admissible_split(d, v, guard, baselines)
        monkeypatch.setattr(transform, "admissible_split", spy)
        d = bidirected_triangle()
        reduce_to_terminals(d, [0, 2])
        assert len(tables) == 2
        assert tables[0] is tables[1]
        assert tables[0] == {(0, 2): directed_edge_connectivity(d, 0, 2)}

    @given(eulerian_digraphs(max_n=7, max_cycles=5, max_copies=3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, d, data):
        # Same splits in the same order: same edges, ids and provenance.
        terms = data.draw(
            st.lists(
                st.sampled_from(d.vertices), min_size=2, max_size=4, unique=True
            )
        )
        red = reduce_to_terminals(d, terms)
        g, prov, _ = reference_reduce(d, terms)
        assert red.digraph.vertex_set == g.vertex_set
        assert edge_table(red.digraph) == edge_table(g)
        assert red.digraph.next_edge_id == g.next_edge_id
        assert red.provenance == prov

    @given(eulerian_digraphs(max_n=6, max_cycles=4, max_copies=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_connectivity_symmetric_along_splits(self, d, data):
        # admissible_split solves one direction per unordered pair, which is
        # exact only while lambda(a, b) == lambda(b, a) on every digraph it
        # meets.
        terms = data.draw(
            st.lists(
                st.sampled_from(d.vertices), min_size=2, max_size=3, unique=True
            )
        )
        for g in reference_reduce(d, terms)[2]:
            for a, b in combinations(g.vertices, 2):
                assert directed_edge_connectivity(
                    g, a, b) == directed_edge_connectivity(g, b, a)

    @given(eulerian_digraphs(max_n=6, max_cycles=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_strong_connectivity_floor_carries_over(self, d, data):
        # If every cut separating the terminal set has at least 2k edges in
        # the underlying sense, the reduced digraph is strongly
        # k-edge-connected.
        terms = data.draw(
            st.lists(
                st.sampled_from(d.vertices), min_size=2, max_size=3, unique=True
            )
        )
        pairs = list(permutations(terms, 2))
        least = min(brute.min_cut_directed(d, a, b) for a, b in pairs)
        red = reduce_to_terminals(d, terms)
        if least > 0:
            assert brute.strong_connectivity(red.digraph) >= least


class TestPackArborescences:
    def test_bidirected_triangle_two_roots(self):
        d = bidirected_triangle()
        packs = pack_arborescences(d, [0, 1])
        assert [a.root for a in packs] == [0, 1]
        used = [eid for a in packs for eid in a.edges]
        assert len(used) == len(set(used))
        for arb in packs:
            assert brute.is_arborescence(d, arb.root, arb.edges)

    def test_directed_cycle_single_root(self):
        d = directed_cycle(4)
        (arb,) = pack_arborescences(d, [1])
        into_root = [e.id for e in d.edges if e.head == 1]
        assert sorted(arb.edges) == sorted(
            e.id for e in d.edges if e.id not in into_root
        )
        assert brute.is_arborescence(d, 1, arb.edges)

    def test_single_digon(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (1, 0)])
        a0, a1 = pack_arborescences(d, [0, 1])
        assert a0.edges == (0,)
        assert a1.edges == (1,)

    def test_repeated_roots(self):
        d = MultiGraph.directed_graph(
            2, [(0, 1), (0, 1), (1, 0), (1, 0)]
        )
        packs = pack_arborescences(d, [0, 0])
        assert [a.root for a in packs] == [0, 0]
        used = [eid for a in packs for eid in a.edges]
        assert len(used) == len(set(used))
        for arb in packs:
            assert brute.is_arborescence(d, 0, arb.edges)

    def test_infeasible_reports_cut(self):
        d = directed_cycle(3)
        with pytest.raises(PackInfeasible) as info:
            pack_arborescences(d, [0, 1])
        exc = info.value
        assert brute.out_arcs(d, d.vertex_set - exc.violating_set) == exc.indegree
        assert exc.indegree < exc.required

    def test_size_limit_is_its_own_error(self):
        d = directed_cycle(15)
        with pytest.raises(UnsupportedSizeError, match="14 vertices"):
            pack_arborescences(d, [0])

    def test_loops_are_ignored(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (1, 0), (1, 1)])
        packs = pack_arborescences(d, [0])
        assert packs[0].edges == (0,)

    @given(eulerian_digraphs(max_n=6, max_cycles=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_packing_valid_when_connectivity_allows(self, d, data):
        k = min(3, brute.strong_connectivity(d))
        if k == 0:
            return
        roots = data.draw(
            st.lists(st.sampled_from(d.vertices), min_size=k, max_size=k)
        )
        packs = pack_arborescences(d, roots)
        assert len(packs) == k
        used = [eid for a in packs for eid in a.edges]
        assert len(used) == len(set(used))
        for arb, root in zip(packs, roots):
            assert arb.root == root
            assert brute.is_arborescence(d, root, arb.edges)

