"""Pipelines, certificate routing, verifiers and the exhaustive oracle."""

from __future__ import annotations

import itertools
import json
import random
import re
import time
import tracemalloc
from bisect import bisect_left, insort
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from cliquecuts import flow, immersion
from cliquecuts import (
    FanInfeasible,
    GraphError,
    ImmersionCertificate,
    LaminarDecomposition,
    MultiGraph,
    NotEulerianError,
    SelectedCut,
    brute_force_immersion,
    build_gomory_hu,
    cut_threshold,
    decompose_directed,
    decompose_undirected,
    extract_clique_immersion,
    extract_directed_clique_immersion,
    outcome_from_json,
    outcome_to_json,
    pattern_edges,
    random_eulerian_digraph,
    random_multigraph,
    thick_star,
    thick_star_route,
    verify_certificate,
    verify_decomposition,
)
from strategies import eulerian_digraphs, multigraphs
from test_flow import bridge_of_triangles, complete_graph
from test_transform import bidirected_triangle, directed_cycle


@st.composite
def block_forests(draw):
    """A small host, a partition of its vertices into blocks of one to
    three vertices, tree edges (a, b) with a < b, a clique order t, and a
    size offset per edge.  In half the cases the blocks are split by
    component and each component's blocks are joined by a random spanning
    tree, which is then perturbed at most once; otherwise the edges are
    random vertex pairs."""
    g = draw(st.one_of(multigraphs(max_n=7, max_m=10),
                       eulerian_digraphs(max_n=7, max_cycles=4)))
    spanning = draw(st.booleans())
    comp_of = {v: i for i, c in enumerate(g.components()) for v in c}
    order = draw(st.permutations(g.vertices))
    blocks = []
    while order:
        k = draw(st.integers(1, 3))
        chunk, order = order[:k], order[k:]
        for c in sorted({comp_of[v] for v in chunk}) if spanning else [None]:
            blocks.append(tuple(sorted(
                v for v in chunk if c is None or comp_of[v] == c)))
    if spanning:
        edges = []
        for c in range(len(set(comp_of.values()))):
            mine = [b for b in blocks if comp_of[b[0]] == c]
            for j in range(1, len(mine)):
                ends = (draw(st.sampled_from(mine[j])), draw(st.sampled_from(
                    mine[draw(st.integers(0, j - 1))])))
                edges.append(tuple(sorted(ends)))
        perturb = draw(st.sampled_from(["none", "none", "drop", "add"]))
        if perturb == "drop" and edges:
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        elif perturb == "add" and len(blocks) > 1:
            x, y = draw(st.permutations(range(len(blocks))))[:2]
            ends = (draw(st.sampled_from(blocks[x])),
                    draw(st.sampled_from(blocks[y])))
            edges.append(tuple(sorted(ends)))
    else:
        pairs = list(itertools.combinations(g.vertices, 2))
        edges = draw(st.lists(st.sampled_from(pairs), max_size=len(blocks))
                     ) if pairs else []
    edges = draw(st.permutations(edges))
    # Blocks of t vertices occur, but do not hide every other check.
    t = max(2, max(map(len, blocks), default=1) + draw(st.integers(0, 2)))
    offsets = draw(st.lists(st.sampled_from([0, 0, 0, -1, 1]),
                            min_size=len(edges), max_size=len(edges)))
    return g, tuple(blocks), edges, t, offsets


def joined_blocks(blocks, edges, start):
    """Indices of the blocks that `edges` join to block `start`."""
    block_of = {v: i for i, blk in enumerate(blocks) for v in blk}
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for a, b in edges:
            for p, q in ((block_of[a], block_of[b]), (block_of[b], block_of[a])):
                if p == x and q not in seen:
                    seen.add(q)
                    stack.append(q)
    return seen


def forest_side(blocks, edges, idx):
    """The vertices of the blocks on a's side of edge idx = (a, b) in the
    forest that `edges` make on the blocks."""
    block_of = {v: i for i, blk in enumerate(blocks) for v in blk}
    rest = edges[:idx] + edges[idx + 1:]
    return frozenset(v for i in joined_blocks(blocks, rest,
                                              block_of[edges[idx][0]])
                     for v in blocks[i])


def bidirected(n, pairs):
    arcs = []
    for u, v in pairs:
        arcs.append((u, v))
        arcs.append((v, u))
    return MultiGraph.directed_graph(n, arcs)


def bidirected_complete(n):
    return bidirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def clique_pairs(vertices):
    return list(itertools.combinations(vertices, 2))


def pendant_k5():
    """Vertex 0 hangs off a K5 on 1..5 by one edge."""
    return MultiGraph.undirected(6, [(0, 1)] + clique_pairs(range(1, 6)))


class TestThresholds:
    def test_undirected_values(self):
        assert [cut_threshold(t, False) for t in (2, 3, 4, 5)] == [1, 4, 9, 16]

    def test_directed_values(self):
        assert [cut_threshold(t, True) for t in (2, 3, 4, 5)] == [4, 12, 24, 40]

    def test_small_t_rejected(self):
        for t in (-1, 0, 1):
            with pytest.raises(GraphError):
                cut_threshold(t, False)

    def test_pattern_edge_counts(self):
        assert pattern_edges(4, False) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]
        assert len(pattern_edges(4, True)) == 12
        assert (1, 0) in pattern_edges(2, True)


class TestThickStar:
    def test_shape(self):
        g = thick_star(4)
        assert brute.degree(g, 0) == 9
        assert all(brute.degree(g, v) == 3 for v in (1, 2, 3))
        assert g.edge_count == 9

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_edge_ids_follow_leaf_and_copy(self, t):
        star = thick_star(t)
        assert star.edge_count == (t - 1) ** 2
        for leaf in range(1, t):
            for k in range(t - 1):
                assert star.edge((leaf - 1) * (t - 1) + k).ends() == (0, leaf)

    def test_rejects_t_below_two(self):
        with pytest.raises(GraphError):
            thick_star(1)


class TestThickStarRoute:
    def test_t2_single_edge(self):
        cert = thick_star_route(2)
        assert cert.phi == (0, 1)
        assert cert.trails == {(0, 1): (0,)}

    def test_t3_exact_trails(self):
        cert = thick_star_route(3)
        assert cert.trails == {(0, 1): (0,), (0, 2): (2,), (1, 2): (1, 3)}

    def test_t4_uses_every_edge_once(self):
        cert = thick_star_route(4)
        assert len(cert.trails) == 6
        used = [eid for tr in cert.trails.values() for eid in tr]
        assert sorted(used) == list(range(9))

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_verifies_on_its_star(self, t):
        star = thick_star(t)
        cert = thick_star_route(t)
        report = verify_certificate(star, cert)
        assert report.ok, report.problem
        used = [eid for tr in cert.trails.values() for eid in tr]
        assert len(used) == (t - 1) ** 2

    def test_rejects_t_below_two(self):
        with pytest.raises(GraphError):
            thick_star_route(1)


class TestExtractUndirected:
    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_thick_star_host_reproduces_route(self, t):
        cert = extract_clique_immersion(thick_star(t), range(t))
        assert cert.phi == tuple(range(t))
        assert cert.trails == thick_star_route(t).trails

    def test_complete_graph(self):
        g = complete_graph(5)
        cert = extract_clique_immersion(g, (0, 1, 2))
        report = verify_certificate(g, cert)
        assert report.ok, report.problem
        assert len(cert.trails[(0, 1)]) == 1
        assert len(cert.trails[(0, 2)]) == 1
        assert 2 <= len(cert.trails[(1, 2)]) <= 4

    def test_path_infeasible(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        with pytest.raises(FanInfeasible) as info:
            extract_clique_immersion(g, (0, 1, 2))
        assert info.value.cut.value < info.value.required

    def test_certificates_from_first_large_block(self):
        # The blocks are the classes of "min cut >= threshold", recounted
        # here by enumeration.
        certified = 0
        for seed in range(100):
            rng = random.Random(seed)
            n, t = rng.randint(3, 7), rng.choice([2, 3, 4])
            g = random_multigraph(n, rng.randint(2 * n, 6 * n), rng)
            outcome = decompose_undirected(g, t)
            if not isinstance(outcome, ImmersionCertificate):
                continue
            certified += 1
            report = verify_certificate(g, outcome)
            assert report.ok, (seed, report.problem)
            threshold = cut_threshold(t, False)

            def block_of(v):
                return [u for u in g.vertices if u == v or
                        brute.min_cut_undirected(g, u, v) >= threshold]

            first = min(v for v in g.vertices if len(block_of(v)) >= t)
            assert outcome.phi == tuple(block_of(first)[:t]), seed
        assert certified >= 50

    def test_terminal_validation(self):
        g = complete_graph(4)
        with pytest.raises(GraphError):
            extract_clique_immersion(g, (0, 0, 1))
        with pytest.raises(GraphError):
            extract_clique_immersion(g, (0,))


class TestExtractDirected:
    def test_tripled_bidirected_triangle(self):
        arcs = []
        for i in range(3):
            for j in range(3):
                if i != j:
                    arcs.extend([(i, j)] * 3)
        d = MultiGraph.directed_graph(3, arcs)
        cert = extract_directed_clique_immersion(d, (0, 1))
        assert set(cert.trails) == {(0, 1), (1, 0)}
        report = verify_certificate(d, cert)
        assert report.ok, report.problem

    def test_bidirected_complete_four(self):
        d = bidirected_complete(4)
        cert = extract_directed_clique_immersion(d, (1, 3))
        assert cert.phi == (1, 3)
        report = verify_certificate(d, cert)
        assert report.ok, report.problem

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
    def test_bidirected_thick_star_uses_every_arc_once(self, t):
        # t-1 arcs 0->l and t-1 arcs l->0 per leaf l: exactly what the
        # directed route needs.
        arcs = [a for leaf in range(1, t)
                for a in [(0, leaf)] * (t - 1) + [(leaf, 0)] * (t - 1)]
        d = MultiGraph.directed_graph(t, arcs)
        cert = extract_directed_clique_immersion(d, range(t))
        report = verify_certificate(d, cert)
        assert report.ok, report.problem
        used = sorted(eid for tr in cert.trails.values() for eid in tr)
        assert used == list(range(2 * (t - 1) ** 2))

    def test_return_walk_through_another_terminal(self):
        # Three arcs per ordered pair.  The fan leaves 0 on its own arcs,
        # and the smallest-id arc out of 1 that it leaves free runs to 2,
        # so 1's first return walk, the trail for (1, 0), passes 2.
        pairs = [(1, 2), (2, 0), (0, 1), (0, 2), (1, 0), (2, 1)]
        d = MultiGraph.directed_graph(3, [p for p in pairs for _ in range(3)])
        cert = extract_directed_clique_immersion(d, (0, 1, 2))
        assert [d.edge(e).head for e in cert.trails[(1, 0)]] == [2, 0]
        report = verify_certificate(d, cert)
        assert report.ok, report.problem

    def test_certificates_from_first_large_block(self):
        # The blocks are the classes of "min cut >= threshold" in the
        # underlying graph, recounted here by enumeration.
        certified = 0
        for seed in range(100):
            rng = random.Random(seed)
            n, t = rng.randint(3, 7), rng.choice([2, 3, 4])
            d = random_eulerian_digraph(n, rng.randint(4 * n, 12 * n), rng)
            outcome = decompose_directed(d, t)
            if not isinstance(outcome, ImmersionCertificate):
                continue
            certified += 1
            report = verify_certificate(d, outcome)
            assert report.ok, (seed, report.problem)
            und, threshold = d.underlying(), cut_threshold(t, True)

            def block_of(v):
                return [u for u in d.vertices if u == v or
                        brute.min_cut_undirected(und, u, v) >= threshold]

            first = min(v for v in d.vertices if len(block_of(v)) >= t)
            assert outcome.phi == tuple(block_of(first)[:t]), seed
        assert certified >= 50

    def test_directed_cycle_certifies_below_threshold(self):
        # The two-way cut of 2 is below 2t(t-1) = 4, but the fan needs one
        # arc out of 0 to 2 and the return walk closes the cycle, so the
        # fan alone decides and the certificate exists.
        d = directed_cycle(4)
        cert = extract_directed_clique_immersion(d, (0, 2))
        report = verify_certificate(d, cert)
        assert report.ok, report.problem
        assert brute_force_immersion(2, d) is not None

    def test_fan_infeasible_carries_cut(self):
        d = MultiGraph.directed_graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(FanInfeasible) as info:
            extract_directed_clique_immersion(d, (0, 2))
        assert info.value.cut.value == 0
        assert info.value.required == 1

    def test_rejects_unbalanced(self):
        d = MultiGraph.directed_graph(2, [(0, 1)])
        with pytest.raises(NotEulerianError):
            extract_directed_clique_immersion(d, (0, 1))


class TestBlockCheck:
    """The scan skips vertices whose degree is below the threshold, roots
    at the first other vertex, and certifies the t smallest members of
    the root's block without building the cut tree; when that block has
    fewer than t vertices it builds the tree."""

    @pytest.fixture
    def no_tree(self, monkeypatch):
        def broken(g):
            raise AssertionError("cut tree built")
        monkeypatch.setattr(immersion, "build_gomory_hu", broken)

    @pytest.fixture
    def trees(self, monkeypatch):
        built = []

        def counting(g):
            built.append(g)
            return build_gomory_hu(g)
        monkeypatch.setattr(immersion, "build_gomory_hu", counting)
        return built

    @pytest.mark.usefixtures("no_tree")
    @pytest.mark.parametrize("host, t, decompose", [
        (complete_graph(5), 3, decompose_undirected),
        # Two-way min cut 12, the directed threshold at t = 3.
        (bidirected_complete(7), 3, decompose_directed),
    ], ids=["undirected-K5", "bidirected-K7"])
    def test_shared_block_skips_tree(self, host, t, decompose):
        cert = decompose(host, t)
        assert isinstance(cert, ImmersionCertificate)
        assert cert.phi == tuple(range(t))
        report = verify_certificate(host, cert)
        assert report.ok, report.problem

    @pytest.mark.usefixtures("no_tree")
    @pytest.mark.parametrize("host, t, decompose", [
        (complete_graph(5), 3, decompose_undirected),
        (bidirected_complete(7), 3, decompose_directed),
        (pendant_k5(), 3, decompose_undirected),
        (bidirected(8, [(0, 1)] + clique_pairs(range(1, 8))), 3,
         decompose_directed),
    ], ids=["undirected-K5", "bidirected-K7", "undirected-pendant",
            "bidirected-pendant"])
    def test_shared_block_builds_one_network(self, host, t, decompose,
                                             monkeypatch):
        # The scan's degree tests and capped flows and the certificate's
        # fan run on one network, also when the scan skips the lowest
        # vertex, and a directed host is checked Eulerian once.
        nets, checks = [], []

        class CountedNet(flow._Net):
            def __init__(self, g):
                nets.append(g)
                super().__init__(g)
        monkeypatch.setattr(flow, "_Net", CountedNet)
        monkeypatch.setattr(immersion, "_Net", CountedNet)
        is_eulerian = MultiGraph.is_eulerian

        def counted(g):
            checks.append(g)
            return is_eulerian(g)
        monkeypatch.setattr(MultiGraph, "is_eulerian", counted)
        cert = decompose(host, t)
        assert isinstance(cert, ImmersionCertificate)
        assert len(nets) == 1 and nets[0] is host
        assert len(checks) == host.directed
        assert all(g is host for g in checks)
        report = verify_certificate(host, cert)
        assert report.ok, report.problem

    @pytest.mark.usefixtures("no_tree")
    def test_directed_check_builds_no_underlying_graph(self, monkeypatch):
        def broken(d):
            raise AssertionError("underlying graph built")
        monkeypatch.setattr(MultiGraph, "underlying", broken)
        host = bidirected_complete(7)
        cert = decompose_directed(host, 3)
        assert isinstance(cert, ImmersionCertificate)
        assert cert.phi == (0, 1, 2)
        report = verify_certificate(host, cert)
        assert report.ok, report.problem

    @pytest.mark.parametrize("seed", range(30))
    def test_two_way_cut_is_twice_the_directed_cut(self, seed):
        # The identity the directed check stands on: every set of an
        # Eulerian digraph sends out as many arcs as it takes in.
        rng = random.Random(seed)
        d = random_eulerian_digraph(rng.randint(2, 7), rng.randint(0, 20), rng)
        u = d.underlying()
        for a, b in itertools.permutations(d.vertices, 2):
            assert brute.min_cut_undirected(u, a, b) == (
                2 * brute.min_cut_directed(d, a, b))

    @pytest.mark.parametrize("t", [2, 3])
    def test_directed_cut_at_half_threshold(self, t, trees):
        # Bidirected K_{t(t-1)+1}: every directed cut between the t lowest
        # vertices is exactly t(t-1), half the threshold 2t(t-1), so they
        # are certified without a tree.
        k = t * (t - 1)
        host = bidirected_complete(k + 1)
        assert min(brute.min_cut_directed(host, 0, v) for v in range(1, t)) == k
        cert = decompose_directed(host, t)
        assert not trees
        assert cert.phi == tuple(range(t))
        assert verify_certificate(host, cert).ok
        # A hub 0 joined by t(t-1) - 1 digons to vertex 1 of that clique,
        # shifted to 1..t(t-1)+1, and by one digon to a new vertex: its
        # out-degree t(t-1) reaches half the threshold, so the scan roots
        # at it, but its directed cut to the clique is t(t-1) - 1, so its
        # block is {0} and the tree decides.
        hub = bidirected(k + 3, [(0, 1)] * (k - 1) + [(0, k + 2)]
                         + clique_pairs(range(1, k + 2)))
        assert hub.is_eulerian()
        assert brute.degree(hub, 0) == (k, k)
        assert brute.min_cut_directed(hub, 0, 1) == k - 1
        cert = decompose_directed(hub, t)
        assert len(trees) == 1
        assert cert.phi == tuple(range(1, t + 1))
        report = verify_certificate(hub, cert)
        assert report.ok, report.problem

    def test_short_cut_builds_tree(self, trees):
        # Two-way min cut 6, below 12: the tree decides.
        d = bidirected_complete(4)
        dec = decompose_directed(d, 3)
        assert len(trees) == 1
        assert isinstance(dec, LaminarDecomposition)
        assert verify_decomposition(d, dec).ok

    def test_pendant_lowest_vertex_skips_tree(self, trees):
        # Vertex 0 has degree 1, below the threshold 4, so the scan skips
        # it and certifies the K5 on 1..5 with no tree.
        g = pendant_k5()
        cert = decompose_undirected(g, 3)
        assert not trees
        assert isinstance(cert, ImmersionCertificate)
        assert cert.phi == (1, 2, 3)
        report = verify_certificate(g, cert)
        assert report.ok, report.problem

    def test_hub_root_builds_tree(self, trees):
        # Vertex 0 is joined by two edges to a K5 on 1..5 and by two to a
        # K5 on 6..10: its degree 4 reaches the threshold, so it is the
        # root, but each of its cuts is 2, so its block is {0} and the
        # tree finds the first large block.
        g = MultiGraph.undirected(11, [(0, 1), (0, 2), (0, 6), (0, 7)]
                                  + clique_pairs(range(1, 6))
                                  + clique_pairs(range(6, 11)))
        cert = decompose_undirected(g, 3)
        assert len(trees) == 1
        assert isinstance(cert, ImmersionCertificate)
        assert cert.phi == (1, 2, 3)
        report = verify_certificate(g, cert)
        assert report.ok, report.problem

    def test_benchmark_host_skips_tree(self, trees, monkeypatch):
        # Host 13 of the dir-multi-t5 corpus at seed 0: vertex 3 has
        # out-degree 19, below half the threshold 40, so the t lowest
        # vertices do not share a block, but the scan skips 3 and finds
        # the block with no tree, and names the terminals the tree does.
        d = random_eulerian_digraph(11, 275, random.Random("dir-multi-t5:0:13"))
        cert = decompose_directed(d, 5)
        assert not trees
        assert isinstance(cert, ImmersionCertificate)
        monkeypatch.setattr(immersion, "_first_large_block",
                            lambda *args: None)
        assert decompose_directed(d, 5).phi == cert.phi
        assert len(trees) == 1

    def test_scan_matches_cut_tree(self, monkeypatch):
        # On seeded small hosts: a scan that certifies names the t smallest
        # members of the cut tree's first block of at least t vertices; a
        # scan that declines either has no root, no vertex whose degree
        # reaches the threshold, or a root whose block is smaller than t;
        # and the decide's artifact equals the one the cut tree gives.
        decide = {False: decompose_undirected, True: decompose_directed}
        seen = []
        for seed in range(120):
            rng = random.Random(seed)
            n, t = rng.randint(2, 8), rng.choice([2, 3, 4])
            if seed % 2:
                g = random_eulerian_digraph(n, rng.randint(n, 10 * n), rng)
            else:
                g = random_multigraph(n, rng.randint(n, 8 * n), rng)
            threshold = cut_threshold(t, g.directed)
            und = g.underlying() if g.directed else g
            tree = build_gomory_hu(und)
            blocks = tree.blocks_without(
                e for e in tree.edges if e.weight < threshold)
            large = [b for b in blocks if len(b) >= t]
            limit = threshold // 2 if g.directed else threshold
            found = immersion._first_large_block(g, flow._Net(g), t, limit)
            roots = [v for v in g.vertices
                     if sum(v in e.ends() for e in und.edges
                            if not e.is_loop()) >= threshold]
            if found is not None:
                assert found == list(large[0][:t])
                seen.append("certified")
            elif roots:
                assert all(len(b) < t for b in blocks if roots[0] in b)
                seen.append("small root block")
            else:
                assert not large
                seen.append("no root")
            outcome = outcome_to_json(decide[g.directed](g, t))
            with monkeypatch.context() as patch:
                patch.setattr(immersion, "_first_large_block",
                              lambda *args: None)
                assert outcome_to_json(decide[g.directed](g, t)) == outcome
        assert min(map(seen.count, ("certified", "small root block",
                                    "no root"))) >= 10


class TestDecomposeUndirected:
    def test_bridge_of_triangles_decomposes(self):
        g = bridge_of_triangles()
        dec = decompose_undirected(g, 3)
        assert isinstance(dec, LaminarDecomposition)
        assert dec.threshold == 4
        assert len(dec.cuts) == 5
        assert all(cut.size <= 2 for cut in dec.cuts)
        assert dec.blocks == tuple((v,) for v in range(6))
        report = verify_decomposition(g, dec)
        assert report.ok, report.problem

    def test_complete_graph_certifies(self):
        g = complete_graph(5)
        cert = decompose_undirected(g, 3)
        assert isinstance(cert, ImmersionCertificate)
        assert cert.phi == (0, 1, 2)
        report = verify_certificate(g, cert)
        assert report.ok, report.problem

    def test_edgeless_graph(self):
        g = MultiGraph.undirected(4, [])
        dec = decompose_undirected(g, 3)
        assert dec.cuts == ()
        assert dec.blocks == ((0,), (1,), (2,), (3,))

    def test_decomposition_is_not_an_absence_claim(self):
        # The t = 4 pipeline on the complete graph with 4 vertices returns a
        # decomposition (all tree weights are 3, below 9) although the host
        # trivially immerses the pattern.  Only the certificate direction is
        # conclusive.
        g = complete_graph(4)
        dec = decompose_undirected(g, 4)
        assert isinstance(dec, LaminarDecomposition)
        assert verify_decomposition(g, dec).ok
        assert brute_force_immersion(4, g) is not None

    def test_rejects_directed_host(self):
        with pytest.raises(GraphError):
            decompose_undirected(directed_cycle(3), 2)

    def test_rejects_small_t(self):
        with pytest.raises(GraphError):
            decompose_undirected(complete_graph(3), 1)


class TestDecomposeDirected:
    def test_bidirected_triangle_certifies_digon(self):
        d = bidirected_triangle()
        cert = decompose_directed(d, 2)
        assert isinstance(cert, ImmersionCertificate)
        assert cert.t == 2 and cert.directed
        report = verify_certificate(d, cert)
        assert report.ok, report.problem

    def test_disjoint_digons_decompose(self):
        d = MultiGraph.directed_graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        dec = decompose_directed(d, 2)
        assert isinstance(dec, LaminarDecomposition)
        assert dec.threshold == 4
        assert len(dec.cuts) == 2
        assert all(cut.size == 2 for cut in dec.cuts)
        assert dec.blocks == ((0,), (1,), (2,), (3,))
        report = verify_decomposition(d, dec)
        assert report.ok, report.problem

    def test_directed_cycle_decomposes_but_immersion_exists(self):
        # Both directions around the cycle are edge-disjoint, so the digon
        # pattern embeds, yet every underlying cut is 2 < 4 and the pipeline
        # decomposes: the directed dichotomy is one-directional too.
        d = directed_cycle(5)
        dec = decompose_directed(d, 2)
        assert isinstance(dec, LaminarDecomposition)
        assert verify_decomposition(d, dec).ok
        assert brute_force_immersion(2, d) is not None

    def test_rejects_unbalanced(self):
        d = MultiGraph.directed_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotEulerianError):
            decompose_directed(d, 2)

    def test_rejects_undirected_host(self):
        with pytest.raises(GraphError):
            decompose_directed(complete_graph(3), 2)


class TestVerifyCertificate:
    def test_route_passes(self):
        star = thick_star(3)
        assert verify_certificate(star, thick_star_route(3)).ok

    def test_duplicated_edge_reported(self):
        star = thick_star(3)
        cert = thick_star_route(3)
        cert.trails[(1, 2)] = (0, 3)
        report = verify_certificate(star, cert)
        assert not report.ok
        assert "edge 0" in report.problem

    def test_backwards_directed_edge_reported(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (1, 0)])
        cert = ImmersionCertificate(
            2, True, (0, 1), {(0, 1): (1,), (1, 0): (0,)}
        )
        report = verify_certificate(d, cert)
        assert not report.ok
        assert "direction" in report.problem

    def test_missing_pattern_edge(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (1, 0)])
        cert = ImmersionCertificate(2, True, (0, 1), {(0, 1): (0,)})
        report = verify_certificate(d, cert)
        assert not report.ok
        assert "missing [(1, 0)]" in report.problem

    def test_pair_outside_pattern(self):
        # As many trails as pattern edges, but one is for the reversed pair.
        g = MultiGraph.undirected(2, [(0, 1)])
        cert = ImmersionCertificate(2, False, (0, 1), {(1, 0): (0,)})
        report = verify_certificate(g, cert)
        assert not report.ok
        assert "missing [(0, 1)], extra [(1, 0)]" in report.problem

    def test_large_pattern_counted_not_built(self):
        # t comes from the artifact: 400 terminals and no trails must not
        # cost the 79800 pattern pairs, in time or in memory.
        t = 400
        g = MultiGraph.undirected(t, [])
        cert = ImmersionCertificate(t, False, tuple(range(t)), {})
        tracemalloc.start()
        try:
            report = verify_certificate(g, cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.ok
        assert peak < 2**20
        assert report.problem == (
            "pattern edges mismatch: missing "
            "[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), ...], extra []")

    def test_non_injective_phi(self):
        star = thick_star(3)
        cert = thick_star_route(3)
        cert.phi = (0, 1, 1)
        report = verify_certificate(star, cert)
        assert not report.ok
        assert "injective" in report.problem

    def test_wrong_endpoint(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        cert = ImmersionCertificate(2, False, (0, 2), {(0, 1): (0,)})
        report = verify_certificate(g, cert)
        assert not report.ok
        assert "ends at" in report.problem

    def test_unknown_edge(self):
        g = MultiGraph.undirected(2, [(0, 1)])
        cert = ImmersionCertificate(2, False, (0, 1), {(0, 1): (9,)})
        report = verify_certificate(g, cert)
        assert not report.ok
        assert "unknown edge 9" in report.problem

    def test_empty_trail(self):
        g = MultiGraph.undirected(2, [(0, 1)])
        cert = ImmersionCertificate(2, False, (0, 1), {(0, 1): ()})
        report = verify_certificate(g, cert)
        assert not report.ok
        assert "empty" in report.problem

    def test_directedness_mismatch(self):
        star = thick_star(2)
        cert = thick_star_route(2)
        host = MultiGraph.directed_graph(2, [(0, 1)])
        assert not verify_certificate(host, cert).ok
        assert verify_certificate(star, cert).ok

    def test_disconnected_trail(self):
        g = MultiGraph.undirected(4, [(0, 1), (2, 3)])
        cert = ImmersionCertificate(2, False, (0, 3), {(0, 1): (0, 1)})
        report = verify_certificate(g, cert)
        assert not report.ok
        assert "not connected" in report.problem


class TestVerifyDecomposition:
    def test_pipeline_output_passes(self):
        g = bridge_of_triangles()
        dec = decompose_undirected(g, 3)
        assert verify_decomposition(g, dec).ok

    def test_merged_blocks_rejected(self):
        g = bridge_of_triangles()
        dec = decompose_undirected(g, 3)
        merged = (dec.blocks[0] + dec.blocks[1],) + dec.blocks[2:]
        bad = LaminarDecomposition(
            dec.t, dec.directed, dec.threshold, dec.cuts, merged
        )
        report = verify_decomposition(g, bad)
        assert not report.ok

    def test_misreported_cut_size_rejected(self):
        g = bridge_of_triangles()
        dec = decompose_undirected(g, 3)
        cut = dec.cuts[0]
        forged = replace(cut, size=cut.size - 1)
        bad = LaminarDecomposition(
            dec.t, dec.directed, dec.threshold, (forged,) + dec.cuts[1:],
            dec.blocks,
        )
        report = verify_decomposition(g, bad)
        assert not report.ok
        assert "recount" in report.problem

    def test_crossing_cuts_rejected(self):
        # The crossing cuts {0, 1} | {2, 3} and {1, 2} | {0, 3} of a 4-cycle
        # leave four singleton blocks; the cuts around the cycle that would
        # join them close a cycle at the fourth.
        g = MultiGraph.undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        cuts = tuple(SelectedCut(pair, 2)
                     for pair in ((0, 1), (1, 2), (2, 3), (0, 3)))
        bad = LaminarDecomposition(3, False, 4, cuts, ((0,), (1,), (2,), (3,)))
        report = verify_decomposition(g, bad)
        assert report.problem == "cut 3 closes a cycle of cuts"

    def test_oversized_block_rejected(self):
        g = MultiGraph.undirected(3, [])
        bad = LaminarDecomposition(2, False, 1, (), ((0, 1), (2,)))
        report = verify_decomposition(g, bad)
        assert not report.ok
        assert "block" in report.problem

    def test_missing_vertex_rejected(self):
        g = MultiGraph.undirected(3, [])
        bad = LaminarDecomposition(2, False, 1, (), ((0,), (1,)))
        report = verify_decomposition(g, bad)
        assert not report.ok
        assert "cover" in report.problem

    def test_wrong_threshold_rejected(self):
        g = MultiGraph.undirected(2, [])
        bad = LaminarDecomposition(2, False, 9, (), ((0,), (1,)))
        report = verify_decomposition(g, bad)
        assert not report.ok
        assert "threshold" in report.problem

    def test_mode_must_match_graph(self):
        dec = LaminarDecomposition(2, False, 1, (), ((0,), (1,)))
        d = MultiGraph.directed_graph(2, [])
        assert not verify_decomposition(d, dec).ok

    def test_blocks_must_match_cut_classes(self):
        # Swapping two singleton blocks for a merged pair fails even when
        # sizes stay legal, because the classes induced by the cuts differ.
        d = MultiGraph.directed_graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        dec = decompose_directed(d, 2)
        report = verify_decomposition(d, dec)
        assert report.ok, report.problem
        bad = LaminarDecomposition(
            3, True, 12, dec.cuts, ((0, 1), (2, 3))
        )
        report = verify_decomposition(d, bad)
        assert not report.ok

    @staticmethod
    def _first_tree_edge(dec, tree_edge):
        cuts = (replace(dec.cuts[0], tree_edge=tree_edge),) + dec.cuts[1:]
        return replace(dec, cuts=cuts)

    def test_forged_tree_edge_rejected(self):
        g = bridge_of_triangles()
        bad = self._first_tree_edge(decompose_undirected(g, 3), (999, 12345))
        report = verify_decomposition(g, bad)
        assert not report.ok
        assert "cut 0 tree edge" in report.problem

    def test_reversed_tree_edge_rejected(self):
        g = bridge_of_triangles()
        dec = decompose_undirected(g, 3)
        a, b = dec.cuts[0].tree_edge
        report = verify_decomposition(g, self._first_tree_edge(dec, (b, a)))
        assert report.problem == (
            f"cut 0 tree edge {(b, a)} is not two increasing vertices")

    def test_tree_edge_inside_one_block_rejected(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        dec = LaminarDecomposition(3, False, 4, (SelectedCut((0, 1), 1),),
                                   ((0, 1), (2,)))
        report = verify_decomposition(g, dec)
        assert report.problem == "cut 0 tree edge (0, 1) lies in one block"

    def test_cut_between_components_rejected(self):
        g = MultiGraph.undirected(2, [])
        dec = LaminarDecomposition(3, False, 4, (SelectedCut((0, 1), 0),),
                                   ((0,), (1,)))
        report = verify_decomposition(g, dec)
        assert report.problem == "cut 0 tree edge (0, 1) joins two components"

    def test_block_across_components_rejected(self):
        g = MultiGraph.undirected(4, [(0, 1), (2, 3)])
        dec = LaminarDecomposition(3, False, 4, (SelectedCut((0, 1), 1),),
                                   ((0, 2), (1,), (3,)))
        report = verify_decomposition(g, dec)
        assert report.problem == "block (0, 2) meets two components"

    def test_missing_cut_rejected(self):
        g = bridge_of_triangles()
        dec = decompose_undirected(g, 3)
        report = verify_decomposition(g, replace(dec, cuts=dec.cuts[1:]))
        assert report.problem == (
            f"{len(dec.cuts) - 1} cuts for {len(dec.blocks)} blocks in "
            f"1 components")

    def test_long_path_checked_in_one_pass(self):
        # 799 nested unit cuts of an 800-vertex path: a pairwise laminarity
        # check does cuts^2 set operations over the whole path.
        n = 800
        g = MultiGraph.undirected(n, [(v, v + 1) for v in range(n - 1)])
        vs = list(range(n))
        cuts = tuple(SelectedCut((v, v + 1), 1) for v in range(n - 1))
        dec = LaminarDecomposition(3, False, 4, cuts, tuple((v,) for v in vs))
        start = time.perf_counter()
        report = verify_decomposition(g, dec)
        elapsed = time.perf_counter() - start
        assert report.ok, report.problem
        assert elapsed < 2.0

    def test_nested_cuts_recounted_in_one_pass(self):
        # 999 nested unit cuts of a chain of 1000 two-vertex blocks, each
        # block held by 50 parallel edges: a scan of the host per cut costs
        # cuts x m = 999 x 50999 edge checks.
        n, bundle = 2000, 50
        pairs = [(v, v + 1) for v in range(0, n, 2)] * bundle
        pairs += [(v, v + 1) for v in range(1, n - 1, 2)]
        g = MultiGraph.undirected(n, pairs)
        cuts = tuple(SelectedCut((v, v + 1), 1) for v in range(1, n - 1, 2))
        blocks = tuple((v, v + 1) for v in range(0, n, 2))
        dec = LaminarDecomposition(3, False, 4, cuts, blocks)
        assert (g.edge_count, len(cuts)) == (50999, 999)
        start = time.perf_counter()
        report = verify_decomposition(g, dec)
        elapsed = time.perf_counter() - start
        assert report.ok, report.problem
        assert elapsed < 1.5

    @pytest.mark.parametrize("directed", [False, True])
    def test_recount_matches_reference(self, directed):
        # Decompositions of seeded random hosts verify, and a size one off
        # on any single cut fails on that cut with the size brute.cut_size
        # counts, both directions on a digraph.
        rng = random.Random(7)
        recounted = 0
        for _ in range(30):
            n = rng.randint(6, 16)
            if directed:
                g = random_eulerian_digraph(n, 2 * n, rng)
                dec = decompose_directed(g, 3)
            else:
                g = random_multigraph(n, 2 * n, rng)
                dec = decompose_undirected(g, 4)
            if not isinstance(dec, LaminarDecomposition):
                continue
            report = verify_decomposition(g, dec)
            assert report.ok, report.problem
            edges = [cut.tree_edge for cut in dec.cuts]
            for idx, cut in enumerate(dec.cuts):
                actual = brute.cut_size(
                    g, forest_side(dec.blocks, edges, idx))
                for recorded in (cut.size - 1, cut.size + 1):
                    cuts = list(dec.cuts)
                    cuts[idx] = replace(cut, size=recorded)
                    report = verify_decomposition(
                        g, replace(dec, cuts=tuple(cuts)))
                    assert report.problem == (
                        f"cut {idx} recount mismatch: recorded {recorded}, "
                        f"actual {actual}")
                recounted += 1
        assert recounted >= 100

    def test_repeated_cut_rejected(self):
        g = bridge_of_triangles()
        dec = decompose_undirected(g, 3)
        cuts = dec.cuts + dec.cuts[:1]
        report = verify_decomposition(g, replace(dec, cuts=cuts))
        assert report.problem == f"cut {len(dec.cuts)} closes a cycle of cuts"

    def test_repeated_cuts_rejected_before_recounts(self):
        # Recounting every copy costs copies x edges: a short artifact
        # could make the check as slow as it likes.
        g = MultiGraph.undirected(2, [(0, 1)] * 20000)
        cut = SelectedCut((0, 1), 20000)
        dec = LaminarDecomposition(200, False, cut_threshold(200, False),
                                   (cut,) * 2000, ((0,), (1,)))
        start = time.perf_counter()
        report = verify_decomposition(g, dec)
        elapsed = time.perf_counter() - start
        assert report.problem == "cut 1 closes a cycle of cuts"
        assert elapsed < 1.5

    @given(block_forests())
    @settings(max_examples=300, deadline=None)
    def test_forest_agrees_with_reference(self, case):
        # Accepted exactly when the edges join each component's blocks in
        # one tree, each recorded size is brute.cut_size of the blocks on
        # one side of its edge, and sizes and blocks are below the limits.
        g, blocks, edges, t, offsets = case
        threshold = cut_threshold(t, g.directed)
        comp = {v: brute.reachable(g, v) for v in g.vertices}
        block_of = {v: i for i, blk in enumerate(blocks) for v in blk}
        comps = {comp[v] for v in g.vertices}
        ok = (all(len(blk) < t and len({comp[v] for v in blk}) == 1
                  for blk in blocks)
              and all(comp[a] == comp[b] and block_of[a] != block_of[b]
                      for a, b in edges)
              and len(edges) == len(blocks) - len(comps)
              and all(len(joined_blocks(blocks, edges, block_of[min(c)]))
                      == sum(1 for blk in blocks if blk[0] in c)
                      for c in comps))
        sizes = list(offsets)
        if ok:
            for idx, offset in enumerate(offsets):
                actual = brute.cut_size(g, forest_side(blocks, edges, idx))
                sizes[idx] += actual
                ok = ok and offset == 0 and actual < threshold
        cuts = tuple(map(SelectedCut, edges, sizes))
        dec = LaminarDecomposition(t, g.directed, threshold, cuts, blocks)
        report = verify_decomposition(g, dec)
        assert report.ok == ok, report.problem
        cycle = re.fullmatch(r"cut (\d+) closes a cycle of cuts",
                             report.problem or "")
        if cycle:
            i = int(cycle[1])
            a, b = edges[i]
            assert block_of[b] in joined_blocks(blocks, edges[:i], block_of[a])


class TestUncrossing:
    def test_nested_sides(self):
        g = MultiGraph.undirected(4, [(0, 1), (1, 2), (2, 3)])
        assert brute.first_crossing_pair(g, [{0}, {0, 1}]) is None
        assert brute.first_crossing_pair(g, [{0, 1}, {2, 3}]) is None
        assert brute.first_crossing_pair(g, [{0, 1}, {1, 2}]) == (0, 1)

    def test_separate_components_never_cross(self):
        g = MultiGraph.undirected(4, [(0, 1), (2, 3)])
        assert brute.first_crossing_pair(g, [{0}, {2}]) is None
        assert brute.first_crossing_pair(g, [{0, 2}, {1, 2}]) is None


class TestBruteForceOracle:
    def test_single_edge_hosts_k2(self):
        g = MultiGraph.undirected(2, [(0, 1)])
        cert = brute_force_immersion(2, g)
        assert cert is not None
        assert verify_certificate(g, cert).ok

    def test_triangle_hosts_k3(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2), (0, 2)])
        cert = brute_force_immersion(3, g)
        assert cert is not None
        assert all(len(tr) == 1 for tr in cert.trails.values())
        assert verify_certificate(g, cert).ok

    def test_path_has_no_k3(self):
        g = MultiGraph.undirected(3, [(0, 1), (1, 2)])
        assert brute_force_immersion(3, g) is None

    def test_digon_hosts_directed_k2(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (1, 0)])
        cert = brute_force_immersion(2, d)
        assert cert is not None
        assert verify_certificate(d, cert).ok

    def test_one_way_arcs_do_not_host_directed_k2(self):
        d = MultiGraph.directed_graph(2, [(0, 1), (0, 1)])
        assert brute_force_immersion(2, d) is None

    def test_directed_cycle_hosts_digon_around(self):
        cert = brute_force_immersion(2, directed_cycle(5))
        assert cert is not None
        lengths = sorted(len(tr) for tr in cert.trails.values())
        assert lengths == [1, 4]

    def test_star_with_doubled_spokes_matches_route(self):
        star = thick_star(3)
        cert = brute_force_immersion(3, star)
        assert cert is not None
        assert verify_certificate(star, cert).ok

    def test_loops_are_invisible(self):
        g = MultiGraph.undirected(2, [(0, 0), (1, 1)])
        assert brute_force_immersion(2, g) is None

    def test_size_guard(self):
        g = MultiGraph.undirected(2, [(0, 1)] * 13)
        with pytest.raises(GraphError):
            brute_force_immersion(2, g)
        assert brute_force_immersion(2, g, max_edges=13) is not None

    def test_rejects_small_t(self):
        with pytest.raises(GraphError):
            brute_force_immersion(1, MultiGraph.undirected(2, [(0, 1)]))

    def test_k4_spot_check_after_t2_decomposition(self):
        # When the t = 2 pipeline decomposes, the host has no non-loop edges
        # at all, so even the 4-clique cannot immerse.
        g = MultiGraph.undirected(3, [(0, 0), (1, 1)])
        dec = decompose_undirected(g, 2)
        assert isinstance(dec, LaminarDecomposition)
        assert brute_force_immersion(4, g) is None


def swapped_circulant(n, k, rng):
    """Simple Eulerian digraph with every in- and outdegree k: the
    circulant v -> v+s over a seeded set of k offsets, then 4n attempts at
    a balance-preserving swap, a->b and c->d becoming a->d and c->b when
    both new arcs are absent and the four ends are distinct."""
    offsets = rng.sample(range(1, n), k)
    present = {(v, (v + s) % n) for v in range(n) for s in offsets}
    # The arcs stay sorted as they change, so no attempt sorts them anew.
    arcs = sorted(present)
    for _ in range(4 * n):
        (a, b), (c, d) = rng.sample(arcs, 2)
        if len({a, b, c, d}) == 4 and not {(a, d), (c, b)} & present:
            for arc in ((a, b), (c, d)):
                del arcs[bisect_left(arcs, arc)]
            for arc in ((a, d), (c, b)):
                insort(arcs, arc)
            present -= {(a, b), (c, d)}
            present |= {(a, d), (c, b)}
    return MultiGraph.directed_graph(n, arcs)


class TestOutdegreeClaim:
    """The paper's claim: a simple Eulerian digraph with minimum outdegree
    t(t-1) immerses the bidirected K_t.  A decomposition here is a
    counterexample or a bug."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("t, n", [(4, 13), (4, 19), (5, 21), (5, 26),
                                      (6, 37), (7, 49), (8, 60), (10, 97)])
    def test_swapped_circulant_certifies(self, t, n, seed):
        k = t * (t - 1)
        d = swapped_circulant(n, k, random.Random(seed))
        assert {brute.degree(d, v) for v in d.vertices} == {(k, k)}
        outcome = decompose_directed(d, t)
        assert isinstance(outcome, ImmersionCertificate)
        report = verify_certificate(d, outcome)
        assert report.ok, report.problem


class TestPipelineProperties:
    @given(multigraphs(max_n=7, max_m=12), st.sampled_from([2, 3]))
    @settings(max_examples=80, deadline=None)
    def test_undirected_totality(self, g, t):
        outcome = decompose_undirected(g, t)
        if isinstance(outcome, ImmersionCertificate):
            report = verify_certificate(g, outcome)
        else:
            report = verify_decomposition(g, outcome)
        assert report.ok, report.problem

    @given(eulerian_digraphs(max_n=6, max_cycles=4), st.sampled_from([2, 3]))
    @settings(max_examples=50, deadline=None)
    def test_directed_totality(self, d, t):
        outcome = decompose_directed(d, t)
        if isinstance(outcome, ImmersionCertificate):
            report = verify_certificate(d, outcome)
        else:
            report = verify_decomposition(d, outcome)
        assert report.ok, report.problem

    @given(multigraphs(max_n=6, max_m=10))
    @settings(max_examples=80, deadline=None)
    def test_t2_pipeline_agrees_with_oracle(self, g):
        outcome = decompose_undirected(g, 2)
        exists = brute_force_immersion(2, g) is not None
        assert isinstance(outcome, ImmersionCertificate) == exists

    @given(multigraphs(max_n=6, max_m=10), st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_certificates_confirmed_by_oracle(self, g, t):
        outcome = decompose_undirected(g, t)
        if isinstance(outcome, ImmersionCertificate):
            assert brute_force_immersion(t, g) is not None


class TestOutcomeJson:
    def test_certificate_round_trip(self):
        g = complete_graph(5)
        cert = decompose_undirected(g, 3)
        doc = outcome_to_json(cert)
        assert doc["kind"] == "certificate"
        json.dumps(doc)
        assert outcome_from_json(doc) == cert

    def test_decomposition_round_trip(self):
        g = bridge_of_triangles()
        dec = decompose_undirected(g, 3)
        doc = outcome_to_json(dec)
        assert doc["kind"] == "decomposition"
        json.dumps(doc)
        assert outcome_from_json(doc) == dec

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            outcome_from_json({"kind": "something"})

    def test_missing_fields_rejected(self):
        with pytest.raises(GraphError):
            outcome_from_json({"kind": "certificate", "t": 2})

    @pytest.mark.parametrize("path, value", [
        (("t",), True),
        (("t",), "3"),
        (("phi", 1), 1.0),
        (("trails", 0, "u"), False),
        (("trails", 0, "edges", 0), "0"),
        (("directed",), 0),
        (("directed",), None),
    ], ids=["t-bool", "t-string", "phi-float", "u-bool", "edge-string",
            "directed-int", "directed-null"])
    def test_certificate_field_types_enforced(self, path, value):
        doc = outcome_to_json(decompose_undirected(complete_graph(5), 3))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(GraphError):
            outcome_from_json(doc)

    @pytest.mark.parametrize("path, value", [
        (("threshold",), 4.0),
        (("cuts", 0, "size"), True),
        # "side" names the tree edge's first end, on the cut's a side.
        (("cuts", 0, "tree_edge", 0), "0"),
        (("cuts", 0, "tree_edge", 1), 2.5),
        (("cuts", 0, "tree_edge"), [1, 2, 7]),
        (("blocks", 0, 0), None),
        (("directed",), "false"),
    ], ids=["threshold-float", "size-bool", "side-string", "tree-edge-float",
            "tree-edge-triple", "block-null", "directed-string"])
    def test_decomposition_field_types_enforced(self, path, value):
        doc = outcome_to_json(decompose_undirected(bridge_of_triangles(), 3))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(GraphError):
            outcome_from_json(doc)

    def test_duplicate_trail_rejected(self):
        doc = outcome_to_json(decompose_undirected(complete_graph(5), 3))
        doc["trails"].append(dict(doc["trails"][0]))
        with pytest.raises(GraphError, match="two trails"):
            outcome_from_json(doc)

    def test_unserializable_value_rejected(self):
        with pytest.raises(GraphError):
            outcome_to_json("not an outcome")
