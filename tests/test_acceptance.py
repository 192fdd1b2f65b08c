"""Acceptance suite: each test prints one summary line for its criterion.

Every criterion runs a seeded corpus, so the suite is deterministic.  All
checks are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import brute
from cliquecuts import (
    ImmersionCertificate,
    LaminarDecomposition,
    brute_force_immersion,
    build_gomory_hu,
    decompose_directed,
    decompose_undirected,
    directed_edge_connectivity,
    pack_arborescences,
    random_eulerian_digraph,
    random_multigraph,
    reduce_to_terminals,
    simple_eulerian_min_outdeg,
    thick_star,
    thick_star_route,
    verify_certificate,
    verify_decomposition,
)


def report(capsys, number: int, description: str, failures: list[str]):
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"acceptance {number} {verdict}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def verified(g, outcome):
    """Outcome-matched verifier report for a pipeline result."""
    if isinstance(outcome, ImmersionCertificate):
        return verify_certificate(g, outcome)
    return verify_decomposition(g, outcome)


def test_criterion_1_cut_tree_exactness(capsys):
    rng = random.Random(101)
    failures = []
    for idx in range(200):
        g = random_multigraph(rng.randint(1, 7), rng.randint(0, 14), rng)
        tree = build_gomory_hu(g)
        for e in tree.edges:
            side, _ = tree.fundamental_partition(e)
            actual = brute.cut_size(g, side)
            if actual != e.weight:
                failures.append(
                    f"graph {idx}: tree edge {e} recounts to {actual}"
                )
        for u, v in combinations(g.vertices, 2):
            want = brute.min_cut_undirected(g, u, v)
            got = tree.min_cut_value(u, v)
            if got != want:
                failures.append(
                    f"graph {idx}: pair ({u},{v}) tree value {got} != {want}"
                )
    report(capsys, 1,
           "cut-tree weights recount exactly and tree path minima equal "
           "exhaustive min cuts on 200 multigraphs (n<=7, m<=14)", failures)


def test_criterion_2_undirected_pipeline_totality(capsys):
    rng = random.Random(202)
    failures = []
    certificates = decompositions = 0
    for idx in range(300):
        g = random_multigraph(rng.randint(1, 10), rng.randint(0, 25), rng)
        for t in (2, 3, 4):
            outcome = decompose_undirected(g, t)
            if isinstance(outcome, ImmersionCertificate):
                certificates += 1
            else:
                decompositions += 1
            rep = verified(g, outcome)
            if not rep.ok:
                failures.append(f"graph {idx} t={t}: {rep.problem}")
    report(capsys, 2,
           f"undirected pipeline returned a verified outcome for 300 graphs "
           f"x t in 2..4 ({certificates} certificates, "
           f"{decompositions} decompositions)", failures)


def test_criterion_3_thick_star_routing(capsys):
    failures = []
    for t in range(2, 7):
        star = thick_star(t)
        cert = thick_star_route(t)
        rep = verify_certificate(star, cert)
        if not rep.ok:
            failures.append(f"t={t}: {rep.problem}")
        used = [eid for tr in cert.trails.values() for eid in tr]
        if len(used) != len(set(used)) or len(used) != (t - 1) ** 2:
            failures.append(f"t={t}: used {len(used)} edges")
    report(capsys, 3,
           "doubled-star routing verifies for t=2..6 and uses exactly "
           "(t-1)^2 host edges", failures)


def test_criterion_4_reduction_preserves_connectivity(capsys):
    rng = random.Random(404)
    failures = []
    done = 0
    while done < 100:
        n = rng.randint(2, 8)
        d = random_eulerian_digraph(n, rng.randint(0, 24), rng)
        terms = sorted(rng.sample(d.vertices, rng.randint(2, min(4, n))))
        before = {
            (a, b): directed_edge_connectivity(d, a, b)
            for a, b in permutations(terms, 2)
        }
        red = reduce_to_terminals(d, terms)
        if red.digraph.vertex_set != frozenset(terms):
            failures.append(f"instance {done}: wrong vertex set")
        if not red.digraph.is_eulerian():
            failures.append(f"instance {done}: reduction lost balance")
        for (a, b), want in before.items():
            got = brute.min_cut_directed(red.digraph, a, b)
            if got != want:
                failures.append(
                    f"instance {done}: pair ({a},{b}) {got} != {want}"
                )
        done += 1
    report(capsys, 4,
           "splitting non-terminals away kept every ordered terminal pair's "
           "directed connectivity exact on 100 balanced digraphs "
           "(n<=8, m<=24)", failures)


def test_criterion_5_arborescence_packing(capsys):
    rng = random.Random(505)
    failures = []
    done = 0
    by_k = {1: 0, 2: 0, 3: 0}
    while done < 100:
        n = rng.randint(2, 7)
        d = random_eulerian_digraph(n, rng.randint(2, 20), rng)
        k = min(3, brute.strong_connectivity(d))
        if k < 1:
            continue
        if done % 2:
            roots = [d.vertices[0]] * k
        else:
            roots = list(d.vertices[:k])
        packs = pack_arborescences(d, roots)
        used = [eid for a in packs for eid in a.edges]
        if len(used) != len(set(used)):
            failures.append(f"instance {done}: arborescences share edges")
        for arb, root in zip(packs, roots):
            if arb.root != root or not brute.is_arborescence(d, root, arb.edges):
                failures.append(f"instance {done}: invalid arborescence")
        by_k[k] += 1
        done += 1
    report(capsys, 5,
           f"edge-disjoint spanning arborescences packed on 100 strongly "
           f"connected balanced digraphs (k=1/2/3 split "
           f"{by_k[1]}/{by_k[2]}/{by_k[3]})", failures)


def test_criterion_6_directed_pipeline_totality(capsys):
    rng = random.Random(606)
    failures = []
    certificates = decompositions = 0
    for idx in range(200):
        d = random_eulerian_digraph(rng.randint(2, 9), rng.randint(0, 24), rng)
        for t in (2, 3):
            outcome = decompose_directed(d, t)
            if isinstance(outcome, ImmersionCertificate):
                certificates += 1
            else:
                decompositions += 1
            rep = verified(d, outcome)
            if not rep.ok:
                failures.append(f"digraph {idx} t={t}: {rep.problem}")
    report(capsys, 6,
           f"directed pipeline returned a verified outcome for 200 balanced "
           f"digraphs x t in {{2,3}} ({certificates} certificates, "
           f"{decompositions} decompositions)", failures)


def _small_underlying_cut_sides(d, bound):
    """Bitmasks of proper subsets whose two-way boundary is below bound."""
    n = len(d.vertices)
    out = [0] * n
    for e in d.edges:
        if not e.is_loop():
            out[e.tail] |= 1 << e.head
    hits = []
    for mask in range(1, (1 << n) - 1):
        inv = ~mask
        crossing = 0
        for v in range(n):
            if mask >> v & 1:
                crossing += (out[v] & inv).bit_count()
            else:
                crossing += (out[v] & mask).bit_count()
        if crossing < bound:
            hits.append(mask)
    return hits


def test_criterion_7_dense_digraphs_always_certify(capsys):
    rng = random.Random(707)
    failures = []
    for idx in range(30):
        n = rng.randint(7, 12)
        d = simple_eulerian_min_outdeg(n, 6, rng)
        # Degree counting forces every small two-way cut side to hold more
        # than 3 vertices, which is what makes a decomposition impossible.
        for mask in _small_underlying_cut_sides(d, 12):
            if mask.bit_count() <= 3:
                failures.append(f"instance {idx}: tiny side {mask:b}")
        outcome = decompose_directed(d, 3)
        if not isinstance(outcome, ImmersionCertificate):
            failures.append(f"instance {idx}: pipeline decomposed")
            continue
        rep = verify_certificate(d, outcome)
        if not rep.ok:
            failures.append(f"instance {idx}: {rep.problem}")
    report(capsys, 7,
           "every simple balanced digraph with outdegree 6 (n=7..12, 30 "
           "seeds) yielded a verified t=3 certificate", failures)


def test_criterion_8_oracle_agreement(capsys):
    rng = random.Random(808)
    failures = []
    confirmed = 0
    hosts = [
        random_multigraph(rng.randint(1, 6), rng.randint(0, 12), rng)
        for _ in range(150)
    ]
    for idx, g in enumerate(hosts):
        for t in (2, 3):
            outcome = decompose_undirected(g, t)
            if isinstance(outcome, ImmersionCertificate):
                if brute_force_immersion(t, g) is None:
                    failures.append(f"host {idx}: t={t} certificate unconfirmed")
                else:
                    confirmed += 1
        pipeline_found = isinstance(
            decompose_undirected(g, 2), ImmersionCertificate
        )
        oracle_found = brute_force_immersion(2, g) is not None
        if pipeline_found != oracle_found:
            failures.append(f"host {idx}: t=2 agreement broken")
    directed_hosts = 0
    while directed_hosts < 100:
        d = random_eulerian_digraph(rng.randint(2, 5), rng.randint(0, 10), rng)
        if d.edge_count > 12:
            continue
        directed_hosts += 1
        outcome = decompose_directed(d, 2)
        if isinstance(outcome, ImmersionCertificate):
            if brute_force_immersion(2, d) is None:
                failures.append(f"digraph host {directed_hosts} unconfirmed")
            else:
                confirmed += 1
    if confirmed < 20:
        failures.append(f"only {confirmed} certificates reached the oracle")
    report(capsys, 8,
           f"exhaustive search confirmed all {confirmed} pipeline "
           f"certificates on hosts with <=12 edges; t=2 outcome matched "
           f"oracle existence on 150 undirected hosts", failures)


def test_criterion_9_sampled_cut_families_laminar(capsys):
    rng = random.Random(909)
    failures = []
    trees = 0
    for idx in range(60):
        g = random_multigraph(rng.randint(1, 7), rng.randint(0, 14), rng)
        tree = build_gomory_hu(g)
        trees += 1
        for _ in range(20):
            if not tree.edges:
                break
            size = rng.randint(1, len(tree.edges))
            subset = rng.sample(tree.edges, size)
            sides = [tree.fundamental_partition(e)[0] for e in subset]
            crossing = brute.first_crossing_pair(g, sides)
            if crossing is not None:
                failures.append(f"graph {idx}: cuts {crossing} cross")
    report(capsys, 9,
           f"20 sampled tree-edge subsets per tree stayed pairwise "
           f"uncrossed across {trees} cut trees", failures)
