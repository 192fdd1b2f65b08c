"""Seeded random instance families.

All randomness is confined to the Random instance handed in by the caller
(the CLI builds it from --seed), so equal seeds give byte-identical output.
"""
from __future__ import annotations

import random

from .graphs import GraphError, MultiGraph

# Fresh starts simple_eulerian_min_outdeg makes before it gives up.
MAX_RESTARTS = 200


def random_multigraph(n: int, m: int, rng: random.Random) -> MultiGraph:
    """m independent uniform endpoint pairs; loops and parallels allowed."""
    if n < 1:
        raise GraphError("need at least one vertex")
    if m < 0:
        raise GraphError("edge count must be non-negative")
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return MultiGraph.undirected(n, pairs)


def random_eulerian_digraph(n: int, m: int, rng: random.Random) -> MultiGraph:
    """Superposes random directed cycles (length >= 2, distinct vertices)
    until at least m arcs exist; the last cycle may overshoot.  Balance
    holds by construction and is re-checked before returning."""
    if m < 0:
        raise GraphError("edge count must be non-negative")
    if m > 0 and n < 2:
        raise GraphError("cycles need at least two vertices")
    pairs: list[tuple[int, int]] = []
    while len(pairs) < m:
        length = rng.randint(2, n)
        cycle = rng.sample(range(n), length)
        pairs.extend(
            (cycle[i], cycle[(i + 1) % length]) for i in range(length)
        )
    d = MultiGraph.directed_graph(n, pairs)
    if not d.is_eulerian():
        raise GraphError("internal: generated digraph is unbalanced")
    return d


def simple_eulerian_min_outdeg(n: int, floor: int, rng: random.Random) -> MultiGraph:
    """Simple Eulerian digraph with every outdegree exactly `floor`, built
    by superposing arc-disjoint random Hamiltonian cycles; cycles that would
    duplicate an arc are discarded.  Digons are allowed (the digraph stays
    simple), loops cannot occur."""
    if floor < 1:
        raise GraphError("min outdegree must be positive")
    if floor >= n:
        raise GraphError(
            f"infeasible: outdegree {floor} needs at least {floor + 1} vertices"
        )
    for _ in range(MAX_RESTARTS):
        arcs: set[tuple[int, int]] = set()
        accepted = 0
        misses = 0
        while accepted < floor and misses < 500:
            order = rng.sample(range(n), n)
            cycle = [
                (order[i], order[(i + 1) % n]) for i in range(n)
            ]
            if any(a in arcs for a in cycle):
                misses += 1
                continue
            arcs.update(cycle)
            accepted += 1
            misses = 0
        if accepted == floor:
            d = MultiGraph.directed_graph(n, sorted(arcs))
            if not d.is_eulerian():
                raise GraphError("internal: generated digraph is unbalanced")
            return d
    raise GraphError(
        f"could not pack {floor} arc-disjoint Hamiltonian cycles on {n} "
        f"vertices within {MAX_RESTARTS} restarts"
    )
