"""Hypothesis strategies shared across the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from cliquecuts import MultiGraph


@st.composite
def multigraphs(draw, max_n: int = 7, max_m: int = 14, min_n: int = 1):
    """Undirected multigraph; loops and parallel edges allowed."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))
    return MultiGraph.undirected(n, pairs)


@st.composite
def digraphs(draw, max_n: int = 7, max_m: int = 14, min_n: int = 1):
    """Directed multigraph; loops and parallel arcs allowed."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))
    return MultiGraph.directed_graph(n, pairs)


@st.composite
def eulerian_digraphs(draw, max_n: int = 8, max_cycles: int = 5,
                      max_copies: int = 1):
    """Balanced digraph built by superposing directed cycles.

    Cycles of length two produce digons; repeated cycles produce
    parallel arcs, and each cycle is laid down 1..max_copies times, so
    bundles of parallel arcs can be thick.  Always Eulerian by
    construction.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    cycle = st.lists(
        st.integers(min_value=0, max_value=n - 1),
        min_size=2,
        max_size=n,
        unique=True,
    )
    cycles = draw(st.lists(cycle, min_size=0, max_size=max_cycles))
    pairs = []
    for cyc in cycles:
        copies = draw(st.integers(min_value=1, max_value=max_copies))
        for i, u in enumerate(cyc):
            pairs.extend([(u, cyc[(i + 1) % len(cyc)])] * copies)
    return MultiGraph.directed_graph(n, pairs)
