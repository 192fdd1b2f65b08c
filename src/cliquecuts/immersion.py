"""Decompose-or-certify pipelines over multigraphs and Eulerian digraphs.

For a target clique order t, the undirected pipeline either returns a
laminar family of edge cuts all smaller than (t-1)^2 whose blocks have
fewer than t vertices, or an explicit immersion certificate for the
complete graph on t vertices: an injective vertex map plus pairwise
edge-disjoint trails.  The directed pipeline does the same on Eulerian
digraphs with threshold 2t(t-1) and the bidirected clique as pattern.

The cuts are the cut tree's light edges, so they form a forest on the
blocks: a cut is its tree edge (a, b) and its size, and its sides are the
blocks on either side of that edge.  So an artifact is O(n + cuts).

The certificate's terminals are the t smallest members of the first block
of at least t vertices, a block being a class of "min cut >= threshold".
A vertex of degree below the threshold is a block of its own, so a scan
in ascending order skips those, takes the first other vertex as its root
and runs one flow capped at the threshold from the root to each later
one.  When t vertices reach the cap, the root's block is the first large
block and they are its t smallest members, and no cut tree is built;
otherwise the cut tree gives the blocks.  On an Eulerian digraph the scan
runs on the digraph itself, with out-degrees and flows at half the
threshold, since each two-way cut is twice the directed one; the
underlying graph is built only for the cut tree.  Either way the
certificate is routed through one Menger fan out of the first terminal,
which checks its own feasibility.

A decide builds one flow network from the host, in whole-list passes.
The scan reads its out-capacities and runs its capped flows on it, and
when they certify, the fan runs on it too, after a reset, so such a
decide builds no other network and checks a directed host Eulerian once.
The cut tree builds networks of its own, so a decide that needs it
certifies through extract_clique_immersion or
extract_directed_clique_immersion, whose fan builds one more.

A returned decomposition never claims that no immersion exists; only the
certificate direction is definite.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterable, Iterator

from .flow import Trail, _fan, _Net, menger_fan
from .gomoryhu import build_gomory_hu
from .graphs import (
    GraphError,
    MultiGraph,
    NotEulerianError,
    UnsupportedSizeError,
)

# min_cut, reduce_to_terminals and pack_arborescences stay names of this
# module: perfbench/tracer.py wraps all three, as attributes of immersion,
# by name.
from .flow import min_cut  # noqa: F401
from .transform import pack_arborescences, reduce_to_terminals  # noqa: F401


def cut_threshold(t: int, directed: bool) -> int:
    """Cut sizes below this value go into the decomposition."""
    if t < 2:
        raise GraphError("t must be at least 2")
    return 2 * t * (t - 1) if directed else (t - 1) ** 2


def _pattern_pairs(t: int, directed: bool) -> Iterator[tuple[int, int]]:
    for i in range(t):
        for j in range(0 if directed else i + 1, t):
            if i != j:
                yield (i, j)


def pattern_edges(t: int, directed: bool) -> list[tuple[int, int]]:
    """Edges of the pattern clique on vertices 0..t-1; ordered pairs (both
    directions) in the directed case."""
    return list(_pattern_pairs(t, directed))


@dataclass(frozen=True)
class SelectedCut:
    """One light cut-tree edge (a, b), a < b.  Its `size` edges cross
    between the blocks on a's side of the block forest and those on b's."""

    tree_edge: tuple[int, int]
    size: int


@dataclass(frozen=True)
class LaminarDecomposition:
    t: int
    directed: bool
    threshold: int
    cuts: tuple[SelectedCut, ...]
    blocks: tuple[tuple[int, ...], ...]


@dataclass
class ImmersionCertificate:
    """phi maps pattern vertex i to host vertex phi[i]; trails maps each
    pattern edge to the edge-id sequence of its host trail."""

    t: int
    directed: bool
    phi: tuple[int, ...]
    trails: dict[tuple[int, int], tuple[int, ...]]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    problem: str | None = None


def thick_star(t: int) -> MultiGraph:
    """Centre vertex 0, leaves 1..t-1, t-1 parallel edges per spoke: leaf
    l's copy k is edge (l-1)(t-1)+k."""
    if t < 2:
        raise GraphError("t must be at least 2")
    return MultiGraph.undirected(
        t, [(0, leaf) for leaf in range(1, t) for _ in range(t - 1)])


def _star_walks(t: int, directed: bool, away, toward
                ) -> dict[tuple[int, int], tuple[int, ...]]:
    """The thick star's one routing rule.  Leaf l's t-1 copies serve 0..t-1
    without l, in order, and away[l][k] and toward[l][k] are copy k's edges
    away from and toward centre 0, which has no copies.  Pattern edge (p, q)
    goes toward the centre on p's copy for q, then away on q's copy for p."""
    walks = {}
    for p, q in _pattern_pairs(t, directed):
        walk = toward[p][q - (q > p)] if p else ()
        if q:
            walk += away[q][p - (p > q)]
        walks[(p, q)] = walk
    return walks


def thick_star_route(t: int) -> ImmersionCertificate:
    """The canonical clique immersion inside thick_star(t), where each star
    edge is its own copy both ways: pattern edge (p, q) with p >= 1 rides
    leaf p's copy for q and leaf q's copy for p."""
    if t < 2:
        raise GraphError("t must be at least 2")
    copies = {leaf: [((leaf - 1) * (t - 1) + k,) for k in range(t - 1)]
              for leaf in range(1, t)}
    return ImmersionCertificate(t, False, tuple(range(t)),
                                _star_walks(t, False, copies, copies))


def _trim_to_path(host: MultiGraph, edges: Iterable[int], start: int,
                  end: int) -> list[int]:
    """Drop closed sub-walks so the edge sequence becomes a vertex-simple
    path from start to end.  Only deletes edges, so disjointness across
    trails survives."""
    seq = [start]
    pos = {start: 0}
    kept: list[int] = []
    for eid in edges:
        e = host.edge(eid)
        here = seq[-1]
        if host.directed:
            if e.tail != here:
                raise RuntimeError("trail breaks direction")
            nxt = e.head
        else:
            nxt = e.other_end(here)
        kept.append(eid)
        seq.append(nxt)
        p = pos.get(nxt)
        if p is None:
            pos[nxt] = len(seq) - 1
        else:
            for v in seq[p + 1:-1]:
                del pos[v]
            del seq[p + 1:]
            del kept[p:]
    if seq[-1] != end:
        raise RuntimeError("trail endpoint mismatch")
    return kept


def _check_terminals(g: MultiGraph, terminals) -> list[int]:
    terms = list(terminals)
    if len(terms) < 2:
        raise GraphError("need at least two terminals")
    if len(set(terms)) != len(terms):
        raise GraphError("terminals must be distinct")
    if not set(terms) <= g.vertex_set:
        raise GraphError("terminals must be vertices of the host")
    return terms


def _return_walks(d: MultiGraph, terms: list[int],
                  fan: tuple[Trail, ...]) -> dict[int, list[tuple[int, ...]]]:
    """t-1 walks from each leaf terms[l], l >= 1, back to terms[0], keyed
    by l, each following the smallest-id arc that neither the fan nor an
    earlier walk used.  Without the fan's arcs an Eulerian host is
    unbalanced only at the terminals, and only terms[0] takes in more than
    it sends out, so no walk can stop anywhere else."""
    used = {eid for tr in fan for eid in tr.edges}
    outs: dict[int, list[tuple[int, int]]] = {v: [] for v in d.vertices}
    for eid, tail, head in d.edges:
        if eid not in used and tail != head:
            outs[tail].append((eid, head))
    nxt = {v: iter(arcs) for v, arcs in outs.items()}
    walks: dict[int, list[tuple[int, ...]]] = {
        leaf: [] for leaf in range(1, len(terms))}
    for leaf, bundle in walks.items():
        for _ in range(len(terms) - 1):
            here, walk = terms[leaf], []
            while here != terms[0]:
                eid, here = next(nxt[here])
                walk.append(eid)
            bundle.append(tuple(walk))
    return walks


def _route_thick_star(g: MultiGraph, terms: list[int],
                      net: _Net | None = None) -> ImmersionCertificate:
    """Certificate with phi(i) = terms[i], routed by the thick star's rule
    (_star_walks) with centre terms[0] and leaf l at terms[l].  One fan of
    (t-1)^2 trails out of terms[0], t-1 to each leaf, gives each leaf its
    copies away from the centre, in fan order; it runs on `net`, a network
    built from g, or on a fresh one.  Its copies toward the centre are
    those trails reversed on a graph and return walks on a digraph.  Each
    walk is trimmed to a path."""
    t = len(terms)
    demands = {v: t - 1 for v in terms[1:]}
    if net is None:
        fan = menger_fan(g, terms[0], demands)
    else:
        fan = _fan(net, g, terms[0], demands)
    away = {leaf: [tr.edges for tr in fan if tr.end == terms[leaf]]
            for leaf in range(1, t)}
    if g.directed:
        toward = _return_walks(g, terms, fan)
    else:
        toward = {leaf: [tr[::-1] for tr in bundle]
                  for leaf, bundle in away.items()}
    trails = {(p, q): tuple(_trim_to_path(g, walk, terms[p], terms[q]))
              for (p, q), walk in _star_walks(t, g.directed, away,
                                              toward).items()}
    return ImmersionCertificate(t, g.directed, tuple(terms), trails)


def extract_clique_immersion(g: MultiGraph, terminals) -> ImmersionCertificate:
    """Clique immersion certificate with phi(i) = terminals[i], routed by
    the thick star's rule: each leaf's copies are fan trails out of
    terminals[0], walked forwards away from the centre and reversed toward
    it.  Feasibility is checked by the fan itself; FanInfeasible carries
    the violated cut."""
    if g.directed:
        raise GraphError("extract_clique_immersion applies to undirected hosts")
    return _route_thick_star(g, _check_terminals(g, terminals))


def extract_directed_clique_immersion(d: MultiGraph, terminals) -> ImmersionCertificate:
    """Bidirected-clique immersion certificate on an Eulerian digraph, with
    phi(i) = terminals[i], routed by the thick star's rule for every
    ordered pair: each leaf's copies are trails of the directed fan out of
    terminals[0] away from the centre and return walks toward it.

    Feasibility is checked by the fan itself; FanInfeasible carries the
    violated cut, counted by the arcs leaving its side.  Once the fan
    exists the return walks always do, since the host is Eulerian.  Two
    terminals joined only by cuts of at least 2t(t-1) edges, both
    directions counted, have t(t-1) arcs each way, so the fan exists.
    """
    if not d.directed:
        raise GraphError("extract_directed_clique_immersion applies to digraphs")
    if not d.is_eulerian():
        raise NotEulerianError("host digraph must be Eulerian")
    return _route_thick_star(d, _check_terminals(d, terminals))


def _first_large_block(g: MultiGraph, net: _Net, t: int,
                       limit: int) -> list[int] | None:
    """The t smallest members of the first block of at least t vertices,
    when that block holds the lowest vertex whose out-capacity in `net`,
    built from g, reaches `limit`; else None.

    A vertex of smaller out-capacity has a trivial cut below `limit`, so
    it is a block of its own and cannot join the root's block: the scan
    skips it, testing each vertex only as it reaches it.  The first vertex
    it keeps is the root, and every vertex below the root is a singleton.
    Each later kept vertex joins when one flow from the root, on the reset
    network and stopped at `limit`, reaches it.  On an Eulerian digraph
    every set sends out as many arcs as it takes in, so each two-way cut
    is twice the directed one: the digraph itself is scanned, with `limit`
    half the threshold, and no underlying graph is built."""
    members: list[int] = []
    for v in g.vertices:
        if net.out_capacity(v) < limit:
            continue
        if members:
            net.reset()
            if net.max_flow(members[0], v, limit=limit) < limit:
                continue
        members.append(v)
        if len(members) == t:
            return members
    return None


def _pipeline(g: MultiGraph, t: int, directed: bool):
    threshold = cut_threshold(t, directed)
    # A directed g is Eulerian (decompose_directed checks that first), so
    # its directed cuts are half its two-way cuts.
    net = _Net(g)
    terminals = _first_large_block(g, net, t,
                                   threshold // 2 if directed else threshold)
    if terminals is not None:
        return _route_thick_star(g, terminals, net)
    # The cut tree builds networks of its own, and so does the fan below.
    tree = build_gomory_hu(g.underlying() if directed else g)
    selected = [e for e in tree.edges if e.weight < threshold]
    blocks = tree.blocks_without(selected)
    large = [b for b in blocks if len(b) >= t]
    if not large:
        cuts = tuple(SelectedCut((e.a, e.b), e.weight) for e in selected)
        return LaminarDecomposition(t, directed, threshold, cuts, blocks)
    terminals = list(large[0][:t])
    if directed:
        return extract_directed_clique_immersion(g, terminals)
    return extract_clique_immersion(g, terminals)


def decompose_undirected(g: MultiGraph, t: int):
    """Laminar decomposition with cuts below (t-1)^2 and blocks below t
    vertices, or a clique immersion certificate extracted from the t
    lowest-id vertices of the first oversized block."""
    if g.directed:
        raise GraphError("decompose_undirected applies to undirected graphs")
    return _pipeline(g, t, False)


def decompose_directed(d: MultiGraph, t: int):
    """Same dichotomy for Eulerian digraphs: cuts below 2t(t-1) (both
    directions counted) or a bidirected-clique immersion certificate."""
    if not d.directed:
        raise GraphError("decompose_directed applies to digraphs")
    if not d.is_eulerian():
        raise NotEulerianError("decompose_directed needs an Eulerian digraph")
    return _pipeline(d, t, True)


# -- verification -------------------------------------------------------------

def _first(pairs: Iterator[tuple[int, int]], shown: int = 5) -> str:
    """The first `shown` pairs as a list, with "..." when more follow."""
    head = list(islice(pairs, shown + 1))
    text = ", ".join(map(repr, head[:shown]))
    return f"[{text}, ...]" if len(head) > shown else f"[{text}]"


def verify_certificate(host: MultiGraph, cert: ImmersionCertificate) -> VerificationReport:
    """Recheck a certificate from scratch: injective phi into the host, the
    full pattern present, every trail walking real host edges end to end in
    the right direction, and global edge-disjointness.  Returns the first
    violated condition with a witness."""

    def fail(msg: str) -> VerificationReport:
        return VerificationReport(False, msg)

    def in_pattern(key) -> bool:
        i, j = key
        return 0 <= i < t and 0 <= j < t and (i != j if cert.directed else i < j)

    t = cert.t
    if t < 2:
        return fail(f"pattern size {t} is below 2")
    if cert.directed != host.directed:
        return fail("certificate directedness does not match the host")
    if len(cert.phi) != t:
        return fail(f"phi has {len(cert.phi)} entries, expected {t}")
    if len(set(cert.phi)) != t:
        return fail("phi is not injective")
    for v in cert.phi:
        if v not in host.vertex_set:
            return fail(f"phi maps to unknown host vertex {v}")
    # t comes from the artifact, so the pattern is counted, not built: a
    # mismatch costs a scan of the trails and of the pattern up to the
    # first pairs it reports.
    size = t * (t - 1) if cert.directed else t * (t - 1) // 2
    if len(cert.trails) != size or not all(map(in_pattern, cert.trails)):
        missing = _first(
            k for k in _pattern_pairs(t, cert.directed) if k not in cert.trails)
        extra = _first(k for k in cert.trails if not in_pattern(k))
        return fail(f"pattern edges mismatch: missing {missing}, extra {extra}")
    used: dict[int, tuple[int, int]] = {}
    for key in sorted(cert.trails):
        trail = cert.trails[key]
        if not trail:
            return fail(f"empty trail for pattern edge {key}")
        here = cert.phi[key[0]]
        goal = cert.phi[key[1]]
        for eid in trail:
            if not host.has_edge(eid):
                return fail(f"trail for {key} uses unknown edge {eid}")
            if eid in used:
                return fail(
                    f"edge-disjointness violated: edge {eid} appears in "
                    f"{used[eid]} and {key}"
                )
            used[eid] = key
            e = host.edge(eid)
            if host.directed:
                if e.tail != here:
                    return fail(f"direction broken at edge {eid} in trail {key}")
                here = e.head
            else:
                if here not in e.ends():
                    return fail(f"trail for {key} is not connected at edge {eid}")
                here = e.other_end(here)
        if here != goal:
            return fail(f"trail for {key} ends at {here}, expected {goal}")
    return VerificationReport(True)


def verify_decomposition(g: MultiGraph,
                         dec: LaminarDecomposition) -> VerificationReport:
    """Recheck a decomposition from scratch: threshold arithmetic; blocks
    partitioning the vertex set, each inside one component with fewer than
    t vertices; each cut's tree edge (a, b) having a < b and joining two
    blocks of one component; the cuts forming one tree on each component's
    blocks; and an exact recount of each cut below threshold.

    A cut's sides are the blocks on either side of its forest edge, so the
    cuts cannot cross or repeat, and the blocks are exactly the classes
    they leave.  A cut that closes a cycle fails before any recount.  Each
    block tree is rooted at the block of its component's smallest vertex,
    and one walk per host edge, between the blocks of its two ends,
    recounts every cut at once, so the recount costs the sum of the actual
    cut sizes."""

    def fail(msg: str) -> VerificationReport:
        return VerificationReport(False, msg)

    t = dec.t
    if t < 2:
        return fail(f"t {t} is below 2")
    if dec.directed != g.directed:
        return fail("decomposition directedness does not match the graph")
    want = cut_threshold(t, g.directed)
    if dec.threshold != want:
        return fail(f"threshold {dec.threshold} should be {want}")
    parts = g.components()
    comp_of = {v: i for i, c in enumerate(parts) for v in c}
    block_of: dict[int, int] = {}
    for i, block in enumerate(dec.blocks):
        if not 0 < len(block) < t:
            return fail(f"block {block} has {len(block)} vertices, limit {t - 1}")
        home = comp_of.get(block[0])
        for v in block:
            if v in block_of or v not in comp_of:
                return fail(f"blocks do not partition the vertex set (at {v})")
            if comp_of[v] != home:
                return fail(f"block {block} meets two components")
            block_of[v] = i
    if len(block_of) != len(comp_of):
        return fail("blocks do not cover the vertex set")
    # Joined blocks share a root in a union-find, so a cut joining two
    # blocks already joined closes a cycle.
    root = list(range(len(dec.blocks)))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]     # path halving
            x = root[x]
        return x

    nbrs: list[list[tuple[int, int]]] = [[] for _ in dec.blocks]
    for idx, cut in enumerate(dec.cuts):
        a, b = cut.tree_edge
        if not (a < b and a in comp_of and b in comp_of):
            return fail(f"cut {idx} tree edge {cut.tree_edge} is not two "
                        f"increasing vertices")
        if comp_of[a] != comp_of[b]:
            return fail(f"cut {idx} tree edge {cut.tree_edge} joins two components")
        x, y = block_of[a], block_of[b]
        if x == y:
            return fail(f"cut {idx} tree edge {cut.tree_edge} lies in one block")
        nbrs[x].append((y, idx))
        nbrs[y].append((x, idx))
        x, y = find(x), find(y)
        if x == y:
            return fail(f"cut {idx} closes a cycle of cuts")
        root[x] = y
    # Without cycles, and with every cut inside a component, this many
    # cuts make each component's blocks one tree.
    if len(dec.cuts) != len(dec.blocks) - len(parts):
        return fail(f"{len(dec.cuts)} cuts for {len(dec.blocks)} blocks in "
                    f"{len(parts)} components")
    # Each block's parent block, the cut between them, and its depth.
    up = [0] * len(dec.blocks)
    via = [0] * len(dec.blocks)
    depth = [-1] * len(dec.blocks)
    for comp in parts:
        order = [block_of[comp[0]]]
        depth[order[0]] = 0
        for x in order:
            for y, idx in nbrs[x]:
                if depth[y] < 0:
                    up[y], via[y], depth[y] = x, idx, depth[x] + 1
                    order.append(y)
    # An edge crosses exactly the cuts on the tree path between its ends'
    # blocks: those passed stepping up from the deeper end until the two
    # meet.
    crossing = [0] * len(dec.cuts)
    for _, tail, head in g.edges:
        x, y = block_of[tail], block_of[head]
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            crossing[via[x]] += 1
            x = up[x]
    for idx, cut in enumerate(dec.cuts):
        size = crossing[idx]
        if size != cut.size:
            return fail(
                f"cut {idx} recount mismatch: recorded {cut.size}, actual {size}"
            )
        if size >= want:
            return fail(f"cut {idx} has size {size}, not below {want}")
    return VerificationReport(True)


# -- exhaustive oracle --------------------------------------------------------

def brute_force_immersion(t: int, host: MultiGraph, *,
                          max_edges: int = 12) -> ImmersionCertificate | None:
    """Exhaustive immersion search, independent of the pipelines: try every
    injective placement and assign vertex-simple, pairwise edge-disjoint
    paths by backtracking.  Guarded to hosts with at most `max_edges`
    non-loop edges."""
    if t < 2:
        raise GraphError("t must be at least 2")
    real = [e for e in host.edges if not e.is_loop()]
    if len(real) > max_edges:
        raise UnsupportedSizeError(
            f"oracle refuses hosts with more than {max_edges} non-loop edges"
        )
    pattern = pattern_edges(t, host.directed)
    if len(pattern) > len(real):
        return None
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in host.vertices}
    din: dict[int, int] = {v: 0 for v in host.vertices}
    dout: dict[int, int] = {v: 0 for v in host.vertices}
    for e in real:
        adj[e.tail].append((e.id, e.head))
        dout[e.tail] += 1
        din[e.head] += 1
        if not host.directed:
            adj[e.head].append((e.id, e.tail))
    for v in adj:
        adj[v].sort()
    if host.directed:
        cand = [v for v in host.vertices
                if din[v] >= t - 1 and dout[v] >= t - 1]
    else:
        cand = [v for v in host.vertices if din[v] + dout[v] >= t - 1]
    if len(cand) < t:
        return None
    used: set[int] = set()

    def paths(v, goal, visited, acc):
        # Among unused parallels to the same next vertex only the lowest id
        # is tried; parallels are interchangeable across any solution.
        tried: set[int] = set()
        for eid, w in adj[v]:
            if eid in used or w in tried or w in visited:
                continue
            tried.add(w)
            if w == goal:
                yield acc + [eid]
            else:
                visited.add(w)
                acc.append(eid)
                yield from paths(w, goal, visited, acc)
                acc.pop()
                visited.discard(w)

    def place(combo, k, trails):
        if k == len(pattern):
            return True
        i, j = pattern[k]
        for path in paths(combo[i], combo[j], {combo[i]}, []):
            used.update(path)
            trails[(i, j)] = tuple(path)
            if place(combo, k + 1, trails):
                return True
            used.difference_update(path)
        trails.pop((i, j), None)
        return False

    for combo in combinations(cand, t):
        trails: dict[tuple[int, int], tuple[int, ...]] = {}
        used.clear()
        if place(combo, 0, trails):
            return ImmersionCertificate(t, host.directed, tuple(combo), trails)
    return None


# -- serialization ------------------------------------------------------------

def outcome_to_json(outcome) -> dict:
    """JSON-compatible form of a pipeline outcome; a ``kind`` field
    discriminates the two."""
    if isinstance(outcome, ImmersionCertificate):
        return {
            "kind": "certificate",
            "t": outcome.t,
            "directed": outcome.directed,
            "phi": list(outcome.phi),
            "trails": [
                {"u": u, "v": v, "edges": list(outcome.trails[(u, v)])}
                for u, v in sorted(outcome.trails)
            ],
        }
    if isinstance(outcome, LaminarDecomposition):
        return {
            "kind": "decomposition",
            "t": outcome.t,
            "directed": outcome.directed,
            "threshold": outcome.threshold,
            "cuts": [{"tree_edge": list(c.tree_edge), "size": c.size}
                     for c in outcome.cuts],
            "blocks": [list(b) for b in outcome.blocks],
        }
    raise GraphError(f"cannot serialize {type(outcome).__name__}")


def _int(x) -> int:
    # int() would accept 2.7, "3" and True; a JSON integer must be an int.
    if type(x) is not int:
        raise GraphError(f"malformed artifact document: {x!r} is not an integer")
    return x


def _ints(xs):
    # One type test per list; the scan only names the first bad value.
    if not set(map(type, xs)) <= {int}:
        for x in xs:
            _int(x)
    return xs


def _bool(x) -> bool:
    if type(x) is not bool:
        raise GraphError(f"malformed artifact document: {x!r} is not a boolean")
    return x


def _pair(x) -> tuple[int, int]:
    if len(x) != 2:
        raise GraphError(f"malformed artifact document: {x!r} is not a pair")
    return (_int(x[0]), _int(x[1]))


def outcome_from_json(obj) -> ImmersionCertificate | LaminarDecomposition:
    """Inverse of outcome_to_json.  Strict: integer fields must be JSON
    integers, ``directed`` a JSON boolean, and no pattern edge may carry two
    trails; anything else raises GraphError."""
    try:
        kind = obj["kind"]
        if kind == "certificate":
            trails = {}
            for row in obj["trails"]:
                key = (_int(row["u"]), _int(row["v"]))
                if key in trails:
                    raise GraphError(
                        f"malformed artifact document: two trails for {key}"
                    )
                trails[key] = tuple(_ints(row["edges"]))
            return ImmersionCertificate(
                _int(obj["t"]), _bool(obj["directed"]),
                tuple(_ints(obj["phi"])), trails,
            )
        if kind == "decomposition":
            # Keys a cut does not name, such as the side/other lists of
            # older artifacts, are neither read nor trusted.
            cuts = tuple(SelectedCut(_pair(c["tree_edge"]), _int(c["size"]))
                         for c in obj["cuts"])
            blocks = tuple(map(tuple, obj["blocks"]))
            _ints(tuple(chain.from_iterable(blocks)))     # one test for all
            return LaminarDecomposition(
                _int(obj["t"]), _bool(obj["directed"]), _int(obj["threshold"]),
                cuts, blocks,
            )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise GraphError(f"malformed artifact document: {exc}") from None
    raise GraphError(f"unknown artifact kind {obj.get('kind')!r}")
