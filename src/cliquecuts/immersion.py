"""Decompose-or-certify pipelines over multigraphs and Eulerian digraphs.

For a target clique order t, the undirected pipeline either returns a
laminar family of edge cuts all smaller than (t-1)^2 whose blocks have
fewer than t vertices, or an explicit immersion certificate for the
complete graph on t vertices: an injective vertex map plus pairwise
edge-disjoint trails.  The directed pipeline does the same on Eulerian
digraphs with threshold 2t(t-1) and the bidirected clique as pattern.

The certificate's terminals are the t smallest members of the first block
of at least t vertices, a block being a class of "min cut >= threshold".
When the t lowest vertices of the host share a block, t-1 flows capped at
the threshold show it and no cut tree is built; otherwise the cut tree
gives the blocks.  Either way the certificate is routed through one Menger
fan out of the first terminal, which checks its own feasibility.

A returned decomposition never claims that no immersion exists; only the
certificate direction is definite.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator, Mapping

from .flow import Trail, _net_for, menger_fan
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
    tree_edge: tuple[int, int]
    side: frozenset
    other: frozenset
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


@dataclass(frozen=True)
class ThickStar:
    """A star whose every spoke is a bundle of t-1 parallel edges.  Bundle
    label (j, i) names the copy in leaf j's bundle reserved for routing to
    pattern vertex i (1-based positions, leaf positions run 2..t)."""

    t: int
    graph: MultiGraph
    labels: Mapping[tuple[int, int], int]


def thick_star(t: int) -> ThickStar:
    """Center vertex 0, leaves 1..t-1, t-1 parallel edges per spoke."""
    if t < 2:
        raise GraphError("t must be at least 2")
    pairs = []
    labels: dict[tuple[int, int], int] = {}
    for j in range(2, t + 1):
        for i in range(1, t + 1):
            if i == j:
                continue
            labels[(j, i)] = len(pairs)
            pairs.append((0, j - 1))
    return ThickStar(t, MultiGraph.undirected(t, pairs), labels)


def thick_star_route(t: int) -> ImmersionCertificate:
    """The canonical clique immersion inside thick_star(t): spoke copies
    labelled for the far endpoint meet at the center, so pattern edge (p, q)
    with p >= 1 rides leaf p+1's copy for q+1 and leaf q+1's copy for p+1."""
    star = thick_star(t)
    trails: dict[tuple[int, int], tuple[int, ...]] = {}
    for q in range(1, t):
        trails[(0, q)] = (star.labels[(q + 1, 1)],)
    for p in range(1, t):
        for q in range(p + 1, t):
            trails[(p, q)] = (star.labels[(p + 1, q + 1)],
                              star.labels[(q + 1, p + 1)])
    return ImmersionCertificate(t, False, tuple(range(t)), trails)


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
                raise GraphError("internal: trail breaks direction")
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
        raise GraphError("internal: trail endpoint mismatch")
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
    """t-1 walks from each terminal but terms[0] back to it, each following
    the smallest-id arc that neither the fan nor an earlier walk used.
    Without the fan's arcs an Eulerian host is unbalanced only at the
    terminals, and only terms[0] takes in more than it sends out, so no
    walk can stop anywhere else."""
    used = {eid for tr in fan for eid in tr.edges}
    outs: dict[int, list[tuple[int, int]]] = {v: [] for v in d.vertices}
    for e in d.edges:
        if e.id not in used and not e.is_loop():
            outs[e.tail].append((e.id, e.head))
    nxt = {v: iter(arcs) for v, arcs in outs.items()}
    walks: dict[int, list[tuple[int, ...]]] = {q: [] for q in terms[1:]}
    for q in terms[1:]:
        for _ in range(len(terms) - 1):
            here, walk = q, []
            while here != terms[0]:
                eid, here = next(nxt[here])
                walk.append(eid)
            walks[q].append(tuple(walk))
    return walks


def _route_thick_star(g: MultiGraph, terms: list[int]) -> ImmersionCertificate:
    """Certificate with phi(i) = terms[i] through thick_star(t), centre
    terms[0] and leaf l terms[l].  The fan of (t-1)^2 trails out of
    terms[0], t-1 to each leaf, gives each star edge its copy away from the
    centre; its copy toward the centre is that trail reversed on a graph
    and a return walk on a digraph.  thick_star_route(t) is walked through
    those copies, both ways on a digraph, and trimmed to paths."""
    t = len(terms)
    fan = menger_fan(g, terms[0], {v: t - 1 for v in terms[1:]})
    away = {v: [tr.edges for tr in fan if tr.end == v] for v in terms[1:]}
    if g.directed:
        toward = _return_walks(g, terms, fan)
    else:
        toward = {v: [tr[::-1] for tr in bundle] for v, bundle in away.items()}
    star = thick_star(t)
    # A leaf's spokes take its terminal's two copies in order.
    copies = {v: iter(zip(away[v], toward[v])) for v in terms[1:]}
    spoke = {e.id: next(copies[terms[e.head]]) for e in star.graph.edges}
    route = thick_star_route(t).trails
    if g.directed:
        route = {**route, **{(q, p): tr[::-1] for (p, q), tr in route.items()}}
    trails: dict[tuple[int, int], tuple[int, ...]] = {}
    for (p, q), star_trail in route.items():
        here, walk = p, []
        for k in star_trail:
            walk.extend(spoke[k][0] if here == 0 else spoke[k][1])
            here = star.graph.edge(k).other_end(here)
        trails[(p, q)] = tuple(_trim_to_path(g, walk, terms[p], terms[q]))
    return ImmersionCertificate(t, g.directed, tuple(terms), trails)


def extract_clique_immersion(g: MultiGraph, terminals) -> ImmersionCertificate:
    """Clique immersion certificate with phi(i) = terminals[i]: each
    thick_star(t) edge rides one trail of the fan out of terminals[0],
    forwards from the centre and reversed from the leaf.  Feasibility is
    checked by the fan itself; FanInfeasible carries the violated cut."""
    if g.directed:
        raise GraphError("extract_clique_immersion applies to undirected hosts")
    return _route_thick_star(g, _check_terminals(g, terminals))


def extract_directed_clique_immersion(d: MultiGraph, terminals) -> ImmersionCertificate:
    """Bidirected-clique immersion certificate on an Eulerian digraph, with
    phi(i) = terminals[i]: each thick-star edge rides a trail of the
    directed fan out of terminals[0] away from it and a return walk toward
    it, and each pattern edge of thick_star_route(t) is walked both ways.

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


def _lowest_block(g: MultiGraph, t: int, threshold: int) -> list[int] | None:
    """The t lowest vertices of g when they share a block, else None.

    Minimum cuts are ultrametric, lambda(u, w) >= min(lambda(u, v),
    lambda(v, w)), so they share a block exactly when each is joined to
    the lowest by a cut of at least threshold.  That block is then the
    first, and they are its t smallest members.  The t-1 flows run on one
    network, each stopped at threshold."""
    low = list(g.vertices[:t])
    if len(low) < t:
        return None
    net = _net_for(g)
    for v in low[1:]:
        net.reset()
        if net.max_flow(low[0], v, limit=threshold) < threshold:
            return None
    return low


def _pipeline(g: MultiGraph, t: int, directed: bool):
    threshold = cut_threshold(t, directed)
    und = g.underlying() if directed else g
    terminals = _lowest_block(und, t, threshold)
    if terminals is None:
        tree = build_gomory_hu(und)
        selected = [e for e in tree.edges if e.weight < threshold]
        blocks = tree.blocks_without(selected)
        large = [b for b in blocks if len(b) >= t]
        if not large:
            cuts = []
            for e in selected:
                side, other = tree.fundamental_partition(e)
                cuts.append(SelectedCut((e.a, e.b), side, other, e.weight))
            return LaminarDecomposition(t, directed, threshold, tuple(cuts),
                                        blocks)
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
    """Recheck a decomposition from scratch: threshold arithmetic, each cut
    splitting one component with its tree edge joining the two sides,
    laminarity with no cut listed twice, an exact recount of each cut
    below threshold, blocks partitioning the vertex set with fewer than t
    vertices each, and the blocks being exactly the classes left after all
    the cuts.

    The laminarity pass leaves the cuts' inner sides as a forest, and one
    walk per host edge, between the innermost sides of its two ends,
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
    comps = [frozenset(c) for c in parts]
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    vset = g.vertex_set
    # Each cut's side that avoids its component's smallest vertex.
    inner: list[frozenset] = []
    for idx, cut in enumerate(dec.cuts):
        x, y = cut.side, cut.other
        both = x | y
        if not x or not y or not x.isdisjoint(y) or not both <= vset:
            return fail(f"cut {idx} has a malformed bipartition")
        ci = comp_of[next(iter(x))]
        if both != comps[ci]:
            return fail(f"cut {idx} does not split a single component")
        a, b = cut.tree_edge
        if a not in x or b not in y:
            return fail(f"cut {idx} tree edge {cut.tree_edge} does not run "
                        f"from its side to its other side")
        inner.append(y if parts[ci][0] in x else x)
    # Two cuts of one component are uncrossed exactly when their inner
    # sides are nested or disjoint, and inner sides of different
    # components are disjoint.  Taken largest first, a side that keeps the
    # family laminar lies inside the innermost earlier side of any one of
    # its vertices, so all its vertices must agree on that side.
    innermost: dict[int, int] = {}
    # The innermost earlier side holding each side is its parent; None,
    # at depth -1, is the root of every component.
    parent: dict[int, int | None] = {}
    depth: dict[int | None, int] = {None: -1}
    for i in sorted(range(len(inner)), key=lambda i: -len(inner[i])):
        side = inner[i]
        owners = {innermost.get(v) for v in side}
        if len(owners) > 1:
            v = min(side)
            w = min(u for u in side if innermost.get(u) != innermost.get(v))
            # An earlier side holding only one of v and w meets this one
            # and is no smaller, so the two cross.
            j = next(k for k in (innermost.get(v), innermost.get(w))
                     if k is not None and not {v, w} <= inner[k])
            return fail(f"cuts {min(i, j)} and {max(i, j)} cross")
        j = owners.pop()
        if j is not None and len(inner[j]) == len(side):
            return fail(f"cuts {j} and {i} are the same cut")
        parent[i] = j
        depth[i] = depth[j] + 1
        for v in side:
            innermost[v] = i
    # An edge crosses exactly the inner sides that hold one end but not
    # the other: those passed stepping up from its ends' innermost sides,
    # the deeper first, until the two meet.
    crossing = [0] * len(inner)
    for _, tail, head in g.edges:
        a, b = innermost.get(tail), innermost.get(head)
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            crossing[a] += 1
            a = parent[a]
    for idx, cut in enumerate(dec.cuts):
        size = crossing[idx]
        if size != cut.size:
            return fail(
                f"cut {idx} recount mismatch: recorded {cut.size}, actual {size}"
            )
        if size >= want:
            return fail(f"cut {idx} has size {size}, not below {want}")
    seen: set[int] = set()
    for block in dec.blocks:
        if len(block) >= t:
            return fail(f"block {block} has {len(block)} vertices, limit {t - 1}")
        for v in block:
            if v not in vset or v in seen:
                return fail(f"blocks do not partition the vertex set (at {v})")
            seen.add(v)
    if seen != vset:
        return fail("blocks do not cover the vertex set")
    # A vertex's innermost side names every side that holds it.
    classes: dict[tuple, set] = {}
    for v in vset:
        classes.setdefault((comp_of[v], innermost.get(v)), set()).add(v)
    if {frozenset(b) for b in dec.blocks} != {frozenset(c) for c in classes.values()}:
        return fail("blocks do not match the classes induced by the cuts")
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
            "cuts": [
                {
                    "tree_edge": list(c.tree_edge),
                    "size": c.size,
                    "side": sorted(c.side),
                    "other": sorted(c.other),
                }
                for c in outcome.cuts
            ],
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
            cuts = tuple(
                SelectedCut(
                    _pair(c["tree_edge"]),
                    frozenset(_ints(c["side"])),
                    frozenset(_ints(c["other"])),
                    _int(c["size"]),
                )
                for c in obj["cuts"]
            )
            blocks = tuple(tuple(_ints(b)) for b in obj["blocks"])
            return LaminarDecomposition(
                _int(obj["t"]), _bool(obj["directed"]), _int(obj["threshold"]),
                cuts, blocks,
            )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise GraphError(f"malformed artifact document: {exc}") from None
    raise GraphError(f"unknown artifact kind {obj.get('kind')!r}")
