"""Finite simple graphs and the operations labelings get pushed through.

Vertices are 0..n-1; edges are kept as a sorted tuple of (min, max)
pairs so iteration order is canonical everywhere.  Optional vertex
names record provenance through operations (product pairs, copy
indices, edge vertices) and are excluded from equality.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from functools import cached_property
from itertools import combinations, product as iproduct

from ._record import Record
from .graph6 import decode_graph6, encode_graph6

__all__ = [
    "Graph", "GraphError", "DuplicateEdgeWarning",
    "build", "parse_graph6", "write_graph6",
    "complete_graph", "path_graph", "cycle_graph", "star_graph", "empty_graph",
    "is_bipartite", "BipartitenessResult",
    "complement", "union", "UnionResult", "join",
    "product", "PRODUCT_KINDS", "pair_id",
    "corona", "rooted_product",
    "line_graph", "LineGraphResult", "total_graph", "TotalGraphResult",
    "subdivide_edge", "contract_edge", "ContractionResult",
    "induced_subgraph", "SubgraphResult",
    "enumerate_graphs", "MAX_ENUMERATION_VERTICES", "to_dot",
]


class GraphError(ValueError):
    """Structurally invalid graph input."""


class DuplicateEdgeWarning(UserWarning):
    """Duplicate edges in input were collapsed."""


MAX_ENUMERATION_VERTICES = 6


class Graph(Record, uncompared=("names",)):
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    names: tuple[str, ...] | None = None

    def __init__(self, vertex_count: int, edges=(), names=None):
        if vertex_count < 0:
            raise GraphError(f"negative vertex count {vertex_count}")
        canon = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge ({u},{v}) out of range for n={vertex_count}")
            canon.add((min(u, v), max(u, v)))
        if names is not None:
            names = tuple(names)
            if len(names) != vertex_count:
                raise GraphError("names length must equal vertex count")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        object.__setattr__(self, "names", names)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Each vertex's neighbourhood as a bitmask: bit w of masks[v] is
        set exactly when vw is an edge."""
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adjacent = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adjacent[u].append(v)
            adjacent[v].append(u)
        return tuple(map(frozenset, adjacent))

    @cached_property
    def bfs(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(order, parent, depth) of one breadth-first search of every
        component, in order of their least vertices, each rooted there.
        Each vertex's unseen neighbours are queued in ascending order.  A
        root has parent -1 and depth 0, so depth counts 0 once per
        component."""
        n, masks = self.vertex_count, self.masks
        parent, depth = [-1] * n, [0] * n
        order, seen = [], 0
        for root in range(n):
            if seen >> root & 1:
                continue
            seen |= 1 << root
            queue = [root]
            for v in queue:
                fresh = masks[v] & ~seen
                seen |= fresh
                for w in bits(fresh):
                    parent[w], depth[w] = v, depth[v] + 1
                    queue.append(w)
            order += queue
        return tuple(order), tuple(parent), tuple(depth)

    @cached_property
    def _graph6(self) -> str:
        return encode_graph6(self.vertex_count, self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge; any id outside 0..n-1 gives False."""
        return 0 <= u < self.vertex_count and v in self.adjacency[u]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def name_of(self, v: int) -> str:
        return self.names[v] if self.names else str(v)

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices() if not self.adjacency[v])

    def is_connected(self) -> bool:
        """At most one component.  Kept as the reference that TestEnumerate
        checks enumerate_graphs' cut rule for connected_only against."""
        return self.bfs[2].count(0) <= 1


def bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _trusted(vertex_count: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    """Graph() of edges already distinct, in range and sorted, without re-checking,
    in one dict update rather than three frozen-field setattr calls."""
    g = object.__new__(Graph)
    g.__dict__.update(vertex_count=vertex_count, edges=edges, names=None)
    return g


def build(vertex_count: int, edges) -> Graph:
    """Validate user input and return a canonical Graph.

    Duplicate edges (either orientation) are collapsed with a warning.
    """
    seen = set()
    dupes = []
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            dupes.append(key)
        seen.add(key)
    if dupes:
        warnings.warn(
            f"collapsed duplicate edges: {sorted(set(dupes))}", DuplicateEdgeWarning,
            stacklevel=2,
        )
    return Graph(vertex_count, tuple(seen))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string.

    The graph keeps text as its encoding, so write_graph6 returns it
    without re-encoding: the strict decoder accepts only the canonical
    string of a graph, the one encode_graph6 writes.
    """
    n, edges = decode_graph6(text)
    g = _trusted(n, tuple(sorted(edges)))
    g.__dict__["_graph6"] = text
    return g


def write_graph6(g: Graph) -> str:
    """Encode a graph canonically; parse_graph6(write_graph6(g)) == g.

    The encoding is kept on g, so each graph is encoded at most once.
    """
    return g._graph6


# ---------------------------------------------------------------------------
# named graphs

def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


# ---------------------------------------------------------------------------
# bipartiteness

class BipartitenessResult(Record):
    bipartite: bool
    coloring: tuple[int, ...] | None
    odd_cycle: tuple[int, ...] | None


def is_bipartite(g: Graph) -> BipartitenessResult:
    """2-color by depth parity in g.bfs; on failure return an odd cycle
    as certificate, closed by the first edge in BFS order, each vertex's
    neighbours ascending, whose two ends have equal depth.

    The cycle is a vertex sequence whose consecutive pairs, and the
    closing pair, are all edges; its length is odd.
    """
    order, parent, depth = g.bfs
    for v in order:
        for w in bits(g.masks[v]):
            if depth[w] == depth[v]:
                return BipartitenessResult(False, None, _odd_cycle(parent, v, w))
    return BipartitenessResult(True, tuple(d & 1 for d in depth), None)


def _odd_cycle(parent: tuple[int, ...], v: int, w: int) -> tuple[int, ...]:
    """The odd cycle that edge vw closes through the lowest common BFS
    ancestor of v and w, from it down to v, then w up to below it.  v and
    w have equal depth, so their paths up meet in the same step."""
    up_v, up_w = [v], [w]
    while up_v[-1] != up_w[-1]:
        up_v.append(parent[up_v[-1]])
        up_w.append(parent[up_w[-1]])
    return tuple(reversed(up_v)) + tuple(up_w[:-1])


# ---------------------------------------------------------------------------
# unary and binary operations

def complement(g: Graph) -> Graph:
    edges = tuple(p for p in combinations(range(g.vertex_count), 2) if not g.has_edge(*p))
    return Graph(g.vertex_count, edges, names=g.names)


class UnionResult(Record):
    graph: Graph
    map_first: tuple[int, ...]
    map_second: tuple[int, ...]


def union(g1: Graph, g2: Graph, shared: dict[int, int] | None = None) -> UnionResult:
    """Union with an optional injective correspondence g2-vertex -> g1-vertex.

    First-operand vertices keep their ids; unshared second-operand
    vertices are appended in ascending order.
    """
    shared = dict(shared or {})
    for j, i in shared.items():
        if not (0 <= j < g2.vertex_count and 0 <= i < g1.vertex_count):
            raise GraphError(f"correspondence {j}->{i} out of range")
    if len(set(shared.values())) != len(shared):
        raise GraphError("correspondence must be injective")
    map1 = tuple(range(g1.vertex_count))
    map2 = []
    fresh = g1.vertex_count
    for j in range(g2.vertex_count):
        if j in shared:
            map2.append(shared[j])
        else:
            map2.append(fresh)
            fresh += 1
    edges = list(g1.edges) + [(map2[u], map2[v]) for u, v in g2.edges]
    names = None
    if g1.names or g2.names:
        names = [g1.name_of(i) for i in range(g1.vertex_count)]
        names += [g2.name_of(j) for j in range(g2.vertex_count) if j not in shared]
    return UnionResult(Graph(fresh, edges, names=names), map1, tuple(map2))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges; second operand shifted by n1."""
    n1 = g1.vertex_count
    edges = list(g1.edges)
    edges += [(u + n1, v + n1) for u, v in g2.edges]
    edges += [(i, j + n1) for i in range(n1) for j in range(g2.vertex_count)]
    names = None
    if g1.names or g2.names:
        names = [g1.name_of(i) for i in range(n1)]
        names += [g2.name_of(j) for j in range(g2.vertex_count)]
    return Graph(n1 + g2.vertex_count, edges, names=names)


PRODUCT_KINDS = ("cartesian", "direct", "strong", "lexicographic")


def pair_id(i: int, j: int, n2: int) -> int:
    """Row-major id of product vertex (i, j)."""
    return i * n2 + j


def product(kind: str, g1: Graph, g2: Graph) -> Graph:
    """Cartesian, direct (tensor), strong, or lexicographic product.

    Lexicographic uses the standard rule: (a,b)~(c,d) iff a~c, or a=c
    and b~d.  Vertex (i, j) gets id i*n2 + j.
    """
    if kind not in PRODUCT_KINDS:
        raise GraphError(f"unknown product kind {kind!r}")
    if g1.vertex_count == 0 or g2.vertex_count == 0:
        raise GraphError("product operands must be non-empty")
    n2 = g2.vertex_count
    edges = []
    # row-major order, so each pair comes out with the smaller id first
    for (a, b), (c, d) in combinations(iproduct(g1.vertices(), g2.vertices()), 2):
        adj1 = g1.has_edge(a, c)
        adj2 = g2.has_edge(b, d)
        if kind == "cartesian":
            hit = (a == c and adj2) or (adj1 and b == d)
        elif kind == "direct":
            hit = adj1 and adj2
        elif kind == "strong":
            hit = (a == c and adj2) or (adj1 and b == d) or (adj1 and adj2)
        else:
            hit = adj1 or (a == c and adj2)
        if hit:
            edges.append((pair_id(a, b, n2), pair_id(c, d, n2)))
    names = tuple(
        f"({g1.name_of(i)},{g2.name_of(j)})"
        for i in g1.vertices() for j in g2.vertices()
    )
    return Graph(g1.vertex_count * n2, edges, names=names)


def corona(g1: Graph, g2: Graph) -> Graph:
    """One copy of g2 per vertex of g1, that vertex joined to its copy.

    Copy i (1-based, matching the labeling multiplier) of vertex j gets
    id n1 + (i-1)*n2 + j.
    """
    if g1.vertex_count == 0:
        raise GraphError("corona first operand must be non-empty")
    n1, n2 = g1.vertex_count, g2.vertex_count
    edges = list(g1.edges)
    names = [g1.name_of(i) for i in range(n1)]
    for i in range(n1):
        base = n1 + i * n2
        edges += [(base + u, base + v) for u, v in g2.edges]
        edges += [(i, base + j) for j in range(n2)]
        names += [f"{i + 1}:{g2.name_of(j)}" for j in range(n2)]
    return Graph(n1 + n1 * n2, edges, names=names)


def rooted_product(g1: Graph, g2: Graph, root: int) -> Graph:
    """Attach copy i of g2 to vertex i of g1 by identifying the root.

    Vertex i of g1 doubles as the root of copy i; non-root vertex j of
    copy i gets id n1 + i*(n2-1) + rank(j) with ranks over the sorted
    non-root vertices of g2.
    """
    if not (0 <= root < g2.vertex_count):
        raise GraphError(f"root {root} out of range")
    n1, n2 = g1.vertex_count, g2.vertex_count
    others = [j for j in range(n2) if j != root]
    rank = {j: r for r, j in enumerate(others)}
    edges = list(g1.edges)
    names = [g1.name_of(i) for i in range(n1)]
    for i in range(n1):
        def local(j: int, i=i) -> int:
            return i if j == root else n1 + i * (n2 - 1) + rank[j]
        edges += [(local(u), local(v)) for u, v in g2.edges]
    for i in range(n1):
        names += [f"{i}/{g2.name_of(j)}" for j in others]
    return Graph(n1 + n1 * (n2 - 1), edges, names=names)


class LineGraphResult(Record):
    graph: Graph
    vertex_edges: tuple[tuple[int, int], ...]   # line-graph vertex k <-> this edge


def line_graph(g: Graph) -> LineGraphResult:
    """Vertices are edges of g; adjacency is sharing an endpoint."""
    base = g.edges
    edges = []
    for k, (u, v) in enumerate(base):
        for l in range(k + 1, len(base)):
            x, y = base[l]
            if u in (x, y) or v in (x, y):
                edges.append((k, l))
    names = tuple(f"{u}-{v}" for u, v in base)
    return LineGraphResult(Graph(len(base), edges, names=names), base)


class TotalGraphResult(Record):
    graph: Graph
    vertex_part: tuple[int, ...]               # ids carrying original vertices
    edge_part: tuple[int, ...]                 # ids carrying original edges
    vertex_edges: tuple[tuple[int, int], ...]  # edge behind each edge-part id


def total_graph(g: Graph) -> TotalGraphResult:
    """Vertices are V(g) + E(g); adjacency, edge adjacency, incidence."""
    n = g.vertex_count
    base = g.edges
    edges = list(base) + [(n + k, n + l) for k, l in line_graph(g).graph.edges]
    for k, (u, v) in enumerate(base):
        edges.append((u, n + k))
        edges.append((v, n + k))
    names = tuple(g.name_of(i) for i in range(n)) + tuple(f"{u}-{v}" for u, v in base)
    return TotalGraphResult(
        Graph(n + len(base), edges, names=names),
        tuple(range(n)),
        tuple(range(n, n + len(base))),
        base,
    )


def subdivide_edge(g: Graph, edge: tuple[int, int]) -> Graph:
    """Replace edge uv by a path u-w-v; w is the new last vertex."""
    u, v = min(edge), max(edge)
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not in graph")
    w = g.vertex_count
    edges = [e for e in g.edges if e != (u, v)] + [(u, w), (v, w)]
    names = None
    if g.names:
        names = list(g.names) + [f"{u}-{v}"]
    return Graph(w + 1, edges, names=names)


class ContractionResult(Record):
    graph: Graph
    vertex_map: tuple[int, ...]   # old id -> new id; both endpoints map together


def contract_edge(g: Graph, edge: tuple[int, int]) -> ContractionResult:
    """Merge the endpoints of an edge; simple quotient, no loops or multiedges."""
    u, v = min(edge), max(edge)
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not in graph")
    vmap = []
    for x in g.vertices():
        if x == v:
            vmap.append(u)
        elif x > v:
            vmap.append(x - 1)
        else:
            vmap.append(x)
    # only uv itself maps to a loop; Graph collapses the parallel pairs
    edges = [(vmap[x], vmap[y]) for x, y in g.edges if (x, y) != (u, v)]
    return ContractionResult(Graph(g.vertex_count - 1, edges), tuple(vmap))


class SubgraphResult(Record):
    graph: Graph
    kept: tuple[int, ...]   # new id k <-> old id kept[k]


def induced_subgraph(g: Graph, vertices) -> SubgraphResult:
    """Subgraph induced by a vertex subset, relabeled to 0..k-1."""
    kept = tuple(sorted(set(vertices)))
    for v in kept:
        if not (0 <= v < g.vertex_count):
            raise GraphError(f"vertex {v} out of range")
    back = {old: new for new, old in enumerate(kept)}
    edges = [(back[u], back[v]) for u, v in g.edges if u in back and v in back]
    names = tuple(g.name_of(v) for v in kept) if g.names else None
    return SubgraphResult(Graph(len(kept), edges, names=names), kept)


# ---------------------------------------------------------------------------
# enumeration and export

def enumerate_graphs(
    n: int,
    connected_only: bool = False,
    skip_isolated: bool = False,
) -> Iterator[Graph]:
    """All labeled graphs on n vertices, ascending by edge bitmask.

    Bit k of the mask is the k-th pair in lexicographic order.  The low
    C(n,2) // 2 bits and the rest are two half-masks, each with its edge
    tuple and covered vertices tabulated; masks run high-major, so they
    stay ascending.  A graph is disconnected exactly when some S holding
    vertex 0, not all of V, has no edge leaving it, so a low half must
    cross every such cut that its high half leaves open.  The cap guards
    against runaway enumeration; larger corpora should come from a
    graph6 file instead.
    """
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    if n > MAX_ENUMERATION_VERTICES:
        raise GraphError(f"n={n} exceeds enumeration cap {MAX_ENUMERATION_VERTICES}")
    pairs = tuple(combinations(range(n), 2))
    low = len(pairs) // 2
    low_edges, low_cover = _half_table(pairs[:low])
    high_edges, high_cover = _half_table(pairs[low:])
    everyone = (1 << n) - 1
    crossed = (sum(1 << k for k, (u, v) in enumerate(pairs) if (s >> u ^ s >> v) & 1)
               for s in range(1, everyone, 2))      # the pairs each S above separates
    cuts = [(c & ((1 << low) - 1), c >> low) for c in crossed] if connected_only else []
    for h, high in enumerate(high_edges):
        open_cuts = [c for c, hc in cuts if not h & hc]
        if 0 in open_cuts:               # a cut no low half can cross
            continue
        for l, edges in enumerate(low_edges):
            if skip_isolated and low_cover[l] | high_cover[h] != everyone:
                continue
            for c in open_cuts:
                if not l & c:
                    break
            else:
                yield _trusted(n, edges + high)


def _half_table(pairs):
    """Edge tuple and covered-vertex mask of every mask over pairs."""
    edges, cover = [()], [0]
    for pair in pairs:                   # the masks with this bit: those below it, plus pair
        ends = 1 << pair[0] | 1 << pair[1]
        edges += [e + (pair,) for e in edges]
        cover += [c | ends for c in cover]
    return edges, cover


def to_dot(g: Graph) -> str:
    """DOT text listing every vertex (isolated ones included) and edge."""
    lines = ["graph G {"]
    for v in g.vertices():
        lines.append(f'  {v} [label="{g.name_of(v)}"];')
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
