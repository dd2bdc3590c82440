"""Deterministic labeling constructors with verify-then-repair.

Direct constructions (powers of two, bipartite splits, shifted
arithmetic progressions) are proven injective and never need repair.
Labelings induced through graph operations follow the operand formulas
first; if vertex labels collide, the colliding vertices are rescaled
deterministically and every replacement is logged.  An outcome always
carries an injective vertex labeling; the classification of the raw
formula output is kept alongside as evidence.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record
from .graph import (
    PRODUCT_KINDS, Graph, GraphError, complement, contract_edge, corona,
    induced_subgraph, is_bipartite, join, line_graph, pair_id, product,
    rooted_product, subdivide_edge, total_graph, union,
)
from .intset import (
    DEFAULT_ELEMENT_BOUND, ElementBoundError, IntegerSet, integral_multiple, sumset,
)
from .labeling import ClassificationReport, SetLabeling, classify, labeling_to_json

__all__ = [
    "ConstructionOutcome", "NoConstruction", "RepairEntry", "ConstructionError",
    "canonical_iasi", "two_uniform_iasi", "weakly_uniform_iasi",
    "strongly_uniform_iasi", "induced_labeling", "corona_labeling",
    "rooted_labeling", "subdivision_labeling", "contraction_labeling",
    "minor_labeling", "line_graph_labeling", "total_graph_labeling",
    "homeomorphic_transfer",
]


class ConstructionError(ValueError):
    """Operands violate a construction precondition."""


class RepairEntry(Record):
    vertex: int
    original: IntegerSet
    replacement: IntegerSet
    reason: str


class ConstructionOutcome(Record):
    """labeling is always vertex-injective; formula_report classifies the
    raw construction before any repair (equal to report when untouched)."""

    labeling: SetLabeling
    repaired: bool
    repair_log: tuple[RepairEntry, ...]
    report: ClassificationReport
    formula_report: ClassificationReport
    note: str = ""

    def to_json(self) -> dict:
        return {
            "constructed": True,
            "labeling": labeling_to_json(self.labeling),
            "repaired": self.repaired,
            "repairs": [
                {
                    "vertex": r.vertex,
                    "original": r.original.to_list(),
                    "replacement": r.replacement.to_list(),
                    "reason": r.reason,
                }
                for r in self.repair_log
            ],
            "report": self.report.to_json(),
            "formula_report": self.formula_report.to_json(),
            "note": self.note,
        }


class NoConstruction(Record):
    """Explicit refusal with the certificate that justifies it."""

    reason: str
    odd_cycle: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        return {
            "constructed": False,
            "reason": self.reason,
            "odd_cycle": list(self.odd_cycle) if self.odd_cycle else None,
        }


def _repair(labels: list[IntegerSet]) -> tuple[list[IntegerSet], list[RepairEntry]]:
    """Translate each later duplicate by vertex_id * P.

    P is the smallest power of two past every element in use, so each
    repaired vertex lands in its own disjoint range and one pass is
    enough.  Lowest colliding vertex keeps its label.
    """
    max_el = max(l.max_element for l in labels)
    scale = 1 << max_el.bit_length()
    first_seen: dict[IntegerSet, int] = {}
    out = list(labels)
    log: list[RepairEntry] = []
    for v, lab in enumerate(labels):
        if lab not in first_seen:
            first_seen[lab] = v
            continue
        new = IntegerSet(v * scale + x for x in lab.elements)
        log.append(
            RepairEntry(v, lab, new,
                        f"duplicate of vertex {first_seen[lab]}, rescaled by {v}*{scale}")
        )
        out[v] = new
    return out, log


def _finalize(graph: Graph, labels, note: str = "") -> ConstructionOutcome:
    raw = SetLabeling(graph, labels)
    formula_report = classify(raw)
    if formula_report.is_iasl:
        return ConstructionOutcome(raw, False, (), formula_report, formula_report, note)
    fixed, log = _repair(list(raw.labels))
    done = SetLabeling(graph, fixed)
    report = classify(done)
    if not report.is_iasl:
        raise AssertionError("repair failed to restore injectivity")
    return ConstructionOutcome(done, True, tuple(log), report, formula_report, note)


def _verified(graph: Graph, labels, note: str, ok, name: str) -> ConstructionOutcome:
    """_finalize a proven direct construction; a repair or a failed ok is a bug."""
    out = _finalize(graph, labels, note=note)
    if out.repaired or not ok(out.report):
        raise AssertionError(f"{name} construction must verify without repair")
    return out


# ---------------------------------------------------------------------------
# direct constructions

def canonical_iasi(g: Graph) -> ConstructionOutcome:
    """Vertex i gets {2^i}; binary uniqueness makes both maps injective."""
    labels = [IntegerSet((1 << i,)) for i in g.vertices()]
    return _verified(g, labels, "singleton powers of two",
                     lambda r: r.is_iasi, "canonical")


def two_uniform_iasi(g: Graph) -> ConstructionOutcome | NoConstruction:
    """Singletons {2^i} on one side, {0, 2^i} on the other.

    Every edge label is {2^u, 2^u + 2^v}, so edges decode uniquely and
    all have size 2.  Refuses non-bipartite graphs with an odd cycle.
    """
    side = is_bipartite(g)
    if not side.bipartite:
        return NoConstruction("graph is not bipartite", side.odd_cycle)
    labels = []
    for v in g.vertices():
        if side.coloring[v] == 0:
            labels.append(IntegerSet((1 << v,)))
        else:
            labels.append(IntegerSet((0, 1 << v)))
    return _verified(g, labels, "bipartite singleton / {0, power} split",
                     lambda r: r.is_iasi and r.is_k_uniform(2), "2-uniform")


def weakly_uniform_iasi(g: Graph, k: int) -> ConstructionOutcome | NoConstruction:
    """k-uniform with a singleton endpoint on every edge; needs k >= 2.

    One side gets singletons {i}, the other k-blocks starting at
    multiples of a stride wide enough that every edge label's start
    decodes the edge.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    side = is_bipartite(g)
    if not side.bipartite:
        return NoConstruction("graph is not bipartite", side.odd_cycle)
    part0 = [v for v in g.vertices() if side.coloring[v] == 0]
    part1 = [v for v in g.vertices() if side.coloring[v] == 1]
    if part1 and k - 1 > DEFAULT_ELEMENT_BOUND:            # before range(k) is built
        raise ElementBoundError(f"element {k - 1} exceeds bound {DEFAULT_ELEMENT_BOUND}")
    stride = max(len(part0), k + 1)
    labels: list[IntegerSet | None] = [None] * g.vertex_count
    for i, v in enumerate(part0):
        labels[v] = IntegerSet((i,))
    for j, v in enumerate(part1):
        labels[v] = IntegerSet(range(j * stride, j * stride + k))
    return _verified(g, labels, f"singleton / {k}-block split, stride {stride}",
                     lambda r: r.is_iasi and r.is_weak and r.is_k_uniform(k),
                     "weakly uniform")


def _primes_above(floor: int, count: int) -> list[int]:
    out = []
    x = floor + 1
    while len(out) < count:
        if all(x % p for p in range(2, int(x ** 0.5) + 1)):
            out.append(x)
        x += 1
    return out


def _shifted_progressions(lengths: list[int]) -> tuple[list[IntegerSet], str]:
    """Label v with M*2^v + {0, d_v, 2*d_v, ...}, lengths[v] terms with its
    own prime difference d_v.

    Difference sets are {d_v, 2*d_v, ...}; distinct primes above every
    length keep them pairwise disjoint, so adjacent products are full.
    The offsets put each edge label in its own range of width < M, so
    the smallest element decodes the edge.
    """
    if not lengths:
        return [], "no vertices"
    max_len = max(lengths)
    # a label spans (max_len - 1) * d with d > max_len: refuse before the
    # prime search and the labels, whose cost grows with max_len
    if max_len * max_len - 1 > DEFAULT_ELEMENT_BOUND:
        raise ElementBoundError(
            f"a {max_len}-term progression with a prime difference above "
            f"{max_len} exceeds bound {DEFAULT_ELEMENT_BOUND}")
    primes = _primes_above(max_len, len(lengths))
    scale = 1 << (2 * (max_len - 1) * primes[-1]).bit_length()
    labels = [
        IntegerSet(scale * (1 << v) + t * d for t in range(length))
        for v, (length, d) in enumerate(zip(lengths, primes))
    ]
    return labels, f"offset scale {scale}, prime differences"


def strongly_uniform_iasi(g: Graph, k: int) -> ConstructionOutcome | NoConstruction:
    """Every edge label has size |f(u)|*|f(v)| = k.

    Perfect square k = l*l: every vertex gets an l-term progression with
    its own prime difference (works on any graph).  Otherwise the graph
    must be bipartite: singletons on one side, k-term progressions on
    the other.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    root = isqrt(k)
    if root * root == k:
        lengths = [root] * g.vertex_count
        branch = f"completely uniform branch: all labels size {root}"
    else:
        side = is_bipartite(g)
        if not side.bipartite:
            return NoConstruction(
                f"k={k} is not a perfect square and the graph is not bipartite",
                side.odd_cycle,
            )
        lengths = [1 if c == 0 else k for c in side.coloring]
        branch = f"bipartite branch: sizes 1 x {k}"
    labels, how = _shifted_progressions(lengths)
    return _verified(g, labels, f"{branch}, {how}",
                     lambda r: r.is_iasi and r.is_strong and r.is_k_uniform(k),
                     "strongly uniform")


# ---------------------------------------------------------------------------
# labelings induced through graph operations

def induced_labeling(
    kind: str,
    f1: SetLabeling,
    f2: SetLabeling | None = None,
    shared: dict[int, int] | None = None,
) -> ConstructionOutcome:
    """Operand labels pushed through union, join, complement, or a product.

    Union keeps operand labels (shared vertices must agree); join adds
    nothing beyond the disjoint layout; complement reuses the labels on
    the complemented graph; products label (u, v) with f1(u) + f2(v).
    """
    if kind == "complement":
        if f2 is not None:
            raise ConstructionError("complement takes a single labeling")
        return _finalize(complement(f1.graph), list(f1.labels),
                         note="labels kept on complement")
    if f2 is None:
        raise ConstructionError("second operand labeling is required")
    if kind == "union":
        res = union(f1.graph, f2.graph, shared)
        for j, i in (shared or {}).items():
            if f2.labels[j] != f1.labels[i]:
                raise ConstructionError(
                    f"shared vertex {j}->{i} labeled {f2.labels[j]} vs {f1.labels[i]}"
                )
        labels: list[IntegerSet | None] = [None] * res.graph.vertex_count
        for i, t in enumerate(res.map_first):
            labels[t] = f1.labels[i]
        for j, t in enumerate(res.map_second):
            labels[t] = f2.labels[j]
        return _finalize(res.graph, labels, note="union of operand labels")
    if kind == "join":
        graph = join(f1.graph, f2.graph)
        return _finalize(graph, list(f1.labels) + list(f2.labels),
                         note="operand labels side by side")
    if kind in PRODUCT_KINDS:
        graph = product(kind, f1.graph, f2.graph)
        n2 = f2.graph.vertex_count
        labels = [None] * graph.vertex_count
        for i in f1.graph.vertices():
            for j in f2.graph.vertices():
                labels[pair_id(i, j, n2)] = sumset(f1.labels[i], f2.labels[j])
        return _finalize(graph, labels, note=f"{kind} product sums")
    raise ConstructionError(f"unknown operation {kind!r}")


def corona_labeling(f1: SetLabeling, f2: SetLabeling) -> ConstructionOutcome:
    """Copy i of the second operand is labeled i.f2 (1-based multiplier)."""
    graph = corona(f1.graph, f2.graph)
    n1, n2 = f1.graph.vertex_count, f2.graph.vertex_count
    labels = list(f1.labels) + [None] * (n1 * n2)
    for i in range(n1):
        for j in range(n2):
            labels[n1 + i * n2 + j] = integral_multiple(i + 1, f2.labels[j])
    return _finalize(graph, labels, note="copy multiples 1..n")


def rooted_labeling(f1: SetLabeling, f2: SetLabeling, root: int) -> ConstructionOutcome:
    """Roots keep f1; copy i gets a distinct multiple of f2.

    Multipliers are tried in order 1, 2, 3, ... and any that collides
    with labels already placed is skipped, keeping the multiples
    literally distinct.  A copy with no free multiple among its 16 + 4*n1
    tries (say f2 labels {0}) keeps the last one tried, and the standard
    repair pass still restores injectivity at the end.
    """
    graph = rooted_product(f1.graph, f2.graph, root)
    n1, n2 = f1.graph.vertex_count, f2.graph.vertex_count
    others = [j for j in range(n2) if j != root]
    labels: list[IntegerSet | None] = list(f1.labels) + [None] * (n1 * (n2 - 1))
    taken = set(f1.labels)
    multiplier = 0
    for i in range(n1):
        for _ in range(16 + 4 * n1):
            multiplier += 1
            chosen = [integral_multiple(multiplier, f2.labels[j]) for j in others]
            if len(set(chosen)) == len(chosen) and not taken.intersection(chosen):
                break
        taken.update(chosen)
        for r, j in enumerate(others):
            labels[n1 + i * (n2 - 1) + r] = chosen[r]
    return _finalize(graph, labels, note="distinct copy multiples")


def subdivision_labeling(f: SetLabeling, edge: tuple[int, int]) -> ConstructionOutcome:
    """The new degree-2 vertex takes the edge's sum set."""
    u, v = min(edge), max(edge)
    graph = subdivide_edge(f.graph, (u, v))
    labels = list(f.labels) + [sumset(f.labels[u], f.labels[v])]
    return _finalize(graph, labels, note=f"new vertex gets label of edge ({u},{v})")


def _contract(graph: Graph, labels, u: int, v: int) -> tuple[Graph, list[IntegerSet]]:
    """Contract edge uv (u < v); the merged vertex takes labels[u] + labels[v]
    and every other label follows its vertex."""
    res = contract_edge(graph, (u, v))
    merged: list[IntegerSet | None] = [None] * res.graph.vertex_count
    for old in graph.vertices():
        merged[res.vertex_map[old]] = labels[old]
    merged[res.vertex_map[u]] = sumset(labels[u], labels[v])
    return res.graph, merged


def contraction_labeling(f: SetLabeling, edge: tuple[int, int]) -> ConstructionOutcome:
    """The merged vertex takes f(u) + f(v); everything else is carried over."""
    u, v = min(edge), max(edge)
    graph, labels = _contract(f.graph, f.labels, u, v)
    return _finalize(graph, labels, note=f"merged vertex gets sum of ({u},{v})")


def minor_labeling(f: SetLabeling, script) -> ConstructionOutcome:
    """Apply a deletion/contraction script; labels restrict or merge.

    Steps are ("delete-vertex", v), ("delete-edge", (u, v)), or
    ("contract", (u, v)), each referring to the ids current at that
    point (deletions and contractions shift later ids down).
    """
    graph = f.graph
    labels = list(f.labels)
    for step, arg in script:
        if step == "delete-vertex":
            if not 0 <= arg < graph.vertex_count:
                raise GraphError(f"vertex {arg} out of range")
            keep = [x for x in graph.vertices() if x != arg]
            res = induced_subgraph(graph, keep)
            labels = [labels[old] for old in res.kept]
            graph = res.graph
        elif step == "delete-edge":
            u, v = min(arg), max(arg)
            if not graph.has_edge(u, v):
                raise GraphError(f"edge ({u},{v}) not in graph")
            graph = Graph(graph.vertex_count,
                          tuple(e for e in graph.edges if e != (u, v)),
                          names=graph.names)
        elif step == "contract":
            graph, labels = _contract(graph, labels, min(arg), max(arg))
        else:
            raise ConstructionError(f"unknown minor step {step!r}")
    return _finalize(graph, labels,
                     note="minor script applied (contractions merge by sum)")


def line_graph_labeling(f: SetLabeling) -> ConstructionOutcome:
    """Each line-graph vertex takes the label of the edge it stands for."""
    res = line_graph(f.graph)
    labels = [sumset(f.labels[u], f.labels[v]) for u, v in res.vertex_edges]
    return _finalize(res.graph, labels, note="edge labels as vertex labels")


def total_graph_labeling(f: SetLabeling) -> ConstructionOutcome:
    """Vertex part keeps f; edge part takes the edge labels."""
    res = total_graph(f.graph)
    labels = list(f.labels)
    labels += [sumset(f.labels[u], f.labels[v]) for u, v in res.vertex_edges]
    return _finalize(res.graph, labels, note="vertex labels plus edge labels")


def homeomorphic_transfer(
    f: SetLabeling,
    g_script,
    h: Graph,
    h_script,
    correspondence,
) -> ConstructionOutcome:
    """Carry a labeling across an isomorphism of subdivisions.

    g_script and h_script each list edges to subdivide in sequence
    (ids current at each step; the new vertex is appended).  The
    correspondence maps subdivided-f.graph vertices to subdivided-h
    vertices and must be an isomorphism.  Labels ride through it.  As
    subdivide_edge appends each new vertex, undoing the h-side
    subdivisions keeps the labels of vertices 0..h.vertex_count-1.  Each
    script is read once, so it may be any iterable.
    """
    work = f
    for edge in g_script:
        work = subdivision_labeling(work, edge).labeling
    h_expanded = h
    for edge in h_script:
        h_expanded = subdivide_edge(h_expanded, edge)

    corr = tuple(correspondence)
    n = work.graph.vertex_count
    if h_expanded.vertex_count != n or len(corr) != n or sorted(corr) != list(range(n)):
        raise ConstructionError("correspondence is not a bijection of the subdivisions")
    mapped = {(min(corr[u], corr[v]), max(corr[u], corr[v])) for u, v in work.graph.edges}
    if mapped != set(h_expanded.edges):
        raise ConstructionError("correspondence does not preserve adjacency")

    labels: list[IntegerSet | None] = [None] * n
    for v in range(n):
        labels[corr[v]] = work.labels[v]
    return _finalize(h, labels[:h.vertex_count],
                     note="transferred across subdivision isomorphism")
