"""Set-labelings of graphs and their classification.

A labeling assigns a non-empty integer set to every vertex; each edge
uv inherits the sum set f(u)+f(v).  classify() reports the injectivity
verdicts for the vertex map and the induced edge map independently,
uniformity data, and the weak/strong edge conditions, with a witness
for every false verdict.
"""

from __future__ import annotations

from ._record import Record
from .graph import Graph, parse_graph6, write_graph6
from .intset import IntegerSet, difference_set, sumset

__all__ = [
    "SetLabeling", "LabelingError", "EdgeRecord", "Violation",
    "ClassificationReport", "classify", "induced_edge_label",
    "weak_structure_check", "strong_structure_check", "ground_set",
    "labeling_to_json", "labeling_from_json",
]


class LabelingError(ValueError):
    """Labeling does not fit its graph or the requested edge."""


class SetLabeling(Record):
    """A graph together with one IntegerSet per vertex.

    Injectivity is not required here; it is a verdict, not a precondition.
    """

    graph: Graph
    labels: tuple[IntegerSet, ...]

    def __init__(self, graph: Graph, labels):
        labels = tuple(labels)
        if len(labels) != graph.vertex_count:
            raise LabelingError(
                f"{len(labels)} labels for {graph.vertex_count} vertices"
            )
        if not all(isinstance(l, IntegerSet) for l in labels):
            raise LabelingError("labels must be IntegerSet values")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labels", labels)


def induced_edge_label(f: SetLabeling, u: int, v: int) -> IntegerSet:
    """Sum set carried by the edge uv."""
    if not f.graph.has_edge(u, v):
        raise LabelingError(f"({u},{v}) is not an edge")
    return sumset(f.labels[u], f.labels[v])


def ground_set(f: SetLabeling) -> tuple[int, ...]:
    """Union of all vertex labels, ascending."""
    out: set[int] = set()
    for lab in f.labels:
        out.update(lab.elements)
    return tuple(sorted(out))


class EdgeRecord(Record):
    u: int
    v: int
    label: IntegerSet
    size: int
    neglecting_number: int
    weak: bool
    strong: bool

    def __init__(self, u, v, label, size, neglecting_number, weak, strong):
        # One dict update, without Record.__init__'s matching of arguments
        # to fields: classify builds one record per edge.
        self.__dict__.update(
            u=u, v=v, label=label, size=size,
            neglecting_number=neglecting_number, weak=weak, strong=strong,
        )


class Violation(Record):
    kind: str
    where: tuple
    note: str = ""

    def __init__(self, kind, where, note=""):
        self.__dict__.update(kind=kind, where=where, note=note)


class ClassificationReport(Record, uncompared=("violations",)):
    is_iasl: bool                      # vertex map injective
    is_iasi: bool                      # induced edge map injective
    is_weak: bool
    is_strong: bool
    edge_uniform_k: int | None
    vertex_uniform_l: int | None
    completely_uniform: tuple[int, int] | None
    vacuous_edges: bool
    per_edge: tuple[EdgeRecord, ...]
    violations: tuple[Violation, ...]

    def __init__(self, is_iasl, is_iasi, is_weak, is_strong, edge_uniform_k,
                 vertex_uniform_l, completely_uniform, vacuous_edges, per_edge,
                 violations):
        # one dict update, as in EdgeRecord: classify builds a report per call
        self.__dict__.update(
            is_iasl=is_iasl, is_iasi=is_iasi, is_weak=is_weak, is_strong=is_strong,
            edge_uniform_k=edge_uniform_k, vertex_uniform_l=vertex_uniform_l,
            completely_uniform=completely_uniform, vacuous_edges=vacuous_edges,
            per_edge=per_edge, violations=violations,
        )

    def is_k_uniform(self, k: int) -> bool:
        """Every edge label has size k; an edgeless graph is k-uniform for every k."""
        return self.edge_uniform_k == k or self.vacuous_edges

    def to_json(self) -> dict:
        return {
            "is_iasl": self.is_iasl,
            "is_iasi": self.is_iasi,
            "is_weak": self.is_weak,
            "is_strong": self.is_strong,
            "edge_uniform_k": self.edge_uniform_k,
            "vertex_uniform_l": self.vertex_uniform_l,
            "completely_uniform": list(self.completely_uniform)
            if self.completely_uniform else None,
            "vacuous_edges": self.vacuous_edges,
            "per_edge": [
                {
                    "u": r.u, "v": r.v, "label": r.label.to_list(),
                    "size": r.size, "neglecting_number": r.neglecting_number,
                    "weak": r.weak, "strong": r.strong,
                }
                for r in self.per_edge
            ],
            "violations": [
                {"kind": w.kind, "where": list(w.where), "note": w.note}
                for w in self.violations
            ],
        }


# classify's memo: for each edge met, keyed (u, v, f(u) elements, f(v)
# elements), [its EdgeRecord, its weak-failure Violation or None, its
# strong-failure Violation or None]; a violation is built the first time a
# call reports it.  A miss calls the module's sumset, so a wrapper put there
# sees every sum that is computed, and a sum past the element bound raises
# before anything is stored.  Cleared when it reaches _EDGES_CAP = 1,024
# entries (cheaper than evicting one at a time), so it retains at most 1,024
# sum sets, each of at most |A|*|B| elements (and at most
# DEFAULT_ELEMENT_BOUND + 1, as no sum exceeds the bound), 1,024 records and
# 2,048 violations.
_EDGES: dict[tuple, list] = {}
_EDGES_CAP = 1024


def classify(f: SetLabeling) -> ClassificationReport:
    """Full report over a labeling; every false verdict carries a witness.

    The two injectivity verdicts are independent: a labeling can have an
    injective edge map over duplicated vertex labels and vice versa.
    """
    g = f.graph
    labels = f.labels
    # the elements tuples are read once: len() and hash() of an IntegerSet
    # run Python code, of a tuple they do not
    elements = [lab.elements for lab in labels]
    violations: list[Violation] = []

    seen: dict[tuple[int, ...], int] = {}
    iasl = True
    for v, e in enumerate(elements):
        if e in seen:
            iasl = False
            violations.append(
                Violation("vertex-label-duplicate", (seen[e], v), f"both get {labels[v]}")
            )
        else:
            seen[e] = v

    records: list[EdgeRecord] = []
    edge_seen: dict[tuple[int, ...], tuple[int, int]] = {}
    iasi = True
    weak = True
    strong = True
    memo = _EDGES
    for u, v in g.edges:
        a, b = elements[u], elements[v]
        key = (u, v, a, b)
        entry = memo.get(key)
        if entry is None:
            lab = sumset(labels[u], labels[v])
            if len(memo) >= _EDGES_CAP:
                memo.clear()
            la, lb = len(a), len(b)
            size = len(lab.elements)
            entry = memo[key] = [
                EdgeRecord(u, v, lab, size, la * lb - size,
                           size == max(la, lb), size == la * lb),
                None, None,
            ]
        rec = entry[0]
        records.append(rec)
        e = rec.label.elements
        if e in edge_seen:
            if iasi:
                iasi = False
                violations.append(
                    Violation("edge-label-duplicate", (edge_seen[e], (u, v)),
                              f"both get {rec.label}")
                )
        else:
            edge_seen[e] = (u, v)
        if weak and not rec.weak:
            weak = False
            if entry[1] is None:
                entry[1] = Violation("weak-failure", ((u, v),),
                                     f"size {rec.size} != max({len(a)},{len(b)})")
            violations.append(entry[1])
        if strong and not rec.strong:
            strong = False
            if entry[2] is None:
                entry[2] = Violation("strong-failure", ((u, v),),
                                     f"size {rec.size} != {len(a)}*{len(b)}")
            violations.append(entry[2])

    vacuous = not g.edges
    sizes = {r.size for r in records}
    edge_k = sizes.pop() if len(sizes) == 1 else None
    vsizes = set(map(len, elements))
    vertex_l = vsizes.pop() if len(vsizes) == 1 else None
    completely = None
    if edge_k is not None and vertex_l is not None:
        completely = (edge_k, vertex_l)
    return ClassificationReport(
        is_iasl=iasl,
        is_iasi=iasi,
        is_weak=weak,
        is_strong=strong,
        edge_uniform_k=edge_k,
        vertex_uniform_l=vertex_l,
        completely_uniform=completely,
        vacuous_edges=vacuous,
        per_edge=tuple(records),
        violations=tuple(violations),
    )


def weak_structure_check(f: SetLabeling) -> tuple[bool, tuple[int, int] | None]:
    """Every edge has a singleton endpoint; witness is the first bad edge."""
    # len() of an IntegerSet runs Python code, of its elements tuple it does not
    sizes = [len(lab.elements) for lab in f.labels]
    for u, v in f.graph.edges:
        if sizes[u] > 1 and sizes[v] > 1:
            return False, (u, v)
    return True, None


def strong_structure_check(
    f: SetLabeling,
) -> tuple[bool, tuple[tuple[int, int], tuple[int, ...]] | None]:
    """Adjacent difference sets are disjoint; witness carries the overlap."""
    labels = f.labels
    diffs: dict[int, frozenset[int]] = {}      # built as edges reach their endpoints
    for u, v in f.graph.edges:
        for w in (u, v):
            if w not in diffs:
                diffs[w] = difference_set(labels[w])
        shared = diffs[u] & diffs[v]
        if shared:
            return False, ((u, v), tuple(sorted(shared)))
    return True, None


# ---------------------------------------------------------------------------
# serialization

def labeling_to_json(f: SetLabeling) -> dict:
    return {
        "graph6": write_graph6(f.graph),
        "labels": [l.to_list() for l in f.labels],
    }


def labeling_from_json(obj: dict) -> SetLabeling:
    """Inverse of labeling_to_json, on the parsed JSON object."""
    if not isinstance(obj, dict) or "graph6" not in obj or "labels" not in obj:
        raise LabelingError('labeling JSON needs "graph6" and "labels" keys')
    text, labels = obj["graph6"], obj["labels"]
    if not isinstance(text, str):
        raise LabelingError('"graph6" must be a string')
    if not isinstance(labels, list) or not all(isinstance(l, list) for l in labels):
        raise LabelingError('"labels" must be a list of integer lists')
    return SetLabeling(parse_graph6(text), [IntegerSet(l) for l in labels])
