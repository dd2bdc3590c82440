"""Exhaustive checks of the claims this package is built around.

Every registered check verifies one claim over an explicit finite
domain and reports pass, counterexample, or inconclusive.  Verdicts are
scoped to the domain in the description; a pass never claims more.
Equivalences are checked in both directions: the constructive side
builds and verifies a witness, the nonexistence side exhausts a bounded
label space.  Counterexample records are self-contained, so they can be
re-verified with the arithmetic and classification primitives alone.

Each check is registered with `_check`, which declares its domain
description and defaults; `run_check` resolves a `Corpus` against them
and reports empty domains and exhausted search budgets as inconclusive.
"""

from __future__ import annotations

from itertools import combinations, compress, permutations
from itertools import product as iproduct
from math import isqrt
from collections.abc import Callable

from ._record import Record
from .construct import (
    NoConstruction, canonical_iasi, line_graph_labeling, strongly_uniform_iasi,
    total_graph_labeling, two_uniform_iasi, weakly_uniform_iasi,
)
from .graph import (
    MAX_ENUMERATION_VERTICES, Graph, complete_graph, cycle_graph, enumerate_graphs,
    induced_subgraph, is_bipartite, path_graph, star_graph, write_graph6,
)
from .intset import IntegerSet, compatibility_table, difference_set, sumset
from .labeling import (
    SetLabeling, classify, labeling_to_json, strong_structure_check,
    weak_structure_check,
)
from .search import (
    MAX_ELEMENT_BOUND, BudgetExceeded, SearchConfig, check_binomial_bound,
    find_k_uniform, min_ground_set_size,
)

__all__ = [
    "Corpus", "TheoremCheck", "SuiteResult", "CHECK_IDS", "run_check", "run_suite",
]


class Corpus(Record):
    """Domain overrides; fields left None fall back to per-check defaults."""

    graphs: tuple[Graph, ...] | None = None
    max_vertices: int | None = None
    max_element: int | None = None
    max_label_size: int | None = None
    ks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.max_vertices is not None and not (
            1 <= self.max_vertices <= MAX_ENUMERATION_VERTICES
        ):
            raise ValueError(
                f"max_vertices must be in 1..{MAX_ENUMERATION_VERTICES}, "
                f"got {self.max_vertices}"
            )
        if self.max_element is not None and self.max_element < 0:
            raise ValueError(f"max_element must be non-negative, got {self.max_element}")
        if self.max_element is not None and self.max_element > MAX_ELEMENT_BOUND:
            raise ValueError(f"max_element must be at most {MAX_ELEMENT_BOUND}, "
                             f"got {self.max_element}")
        if self.max_label_size is not None and self.max_label_size < 1:
            raise ValueError(
                f"max_label_size must be at least 1, got {self.max_label_size}"
            )
        if self.ks is not None and (not self.ks or min(self.ks) < 1):
            raise ValueError(f"ks must be non-empty and positive, got {self.ks}")


class TheoremCheck(Record, frozen=False):
    check_id: str
    corpus: str
    config: SearchConfig
    verdict: str                 # pass | counterexample | inconclusive
    reason: str = ""
    counterexamples: list = []
    details: dict = {}

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "corpus": self.corpus,
            "config": self.config.to_json(),
            "verdict": self.verdict,
            "reason": self.reason,
            "counterexamples": self.counterexamples,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# registration and domain resolution

class _Spec(Record):
    run: Callable
    corpus: str
    family: Callable | None
    defaults: Corpus
    default_note: str


_SPECS: dict[str, _Spec] = {}


def _check(check_id: str, corpus: str, *, graphs=None, max_element=None,
           max_label_size=None, ks=None, default_note=""):
    """Register the decorated function as check_id; ids keep definition order.

    corpus describes the domain.  It is formatted with the resolved
    {graphs} description, {max_element}, {max_label_size} and the sorted
    {ks}.  graphs is the default graph family, a function of the vertex
    cap returning (graphs, description); checks without one ignore
    Corpus.graphs.  default_note is appended when that family is used.
    The function takes the TheoremCheck and the resolved Corpus, reports
    counterexamples with _fail, and returns the check's details.
    """
    defaults = Corpus(max_element=max_element, max_label_size=max_label_size, ks=ks)

    def register(run):
        _SPECS[check_id] = _Spec(run, corpus, graphs, defaults, default_note)
        return run
    return register


def _enumerated(connected: bool):
    kind = "connected labeled graphs" if connected else "labeled graphs"

    def family(max_n: int | None):
        max_n = 4 if max_n is None else max_n
        graphs = tuple(
            g for n in range(max_n + 1)
            for g in enumerate_graphs(n, connected_only=connected)
        )
        return graphs, f"all {kind} on up to {max_n} vertices"
    return family


_ALL_GRAPHS = _enumerated(connected=False)
_CONNECTED_GRAPHS = _enumerated(connected=True)


def _sparse_graphs(max_n):
    graphs = tuple(g for n in range(5) for g in enumerate_graphs(n) if g.edge_count <= 4)
    return graphs, "graphs with <= 4 vertices and <= 4 edges"


def _ratio_graphs(max_n):
    graphs = (path_graph(3), path_graph(4), star_graph(3), complete_graph(3),
              cycle_graph(4))
    return graphs, "connected test graphs"


def _path_graphs(max_n):
    return tuple(path_graph(n) for n in range(1, 6)), "path graphs on 1..5 vertices"


def _subsets(max_element: int) -> list[tuple[int, ...]]:
    return [
        tuple(e for e in range(max_element + 1) if mask >> e & 1)
        for mask in range(1, 1 << (max_element + 1))
    ]


def _labels(d: Corpus) -> list[tuple[int, ...]]:
    return [s for s in _subsets(d.max_element) if len(s) <= d.max_label_size]


def _fail(check: TheoremCheck, record: dict) -> None:
    check.verdict = "counterexample"
    if len(check.counterexamples) < 5:
        check.counterexamples.append(record)


def _settled(cert):
    """The certificate, unless its search ran out of budget: then unwind to
    run_check, which reports the whole check inconclusive."""
    if cert.kind == "budget_exceeded":
        raise BudgetExceeded
    return cert


def _exhausted(check, g, k, mode, record) -> bool:
    """Whether find_k_uniform(g, k, mode=mode) exhausts its space.  A
    witness fails the check, recorded as g's graph6, record, direction,
    witness."""
    cert = _settled(find_k_uniform(g, k, check.config, mode=mode))
    if cert.kind != "exhausted":
        _fail(check, {"graph6": write_graph6(g), **record, "direction": "search",
                      "witness": labeling_to_json(cert.witness)})
    return cert.kind == "exhausted"


# ---------------------------------------------------------------------------
# existence and heredity

@_check("iasl-existence", "{graphs}", graphs=_ALL_GRAPHS)
def _check_iasl_existence(check, d):
    plain = 0
    for g in d.graphs:
        out = canonical_iasi(g)
        if out.repaired or not out.report.is_iasl:
            _fail(check, {"graph6": write_graph6(g), "repaired": out.repaired})
        if not g.isolated_vertices():
            plain += 1
    return {"graphs": len(d.graphs), "without_isolated_vertices": plain}


@_check("iasi-existence", "{graphs}", graphs=_ALL_GRAPHS)
def _check_iasi_existence(check, d):
    for g in d.graphs:
        out = canonical_iasi(g)
        if out.repaired or not (out.report.is_iasl and out.report.is_iasi):
            _fail(check, {"graph6": write_graph6(g), "repaired": out.repaired})
    return {"graphs": len(d.graphs)}


def _sample_labelings(g: Graph):
    """A small deterministic family of set-indexers to restrict."""
    outs = [canonical_iasi(g).labeling]
    two = two_uniform_iasi(g)
    if not isinstance(two, NoConstruction):
        outs.append(two.labeling)
    outs.append(strongly_uniform_iasi(g, 4).labeling)
    return outs


@_check("subgraph-heredity", "{graphs}, several set-indexers each, all vertex subsets",
        graphs=_ALL_GRAPHS)
def _check_heredity(check, d):
    cases = 0
    for g in d.graphs:
        for f in _sample_labelings(g):
            base = classify(f)
            if not (base.is_iasl and base.is_iasi):
                continue
            for mask in range(1, 1 << g.vertex_count):
                keep = [v for v in g.vertices() if mask >> v & 1]
                sub = induced_subgraph(g, keep)
                rep = classify(SetLabeling(sub.graph, [f.labels[v] for v in sub.kept]))
                cases += 1
                if not (rep.is_iasl and rep.is_iasi):
                    _fail(check, {
                        "graph6": write_graph6(g),
                        "labeling": labeling_to_json(f),
                        "subset": keep,
                    })
    return {"restrictions_checked": cases}


def _indexes(g: Graph, ground) -> bool:
    """Whether some labeling of g by distinct non-empty subsets of ground has
    pairwise distinct edge sums: a brute force over every such labeling."""
    subsets = [tuple(ground[i] for i in s) for s in _subsets(len(ground) - 1)]
    sums = [[_sums_of(a, b) for b in subsets] for a in subsets]
    edges = g.edges
    return any(
        len({sums[p[u]][p[v]] for u, v in edges}) == len(edges)
        for p in permutations(range(len(subsets)), g.vertex_count)
    )


def _least_ground_set(g: Graph, size: int, cert, element_bound: int) -> bool:
    """Whether cert proves size the least ground-set size for g: its witness
    labels g by distinct non-empty subsets of a size-element ground set
    within {0..element_bound}, with distinct edge sums, and size - 1 fails,
    by pigeonhole (fewer non-empty subsets than vertices) or by brute force
    over every ground set of that size."""
    listed = cert.data["ground_set"]
    ground = set(listed)
    labels = [lab.elements for lab in cert.witness.labels]
    sums = [_sums_of(labels[u], labels[v]) for u, v in g.edges]
    if not (len(ground) == len(listed) == size
            and ground <= set(range(element_bound + 1))
            and len(set(labels)) == len(labels) == g.vertex_count
            and all(lab and set(lab) <= ground for lab in labels)
            and len(set(sums)) == len(sums)):
        return False
    return size == 0 or (1 << (size - 1)) - 1 < g.vertex_count or not any(
        _indexes(g, smaller) for smaller in combinations(range(element_bound + 1), size - 1)
    )


@_check("ground-set-lower-bound", "{graphs}", graphs=_CONNECTED_GRAPHS)
def _check_ground_set_lower_bound(check, d):
    """min_ground_set_size's size, re-derived from its certificate with this
    module's own arithmetic."""
    for g in d.graphs:
        size, cert = min_ground_set_size(g, check.config)
        _settled(cert)
        lower = g.vertex_count.bit_length()
        if size is None or not _least_ground_set(g, size, cert, check.config.element_bound):
            _fail(check, {
                "graph6": write_graph6(g), "size": size, "lower_bound": lower,
                "certificate": cert.to_json(),
            })
    return {"graphs": len(d.graphs)}


@_check("uniform-ground-set-binomial",
        "{graphs}, uniform set-indexers from the direct constructions",
        graphs=_CONNECTED_GRAPHS)
def _check_binomial(check, d):
    cases = 0
    for g in d.graphs:
        if not g.vertex_count:
            continue
        for f in (canonical_iasi(g).labeling, strongly_uniform_iasi(g, 4).labeling):
            res = check_binomial_bound(g, f)
            cases += 1
            if not res.holds:
                _fail(check, {
                    "graph6": write_graph6(g),
                    "labeling": labeling_to_json(f),
                    "result": res.to_json(),
                })
    return {"witnesses_checked": cases}


# ---------------------------------------------------------------------------
# sum-set laws

def _sums_of(a, b):
    return frozenset(x + y for x in a for y in b)


def _size_table(labels) -> list[list[int]]:
    """|a + b| for every pair of labels, both indexed like labels."""
    return [[len(_sums_of(a, b)) for b in labels] for a in labels]


def _size_rows(max_element: int):
    """Yield, for each a in _subsets(max_element), the list of |a + b| over
    b in that list.  Subset i has bit mask i + 1; the sizes come from
    shift-OR on those masks, built up one top bit at a time, so no intset
    arithmetic is involved."""
    for ma in range(1, 1 << (max_element + 1)):
        sums = [0]
        for t in range(max_element + 1):
            shifted = ma << t
            sums += [m | shifted for m in sums]
        yield list(map(int.bit_count, sums[1:]))


def _count_polys(subsets) -> list[int]:
    """Each subset as sum(256**x): the product of two is the count array of
    their pair sums, one byte per sum.  A count never exceeds the smaller
    size, which stays below 256 for every enumerable domain."""
    return [sum(1 << 8 * x for x in s) for s in subsets]


_ORDERED_PAIRS = "all ordered pairs of non-empty subsets of {{0..{max_element}}}"
_PAIRS = "all pairs of non-empty subsets of {{0..{max_element}}}"


@_check("edge-size-bounds", _ORDERED_PAIRS, max_element=8)
def _check_edge_size_bounds(check, d):
    subsets = _subsets(d.max_element)
    for a, sizes in zip(subsets, _size_rows(d.max_element)):
        la = len(a)
        for b, size in zip(subsets, sizes):
            lb = len(b)
            if not (max(la, lb) <= size <= la * lb):
                _fail(check, {"first": list(a), "second": list(b), "size": size})
    return {"pairs": len(subsets) ** 2}


@_check("edge-size-product-minus-neglect",
        _ORDERED_PAIRS + ", neglecting number from the class partition", max_element=8)
def _check_size_product_minus_neglect(check, d):
    subsets = _subsets(d.max_element)
    top = 2 * d.max_element + 1
    polys = _count_polys(subsets)
    rows = _size_rows(d.max_element)
    for a, pa, sizes in zip(subsets, polys, rows):
        la = len(a)
        for b, pb, size in zip(subsets, polys, sizes):
            product = la * len(b)
            classes = top - (pa * pb).to_bytes(top, "little").count(0)
            r = product - classes
            if size != product - r:
                _fail(check, {
                    "first": list(a), "second": list(b),
                    "size": size, "neglecting_number": r,
                })
    return {"pairs": len(subsets) ** 2}


@_check("saturated-class-size",
        "compatibility tables for " + _PAIRS, max_element=5)
def _check_saturated_class(check, d):
    subsets = _subsets(d.max_element)
    sets = [IntegerSet(s) for s in subsets]
    polys = _count_polys(subsets)
    top = 2 * d.max_element + 1
    sums = range(top)
    rows = [(a, len(a), sa, pa) for a, sa, pa in zip(subsets, sets, polys)]
    for a, la, sa, pa in rows:
        for b, lb, sb, pb in rows:
            table = compatibility_table(sa, sb)
            counts = (pa * pb).to_bytes(top, "little")
            floor = min(la, lb)
            classes = top - counts.count(0)
            largest = max(counts)
            # a count equals floor only if the largest does (above it, ok fails)
            saturated = (tuple(compress(sums, map(floor.__eq__, counts)))
                         if largest == floor else ())
            ok = (
                largest <= floor
                and table.max_class_size == largest
                and table.index == classes == len(sumset(sa, sb).elements)
                and table.neglecting_number == la * lb - classes
                and table.saturated_sums == saturated
            )
            if not ok:
                _fail(check, {"first": list(a), "second": list(b),
                              "index": table.index, "max_class": table.max_class_size})
    return {"pairs": len(subsets) ** 2}


# ---------------------------------------------------------------------------
# edge-size relations on shared vertices

def _ratio_condition(m, ni, nj, ri, rj):
    if ni == nj:
        return ri == rj
    return m * (ni - nj) == ri - rj


@_check("adjacent-edge-ratio",
        "two edges at a shared vertex, labels over subsets of {{0..{max_element}}} "
        "of size <= {max_label_size}",
        max_element=4, max_label_size=3)
def _check_adjacent_edge_ratio(check, d):
    labels = _labels(d)
    sizes = _size_table(labels)
    degenerate = 0
    for mid, row in zip(labels, sizes):
        m = len(mid)
        for a, sa in zip(labels, row):
            ra = m * len(a) - sa
            for b, sb in zip(labels, row):
                rb = m * len(b) - sb
                if len(a) == len(b):
                    degenerate += 1
                equal = sa == sb
                if equal != _ratio_condition(m, len(a), len(b), ra, rb):
                    _fail(check, {
                        "shared": list(mid), "first": list(a), "second": list(b),
                        "sizes": [sa, sb], "neglects": [ra, rb],
                    })
    return {
        "triples": len(labels) ** 3,
        "equal-cardinality pairs routed to the equal-neglect variant": degenerate,
    }


def _adjacent_edge_pairs(g: Graph):
    """(shared vertex, other endpoint, other endpoint) per adjacent pair."""
    out = []
    edges = g.edges
    for i, (u, v) in enumerate(edges):
        for x, y in edges[i + 1:]:
            shared = {u, v} & {x, y}
            if shared:
                s = shared.pop()
                a = u if v == s else v
                b = x if y == s else y
                out.append((s, a, b))
    return out


_ALL_LABELINGS = (
    "{graphs}, all labelings over subsets of {{0..{max_element}}} "
    "of size <= {max_label_size}"
)


@_check("uniform-iasl-ratio-condition", _ALL_LABELINGS,
        graphs=_ratio_graphs, max_element=4, max_label_size=2)
def _check_uniform_ratio_condition(check, d):
    labels = _labels(d)
    nlab = len(labels)
    sizes = _size_table(labels)
    cases = 0
    for g in d.graphs:
        pairs = _adjacent_edge_pairs(g)
        edges = g.edges
        for combo in iproduct(range(nlab), repeat=g.vertex_count):
            cases += 1
            esizes = [sizes[combo[u]][combo[v]] for u, v in edges]
            uniform = len(set(esizes)) <= 1
            holds = True
            for s, a, b in pairs:
                m = len(labels[combo[s]])
                na, nb = len(labels[combo[a]]), len(labels[combo[b]])
                sa, sb = sizes[combo[s]][combo[a]], sizes[combo[s]][combo[b]]
                if not _ratio_condition(m, na, nb, m * na - sa, m * nb - sb):
                    holds = False
                    break
            if uniform != holds:
                _fail(check, {
                    "graph6": write_graph6(g),
                    "labels": [list(labels[i]) for i in combo],
                    "uniform": uniform, "condition": holds,
                })
    return {"labelings": cases}


@_check("uniform-vertices-equal-neglect",
        "{graphs}, equal-size labelings over subsets of {{0..{max_element}}}",
        graphs=_ratio_graphs, max_element=4)
def _check_uniform_equal_neglect(check, d):
    cases = 0
    for l in (1, 2):
        labels = [s for s in _subsets(d.max_element) if len(s) == l]
        nlab = len(labels)
        sizes = _size_table(labels)
        for g in d.graphs:
            edges = g.edges
            for combo in iproduct(range(nlab), repeat=g.vertex_count):
                cases += 1
                esizes = [sizes[combo[u]][combo[v]] for u, v in edges]
                neglects = [l * l - s for s in esizes]
                uniform = len(set(esizes)) <= 1
                same_neglect = len(set(neglects)) <= 1
                if uniform != same_neglect:
                    _fail(check, {
                        "graph6": write_graph6(g),
                        "labels": [list(labels[i]) for i in combo],
                    })
    return {"labelings": cases}


# ---------------------------------------------------------------------------
# weak / strong structure and uniform existence

_SEARCHED = "{graphs}; nonexistence bounded by the search config"
_SEARCHED_KS = "{graphs}, k in {ks}; nonexistence bounded by the search config"


def _k_uniform_iasi(out, k) -> bool:
    """Whether a construction built a set-indexer whose edge labels all
    have k elements (or a graph without edges)."""
    return (
        not isinstance(out, NoConstruction)
        and out.report.is_iasi
        and (out.report.edge_uniform_k == k or out.report.vacuous_edges)
    )


@_check("two-uniform-iff-bipartite", _SEARCHED, graphs=_CONNECTED_GRAPHS)
def _check_two_uniform_iff_bipartite(check, d):
    built = searched = 0
    for g in d.graphs:
        if is_bipartite(g).bipartite:
            out = two_uniform_iasi(g)
            built += 1
            if not _k_uniform_iasi(out, 2):
                _fail(check, {"graph6": write_graph6(g), "direction": "construct"})
        else:
            _exhausted(check, g, 2, "any", {})
            searched += 1
    return {"constructed": built, "exhausted": searched}


@_check("max-identity-iff-singleton-endpoint", _PAIRS, max_element=6)
def _check_max_identity_iff_singleton(check, d):
    subsets = _subsets(d.max_element)
    for a, sizes in zip(subsets, _size_rows(d.max_element)):
        for b, size in zip(subsets, sizes):
            hits_max = size == max(len(a), len(b))
            singleton = min(len(a), len(b)) == 1
            if hits_max != singleton:
                _fail(check, {"first": list(a), "second": list(b)})
    return {"pairs": len(subsets) ** 2}


def _unrank(index: int, nlab: int, n: int) -> list[int]:
    """The index-th (from 0) tuple of iproduct(range(nlab), repeat=n)."""
    combo = [0] * n
    for p in range(n - 1, -1, -1):
        index, combo[p] = divmod(index, nlab)
    return combo


def _weak_strong_engine(check, d, lhs_table, rhs_table, lhs_fn, rhs_fn):
    """Per-labeling comparison of two per-edge tables, classify cross-checked
    on every 199th labeling counted across graphs.

    Each side of a labeling is the conjunction of its edges' table entries,
    so equal tables agree on every labeling and only the cross-checked ones
    are visited; unequal tables visit every labeling. Each visited labeling
    is unranked from its index.
    """
    labels = _labels(d)
    nlab = len(labels)
    lhs = [[lhs_table(a, b) for b in labels] for a in labels]
    rhs = [[rhs_table(a, b) for b in labels] for a in labels]
    isets = [IntegerSet(s) for s in labels]
    step = 1 if lhs != rhs else 199
    cases = 0
    cross = 0
    for g in d.graphs:
        edges = g.edges
        n = g.vertex_count
        for index in range(cases + step - cases % step, cases + nlab ** n + 1, step):
            combo = _unrank(index - cases - 1, nlab, n)
            left = all(lhs[combo[u]][combo[v]] for u, v in edges)
            right = all(rhs[combo[u]][combo[v]] for u, v in edges)
            if left != right:
                _fail(check, {
                    "graph6": write_graph6(g),
                    "labels": [list(labels[i]) for i in combo],
                    "classify_side": left, "structure_side": right,
                })
            if index % 199 == 0:
                f = SetLabeling(g, [isets[i] for i in combo])
                if lhs_fn(f) != left or rhs_fn(f)[0] != right:
                    _fail(check, {
                        "graph6": write_graph6(g),
                        "labels": [list(labels[i]) for i in combo],
                        "note": "table path disagrees with classify path",
                    })
                cross += 1
        cases += nlab ** n
    return {"labelings": cases, "classify_crosschecks": cross}


@_check("weak-iff-singleton-endpoints", _ALL_LABELINGS,
        graphs=_sparse_graphs, max_element=4, max_label_size=2)
def _check_weak_iff_singleton(check, d):
    return _weak_strong_engine(
        check, d,
        lambda a, b: len(_sums_of(a, b)) == max(len(a), len(b)),
        lambda a, b: min(len(a), len(b)) == 1,
        lambda f: classify(f).is_weak,
        weak_structure_check,
    )


@_check("weakly-uniform-iff-bipartite", _SEARCHED_KS,
        graphs=_CONNECTED_GRAPHS, ks=(2, 3))
def _check_weakly_uniform_iff_bipartite(check, d):
    ks = [k for k in d.ks if k >= 2]
    if not ks:
        check.verdict = "inconclusive"
        check.reason = "empty domain"
    for g in d.graphs:
        bipartite = is_bipartite(g).bipartite
        for k in ks:
            if bipartite:
                out = weakly_uniform_iasi(g, k)
                if not (_k_uniform_iasi(out, k) and out.report.is_weak):
                    _fail(check, {"graph6": write_graph6(g), "k": k,
                                  "direction": "construct"})
            else:
                _exhausted(check, g, k, "weak", {"k": k})
    return {
        "graphs": len(d.graphs),
        "note": "k=1 excluded: all-singleton labelings are weakly 1-uniform "
                "on any graph, so the bipartite equivalence starts at k=2",
    }


@_check("max-sumset-iff-disjoint-differences", _ORDERED_PAIRS, max_element=8)
def _check_max_sumset_iff_disjoint(check, d):
    subsets = _subsets(d.max_element)
    diffs = [sum(1 << e for e in difference_set(IntegerSet(s))) for s in subsets]
    rows = _size_rows(d.max_element)
    for a, da, sizes in zip(subsets, diffs, rows):
        la = len(a)
        for b, db, size in zip(subsets, diffs, sizes):
            full = size == la * len(b)
            disjoint = not (da & db)
            if full != disjoint:
                _fail(check, {
                    "first": list(a), "second": list(b),
                    "full_product": full, "disjoint_differences": disjoint,
                })
    return {"pairs": len(subsets) ** 2}


@_check("strong-iff-disjoint-differences", _ALL_LABELINGS,
        graphs=_sparse_graphs, max_element=4, max_label_size=2)
def _check_strong_iff_disjoint(check, d):
    def disj(a, b):
        da = frozenset(x - y for x in a for y in a if x > y)
        db = frozenset(x - y for x in b for y in b if x > y)
        return not (da & db)

    return _weak_strong_engine(
        check, d,
        lambda a, b: len(_sums_of(a, b)) == len(a) * len(b),
        disj,
        lambda f: classify(f).is_strong,
        strong_structure_check,
    )


@_check("strongly-uniform-iff-bipartite-or-square", _SEARCHED_KS,
        graphs=_CONNECTED_GRAPHS, ks=(1, 2, 3, 4))
def _check_strongly_uniform(check, d):
    branches = {"completely-uniform": 0, "bipartite": 0, "none": 0}
    for g in d.graphs:
        bip = is_bipartite(g).bipartite
        for k in d.ks:
            square = isqrt(k) ** 2 == k
            out = strongly_uniform_iasi(g, k)
            if square or bip:
                ok = _k_uniform_iasi(out, k) and out.report.is_strong
                if square and ok and g.edge_count:
                    ok = out.report.completely_uniform == (k, isqrt(k))
                if not ok:
                    _fail(check, {"graph6": write_graph6(g), "k": k,
                                  "direction": "construct"})
                else:
                    branches["completely-uniform" if square else "bipartite"] += 1
            else:
                if not isinstance(out, NoConstruction):
                    _fail(check, {"graph6": write_graph6(g), "k": k,
                                  "direction": "construct",
                                  "note": "construction should have refused"})
                if _exhausted(check, g, k, "strong", {"k": k}):
                    branches["none"] += 1
    return {"branches": branches}


# ---------------------------------------------------------------------------
# induced labeling formulas on derived graphs

def _raw_labels(out) -> list[list[int]]:
    """Undo logged repairs to recover the labels the formula produced."""
    labels = [l.to_list() for l in out.labeling.labels]
    for entry in out.repair_log:
        labels[entry.vertex] = entry.original.to_list()
    return labels


def _transfer_formula(check, graphs, transfer, derived_key):
    """Transfer the canonical labeling of each graph to a derived graph and
    record every graph whose formula labels are not a set-indexer."""
    for g in graphs:
        f = canonical_iasi(g).labeling
        out = transfer(f)
        rep = out.formula_report
        if not (rep.is_iasl and rep.is_iasi):
            _fail(check, {
                "graph6": write_graph6(g),
                "labeling": labeling_to_json(f),
                derived_key: write_graph6(out.labeling.graph),
                "formula_labels": _raw_labels(out),
                "formula_violations": [
                    {"kind": v.kind, "where": repr(v.where)} for v in rep.violations
                ],
            })
    return {"graphs": len(graphs)}


@_check("line-graph-formula-iasi",
        "{graphs}, singleton powers-of-two labelings; "
        "wider corpora are known to break the transfer formula",
        graphs=_ALL_GRAPHS)
def _check_line_graph_formula(check, d):
    return _transfer_formula(check, d.graphs, line_graph_labeling, "line_graph6")


@_check("total-graph-formula-iasi", "{graphs}, singleton powers-of-two labelings",
        graphs=_path_graphs,
        default_note=" (the transfer formula is injective there; triangles, "
                     "4-cycles and stars are recorded counterexamples)")
def _check_total_graph_formula(check, d):
    return _transfer_formula(check, d.graphs, total_graph_labeling, "total_graph6")


# ---------------------------------------------------------------------------
# sum-set identity

@_check("edge-size-equals-class-count", _PAIRS, max_element=5)
def _check_edge_size_is_class_count(check, d):
    subsets = _subsets(d.max_element)
    sets = [IntegerSet(s) for s in subsets]
    for a, sa in zip(subsets, sets):
        for b, sb in zip(subsets, sets):
            if len(sumset(sa, sb)) != compatibility_table(sa, sb).index:
                _fail(check, {"first": list(a), "second": list(b)})
    # the additive variant |A|+|B| is not an identity; record why it is rejected
    a, b = IntegerSet((0, 1)), IntegerSet((0, 1))
    return {
        "pairs": len(subsets) ** 2,
        "additive_variant_rejected": {
            "first": [0, 1], "second": [0, 1],
            "size": len(sumset(a, b)),
            "cardinality_sum": len(a) + len(b),
        },
    }


# ---------------------------------------------------------------------------
# running

CHECK_IDS = tuple(_SPECS)


def run_check(
    check_id: str,
    corpus: Corpus | None = None,
    config: SearchConfig | None = None,
) -> TheoremCheck:
    """Run one registered check; unknown ids raise KeyError, and bounds the
    k-uniform checks would reject raise ValueError before any check runs."""
    if check_id not in _SPECS:
        raise KeyError(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    config = config if config is not None else SearchConfig()
    config.check_label_universe()
    spec = _SPECS[check_id]
    corpus = corpus or Corpus()
    graphs = described = None
    note = ""
    if spec.family is not None:
        if corpus.graphs is not None:
            graphs = corpus.graphs
            described = f"{len(graphs)} supplied graphs"
        else:
            graphs, described = spec.family(corpus.max_vertices)
            note = spec.default_note
    overrides = {
        name: value for name in ("max_element", "max_label_size", "ks")
        if (value := getattr(corpus, name)) is not None
    }
    d = Corpus(**{**vars(spec.defaults), "graphs": graphs, **overrides})
    description = spec.corpus.format(
        graphs=described, max_element=d.max_element,
        max_label_size=d.max_label_size, ks=sorted(d.ks or ()),
    )
    check = TheoremCheck(check_id, description + note, config, "pass")
    if graphs is not None and not graphs:
        check.verdict = "inconclusive"
        check.reason = "empty domain"
        return check
    try:
        check.details = spec.run(check, d)
    except BudgetExceeded:
        check.verdict = "inconclusive"
        check.reason = "budget"
    return check


class SuiteResult(Record, frozen=False):
    checks: list[TheoremCheck]

    @property
    def verdict(self) -> str:
        if any(c.verdict == "counterexample" for c in self.checks):
            return "counterexample"
        if any(c.verdict == "inconclusive" for c in self.checks):
            return "inconclusive"
        return "pass"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "checks": [c.to_json() for c in self.checks],
        }


def run_suite(
    corpus: Corpus | None = None,
    config: SearchConfig | None = None,
) -> SuiteResult:
    """Run every registered check; results in registry order.

    Bounds the k-uniform checks would reject raise ValueError before any
    check runs.
    """
    config = config if config is not None else SearchConfig()
    config.check_label_universe()
    return SuiteResult([run_check(i, corpus, config) for i in CHECK_IDS])
