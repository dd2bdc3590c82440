"""Bounded exact search for small witnesses and their absence.

Both searches ask for a set-indexer over a finite label domain and share
one backtracking engine: `min_ground_set_size` over the subsets of each
candidate ground set, `find_k_uniform` over the bounded label universe
with a per-pair allow-list.  Ground sets and candidate labels are
enumerated in a fixed canonical order, so the first witness is
deterministic for a given config and "exhausted" verdicts really mean
the whole bounded space was visited.  Certificates carry the config and
a description of the space they are scoped to; they never claim more.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations
from math import comb, inf

from ._record import Record
from .graph import Graph, bits, cycle_graph
from .intset import IntegerSet
from .labeling import SetLabeling, classify, ground_set, labeling_to_json

__all__ = [
    "SearchConfig", "Certificate", "BudgetExceeded",
    "min_ground_set_size", "find_k_uniform", "check_binomial_bound",
    "BinomialBoundCheck", "MAX_ELEMENT_BOUND", "MAX_LABELS",
]


MAX_ELEMENT_BOUND = 12
MAX_LABELS = 1023


class SearchConfig(Record):
    """Search bounds: label elements from {0..element_bound}, k-uniform
    labels of at most size_bound elements, time_budget wall-clock seconds.

    Rejected with ValueError: an element_bound outside
    0..MAX_ELEMENT_BOUND, a size_bound below 1, and a negative or
    non-finite time_budget.  find_k_uniform also rejects bounds whose
    label universe has more than MAX_LABELS members (see
    check_label_universe).
    """

    element_bound: int = 8
    size_bound: int = 4
    time_budget: float = 60.0

    def __post_init__(self):
        b, s = self.element_bound, self.size_bound
        if not 0 <= b <= MAX_ELEMENT_BOUND:
            raise ValueError(f"element_bound must be in 0..{MAX_ELEMENT_BOUND}, got {b}")
        if s < 1:
            raise ValueError(f"size_bound must be at least 1, got {s}")
        if not 0 <= self.time_budget < inf:
            raise ValueError(
                f"time_budget must be a finite non-negative number, got {self.time_budget}"
            )

    def check_label_universe(self) -> None:
        """Raise ValueError if more than MAX_LABELS labels lie within these
        bounds.  The cap bounds the length of one k-uniform table row and
        how many rows an exhaustive search fills.  Counts the labels
        without building them; no label has more than b + 1 elements,
        however large size_bound is."""
        b, s = self.element_bound, self.size_bound
        count = sum(comb(b + 1, size) for size in range(1, min(s, b + 1) + 1))
        if count > MAX_LABELS:
            raise ValueError(
                f"{count} labels within {{0..{b}}} of size <= {s} "
                f"exceed the cap of {MAX_LABELS}; lower element_bound or size_bound"
            )

    def to_json(self) -> dict:
        return {
            "element_bound": self.element_bound,
            "size_bound": self.size_bound,
            "time_budget": self.time_budget,
        }


class Certificate(Record, frozen=False):
    kind: str                        # witness | exhausted | budget_exceeded
    config: SearchConfig
    description: str
    witness: SetLabeling | None = None
    data: dict = {}

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "config": self.config.to_json(),
            "description": self.description,
            "witness": labeling_to_json(self.witness) if self.witness else None,
        }
        out.update(self.data)
        return out


class BudgetExceeded(Exception):
    """Internal unwind when the wall-clock budget runs out."""


class _Deadline:
    def __init__(self, budget: float):
        self.limit = time.monotonic() + budget

    def check(self) -> None:
        if time.monotonic() >= self.limit:
            raise BudgetExceeded


def _twin_constraints(masks: tuple[int, ...]) -> tuple[int, ...]:
    """For each vertex, the largest smaller twin (or -1), from the
    neighbourhood bitmasks.

    Twins (equal neighborhoods apart from each other) can swap labels
    without changing any verdict, so forcing ascending label indices
    along a twin chain prunes without losing witnesses.  Non-adjacent
    twins share their open mask, adjacent ones their closed mask (the
    mask with the vertex's own bit); no open mask equals a closed one.
    """
    out = []
    last: dict[int, int] = {}            # a mask -> the latest vertex with it
    for v, mv in enumerate(masks):
        closed = mv | 1 << v
        out.append(max(last.get(mv, -1), last.get(closed, -1)))
        last[mv] = last[closed] = v
    return tuple(out)


def _subsets(elements) -> list[tuple[int, ...]]:
    """Non-empty subsets of elements, ascending by position bitmask."""
    out = [()]
    for x in elements:
        out += [s + (x,) for s in out]
    return out[1:]


class _Table:
    """One label domain and its pair rows, each row filled on first use.

    labels are IntegerSets in domain order and masks their element
    bitmasks.  A filled row key[i] holds, at j, the sum-set bitmask of
    labels i and j.  Under a pair rule (k, mode), pairs that break it
    are keyed 0, which no sum set has, and allowed[i] lists the labels
    allowed next to label i, ascending; without one, allowed is None.
    A row is None until fill builds it.  cycles maps L to whether the
    odd cycle C_L was exhausted over these labels, for find_k_uniform.
    """

    def __init__(self, labels, rule: tuple[int, str] | None = None):
        self.labels = labels
        self.masks = [sum(1 << e for e in lab.elements) for lab in labels]
        self.rule = rule
        self.key: list[list[int] | None] = [None] * len(labels)
        self.allowed = None if rule is None else [None] * len(labels)
        self.cycles: dict[int, bool] = {}

    def fill(self, i: int, deadline: _Deadline) -> None:
        """Build row i by shift-OR after a deadline check, and store it
        once complete.  The k-uniform pair rule allows a pair when its sum
        set has k elements and, in mode "weak", one label is a singleton,
        in mode "strong", the sum set has |A||B| elements."""
        deadline.check()
        mi = self.masks[i]
        row = []
        for lab in self.labels:
            s = 0
            for e in lab.elements:
                s |= mi << e
            row.append(s)
        if self.rule is not None:
            k, mode = self.rule
            a = len(self.labels[i].elements)
            for j, lab in enumerate(self.labels):
                size, b = row[j].bit_count(), len(lab.elements)
                if size != k or (mode == "weak" and min(a, b) != 1) or (
                        mode == "strong" and size != a * b):
                    row[j] = 0
            self.allowed[i] = [j for j, s in enumerate(row) if s]
        self.key[i] = row


@lru_cache(maxsize=8)
def _ground_table(ground: tuple[int, ...]) -> _Table:
    """The non-empty subsets of ground, ascending by position bitmask.

    A filled row has 2^m - 1 keys for an m-element ground set, about 40
    bytes each on CPython 3.11, and only a search that exhausts the
    ground set fills every row: 67 M keys for a 13-element set.  So the
    cache holds few tables.
    """
    return _Table([IntegerSet(s) for s in _subsets(ground)])


@lru_cache(maxsize=32)
def _uniform_table(element_bound: int, size_bound: int, k: int, mode: str) -> _Table:
    """Every label within the bounds, ascending by element bitmask, under
    the k-uniform pair rule of mode."""
    subsets = _subsets(range(element_bound + 1))
    return _Table([IntegerSet(s) for s in subsets if len(s) <= size_bound], (k, mode))


def _odd_girth(g: Graph, deadline: _Deadline) -> int | None:
    """Length of a shortest odd cycle of g, None if g is bipartite: 2d + 1
    for the least d at which a BFS tree has an edge joining two depth-d
    vertices.  Once a d is found, every tree stops at its first vertex of
    depth d or more.  The end of such an edge popped first sees it and the
    tree stops by the other end, so a tree that runs to its end spans a
    bipartite component, whose other roots are skipped.  The deadline is
    checked before each tree."""
    stop = n = g.vertex_count            # deeper than any vertex
    bipartite = set()                    # the vertices of bipartite components
    for s in g.vertices():
        if s in bipartite:
            continue
        deadline.check()
        depth = {s: 0}
        queue = [s]
        for v in queue:
            d = depth[v]
            if d >= stop:
                break
            for w in g.adjacency[v]:
                if w not in depth:
                    depth[w] = d + 1
                    queue.append(w)
                elif depth[w] == d:
                    stop = d
        else:                            # no equal-depth edge
            bipartite.update(queue)
    return 2 * stop + 1 if stop < n else None


def _backtrack(g: Graph, table: _Table, deadline: _Deadline):
    """The first set-indexer of g over table's labels, one label per vertex.

    Vertices take distinct labels, in g.bfs order so that constraints
    bind early, each trying labels in domain order; the labels of every
    edge must have a non-zero sum-set key that no other edge has.  Under
    a pair rule a vertex tries only the labels allowed next to its placed
    neighbours.  A label placed at a vertex with a later neighbour has
    its row filled then, so every row the search reads exists.
    Positions are kept on an explicit stack, so no graph is too large to
    recurse on.  None when the whole space is exhausted, at once when g
    has more vertices than table has labels.
    """
    deadline.check()
    if g.vertex_count > len(table.labels):
        return None
    masks, order = g.masks, g.bfs[0]
    twins = _twin_constraints(masks)
    earlier = [[] for _ in masks]        # neighbours placed before v, ascending
    fills = [False] * len(masks)         # v has a neighbour placed after it
    placed = 0
    for v in order:
        earlier[v] = list(bits(masks[v] & placed))
        placed |= 1 << v
        fills[v] = masks[v] & ~placed != 0
    key, allowed, nlab, nv = table.key, table.allowed, len(table.labels), len(order)
    assign = [-1] * (nv + 1)             # by vertex, -1 if unplaced; the spare last
                                         # slot is the floor where twins[v] == -1
    used: set[int] = set()
    edge_used = {0}
    pending: list = [None] * nv          # per position, the candidates not yet tried
    added: list = [None] * nv            # per position, the edge keys its label took
    counter = 0
    p = 0
    while p < nv:
        v = order[p]
        anchors = earlier[v]
        floor = assign[twins[v]]
        if pending[p] is None:
            pending[p] = iter(range(floor + 1, nlab) if allowed is None or not anchors
                              else min((allowed[assign[u]] for u in anchors), key=len))
        for idx in pending[p]:
            if idx <= floor or idx in used:
                continue
            counter += 1
            if not counter % 4096:
                deadline.check()
            new_keys = []
            for u in anchors:
                k = key[assign[u]][idx]
                if k in edge_used or k in new_keys:
                    break
                new_keys.append(k)
            else:
                assign[v] = idx
                used.add(idx)
                edge_used.update(new_keys)
                added[p] = new_keys
                if fills[v] and key[idx] is None:
                    table.fill(idx, deadline)
                p += 1
                break
        else:                            # position p is exhausted: take back p - 1
            pending[p] = None
            p -= 1
            if p < 0:
                return None
            u = order[p]
            used.remove(assign[u])
            edge_used.difference_update(added[p])
            assign[u] = -1
    return [table.labels[assign[v]] for v in range(nv)]


def min_ground_set_size(
    g: Graph, config: SearchConfig | None = None
) -> tuple[int | None, Certificate]:
    """Smallest m such that some m-element X in {0..element_bound} carries
    a set-indexer of g with labels drawn from the subsets of X.

    Ascends from ceil(log2(n+1)); a witness at m means every smaller
    size was exhausted within the element bound first.
    """
    config = config or SearchConfig()
    n = g.vertex_count
    lower = n.bit_length()
    deadline = _Deadline(config.time_budget)
    space = (
        f"ground sets X within {{0..{config.element_bound}}}, "
        f"labels over non-empty subsets of X"
    )
    try:
        for m in range(lower, config.element_bound + 2):
            # first X, in combinations order, whose subsets carry a set-indexer
            for ground in combinations(range(config.element_bound + 1), m):
                deadline.check()
                labels = _backtrack(g, _ground_table(ground), deadline)
                if labels is None:
                    continue
                witness = SetLabeling(g, labels)
                report = classify(witness)
                if not (report.is_iasl and report.is_iasi):
                    raise AssertionError("witness failed re-verification")
                cert = Certificate(
                    "witness", config,
                    f"{space}; sizes below {m} exhausted, first admissible X at size {m}",
                    witness,
                    {"size": m, "ground_set": list(ground),
                     "lower_bound": lower},
                )
                return m, cert
    except BudgetExceeded:
        return None, Certificate(
            "budget_exceeded", config,
            f"{space}; wall-clock budget ran out before a verdict",
        )
    return None, Certificate(
        "exhausted", config,
        f"{space}; no admissible ground set of any size within bounds",
        data={"lower_bound": lower},
    )


# ---------------------------------------------------------------------------
# k-uniform search

def find_k_uniform(
    g: Graph, k: int, config: SearchConfig | None = None, mode: str = "any",
) -> Certificate:
    """Exhaustive search for a k-uniform set-indexer within label bounds.

    mode restricts the space: "weak" additionally demands a singleton
    endpoint on every edge, "strong" demands full-size edge products.
    The exhausted verdict is scoped to labels inside the config bounds.

    A shortest odd cycle C_L of g with L < n is a subgraph, so when the
    search exhausts C_L, that refutation stands for g, unsearched; such
    a g can end "exhausted" where its own search would have run out of
    budget.  Witnesses still come from the search of g itself.  Each
    C_L verdict is kept on the label table of k, mode and the bounds
    while that table is cached, so C_L is searched once; g's own verdict
    is kept only when g is C_L itself (L = n).  A kept verdict changes
    no certificate byte, but can turn a would-be "budget_exceeded" into
    "exhausted"; time_budget=0 still gives "budget_exceeded"."""
    if mode not in ("any", "weak", "strong"):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    config = config or SearchConfig()
    config.check_label_universe()
    deadline = _Deadline(config.time_budget)
    space = (
        f"labels within {{0..{config.element_bound}}} of size <= {config.size_bound}"
        + ("" if mode == "any" else f", {mode} edges only")
    )
    try:
        deadline.check()
        table = _uniform_table(config.element_bound, config.size_bound, k, mode)
        # with more vertices than labels, _backtrack exhausts at once: no girth
        odd = None if g.vertex_count > len(table.labels) else _odd_girth(g, deadline)
        cycles = table.cycles
        if odd is not None and odd < g.vertex_count and odd not in cycles:
            cycles[odd] = _backtrack(cycle_graph(odd), table, deadline) is None
        found = None if cycles.get(odd) else _backtrack(g, table, deadline)
        if odd == g.vertex_count:            # g is C_L: a chord closes a shorter odd cycle
            cycles[odd] = found is None
    except BudgetExceeded:
        return Certificate(
            "budget_exceeded", config,
            f"{space}; wall-clock budget ran out before a verdict",
            data={"k": k, "mode": mode},
        )
    if found is not None:
        witness = SetLabeling(g, found)
        report = classify(witness)
        if not (report.is_iasl and report.is_iasi and report.is_k_uniform(k)):
            raise AssertionError("witness failed re-verification")
        return Certificate("witness", config, space, witness, {"k": k, "mode": mode})
    return Certificate(
        "exhausted", config,
        f"{space}; no {k}-uniform set-indexer exists in this space",
        data={"k": k, "mode": mode},
    )


# ---------------------------------------------------------------------------
# binomial bound

class BinomialBoundCheck(Record):
    vertex_count: int
    ground_set_size: int
    label_size: int
    bound: int
    holds: bool

    def to_json(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "ground_set_size": self.ground_set_size,
            "label_size": self.label_size,
            "bound": self.bound,
            "holds": self.holds,
        }


def check_binomial_bound(g: Graph, f: SetLabeling) -> BinomialBoundCheck:
    """For an l-uniform set-indexer, n is at most C(|X|, l) over the
    ground set X actually used (the union of the labels)."""
    if f.graph != g:
        raise ValueError("labeling does not belong to this graph")
    report = classify(f)
    if not (report.is_iasl and report.is_iasi):
        raise ValueError("labeling is not a set-indexer")
    l = report.vertex_uniform_l
    if l is None:
        raise ValueError("vertex labels are not uniform in size")
    x = len(ground_set(f))
    bound = comb(x, l)
    return BinomialBoundCheck(g.vertex_count, x, l, bound, g.vertex_count <= bound)
