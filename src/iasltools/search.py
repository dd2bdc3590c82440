"""Bounded exact search for small witnesses and their absence.

Ground sets and candidate labels are enumerated in a fixed canonical
order, so the first witness is deterministic for a given config and
"exhausted" verdicts really mean the whole bounded space was visited.
Certificates carry the config and a description of the space they are
scoped to; they never claim more.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

from .graph import Graph
from .intset import IntegerSet
from .labeling import SetLabeling, classify, ground_set

__all__ = [
    "SearchConfig", "Certificate", "BudgetExceeded",
    "min_ground_set_size", "find_k_uniform", "check_binomial_bound",
    "BinomialBoundCheck",
]


@dataclass(frozen=True)
class SearchConfig:
    element_bound: int = 8
    size_bound: int = 4
    time_budget: float = 60.0

    def to_json(self) -> dict:
        return {
            "element_bound": self.element_bound,
            "size_bound": self.size_bound,
            "time_budget": self.time_budget,
        }


@dataclass
class Certificate:
    kind: str                        # witness | exhausted | budget_exceeded
    config: SearchConfig
    description: str
    witness: SetLabeling | None = None
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        from .labeling import labeling_to_json
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
    def __init__(self, budget: float | None):
        self.limit = None if budget is None else time.monotonic() + budget

    def check(self) -> None:
        if self.limit is not None and time.monotonic() >= self.limit:
            raise BudgetExceeded


def _twin_constraints(g: Graph) -> tuple[int, ...]:
    """For each vertex, the largest smaller twin (or -1).

    Twins (equal neighborhoods apart from each other) can swap labels
    without changing any verdict, so forcing ascending label indices
    along a twin chain prunes without losing witnesses.
    """
    out = []
    for v in g.vertices():
        prev = -1
        nv = g.adjacency[v] - {v}
        for u in range(v):
            if g.adjacency[u] - {v} == nv - {u}:
                prev = u
        out.append(prev)
    return tuple(out)


@lru_cache(maxsize=32)
def _universe(element_bound: int, size_bound: int) -> tuple[tuple[int, ...], ...]:
    """All candidate labels, ascending by element bitmask."""
    out = []
    for mask in range(1, 1 << (element_bound + 1)):
        if mask.bit_count() <= size_bound:
            out.append(tuple(i for i in range(element_bound + 1) if mask >> i & 1))
    return tuple(out)


@lru_cache(maxsize=32)
def _pair_tables(element_bound: int, size_bound: int):
    """Sum-set bitmask and size for every ordered pair of labels."""
    labels = _universe(element_bound, size_bound)
    masks = [sum(1 << e for e in lab) for lab in labels]
    n = len(labels)
    key = [[0] * n for _ in range(n)]
    size = [[0] * n for _ in range(n)]
    for i in range(n):
        mi = masks[i]
        for j in range(i, n):
            s = 0
            for e in labels[j]:
                s |= mi << e
            key[i][j] = key[j][i] = s
            size[i][j] = size[j][i] = s.bit_count()
    return labels, key, size


def _search_order(g: Graph) -> list[int]:
    """Components in order, BFS inside each, so constraints bind early."""
    seen: set[int] = set()
    order: list[int] = []
    for start in g.vertices():
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(g.adjacency[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


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
    lower = max(n.bit_length(), 1 if n else 0)
    deadline = _Deadline(config.time_budget)
    space = (
        f"ground sets X within {{0..{config.element_bound}}}, "
        f"labels over non-empty subsets of X"
    )
    try:
        for m in range(lower, config.element_bound + 2):
            found = _scan_ground_sets(g, m, config, deadline)
            if found is not None:
                witness, ground = found
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


def _scan_ground_sets(g: Graph, m: int, config: SearchConfig, deadline: _Deadline):
    for ground in combinations(range(config.element_bound + 1), m):
        deadline.check()
        labels = _try_ground_set(g, ground, deadline)
        if labels is not None:
            return SetLabeling(g, labels), ground
    return None


def _try_ground_set(g: Graph, ground: tuple[int, ...], deadline: _Deadline):
    subsets = []
    for mask in range(1, 1 << len(ground)):
        subsets.append(tuple(ground[i] for i in range(len(ground)) if mask >> i & 1))
    if len(subsets) < g.vertex_count:
        return None
    keys = [sum(1 << e for e in s) for s in subsets]
    nsub = len(subsets)
    sum_keys: dict[tuple[int, int], int] = {}

    def pair_key(i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        got = sum_keys.get((i, j))
        if got is None:
            got = 0
            for e in subsets[j]:
                got |= keys[i] << e
            sum_keys[(i, j)] = got
        return got

    order = _search_order(g)
    pos_of = {v: p for p, v in enumerate(order)}
    twins = _twin_constraints(g)
    earlier = [
        [u for u in g.adjacency[v] if pos_of[u] < pos_of[v]] for v in g.vertices()
    ]
    assign: dict[int, int] = {}
    used: set[int] = set()
    edge_used: set[int] = set()
    counter = 0

    def place(p: int) -> bool:
        nonlocal counter
        if p == len(order):
            return True
        v = order[p]
        floor = -1
        tw = twins[v]
        if tw >= 0 and tw in assign:
            floor = assign[tw]
        for idx in range(floor + 1, nsub):
            counter += 1
            if not counter % 4096:
                deadline.check()
            if idx in used:
                continue
            new_keys = []
            ok = True
            for u in earlier[v]:
                k = pair_key(assign[u], idx)
                if k in edge_used or k in new_keys:
                    ok = False
                    break
                new_keys.append(k)
            if not ok:
                continue
            assign[v] = idx
            used.add(idx)
            edge_used.update(new_keys)
            if place(p + 1):
                return True
            del assign[v]
            used.remove(idx)
            edge_used.difference_update(new_keys)
        return False

    if not place(0):
        return None
    return [IntegerSet(subsets[assign[v]]) for v in g.vertices()]


# ---------------------------------------------------------------------------
# k-uniform search

def find_k_uniform(
    g: Graph, k: int, config: SearchConfig | None = None, mode: str = "any"
) -> Certificate:
    """Exhaustive search for a k-uniform set-indexer within label bounds.

    mode restricts the space: "weak" additionally demands a singleton
    endpoint on every edge, "strong" demands full-size edge products.
    The exhausted verdict is scoped to labels inside the config bounds.
    """
    if mode not in ("any", "weak", "strong"):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    config = config or SearchConfig()
    labels, key, size = _pair_tables(config.element_bound, config.size_bound)
    nlab = len(labels)
    deadline = _Deadline(config.time_budget)
    space = (
        f"labels within {{0..{config.element_bound}}} of size <= {config.size_bound}"
        + ("" if mode == "any" else f", {mode} edges only")
    )

    def pair_ok(i: int, j: int) -> bool:
        if size[i][j] != k:
            return False
        if mode == "weak":
            return min(len(labels[i]), len(labels[j])) == 1
        if mode == "strong":
            return size[i][j] == len(labels[i]) * len(labels[j])
        return True

    compat = [[j for j in range(nlab) if pair_ok(i, j)] for i in range(nlab)]

    order = _search_order(g)
    pos_of = {v: p for p, v in enumerate(order)}
    twins = _twin_constraints(g)
    earlier = [
        [u for u in g.adjacency[v] if pos_of[u] < pos_of[v]] for v in g.vertices()
    ]
    assign: dict[int, int] = {}
    used: set[int] = set()
    edge_used: set[int] = set()
    counter = 0

    def candidates(v: int):
        anchors = earlier[v]
        if not anchors:
            return range(nlab)
        best = min(anchors, key=lambda u: len(compat[assign[u]]))
        return compat[assign[best]]

    def place(p: int) -> bool:
        nonlocal counter
        if p == len(order):
            return True
        v = order[p]
        floor = -1
        tw = twins[v]
        if tw >= 0 and tw in assign:
            floor = assign[tw]
        for idx in candidates(v):
            if idx <= floor or idx in used:
                continue
            counter += 1
            if not counter % 4096:
                deadline.check()
            new_keys = []
            ok = True
            for u in earlier[v]:
                if not pair_ok(assign[u], idx):
                    ok = False
                    break
                kk = key[assign[u]][idx]
                if kk in edge_used or kk in new_keys:
                    ok = False
                    break
                new_keys.append(kk)
            if not ok:
                continue
            assign[v] = idx
            used.add(idx)
            edge_used.update(new_keys)
            if place(p + 1):
                return True
            del assign[v]
            used.remove(idx)
            edge_used.difference_update(new_keys)
        return False

    try:
        deadline.check()
        if place(0):
            witness = SetLabeling(g, [IntegerSet(labels[assign[v]]) for v in g.vertices()])
            report = classify(witness)
            target_ok = report.is_iasl and report.is_iasi and (
                report.edge_uniform_k == k or report.vacuous_edges
            )
            if not target_ok:
                raise AssertionError("witness failed re-verification")
            return Certificate("witness", config, space, witness, {"k": k, "mode": mode})
    except BudgetExceeded:
        return Certificate(
            "budget_exceeded", config,
            f"{space}; wall-clock budget ran out before a verdict",
            data={"k": k, "mode": mode},
        )
    return Certificate(
        "exhausted", config,
        f"{space}; no {k}-uniform set-indexer exists in this space",
        data={"k": k, "mode": mode},
    )


# ---------------------------------------------------------------------------
# binomial bound

@dataclass(frozen=True)
class BinomialBoundCheck:
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
