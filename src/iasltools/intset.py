"""Exact arithmetic on finite sets of non-negative integers.

Sum sets A+B, integral multiples n.A, difference sets, and the partition
of A x B into equal-sum compatibility classes.  These are the primitives
every labeling verdict in this package reduces to, so everything here is
exact integer arithmetic on immutable values.
"""

from __future__ import annotations

from functools import cached_property

from ._record import Record

__all__ = [
    "DEFAULT_ELEMENT_BOUND", "ElementBoundError", "IntegerSet", "iset", "sumset",
    "integral_multiple", "difference_set", "CompatibilityTable",
    "compatibility_table",
]

# Results above this are refused rather than silently accepted; callers
# that scale labels (repairs, uniform constructions) rely on the error.
DEFAULT_ELEMENT_BOUND = 1 << 20


class ElementBoundError(ValueError):
    """An element or arithmetic result exceeds DEFAULT_ELEMENT_BOUND."""


class IntegerSet(Record, order=True):
    """Non-empty finite set of non-negative integers, kept sorted ascending."""

    elements: tuple[int, ...]

    def __init__(self, elements):
        elements = tuple(elements)
        # bool is a subclass of int, but JSON true is not the element 1;
        # checked before deduplication, which would merge True into 1
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in elements):
            raise TypeError("elements must be integers")
        elems = tuple(sorted(set(elements)))
        if not elems:
            raise ValueError("label sets must be non-empty")
        if elems[0] < 0:
            raise ValueError(f"negative element {elems[0]} not allowed")
        if elems[-1] > DEFAULT_ELEMENT_BOUND:
            raise ElementBoundError(
                f"element {elems[-1]} exceeds bound {DEFAULT_ELEMENT_BOUND}"
            )
        object.__setattr__(self, "elements", elems)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __str__(self) -> str:
        return "{%s}" % ",".join(map(str, self.elements))

    @property
    def max_element(self) -> int:
        return self.elements[-1]

    def to_list(self) -> list[int]:
        return list(self.elements)


def _trusted(elements: tuple[int, ...]) -> IntegerSet:
    """Wrap a tuple that is already sorted, distinct, non-empty and in bound.

    Used for results whose validity follows from validated inputs; the
    value is indistinguishable from one built through IntegerSet().
    """
    out = object.__new__(IntegerSet)
    out.__dict__["elements"] = elements
    return out


def iset(*elements: int) -> IntegerSet:
    """Shorthand constructor: iset(1, 2) == IntegerSet((1, 2))."""
    return IntegerSet(elements)


def sumset(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """Return {x + y : x in a, y in b}.

    Both inputs are valid sets, so every sum is a non-negative integer and
    only the bound can fail; the error names the first offending pair in
    a-major order.
    """
    ae, be = a.elements, b.elements
    bound = DEFAULT_ELEMENT_BOUND
    if ae[-1] + be[-1] > bound:
        for x in ae:
            for y in be:
                if x + y > bound:
                    raise ElementBoundError(
                        f"sum {x}+{y}={x + y} of pair ({x},{y}) exceeds bound {bound}"
                    )
    return _trusted(tuple(sorted({x + y for x in ae for y in be})))


def integral_multiple(n: int, a: IntegerSet) -> IntegerSet:
    """Return n.a = {n * x : x in a} for a positive integer n.

    n = 0 would collapse every set to {0}, so it is rejected.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"multiplier must be a positive integer, got {n!r}")
    out = []
    for x in a.elements:
        s = n * x
        if s > DEFAULT_ELEMENT_BOUND:
            raise ElementBoundError(
                f"multiple {n}*{x}={s} exceeds bound {DEFAULT_ELEMENT_BOUND}"
            )
        out.append(s)
    return IntegerSet(out)


def difference_set(a: IntegerSet) -> frozenset[int]:
    """Positive differences |x - y| over distinct x, y in a.

    Empty exactly when a is a singleton.
    """
    elems = a.elements
    return frozenset(
        elems[j] - elems[i] for i in range(len(elems)) for j in range(i + 1, len(elems))
    )


class CompatibilityTable(Record):
    """Partition of a.elements x b.elements into equal-sum classes.

    The scalar fields come from the per-sum pair counts.  classes holds
    (sum, ordered pairs) entries for realized sums only, ascending by
    sum; pairs within a class are lexicographic.  It is listed on first
    read, since most callers need only the counts.
    """

    first: IntegerSet
    second: IntegerSet
    index: int
    neglecting_number: int
    max_class_size: int
    saturated_sums: tuple[int, ...]

    def __init__(self, first, second, index, neglecting_number, max_class_size,
                 saturated_sums):
        # One dict update, without Record.__init__'s matching of arguments
        # to fields: a table is built per pair in the oracle sweeps.
        self.__dict__.update(
            first=first, second=second, index=index,
            neglecting_number=neglecting_number, max_class_size=max_class_size,
            saturated_sums=saturated_sums,
        )

    @cached_property
    def classes(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        grouped: dict[int, list[tuple[int, int]]] = {}
        for x in self.first.elements:
            for y in self.second.elements:
                grouped.setdefault(x + y, []).append((x, y))
        return tuple((s, tuple(grouped[s])) for s in sorted(grouped))


def compatibility_table(a: IntegerSet, b: IntegerSet) -> CompatibilityTable:
    """Group the ordered pairs of a x b by their sum."""
    ae, be = a.elements, b.elements
    counts: dict[int, int] = {}
    get = counts.get
    for x in ae:
        for y in be:
            s = x + y
            counts[s] = get(s, 0) + 1
    index = len(counts)
    largest = max(counts.values())
    saturation = min(len(ae), len(be))
    saturated = ()
    # no class exceeds the smaller size: one is saturated only if the largest is
    if largest == saturation:
        saturated = tuple(sorted([s for s, c in counts.items() if c == saturation]))
    return CompatibilityTable(
        a, b, index, len(ae) * len(be) - index, largest, saturated
    )
