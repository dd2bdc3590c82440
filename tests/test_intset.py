"""Exact sum-set arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from iasltools.intset import (
    DEFAULT_ELEMENT_BOUND, CompatibilityTable, ElementBoundError, IntegerSet,
    compatibility_table, difference_set, integral_multiple, iset, sumset,
)

small_sets = st.frozensets(st.integers(0, 12), min_size=1, max_size=5).map(
    lambda s: IntegerSet(s)
)


class TestIntegerSet:
    def test_sorted_dedup(self):
        assert IntegerSet([3, 1, 3, 2]).elements == (1, 2, 3)

    def test_str_is_braced_ascending(self):
        assert str(iset(2, 1)) == "{1,2}"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntegerSet([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IntegerSet([0, -1])

    def test_non_integer_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            IntegerSet([1.5])

    @pytest.mark.parametrize("elements", [[1.5], [True], [0, False], [1, True]])
    def test_bool_rejected_like_a_float(self, elements):
        # [1, True] must not pass as {1}: the check precedes deduplication
        with pytest.raises(TypeError, match="^elements must be integers$"):
            IntegerSet(elements)

    def test_bound_rejected(self):
        with pytest.raises(ElementBoundError):
            IntegerSet([DEFAULT_ELEMENT_BOUND + 1])

    def test_membership_len_iter(self):
        s = iset(0, 4, 9)
        assert len(s) == 3
        assert 4 in s and 5 not in s
        assert list(s) == [0, 4, 9]

    def test_value_equality_and_ordering(self):
        assert iset(1, 2) == IntegerSet((2, 1))
        assert sorted([iset(2), iset(1, 5), iset(1, 2)]) == [
            iset(1, 2), iset(1, 5), iset(2)]

    def test_hashable(self):
        assert len({iset(1, 2), IntegerSet([2, 1])}) == 1

    def test_max_element_and_to_list(self):
        assert iset(7, 2).max_element == 7
        assert iset(7, 2).to_list() == [2, 7]


class TestSumset:
    def test_worked_example(self):
        assert sumset(iset(1, 2), iset(3, 4)) == iset(4, 5, 6)

    def test_self_sum(self):
        assert sumset(iset(0, 2), iset(0, 2)) == iset(0, 2, 4)

    def test_progressions_hit_minimum(self):
        # arithmetic progressions with one common difference collide maximally
        a, b = iset(1, 3, 5), iset(2, 4)
        assert len(sumset(a, b)) == len(a) + len(b) - 1

    def test_zero_identity(self):
        a = iset(3, 7, 9)
        assert sumset(a, iset(0)) == a

    def test_overflow_names_pair(self):
        a = iset(5)
        with pytest.raises(ElementBoundError, match="5"):
            sumset(a, IntegerSet([DEFAULT_ELEMENT_BOUND - 1]))

    @given(small_sets, small_sets)
    def test_commutative(self, a, b):
        assert sumset(a, b) == sumset(b, a)

    @given(small_sets, small_sets, small_sets)
    def test_associative(self, a, b, c):
        assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))

    @given(small_sets, small_sets)
    def test_size_bounds(self, a, b):
        size = len(sumset(a, b))
        assert max(len(a), len(b)) <= size <= len(a) * len(b)

    @given(small_sets, small_sets)
    def test_matches_pairwise_enumeration(self, a, b):
        assert set(sumset(a, b)) == {x + y for x in a for y in b}


class TestIntegralMultiple:
    def test_scales_elements(self):
        assert integral_multiple(3, iset(0, 1, 2)) == iset(0, 3, 6)

    def test_one_is_identity(self):
        a = iset(2, 9)
        assert integral_multiple(1, a) == a

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            integral_multiple(0, iset(1))

    def test_multiple_past_the_bound_rejected(self):
        half = DEFAULT_ELEMENT_BOUND // 2
        with pytest.raises(ElementBoundError, match=rf"^multiple 3\*{half}={3 * half} exceeds"):
            integral_multiple(3, iset(1, half))

    @given(st.integers(1, 6), small_sets)
    def test_preserves_cardinality(self, n, a):
        assert len(integral_multiple(n, a)) == len(a)

    @given(small_sets)
    def test_double_is_subset_of_self_sum(self, a):
        assert set(integral_multiple(2, a)) <= set(sumset(a, a))


class TestDifferenceSet:
    def test_worked_example(self):
        assert difference_set(iset(1, 2, 5)) == frozenset({1, 3, 4})

    def test_singleton_empty(self):
        assert difference_set(iset(4)) == frozenset()

    @given(small_sets, small_sets)
    def test_full_product_iff_disjoint_differences(self, a, b):
        full = len(sumset(a, b)) == len(a) * len(b)
        assert full == (not (difference_set(a) & difference_set(b)))


class TestCompatibilityTable:
    def test_worked_example(self):
        t = compatibility_table(iset(1, 2), iset(3, 4))
        assert isinstance(t, CompatibilityTable)
        assert t.index == 3
        assert t.neglecting_number == 1
        assert t.max_class_size == 2
        assert [s for s, _ in t.classes] == [4, 5, 6]
        assert dict(t.classes)[5] == ((1, 4), (2, 3))
        assert t.saturated_sums == (5,)

    def test_additive_form_is_not_the_size(self):
        # |{0,1}+{0,1}| = 3 while |A|+|B| = 4: the class count is the size
        t = compatibility_table(iset(0, 1), iset(0, 1))
        assert t.index == 3 == len(sumset(iset(0, 1), iset(0, 1)))
        assert t.index != len(iset(0, 1)) + len(iset(0, 1))

    def test_as_dict_maps_sums_to_pairs(self):
        t = compatibility_table(iset(0, 2), iset(1, 3))
        d = dict(t.classes)
        assert set(d) == {1, 3, 5}
        assert d[3] == ((0, 3), (2, 1))

    @given(small_sets, small_sets)
    def test_partitions_all_pairs(self, a, b):
        t = compatibility_table(a, b)
        assert sum(len(p) for _, p in t.classes) == len(a) * len(b)
        assert t.index == len(sumset(a, b))
        assert t.neglecting_number == len(a) * len(b) - t.index

    @given(small_sets, small_sets)
    def test_class_size_floor(self, a, b):
        t = compatibility_table(a, b)
        floor = min(len(a), len(b))
        assert t.max_class_size <= floor
        for s, pairs in t.classes:
            assert (len(pairs) == floor) == (s in t.saturated_sums)


def _brute_table(a, b):
    """Reference compatibility table: every sum, then every pair at that sum."""
    sums = sorted({x + y for x in a for y in b})
    classes = tuple(
        (s, tuple((x, y) for x in a for y in b if x + y == s)) for s in sums
    )
    floor = min(len(a), len(b))
    return {
        "classes": classes,
        "index": len(classes),
        "neglecting_number": len(a) * len(b) - len(classes),
        "max_class_size": max(len(p) for _, p in classes),
        "saturated_sums": tuple(s for s, p in classes if len(p) == floor),
    }


# up to 12 elements from the 25 largest allowed values: sums collide
# often, so large and saturated classes are common
near_bound_sets = st.frozensets(
    st.integers(DEFAULT_ELEMENT_BOUND - 24, DEFAULT_ELEMENT_BOUND), min_size=1, max_size=12
).map(IntegerSet)


class TestCompatibilityTableNearBound:
    @settings(max_examples=300, deadline=None)
    @given(near_bound_sets, near_bound_sets)
    def test_matches_brute_force(self, a, b):
        t = compatibility_table(a, b)
        want = _brute_table(a.elements, b.elements)
        assert (t.index, t.neglecting_number, t.max_class_size, t.saturated_sums) == (
            want["index"], want["neglecting_number"], want["max_class_size"],
            want["saturated_sums"])
        assert t.classes == want["classes"]


class TestExhaustiveDifferential:
    """Every ordered pair of non-empty subsets of {0..5} against brute force."""

    SUBSETS = [
        tuple(x for x in range(6) if mask >> x & 1) for mask in range(1, 1 << 6)
    ]

    def test_domain_size(self):
        assert len(self.SUBSETS) ** 2 == 3969

    def test_compatibility_table(self):
        for a in self.SUBSETS:
            for b in self.SUBSETS:
                sa, sb = IntegerSet(a), IntegerSet(b)
                t = compatibility_table(sa, sb)
                want = _brute_table(a, b)
                assert t.first is sa and t.second is sb
                assert t.index == want["index"], (a, b)
                assert t.neglecting_number == want["neglecting_number"], (a, b)
                assert t.max_class_size == want["max_class_size"], (a, b)
                assert t.saturated_sums == want["saturated_sums"], (a, b)
                assert t.classes == want["classes"], (a, b)
                assert t == compatibility_table(IntegerSet(a), IntegerSet(b))

    def test_sumset(self):
        for a in self.SUBSETS:
            for b in self.SUBSETS:
                got = sumset(IntegerSet(a), IntegerSet(b))
                want = IntegerSet([x + y for x in a for y in b])
                assert type(got) is IntegerSet
                assert got.elements == tuple(sorted({x + y for x in a for y in b}))
                assert got == want and hash(got) == hash(want), (a, b)
                assert repr(got) == repr(want) and str(got) == str(want)
                assert not got < want and not want < got

    def test_sumset_bound_error_names_first_pair(self):
        b = DEFAULT_ELEMENT_BOUND
        with pytest.raises(ElementBoundError) as err:
            sumset(iset(b - 8, b - 5), iset(3, 8, 9))
        assert str(err.value) == (
            "sum 1048568+9=1048577 of pair (1048568,9) exceeds bound 1048576"
        )
        assert sumset(iset(1, b - 5), iset(3, 5)) == iset(4, 6, b - 2, b)

    def test_integer_set_repr(self):
        assert repr(iset(2, 1)) == "IntegerSet(elements=(1, 2))"
