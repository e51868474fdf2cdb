import itertools

import pytest
from hypothesis import given, strategies as st

from noet.errors import SpaceTooLarge
from noet.values import Int, Interval, IntervalSet, Pair, sorted_unique
from noet.spaces import (explicit, filtered, int_range, interval_sets_of,
                         intervals_of, lazy_explicit, product, same_space)


class TestIntRange:
    def test_membership_and_enumeration(self):
        sp = int_range(2, 5)
        assert sp.values() == (Int(2), Int(3), Int(4), Int(5))
        assert sp.contains(Int(3))
        assert not sp.contains(Int(6))
        assert not sp.contains(Interval(2, 3))


class TestExplicit:
    def test_sorts_and_dedupes(self):
        sp = explicit([Int(3), Int(1), Int(3)])
        assert sp.values() == (Int(1), Int(3))

    def test_rejects_non_values(self):
        with pytest.raises(TypeError):
            explicit([Int(1), 7])


class TestProduct:
    def test_pairs_then_tuples(self):
        sp = product(int_range(0, 1), int_range(0, 1))
        assert len(sp.values()) == 4
        assert all(isinstance(v, Pair) for v in sp.values())
        sp3 = product(int_range(0, 1), int_range(0, 1), int_range(0, 1))
        assert len(sp3.values()) == 8

    def test_needs_two_components(self):
        with pytest.raises(ValueError):
            product(int_range(0, 1))


class TestIntervalSpaces:
    def test_intervals_include_one_empty_per_start(self):
        sp = intervals_of(1, 3)
        vs = sp.values()
        # 6 non-empty + 4 empty representatives
        assert len(vs) == 10
        empties = [v for v in vs if v.empty]
        assert [(e.lo, e.hi) for e in empties] == [(1, 0), (2, 1), (3, 2), (4, 3)]
        assert sp.contains(Interval(4, 3))
        assert not sp.contains(Interval(5, 4))

    def test_interval_sets_are_sets_of_nonempty_subintervals(self):
        sp = interval_sets_of(1, 2)
        vs = sp.values()
        assert len(vs) == 8  # subsets of {1..1, 2..2, 1..2}
        assert IntervalSet(frozenset()) in vs
        assert not sp.contains(IntervalSet(frozenset({Interval(2, 1)})))


class TestLimitsAndLazy:
    def test_cap_is_enforced(self):
        with pytest.raises(SpaceTooLarge):
            int_range(0, 10 ** 6).values(1000)

    def test_cap_is_enforced_after_caching(self):
        sp = int_range(0, 50)
        assert len(sp.values(1000)) == 51
        assert sp.enumerable(51) and not sp.enumerable(3)
        with pytest.raises(SpaceTooLarge):
            sp.values(3)
        assert len(sp.values(51)) == 51

    def test_lazy_factory_defers_until_needed(self):
        calls = []

        def factory():
            calls.append(1)
            return (Int(i) for i in range(3))

        sp = lazy_explicit(factory, lambda v: isinstance(v, Int) and 0 <= v.value < 3,
                           estimate=3, label="tiny")
        assert not calls
        assert sp.contains(Int(2))
        assert not calls
        assert sp.values() == (Int(0), Int(1), Int(2))
        assert calls

    def test_filtered_membership_and_enumeration(self):
        evens = filtered(int_range(0, 9), lambda v: v.value % 2 == 0,
                         pred_id="even")
        assert [v.value for v in evens.values()] == [0, 2, 4, 6, 8]
        assert evens.contains(Int(4))
        assert not evens.contains(Int(5))


def _keep_some(base, m):
    # Int, Pair and Tup hashes take no per-process salt
    return filtered(base, lambda v: hash(v) % m != 0)


ordered_spaces = st.recursive(
    st.builds(lambda lo, w: int_range(lo, lo + w),
              st.integers(-3, 3), st.integers(-1, 3)),
    lambda inner: st.one_of(
        st.builds(product, inner, inner),
        st.builds(product, inner, inner, inner),
        st.builds(_keep_some, inner, st.integers(2, 3))),
    max_leaves=4)


class TestGeneratedOrder:
    @given(ordered_spaces)
    def test_int_range_product_and_filtered_enumerate_sorted(self, sp):
        # these kinds skip the sort in Space.values
        vs = sp.values()
        assert list(vs) == sorted_unique(vs)


class TestIdentity:
    def test_structural_kinds_compare_equal(self):
        assert same_space(int_range(0, 3), int_range(0, 3))
        assert not same_space(int_range(0, 3), int_range(0, 4))
        assert same_space(intervals_of(1, 4), intervals_of(1, 4))
        assert same_space(product(int_range(0, 1), int_range(2, 3)),
                          product(int_range(0, 1), int_range(2, 3)))

    def test_explicit_compares_by_values(self):
        assert same_space(explicit([Int(2), Int(1)]), explicit([Int(1), Int(2)]))
        assert not same_space(explicit([Int(1)]), explicit([Int(2)]))

    def test_filtered_needs_predicate_id(self):
        a = filtered(int_range(0, 9), lambda v: v.value % 2 == 0, pred_id="even")
        b = filtered(int_range(0, 9), lambda v: v.value % 2 == 0, pred_id="even")
        c = filtered(int_range(0, 9), lambda v: v.value % 2 == 1, pred_id="odd")
        assert same_space(a, b)
        assert not same_space(a, c)
        anon = filtered(int_range(0, 9), lambda v: True)
        assert same_space(anon, anon)
        assert not same_space(anon, filtered(int_range(0, 9), lambda v: True))

    def test_lazy_is_identity_only(self):
        mk = lambda: lazy_explicit(lambda: iter([Int(0)]),
                                   lambda v: v == Int(0), estimate=1)
        one = mk()
        assert same_space(one, one)
        assert not same_space(mk(), mk())
