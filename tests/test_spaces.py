import itertools

import pytest
from hypothesis import given, strategies as st

from noet.errors import SpaceTooLarge
from noet.values import Int, Interval, IntervalSet, Pair, sorted_unique
from noet.spaces import (DEFAULT_MAX_SPACE, Space, explicit, int_range,
                         interval_sets_of, intervals_of, lazy_explicit,
                         max_space, product, same_space)


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
        with max_space(1000), pytest.raises(SpaceTooLarge):
            int_range(0, 10 ** 6).values()

    def test_cap_is_enforced_after_caching(self):
        sp = int_range(0, 50)
        with max_space(1000):
            assert len(sp.values()) == 51
        assert sp.size() == 51
        with max_space(3), pytest.raises(SpaceTooLarge):
            sp.values()
        with max_space(51):
            assert len(sp.values()) == 51

    def test_lazy_factory_defers_until_needed(self):
        calls = []

        def factory():
            calls.append(1)
            return (Int(i) for i in range(3))

        sp = lazy_explicit(factory, lambda v: isinstance(v, Int) and 0 <= v.value < 3,
                           label="tiny")
        assert not calls
        assert sp.contains(Int(2))
        assert not calls
        assert sp.values() == (Int(0), Int(1), Int(2))
        assert calls

    def test_product_over_the_cap_pairs_its_components_probes(self):
        # each component is small, so its probes are its least members
        sp = product(int_range(1, 400), int_range(1, 400))
        assert sp.sample_values(3) == [Pair(Int(i), Int(i)) for i in (1, 2, 3)]
        big = product(int_range(0, 10 ** 6), int_range(0, 10 ** 6))
        probes = big.sample_values(16)
        assert probes[0] == Pair(Int(0), Int(0))
        assert probes[-1] == Pair(Int(10 ** 6), Int(10 ** 6))
        assert all(big.contains(p) for p in probes)

    def test_intervals_over_the_cap_probe_non_empty_intervals(self):
        sp = intervals_of(1, 500)
        assert sp.size() == 125_751
        assert sp.sample_values(3) == [Interval(1, 1), Interval(1, 2),
                                       Interval(1, 3)]

    def test_intervals_enumerate_in_value_order(self):
        for lo, hi in ((1, 0), (1, 1), (2, 5)):
            every = [Interval(a, a - 1) for a in range(lo, hi + 2)] + [
                Interval(a, b) for a in range(lo, hi + 1)
                for b in range(a, hi + 1)]
            assert list(intervals_of(lo, hi).values()) == sorted_unique(every)

    def test_interval_sets_over_the_cap_probe_their_first_members(self):
        sp = interval_sets_of(1, 6)   # 2 ** 21 sets
        assert sp.size() > 100_000
        assert sp.sample_values(3) == [
            IntervalSet(frozenset()),
            IntervalSet(frozenset({Interval(1, 1)})),
            IntervalSet(frozenset({Interval(1, 2)}))]

    def test_a_wide_interval_set_window_probes_without_listing_it(self):
        # 5 * 10 ** 17 subintervals: the probes must not build that list
        sp = interval_sets_of(1, 10 ** 9)
        probes = sp.sample_values(16)
        assert probes == [IntervalSet(frozenset())] + [
            IntervalSet(frozenset({Interval(1, b)})) for b in range(1, 16)]
        assert product(sp, sp).sample_values(16) == [
            Pair(x, x) for x in probes]

    def test_interval_sets_generate_in_the_same_order(self):
        for lo, hi in ((1, 0), (1, 1), (1, 2), (2, 4)):
            w = hi - lo + 1
            base = [Interval(a, b) for a in range(lo, hi + 1)
                    for b in range(a, hi + 1)]
            want = [IntervalSet(frozenset(c)) for n in range(len(base) + 1)
                    for c in itertools.combinations(base, n)]
            got = list(interval_sets_of(lo, hi)._generate())
            assert got == want and len(got) == 2 ** (w * (w + 1) // 2)



def _ints(factory, member=None):
    """A lazy space of Ints whose factory is counted: (space, draws), where
    draws[0] is the number of values drawn so far. member is the plain-int
    membership test, which must agree with the factory; by default it is
    membership in one finite draw of the factory."""
    draws = [0]
    if member is None:
        member = frozenset(factory()).__contains__

    def counted():
        for v in factory():
            draws[0] += 1
            yield Int(v)

    return lazy_explicit(counted, lambda v: isinstance(v, Int)
                         and member(v.value)), draws


class TestCapRule:
    """A size is exact or counted, so values() answers the same under one
    cap whatever ran before."""

    @pytest.mark.parametrize("sp,n", [
        (int_range(3, 1), 0), (int_range(-2, 7), 10), (intervals_of(1, 3), 10),
        (interval_sets_of(1, 2), 8), (interval_sets_of(1, 0), 1),
        (product(int_range(0, 2), intervals_of(1, 3)), 30),
        (explicit([Int(2), Int(1), Int(2)]), 2)])
    def test_defined_sizes_are_exact(self, sp, n):
        assert sp.size() == n
        assert len(sp.values()) == n

    def test_a_lazy_size_is_the_count_it_generates(self):
        sp, _ = _ints(lambda: [4, 1, 4, 2])
        pairs = product(sp, int_range(0, 1))
        assert sp.size() is None and pairs.size() is None
        assert list(pairs.values()) == sorted_unique(pairs.values())
        assert len(pairs.values()) == 6
        assert sp.size() == 3

    def test_a_lazy_answer_does_not_depend_on_history(self):
        fresh = lambda: _ints(lambda: range(50))[0]
        with max_space(10), pytest.raises(
                SpaceTooLarge,
                match="^space needs more than 10 elements, cap is 10$"):
            fresh().values()
        with max_space(50):
            assert len(fresh().values()) == 50
        warm = fresh()
        with max_space(1000):
            assert len(warm.values()) == 50
        with max_space(10), pytest.raises(SpaceTooLarge,
                                          match="^space needs 50 elements"):
            warm.values()
        with max_space(50):
            assert warm.values() == fresh().values()

    def test_exactly_cap_members_enumerate(self):
        sp, draws = _ints(lambda: range(5))
        with max_space(5):
            assert [v.value for v in sp.values()] == [0, 1, 2, 3, 4]
        assert draws[0] == 5

    def test_more_than_cap_members_refuse_after_cap_plus_one_draws(self):
        sp, draws = _ints(itertools.count, lambda n: n >= 0)
        with max_space(5), pytest.raises(SpaceTooLarge) as exc:
            sp.values()
        assert draws[0] == 6
        assert (exc.value.size, exc.value.cap) == (None, 5)

    def test_repeated_members_count_once(self):
        sp, draws = _ints(lambda: [1, 2, 1, 2, 1, 2, 3])
        with max_space(3):
            assert [v.value for v in sp.values()] == [1, 2, 3]
        assert draws[0] == 7

    def test_repeats_enumerate_once_and_keep_every_membership_answer(self):
        # enumerated, a lazy space answers membership from its members;
        # the _ints spaces check that the helper's predicate agrees too
        probes = [Int(v) for v in range(-1, 8)] + [Pair(Int(0), Int(0)), None]
        for sp, members in [
                (lazy_explicit(lambda: (Int(v) for v in [2, 0, 2, 1, 0]),
                               lambda v: isinstance(v, Int)
                               and 0 <= v.value <= 2), (0, 1, 2)),
                (_ints(lambda: [4, 1, 4, 2])[0], (1, 2, 4)),
                (_ints(lambda: range(5))[0], (0, 1, 2, 3, 4)),
                (_ints(lambda: [1, 2, 1, 2, 1, 2, 3])[0], (1, 2, 3))]:
            answers = [sp.contains(v) for v in probes]
            assert answers == [isinstance(v, Int) and v.value in members
                               for v in probes]
            assert sp.values() == tuple(Int(v) for v in members)
            assert [sp.contains(v) for v in probes] == answers

    def test_a_known_size_refuses_without_generating(self, monkeypatch):
        monkeypatch.setattr(Space, "_generate", None)
        with max_space(100), pytest.raises(
                SpaceTooLarge, match="^space needs 101 elements, cap is 100$"):
            int_range(0, 100).values()
        # 2**66 sets: only "more than" is stated, and no power is built
        for wide in (interval_sets_of(1, 11), interval_sets_of(1, 10 ** 9)):
            with max_space(100), pytest.raises(
                    SpaceTooLarge, match="^space needs more than 100 elements"):
                wide.values()
        assert interval_sets_of(1, 10).size() == 2 ** 55

    def test_spaces_enumerated_inside_meet_the_same_cap(self):
        # a product's components and the spaces a factory enumerates read
        # the setting too, so a raised cap reaches them as well
        big = int_range(0, DEFAULT_MAX_SPACE)
        wide = product(big, int_range(0, 0))
        few = lazy_explicit(lambda: itertools.islice(big.values(), 3),
                            lambda v: isinstance(v, Int) and v.value < 3)
        for sp in (wide, few):
            with pytest.raises(SpaceTooLarge):
                sp.values()
        with max_space(DEFAULT_MAX_SPACE + 1):
            assert len(wide.values()) == DEFAULT_MAX_SPACE + 1
            assert [v.value for v in few.values()] == [0, 1, 2]


ordered_spaces = st.recursive(
    st.builds(lambda lo, w: int_range(lo, lo + w),
              st.integers(-3, 3), st.integers(-1, 3)),
    lambda inner: st.one_of(
        st.builds(product, inner, inner),
        st.builds(product, inner, inner, inner)),
    max_leaves=4)


class TestGeneratedOrder:
    @given(ordered_spaces)
    def test_int_range_and_product_enumerate_sorted(self, sp):
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

    def test_lazy_is_identity_only(self):
        mk = lambda: lazy_explicit(lambda: iter([Int(0)]),
                                   lambda v: v == Int(0))
        one = mk()
        assert same_space(one, one)
        assert not same_space(mk(), mk())
