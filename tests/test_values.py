import copy
import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from noet.spaces import explicit
from noet.values import (Int, Interval, IntervalSet, Node, Pair, Seq, Tup,
                         _Entry, interval_strictly_within, render,
                         render_chain, render_set, sort_values,
                         sorted_unique, value_key)

ints = st.builds(Int, st.integers(-20, 20))


def iv(lo, hi):
    return Interval(lo, hi)


# interval strategies must respect the lo <= hi + 1 constraint
@st.composite
def valid_intervals(draw):
    lo = draw(st.integers(-5, 5))
    hi = draw(st.integers(lo - 1, 6))
    return Interval(lo, hi)


simple_values = st.one_of(
    ints,
    valid_intervals(),
    st.builds(Node, st.text(st.characters(categories=("Ll",)), min_size=1, max_size=4)),
    st.builds(Seq, st.lists(st.integers(-9, 9), max_size=4).map(tuple)),
)

values = st.one_of(
    simple_values,
    st.builds(Pair, ints, ints),
    st.builds(lambda ms: IntervalSet(frozenset(ms)),
              st.lists(valid_intervals().filter(lambda i: not i.empty), max_size=3)),
    st.builds(lambda a, b: Tup((a, b)), simple_values, simple_values),
)


class TestInterval:
    def test_rejects_impossible_bounds(self):
        with pytest.raises(ValueError):
            Interval(3, 1)

    def test_empty_width_positions(self):
        assert iv(2, 1).empty and iv(2, 1).width == 0
        assert iv(1, 3).width == 3
        assert list(iv(1, 3).positions()) == [1, 2, 3]
        assert list(iv(2, 1).positions()) == []

    def test_covers(self):
        assert iv(1, 3).covers(2)
        assert not iv(1, 3).covers(4)
        assert not iv(2, 1).covers(2)

    def test_containment_set_reading(self):
        # empties sit inside everything non-empty, nowhere strictly inside
        # another empty
        assert interval_strictly_within(iv(5, 4), iv(1, 2))
        assert not interval_strictly_within(iv(5, 4), iv(2, 1))
        assert interval_strictly_within(iv(1, 2), iv(1, 3))
        assert interval_strictly_within(iv(2, 2), iv(1, 3))
        assert not interval_strictly_within(iv(1, 3), iv(1, 3))
        assert not interval_strictly_within(iv(1, 3), iv(2, 4))


class TestIntervalSet:
    def test_union_and_max_width(self):
        s = IntervalSet(frozenset({iv(1, 2), iv(4, 5)}))
        assert s.union_positions() == frozenset({1, 2, 4, 5})
        assert s.max_width() == 2
        assert IntervalSet(frozenset()).max_width() == 0
        assert IntervalSet(frozenset()).union_positions() == frozenset()


class TestRender:
    def test_each_shape(self):
        assert render(Int(3)) == "3"
        assert render(Pair(Int(1), Int(2))) == "(1, 2)"
        assert render(iv(1, 3)) == "1..3"
        assert render(iv(1, 0)) == "1..0"
        assert render(IntervalSet(frozenset({iv(3, 4), iv(1, 2)}))) == "{1..2, 3..4}"
        assert render(Seq((1, 2))) == "[1, 2]"
        assert render(Node("start")) == "start"
        assert render(Tup((Seq((2, 1)), iv(1, 2)))) == "([2, 1], 1..2)"

    def test_set_and_chain(self):
        assert render_set([Int(0)]) == "{0}"
        assert render_set([]) == "{}"
        assert render_set([Int(2), Int(1)]) == "{1, 2}"
        assert render_chain([Int(1), Int(2), Int(1)]) == "1 → 2 → 1"


class TestOrdering:
    @given(st.lists(values, max_size=8))
    def test_sort_is_stable_under_resort(self, vs):
        once = sort_values(vs)
        assert sort_values(once) == once

    @given(values, values)
    def test_key_equality_matches_value_equality(self, a, b):
        assert (value_key(a) == value_key(b)) == (a == b)

    def test_type_rank_groups(self):
        mixed = [Node("z"), Int(5), iv(1, 2), Seq((0,)),
                 Pair(Int(0), Int(0)), IntervalSet(frozenset())]
        ranked = [type(v).__name__ for v in sort_values(mixed)]
        assert ranked == ["Int", "Pair", "Interval", "IntervalSet", "Seq", "Node"]


def structural_key(v):
    """value_key by plain recursion, without the inline Int children."""
    if type(v) is Pair:
        return (1, structural_key(v.first), structural_key(v.second))
    if type(v) is Tup:
        return (6, tuple(structural_key(x) for x in v.items))
    return value_key(v)


nested_values = st.recursive(
    values,
    lambda inner: st.one_of(st.builds(Pair, inner, inner),
                            st.builds(Tup, st.lists(inner, max_size=2))),
    max_leaves=6)

# a small pool, so that short lists often repeat a value
few_values = st.lists(
    st.one_of(values, st.sampled_from([Int(1), Int(-1), Pair(Int(1), Int(2)),
                                       Node("a")])),
    max_size=3)


class TestSortedUnique:
    @given(few_values)
    def test_equals_sorting_the_distinct_values(self, vs):
        assert sorted_unique(vs) == sorted(set(vs), key=value_key)
        assert sorted_unique(iter(vs)) == sorted(set(vs), key=value_key)

    def test_empty_input_gives_an_empty_list(self):
        assert sorted_unique([]) == [] and sorted_unique(()) == []

    def test_the_result_is_a_new_list(self):
        for given_list in ([], [Int(1)], [Int(2), Int(1)]):
            got = sorted_unique(given_list)
            assert got is not given_list
            got.append(Int(9))
            assert Int(9) not in given_list

    @pytest.mark.parametrize("bad", [7, "x", None, (Int(1),)])
    def test_a_lone_non_value_raises(self, bad):
        with pytest.raises(TypeError, match="not a value"):
            sorted_unique([bad])
        with pytest.raises(TypeError, match="not a value"):
            explicit([bad])


class TestPairKeys:
    @given(nested_values)
    def test_value_key_equals_the_structural_recursion(self, v):
        assert value_key(v) == structural_key(v)

    def test_mixed_children(self):
        p = Pair(Int(3), Pair(Node("b"), Int(-2)))
        assert value_key(p) == (1, (0, 3), (1, (5, "b"), (0, -2)))
        with pytest.raises(TypeError, match="not a value"):
            value_key(Pair(Int(1), 7))


class TestInterning:
    def test_equal_values_are_one_object(self):
        assert Int(3) is Int(3)
        assert Pair(Int(1), Int(2)) is Pair(Int(1), Int(2))
        assert Pair(first=Int(value=1), second=Int(value=2)) is Pair(Int(1), Int(2))
        assert Pair(Int(1), Int(2)) is not Pair(Int(2), Int(1))
        assert Pair(Pair(Int(0), Int(1)), Int(2)) is Pair(Pair(Int(0), Int(1)), Int(2))

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    def test_identity_is_equality(self, a, b, c, d):
        p, q = Pair(Int(a), Int(b)), Pair(Int(c), Int(d))
        assert (p is q) == (p == q) == ((a, b) == (c, d))

    def test_hashes_keep_the_dataclass_formulas(self):
        # set order, and with it every witness printed, follows these
        assert hash(Int(7)) == hash((7,))
        assert hash(Int(-1)) == hash((-1,))
        inner = Pair(Int(2), Int(3))
        assert hash(inner) == hash((Int(2), Int(3)))
        assert hash(Pair(Int(1), inner)) == hash((Int(1), inner))
        assert hash(Pair(iv(1, 2), Node("a"))) == hash((iv(1, 2), Node("a")))

    def test_repr_is_the_dataclass_one(self):
        assert repr(Int(-4)) == "Int(value=-4)"
        assert repr(Pair(Int(0), Pair(Int(1), Int(2)))) == (
            "Pair(first=Int(value=0), "
            "second=Pair(first=Int(value=1), second=Int(value=2)))")

    def test_fields_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            Int(1).value = 2
        with pytest.raises(FrozenInstanceError):
            Pair(Int(0), Int(1)).second = Int(0)
        with pytest.raises(FrozenInstanceError):
            del Int(1).value
        assert Int(1).value == 1

    def test_copy_and_pickle_return_the_interned_object(self):
        for v in (Int(5), Pair(Int(0), Pair(Int(1), Int(2)))):
            assert copy.copy(v) is v
            assert copy.deepcopy(v) is v
            assert pickle.loads(pickle.dumps(v)) is v

    def test_the_table_does_not_keep_values_alive(self):
        ref = weakref.ref(Int(918273645))
        gc.collect()
        assert ref() is None
        assert Int(918273645).value == 918273645

    @pytest.mark.parametrize("make", [
        lambda: Int(918273646),
        lambda: Pair(Int(918273647), Int(-918273647)),
    ])
    def test_a_dead_value_leaves_its_table(self, make):
        table = type(make())._table
        gc.collect()
        before = len(table)
        v = make()
        assert len(table) == before + 1
        ref = weakref.ref(v)
        del v
        gc.collect()
        assert ref() is None and len(table) == before

    def test_a_stale_entry_leaves_a_newer_one_in_place(self):
        p = Pair(Int(918273650), Int(0))
        key = (id(p.first), id(p.second))
        entry = Pair._table[key]
        stale = _Entry(p)   # another entry under p's key
        stale.key = key
        Pair._released(stale)
        assert Pair._table[key] is entry and entry() is p
        del p
        gc.collect()
        assert key not in Pair._table

    def test_a_value_made_again_is_interned_again(self):
        # its first object died, so a new entry took the key
        for make in (lambda: Int(918273648),
                     lambda: Pair(Int(1), Int(918273649))):
            ref = weakref.ref(make())
            gc.collect()
            assert ref() is None
            v = make()
            assert make() is v
            assert copy.copy(v) is v and copy.deepcopy(v) is v
            assert pickle.loads(pickle.dumps(v)) is v

    def test_pairs_of_uninterned_children_compare_structurally(self):
        a, b = Pair(iv(1, 2), Int(0)), Pair(iv(1, 2), Int(0))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Pair(iv(1, 3), Int(0))
        assert Int(1) != 1 and Pair(Int(0), Int(1)) != (Int(0), Int(1))


# one empty and one non-empty Interval, and one of each other hand-written
# variant: (value, a field, its hash by the dataclass formula, its repr)
HAND_WRITTEN = [
    (Interval(3, 2), "lo", hash((3, 2)), "Interval(lo=3, hi=2)"),
    (Interval(-1, 4), "hi", hash((-1, 4)), "Interval(lo=-1, hi=4)"),
    (IntervalSet(frozenset({Interval(1, 2)})), "members",
     hash((frozenset({Interval(1, 2)}),)),
     "IntervalSet(members=frozenset({Interval(lo=1, hi=2)}))"),
    (Seq((1, 2)), "items", hash(((1, 2),)), "Seq(items=(1, 2))"),
    (Node("ab"), "name", hash(int.from_bytes(b"ab", "big")), "Node(name='ab')"),
    (Tup((Int(0), Node("a"))), "items", hash(((Int(0), Node("a")),)),
     "Tup(items=(Int(value=0), Node(name='a')))"),
]
HAND_WRITTEN_IDS = ["empty_interval", "interval", "interval_set", "seq", "node",
                    "tup"]


class TestHandWrittenVariants:
    @pytest.mark.parametrize("v, field, h, text", HAND_WRITTEN,
                             ids=HAND_WRITTEN_IDS)
    def test_hash_formula_and_repr(self, v, field, h, text):
        assert hash(v) == h
        assert repr(v) == text

    @pytest.mark.parametrize("v, field, h, text", HAND_WRITTEN,
                             ids=HAND_WRITTEN_IDS)
    def test_fields_are_frozen(self, v, field, h, text):
        before = getattr(v, field)
        with pytest.raises(FrozenInstanceError):
            setattr(v, field, before)
        with pytest.raises(FrozenInstanceError):
            delattr(v, field)
        with pytest.raises(FrozenInstanceError):
            v.extra = 1
        assert getattr(v, field) == before

    @pytest.mark.parametrize("v, field, h, text", HAND_WRITTEN,
                             ids=HAND_WRITTEN_IDS)
    def test_copy_and_pickle_give_an_equal_value(self, v, field, h, text):
        for got in (copy.copy(v), copy.deepcopy(v),
                    pickle.loads(pickle.dumps(v))):
            assert type(got) is type(v)
            assert got == v and hash(got) == hash(v)

    def test_keyword_construction(self):
        assert Interval(lo=1, hi=2) == Interval(1, 2)
        members = IntervalSet(members=[Interval(1, 2), Interval(1, 2)]).members
        assert type(members) is frozenset and members == {Interval(1, 2)}
        assert Seq(items=[1, 2]).items == (1, 2)
        assert type(Seq(items=[1, 2]).items) is tuple
        assert Node(name="a") == Node("a")
        assert Tup(items=[Int(0)]).items == (Int(0),)
        assert type(Tup(items=[Int(0)]).items) is tuple

    def test_malformed_values_are_refused(self):
        with pytest.raises(ValueError, match="malformed"):
            Interval(3, 1)
        with pytest.raises(ValueError, match="not an interval"):
            IntervalSet([Interval(1, 2), Int(1)])

    def test_no_cross_variant_or_tuple_equality(self):
        assert Seq(()) != Tup(())
        assert Seq((1,)) != Tup((1,))
        assert Interval(1, 2) != (1, 2)
        assert Seq((1,)) != ((1,),)
        assert Node("a") != "a"
        assert IntervalSet(frozenset()) != frozenset()
        assert Interval(1, 2) == Interval(1, 2) and Seq(()) == Seq(())
