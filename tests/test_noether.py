"""Termination checking, descent measures, limits, and seeds."""

import pytest
from hypothesis import given, strategies as st

from conftest import any_relation, dag_relation, int_space
from noet.catalog import (_stamp, compose_rel, induced, inverse_of, named,
                          restrict_to)
from noet.errors import (FuelExhausted, NotNoetherian, SpaceMismatch,
                         ValueOutsideSpace)
from noet.noether import (MAXDEPTH, NOETHERIAN, NOT_NOETHERIAN,
                          REACHABLE_MINIMA, Chain, SeedReport, height_from,
                          is_minimal, is_noetherian, is_seed, limit_from,
                          limit_relation, limits, minima, reachable_from)
from noet.relations import Relation, after, from_pairs, reach
from noet.spaces import (explicit, int_range, interval_sets_of, lazy_explicit,
                         max_space, product)
from noet.values import Int, IntervalSet, Node, Pair, sort_values, value_key


def rel(n, pairs):
    sp = int_space(n)
    return from_pairs(sp, sp, [(Int(a), Int(b)) for a, b in pairs])


def node_rel(names, pairs):
    sp = explicit([Node(x) for x in names])
    return from_pairs(sp, sp, [(Node(a), Node(b)) for a, b in pairs])


def greater_on(n):
    # a -> b whenever a > b, every step goes strictly down
    sp = int_space(n)
    return from_pairs(sp, sp, [(Int(a), Int(b))
                               for a in range(n) for b in range(a)])


# the split fixture: a -> b, a -> c, c -> d.  Its two limit modes disagree
# at a, which several tests below lean on.
SPLIT = node_rel("abcd", [("a", "b"), ("a", "c"), ("c", "d")])

PAIR_MEASURES = ("INTSUM", "INTDIFF", "MAXINT", "MININT")


class TestIsNoetherian:
    def test_strict_descent_certified_exhaustively(self):
        v = is_noetherian(greater_on(8))
        assert v.holds is True
        assert v.status == "noetherian" and v.method == "exhaustive"
        assert v.render() == "Noetherian (exhaustive)"

    def test_long_chain_is_fine(self):
        chain = rel(100, [(i, i - 1) for i in range(1, 100)])
        assert is_noetherian(chain).holds is True

    def test_cycle_refutes_with_witness(self):
        v = is_noetherian(rel(3, [(1, 2), (2, 1)]))
        assert v.holds is False
        assert v.witness is not None
        assert v.render() == "not Noetherian, cycle: 1 → 2 → 1"

    def test_self_loop(self):
        v = is_noetherian(rel(2, [(0, 0)]))
        assert v.holds is False
        assert v.render() == "not Noetherian, cycle: 0 → 0"

    def test_mismatched_spaces_rejected(self):
        r = from_pairs(int_space(2), int_space(3), [])
        with pytest.raises(SpaceMismatch):
            is_noetherian(r)

    def test_assert_form(self):
        assert is_noetherian(greater_on(4)).status == NOETHERIAN
        assert is_noetherian(rel(2, [(0, 0)])).status == NOT_NOETHERIAN

    @pytest.mark.parametrize("f", PAIR_MEASURES)
    @pytest.mark.parametrize("g", PAIR_MEASURES)
    def test_witness_does_not_depend_on_earlier_queries(self, f, g):
        # climbing by one measure and descending by another loops; the
        # pair cache keeps each value's successors in the order the
        # composition yields them, so materializing the relation first
        # leaves the cycle the search meets where it was
        sp = product(int_range(0, 3), int_range(0, 3))
        build = lambda: compose_rel(inverse_of(named(f, sp)), named(g, sp))
        fresh = is_noetherian(build())
        assert fresh.holds is False
        for ask in (lambda r: r.pairs(), lambda r: r.classify(),
                    lambda r: r.is_subset_of(named(g, sp))):
            r = build()
            ask(r)
            assert is_noetherian(r) == fresh


class TestBoundedProbe:
    """Sources too large to enumerate fall back to a sampled, fueled walk."""

    def _chain(self, factory, top):
        # factory yields every member of 0..top, the values contains accepts
        sp = lazy_explicit(factory,
                           contains=lambda v: isinstance(v, Int)
                           and 0 <= v.value <= top)
        return Relation(
            sp, sp, lambda a: (Int(a.value - 1),) if a.value > 0 else ())

    def test_clean_probe_stays_unknown(self):
        r = self._chain(lambda: (Int(i) for i in range(16)), top=15)
        with max_space(15):
            v = is_noetherian(r)
        assert v.holds is None
        assert v.method == "bounded" and v.witness is None
        assert v.render() == ("unknown: bounded probe walked 15 edges "
                              "without a verdict")

    def test_fuel_cut_reports_the_partial_chain(self):
        top = 10 ** 6
        r = self._chain(lambda: (Int(top - i) for i in range(top + 1)),
                        top=top)
        v = is_noetherian(r, fuel=100)
        assert v.status == "unknown_fuel_exhausted"
        assert v.witness is not None and v.witness.steps >= 100
        assert v.render().startswith("unknown: fuel exhausted after")
        assert "descending chain of" in v.render()

    def test_product_probe_walks_from_the_paired_probes(self):
        # (m, n) -> (m - 1, n): the probes (i, i) for i in 1..16 walk
        # 0 + 1 + ... + 15 edges
        sp = product(int_range(1, 400), int_range(1, 400))
        r = Relation(sp, sp, lambda p: (Pair(Int(p.first.value - 1), p.second),)
                     if p.first.value > 1 else ())
        assert is_noetherian(r).render() == (
            "unknown: bounded probe walked 120 edges without a verdict")

    def test_interval_set_probe_walks_from_the_first_sets(self):
        # drop the greatest member: the empty set and 15 singletons
        def drop_greatest(s):
            if not s.members:
                return ()
            top = max(s.members, key=lambda m: (m.lo, m.hi))
            return (IntervalSet(s.members - {top}),)

        for hi in (6, 10 ** 9):
            sp = interval_sets_of(1, hi)
            r = Relation(sp, sp, drop_greatest)
            assert is_noetherian(r).render() == (
                "unknown: bounded probe walked 15 edges without a verdict")


class TestDescentMeasures:
    def test_height_pinned(self):
        assert height_from(greater_on(6), Int(5)) == 5
        assert height_from(SPLIT, Node("a")) == 2
        assert height_from(SPLIT, Node("b")) == 0

    @pytest.mark.parametrize("materialize_first", [False, True])
    def test_start_outside_the_source_raises(self, materialize_first):
        # once pairs() has run, _succ gives such a start no successors, so
        # only the membership check keeps each answer free of that history
        r = named("SUCCESSOR", int_range(0, 5))
        if materialize_first:
            r.pairs()
        with pytest.raises(ValueOutsideSpace):
            reachable_from(r, Int(9))
        with pytest.raises(ValueOutsideSpace,
                           match=r"^value 9 is not a member of int_range 0..5$"):
            height_from(r, Int(9))
        with pytest.raises(ValueOutsideSpace):
            limit_from(r, Int(9))
        assert height_from(r, Int(5)) == 5

    def test_cycle_raises(self):
        with pytest.raises(NotNoetherian):
            height_from(rel(3, [(1, 2), (2, 1)]), Int(1))

    def test_fuel_runs_out(self):
        chain = rel(500, [(i, i - 1) for i in range(1, 500)])
        with pytest.raises(FuelExhausted):
            height_from(chain, Int(499), fuel=10)

    def test_fuel_counts_only_the_edges_walked(self):
        chain = rel(500, [(i, i - 1) for i in range(1, 500)])
        assert height_from(chain, Int(10)) == 10
        # 20 .. 11 are new, 10 is already settled: ten edges
        assert height_from(chain, Int(20), fuel=10) == 20
        with pytest.raises(FuelExhausted):
            height_from(rel(500, [(i, i - 1) for i in range(1, 500)]),
                        Int(20), fuel=10)

    def test_warm_memo_hit_spends_no_fuel(self):
        chain = rel(500, [(i, i - 1) for i in range(1, 500)])
        assert height_from(chain, Int(499)) == 499
        assert height_from(chain, Int(499), fuel=0) == 499
        assert height_from(chain, Int(250), fuel=0) == 250


def _outcome(fn, *args):
    try:
        got = fn(*args)
    except NotNoetherian as exc:
        return "cycle", str(exc)
    if isinstance(got, Relation):
        return "relation", got.pairs()
    return "value", got


class TestHeightMemo:
    """Answers from one relation object, its height memo warmed by earlier
    queries in any order, match those from a fresh copy per query."""

    @given(any_relation(), st.data())
    def test_shared_memo_matches_fresh_relations(self, r, data):
        # the copy steps through r's successor lists, so successors come
        # in the same order and the DFS meets cycles in the same order
        fresh = lambda: Relation(r.source, r.target, r._succ)
        starts = data.draw(st.permutations(r.source.values()))
        queries = [(height_from, a) for a in starts]
        queries += [(limit_from, a, mode)
                    for a in starts for mode in (MAXDEPTH, REACHABLE_MINIMA)]
        queries += [(limit_relation, mode)
                    for mode in (MAXDEPTH, REACHABLE_MINIMA)]
        for fn, *args in data.draw(st.permutations(queries)):
            assert _outcome(fn, r, *args) == _outcome(fn, fresh(), *args)


def two_cycles_and_a_chain():
    """0 steps to 1, 5 and 10, in that order. 1 -> 2 -> 1 and
    5 -> 6 -> 7 -> 5 are cycles; 10 -> 11 -> ... -> 19 is a chain."""
    adj = {0: [1, 5, 10], 1: [2], 2: [1], 5: [6], 6: [7], 7: [5]}
    adj.update((i, [i + 1]) for i in range(10, 19))
    sp = int_range(0, 19)
    return Relation(sp, sp, lambda a: [Int(b) for b in adj.get(a.value, ())])


class TestWalkOrder:
    """height_from tries successors last first: from 0 it settles the
    chain, then meets the cycle through 5, and never reaches 1."""

    CYCLE = "relation admits an infinite descending chain: 5 → 6 → 7 → 5"

    @pytest.mark.parametrize("warm", [False, True])
    def test_the_cycle_reported(self, warm):
        r = two_cycles_and_a_chain()
        if warm:
            assert height_from(r, Int(10)) == 9
            with pytest.raises(NotNoetherian):
                height_from(r, Int(0))
        for walk in (lambda: height_from(r, Int(0)),
                     lambda: limit_from(r, Int(0), MAXDEPTH),
                     lambda: limit_from(r, Int(0), REACHABLE_MINIMA)):
            with pytest.raises(NotNoetherian) as exc:
                walk()
            assert str(exc.value) == self.CYCLE
        assert sorted(v.value for v in r._heights) == list(range(10, 20))

    def test_fuel_partial_on_a_fresh_memo(self):
        # 0 charges its three successors, then 10, 11 and 12 one each
        with pytest.raises(FuelExhausted) as exc:
            height_from(two_cycles_and_a_chain(), Int(0), fuel=5)
        assert exc.value.partial == "0 → 10 → 11 → 12"

    def test_fuel_partial_on_a_warm_memo(self):
        # the settled chain is skipped unpaid, so the walk gets further
        r = two_cycles_and_a_chain()
        height_from(r, Int(10))
        with pytest.raises(FuelExhausted) as exc:
            height_from(r, Int(0), fuel=5)
        assert exc.value.partial == "0 → 5 → 6 → 7"


class TestSettledStart:
    """A start whose successors are all settled is settled in place; the
    answers, the memo, the fuel charged and the errors are a walk's."""

    @given(dag_relation(), st.sampled_from(["value", "shuffled", "bottom_up"]),
           st.data())
    def test_heights_and_memo_match_a_fresh_full_walk(self, r, order, data):
        full = rel_copy(r)
        for a in r.source.values():
            height_from(full, a)
        starts = list(r.source.values())
        if order == "shuffled":
            starts = data.draw(st.permutations(starts))
        elif order == "bottom_up":   # every start finds its successors settled
            starts.sort(key=full._heights.__getitem__)
        seen = set()
        for a in starts:
            assert height_from(r, a) == height_from(rel_copy(r), a)
            seen |= reachable_from(full, a)
            assert r._heights == {v: full._heights[v] for v in seen}

    def test_fuel_charges_the_start_its_successors(self):
        # 4 steps to 0..3, all settled first: k = 4
        def settled():
            r = greater_on(5)
            assert height_from(r, Int(3)) == 3
            return r
        assert height_from(settled(), Int(4), fuel=4) == 4
        r = settled()
        with pytest.raises(FuelExhausted) as exc:
            height_from(r, Int(4), fuel=3)
        assert exc.value.partial == "4"
        assert Int(4) not in r._heights

    @pytest.mark.parametrize("settle_zero_first", [False, True])
    def test_a_self_loop_start_raises_its_cycle(self, settle_zero_first):
        # 1 steps to 0 and to itself
        r = rel(2, [(1, 0), (1, 1)])
        if settle_zero_first:
            assert height_from(r, Int(0)) == 0
        with pytest.raises(NotNoetherian) as exc:
            height_from(r, Int(1))
        assert str(exc.value) == (
            "relation admits an infinite descending chain: 1 → 1")
        assert Int(1) not in r._heights

    @pytest.mark.parametrize("materialize_first", [False, True])
    def test_a_start_outside_the_space_memoizes_nothing(self,
                                                        materialize_first):
        # every value, 7 too, steps to 0 only, and 0 is settled
        sp = int_range(0, 3)
        r = Relation(sp, sp, lambda a: [Int(0)] if a.value else [])
        if materialize_first:
            r.pairs()   # 7 is then a lookup miss: no successors at all
        assert height_from(r, Int(0)) == 0
        with pytest.raises(ValueOutsideSpace):
            height_from(r, Int(7))
        assert r._heights == {Int(0): 0}


class TestChainEnumeration:
    def test_chain_steps(self):
        c = Chain((Int(3), Int(1), Int(0)))
        assert c.steps == 2


class TestReachabilityAndMinima:
    def test_reachable_includes_start(self):
        assert reachable_from(SPLIT, Node("b")) == frozenset({Node("b")})
        assert reachable_from(SPLIT, Node("a")) == frozenset(
            {Node("a"), Node("b"), Node("c"), Node("d")})

    def test_reachable_fuel_runs_out_on_a_loop(self):
        # four values, four edges: each reached value is expanded once
        looping = rel(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert reachable_from(looping, Int(0), fuel=4) \
            == frozenset(Int(i) for i in range(4))
        with pytest.raises(FuelExhausted):
            reachable_from(looping, Int(0), fuel=2)

    def test_minima(self):
        assert not is_minimal(SPLIT, Node("a"))
        assert is_minimal(SPLIT, Node("b"))
        assert minima(SPLIT) == [Node("b"), Node("d")]
        assert minima(greater_on(5)) == [Int(0)]


class TestLimit:
    def test_modes_disagree_on_the_split_fixture(self):
        assert limit_from(SPLIT, Node("a"), MAXDEPTH) == [Node("d")]
        assert limit_from(SPLIT, Node("a"), REACHABLE_MINIMA) \
            == [Node("b"), Node("d")]

    def test_minimal_values_are_fixed_points(self):
        for mode in (MAXDEPTH, REACHABLE_MINIMA):
            assert limit_from(SPLIT, Node("b"), mode) == [Node("b")]

    def test_limit_of_empty_relation_is_identity(self):
        sp = int_space(4)
        e = from_pairs(sp, sp, ())
        lim = limit_relation(e, MAXDEPTH)
        for i in range(4):
            assert frozenset(lim.successors(Int(i))) == frozenset({Int(i)})

    def test_limit_relation_name_and_image(self):
        lim = limit_relation(SPLIT, REACHABLE_MINIMA)
        assert lim.name == "limit[reachable_minima]"
        assert frozenset(lim.successors(Node("a"))) == frozenset({Node("b"), Node("d")})
        assert frozenset(lim.successors(Node("c"))) == frozenset({Node("d")})

    def test_maxdepth_is_the_image_under_the_height_power(self):
        # branching descent from 5: every step may drop any amount, yet
        # only 0 is five steps away and nothing is six
        g = greater_on(9)
        assert after(g, Int(5), 5) == {Int(0)}
        assert after(g, Int(5), 6) == set()
        assert limit_from(g, Int(5), MAXDEPTH) == [Int(0)]
        assert frozenset(g.power(5).successors(Int(5))) == frozenset({Int(0)})

    def test_dead_frontier_stays_empty(self):
        r = rel(3, [(2, 1), (1, 0)])
        assert after(r, Int(2), 2) == {Int(0)}
        assert after(r, Int(2), 5) == set()
        for mode in (MAXDEPTH, REACHABLE_MINIMA):
            assert limit_from(r, Int(2), mode) == [Int(0)]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            limit_from(SPLIT, Node("a"), "sideways")

    def test_cycle_raises(self):
        with pytest.raises(NotNoetherian):
            limit_from(rel(3, [(0, 1), (1, 0)]), Int(0))

    @given(dag_relation(max_n=5))
    def test_plus_preserves_both_limits(self, r):
        p = r.plus()
        for a in r.source.values():
            for mode in (MAXDEPTH, REACHABLE_MINIMA):
                assert limit_from(r, a, mode) == limit_from(p, a, mode)

    @given(dag_relation(max_n=5))
    def test_minima_survive_transitive_closure(self, r):
        assert minima(r) == minima(r.plus())


@st.composite
def lazy_relation_on_int_range(draw, cyclic: bool):
    """A successor-function relation over int_range(0, 5), pairs not yet
    materialized. Its edges point down a hidden arrangement; a cyclic one
    adds one edge back up it."""
    sp = int_range(0, 5)
    order = draw(st.permutations(sp.values()))
    cells = [(order[i], order[j]) for i in range(6) for j in range(i + 1, 6)]
    picked = draw(st.lists(st.sampled_from(cells), unique=True,
                           max_size=len(cells)))
    if cyclic:
        hi, lo = draw(st.sampled_from(cells))
        picked = picked + [(hi, lo), (lo, hi)]
    adj = {}
    for a, b in picked:
        adj.setdefault(a, []).append(b)
    return Relation(sp, sp, lambda a: adj.get(a, ()))


def rel_copy(r):
    """r's successor function on a fresh relation: no pair cache and no
    height memo."""
    return Relation(r.source, r.target, r._succ)


def limit_by_definition(r, a, mode):
    """limit_from's definition, on a fresh relation with no height memo."""
    r = rel_copy(r)
    if mode == MAXDEPTH:
        return sort_values(after(r, a, height_from(r, a)))
    return sort_values(v for v in reachable_from(r, a) if is_minimal(r, v))


def reaches_a_cycle(r, a):
    return any(v in reach(r, r._succ(v)) for v in reachable_from(r, a))


class TestLimitDefinition:
    """limit_from on one relation, its height memo warmed by earlier starts,
    agrees with the definition of each mode, on a relation and on its
    transitive closure."""

    def check(self, r, data):
        queries = [(a, mode) for a in r.source.values()
                   for mode in (MAXDEPTH, REACHABLE_MINIMA)]
        queries = data.draw(st.permutations(queries))
        materialize_at = data.draw(st.integers(0, len(queries)))
        for i, (a, mode) in enumerate(queries):
            if i == materialize_at:
                r.pairs()
            if reaches_a_cycle(r, a):
                with pytest.raises(NotNoetherian):
                    limit_from(r, a, mode)
            else:
                want = limit_by_definition(r, a, mode)
                assert limit_from(r, a, mode) == want

    @given(lazy_relation_on_int_range(cyclic=False), st.data())
    def test_dag_starts_in_any_order(self, r, data):
        self.check(r, data)

    @given(lazy_relation_on_int_range(cyclic=False), st.data())
    def test_closure_of_a_dag_starts_in_any_order(self, r, data):
        self.check(r.plus(), data)

    @given(lazy_relation_on_int_range(cyclic=True), st.data())
    def test_cyclic_relation_raises_where_a_cycle_is_reachable(self, r, data):
        self.check(r, data)
        self.check(r.plus(), data)


class TestLimitMemo:
    """limit_relation shares one memo of answered starts under
    reachable_minima: a walk keeps a known value without expanding it and
    unions its set into the limit."""

    @given(lazy_relation_on_int_range(cyclic=False))
    def test_agrees_with_the_definition_at_every_start(self, r):
        # the hidden arrangement is a random permutation, so value order is
        # not topological and known sets are met partway through walks;
        # the closure meets several at once
        for s in (r, r.plus()):
            lim = limit_relation(s, REACHABLE_MINIMA)
            for a in s.source.values():
                assert lim.successors(a) \
                    == limit_by_definition(s, a, REACHABLE_MINIMA)

    def test_one_known_set_is_reused(self):
        r = rel(3, [(2, 1), (1, 0)])
        known = {}
        assert limit_from(r, Int(1), _known=known) == [Int(0)]
        assert limit_from(r, Int(2), _known=known) == [Int(0)]
        assert known[Int(2)] is known[Int(1)]

    def test_known_sets_met_partway_are_unioned_with_new_minima(self):
        # a reaches b and, one level down, c; both are answered, so neither
        # is expanded, and e is a minimum no answer holds
        r = node_rel("abcdefx", [("a", "b"), ("a", "x"), ("x", "c"),
                                 ("x", "e"), ("b", "d"), ("c", "f")])
        fresh = rel_copy(r)
        known = {}
        for v in "bc":
            limit_from(r, Node(v), _known=known)
            limit_from(fresh, Node(v))
        assert known == {Node("b"): frozenset({Node("d")}),
                         Node("c"): frozenset({Node("f")})}
        # with b and c settled, the height walk charges a -> b, a -> x,
        # x -> c and x -> e; so does the minima walk, never b -> d or c -> f
        assert limit_from(r, Node("a"), fuel=4, _known=known) \
            == [Node("d"), Node("e"), Node("f")]
        assert known[Node("a")] == frozenset(Node(v) for v in "def")
        # without the memo the minima walk expands b and c too
        with pytest.raises(FuelExhausted):
            limit_from(fresh, Node("a"), fuel=4)
        assert limit_from(fresh, Node("a"), fuel=6) \
            == [Node("d"), Node("e"), Node("f")]

    def test_a_chain_in_descending_value_order_hits_nothing(self):
        # 0 -> 1 -> 2: each start comes before the values below it
        r = rel(3, [(0, 1), (1, 2)])
        known = {}
        for a in r.source.values():
            limit_from(r, a, _known=known)
        assert known == {Int(0): frozenset({Int(2)}),
                         Int(1): frozenset({Int(2)})}
        assert known[Int(0)] is not known[Int(1)]
        lim = limit_relation(rel_copy(r), REACHABLE_MINIMA)
        assert lim.sorted_pairs() == [(Int(a), Int(2)) for a in range(3)]

    @given(lazy_relation_on_int_range(cyclic=True))
    def test_cyclic_relation_raises_the_memo_free_witness(self, r):
        want = None
        fresh = rel_copy(r)
        try:
            for a in fresh.source.values():
                limit_from(fresh, a, REACHABLE_MINIMA)
        except NotNoetherian as exc:
            want = str(exc)
        assert want is not None
        with pytest.raises(NotNoetherian) as got:
            limit_relation(r, REACHABLE_MINIMA)
        assert str(got.value) == want

    def test_public_calls_answer_and_charge_as_without_a_memo(self):
        # SUCCESSOR over 0..20: 20 -> 19 -> ... -> 0, twenty edges
        r = named("SUCCESSOR", int_range(0, 20))
        top = Int(20)
        for warm in (False, True):
            if warm:
                # settles every height on r; its minima memo stays private
                limit_relation(r, REACHABLE_MINIMA)
            assert reachable_from(r, top, fuel=20) \
                == frozenset(Int(i) for i in range(21))
            with pytest.raises(FuelExhausted):
                reachable_from(r, top, fuel=19)
            assert limit_from(r, top, fuel=20) == [Int(0)]
            with pytest.raises(FuelExhausted):
                limit_from(r, top, fuel=19)


class TestMinimalStart:
    """A start of height 0 is its own limit and walks nothing after its
    height check; any other start still pays for its walk."""

    @given(lazy_relation_on_int_range(cyclic=False))
    def test_fuel_zero_before_and_after_pairs(self, r):
        for materialize in (False, True):
            if materialize:
                r.pairs()
            for a in r.source.values():
                for mode in (MAXDEPTH, REACHABLE_MINIMA):
                    if is_minimal(r, a):
                        assert limit_from(r, a, mode, fuel=0) == [a]
                    else:
                        with pytest.raises(FuelExhausted):
                            limit_from(r, a, mode, fuel=0)

    def test_minimal_start_steps_its_successors_once(self):
        calls = []

        def succ(a):
            calls.append(a)
            return (Int(a.value - 1),) if a.value > 0 else ()

        sp = int_range(0, 3)
        for mode in (MAXDEPTH, REACHABLE_MINIMA):
            calls.clear()
            assert limit_from(Relation(sp, sp, succ), Int(0), mode) == [Int(0)]
            assert calls == [Int(0)]


def every_relation_on_three_values():
    """All 512 relations on int_range(0, 2), materialized."""
    sp = int_range(0, 2)
    cells = [(a, b) for a in sp.values() for b in sp.values()]
    for mask in range(1 << len(cells)):
        yield from_pairs(sp, sp, [c for i, c in enumerate(cells)
                                  if mask >> i & 1])


def limits_one_start_at_a_time(r, mode):
    """{a: frozenset(limit_from(r, a, mode))} on a fresh relation, or None
    when some start's limit_from raises NotNoetherian."""
    fresh = rel_copy(r)
    try:
        return {a: frozenset(limit_from(fresh, a, mode))
                for a in fresh.source.values()}
    except NotNoetherian:
        return None


def assert_real_cycle(r, witness):
    # integer witnesses render as their digits, joined by arrows
    chain = [Int(int(x)) for x in witness.split(" → ")]
    assert len(chain) >= 2 and chain[0] == chain[-1]
    assert all(r.holds(a, b) for a, b in zip(chain, chain[1:]))


class TestLimits:
    """limits(r, mode) maps every value to the set limit_from lists for
    it, from one post-order walk over the whole space."""

    @pytest.mark.parametrize("mode", [MAXDEPTH, REACHABLE_MINIMA])
    def test_every_relation_on_three_values(self, mode):
        cyclic = 0
        for r in every_relation_on_three_values():
            want = limits_one_start_at_a_time(r, mode)
            if want is None:
                cyclic += 1
                with pytest.raises(NotNoetherian) as exc:
                    limits(r, mode)
                assert_real_cycle(r, exc.value.witness)
            else:
                assert limits(r, mode) == want
        # 25 acyclic relations on three labelled values (OEIS A003024)
        assert cyclic == 512 - 25

    def test_modes_disagree_on_the_split_fixture(self):
        assert limits(SPLIT, MAXDEPTH)[Node("a")] == frozenset({Node("d")})
        assert limits(SPLIT, REACHABLE_MINIMA)[Node("a")] \
            == frozenset({Node("b"), Node("d")})

    @given(dag_relation(max_n=8))
    def test_dags_with_shuffled_labels_and_their_closures(self, r):
        # the hidden arrangement is a random permutation of the labels, so
        # value order is not topological and roots meet settled values
        for s in (r, r.plus()):
            for mode in (MAXDEPTH, REACHABLE_MINIMA):
                assert limits(s, mode) == limits_one_start_at_a_time(s, mode)

    @given(lazy_relation_on_int_range(cyclic=False))
    def test_a_relation_never_materialized(self, r):
        for mode in (MAXDEPTH, REACHABLE_MINIMA):
            assert limits(r, mode) == limits_one_start_at_a_time(r, mode)
        assert r._pairs is None

    @given(lazy_relation_on_int_range(cyclic=True))
    def test_a_cycle_never_materialized_raises(self, r):
        for mode in (MAXDEPTH, REACHABLE_MINIMA):
            with pytest.raises(NotNoetherian) as exc:
                limits(r, mode)
            assert_real_cycle(r, exc.value.witness)
        assert r._pairs is None

    def test_a_long_chain_stays_off_the_recursion_limit(self):
        # SUCCESSOR over 0..4999: 4999 -> 4998 -> ... -> 0, one successor
        # each, so every value shares the one set of the minimum
        r = named("SUCCESSOR", int_range(0, 4999))
        for mode in (MAXDEPTH, REACHABLE_MINIMA):
            lim = limits(r, mode)
            assert len(lim) == 5000
            assert all(s is lim[Int(0)] for s in lim.values())
            assert lim[Int(0)] == frozenset({Int(0)})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            limits(SPLIT, "sideways")

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatch):
            limits(Relation(int_range(0, 2), int_range(0, 3), lambda a: ()))


class TestSeeds:
    def test_seed_holds(self):
        body = node_rel("ae2", [("a", "e")])
        order = node_rel("ae2", [("a", "e"), ("a", "2")])
        rep = is_seed(body, order)
        assert rep.holds and rep.render() == "seed: yes"

    def test_extra_pair_breaks_containment(self):
        body = rel(4, [(3, 1)])
        order = rel(4, [(3, 2)])
        rep = is_seed(body, order)
        assert not rep.holds
        assert rep.render() == ("seed: no, pair 3 → 1 falls outside "
                                "the larger relation")

    def test_domain_mismatch_order_side(self):
        body = rel(4, [(3, 1)])
        order = rel(4, [(3, 1), (2, 0)])
        rep = is_seed(body, order)
        assert rep.render() == ("seed: no, domain mismatch at 2 "
                                "(larger relation only)")

    def test_domain_mismatch_body_side(self):
        # containment is judged by the order's membership test, the domain
        # scan by its successor enumeration; when the enumeration under-
        # reports, the mismatch lands on the smaller relation's side
        body = rel(4, [(3, 1), (2, 0)])
        order = Relation(body.source, body.target,
                         lambda a: body._succ(a) if a == Int(3) else (),
                         holds=body.holds)
        rep = is_seed(body, order)
        assert rep.render() == ("seed: no, domain mismatch at 2 "
                                "(smaller relation only)")

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatch):
            is_seed(rel(3, []), rel(4, []))

    def test_one_mismatched_space_is_enough_to_reject(self):
        # source and target are guarded separately: a body whose source
        # matches the order's is still refused when its target does not
        sp, other = int_range(0, 2), int_range(0, 3)
        order = from_pairs(sp, sp, [])
        for body in (Relation(sp, other, lambda a: ()),
                     Relation(other, sp, lambda a: ())):
            with pytest.raises(SpaceMismatch):
                is_seed(body, order)

    def test_equal_minima_need_not_mean_equal_limits(self):
        # the seed law is strictly weaker than limit agreement
        sp = explicit([Node("a"), Node("b"), Node("e")])
        body = from_pairs(sp, sp, [(Node("a"), Node("b"))])
        order = from_pairs(sp, sp, [(Node("a"), Node("b")),
                                    (Node("a"), Node("e"))])
        assert is_seed(body, order).holds
        assert minima(body) == minima(order)
        assert limit_from(body, Node("a"), REACHABLE_MINIMA) \
            != limit_from(order, Node("a"), REACHABLE_MINIMA)


def seed_by_full_scan(body, order):
    """The seed test as one scan that probes both relations at every state,
    sharing nothing with is_seed: the reference its reports must equal."""
    vals = body.source.values()
    test = order._holds_fn or order.holds
    missing = [(a, b) for a in vals for b in body._succ(a) if not test(a, b)]
    if missing:
        return SeedReport(False, subset_witness=min(
            missing, key=lambda p: (value_key(p[0]), value_key(p[1]))))
    for a in vals:
        in_body = not is_minimal(body, a)
        in_order = not is_minimal(order, a)
        if in_body and not in_order:
            return SeedReport(False, domain_witness=a, domain_side="body_only")
        if in_order and not in_body:
            return SeedReport(False, domain_witness=a, domain_side="order_only")
    return SeedReport(True)


def _adjacency(cells):
    adj = {}
    for a, b in cells:
        adj.setdefault(Int(a), []).append(Int(b))
    return adj


# orders over int_range(0, hi), each kind built from (hi, cells, extra):
# the catalog's certified orders, whose successors agree with their pair
# test on the space; orders whose pair test reads their successors; and
# orders whose pair test accepts the extra cells their successors omit
SEED_ORDERS = {
    "SUCCESSOR": lambda hi, cells, extra: named("SUCCESSOR", int_range(0, hi)),
    "INTGREATER": lambda hi, cells, extra: named("INTGREATER",
                                                 int_range(0, hi)),
    "INTLESSER": lambda hi, cells, extra: named("INTLESSER", int_range(0, hi)),
    "restricted": lambda hi, cells, extra: restrict_to(
        [Int(a) for a, _ in cells], named("INTGREATER", int_range(0, hi))),
    "induced": lambda hi, cells, extra: induced(
        None, named("INTGREATER", int_range(0, hi + 1)), int_range(0, hi)),
    "extensional": lambda hi, cells, extra: from_pairs(
        int_range(0, hi), int_range(0, hi),
        [(Int(a), Int(b)) for a, b in cells]),
    "lazy": lambda hi, cells, extra: Relation(
        int_range(0, hi), int_range(0, hi),
        lambda a, adj=_adjacency(cells): adj.get(a, ())),
    "disagreeing": lambda hi, cells, extra: Relation(
        int_range(0, hi), int_range(0, hi),
        lambda a, adj=_adjacency(cells): adj.get(a, ()),
        holds=lambda a, b, ok=frozenset(cells) | frozenset(extra):
            (a.value, b.value) in ok),
}


def build_seed_case(case):
    """A fresh (body, order) for one drawn case. The body steps through a
    successor function or a from_pairs adjacency, and may leave the space."""
    kind, hi, cells, extra, body_cells, extensional_body = case
    order = SEED_ORDERS[kind](hi, cells, extra)
    sp = order.source
    if extensional_body:
        body = from_pairs(sp, sp, [(Int(a), Int(b)) for a, b in body_cells],
                          check=False)
    else:
        adj = _adjacency(body_cells)
        body = Relation(sp, sp, lambda a: adj.get(a, ()))
    return body, order


@st.composite
def seed_case(draw):
    kind = draw(st.sampled_from(sorted(SEED_ORDERS)))
    hi = draw(st.integers(0, 3))
    inside = [(a, b) for a in range(hi + 1) for b in range(hi + 1)]
    # one value below the space and one above it
    reachable = [(a, b) for a in range(hi + 1) for b in range(-1, hi + 2)]
    cells = draw(st.lists(st.sampled_from(inside), unique=True))
    extra = draw(st.lists(st.sampled_from(reachable), unique=True,
                          max_size=3))
    order = SEED_ORDERS[kind](hi, cells, extra)
    accepted = [p for p in reachable
                if order.holds(Int(p[0]), Int(p[1]))]
    # mostly pairs the order accepts, so that the domain scan is reached
    body_cells = draw(st.lists(st.sampled_from(accepted), unique=True)
                      if accepted else st.just([]))
    body_cells += draw(st.lists(st.sampled_from(reachable), max_size=1))
    return kind, hi, cells, extra, body_cells, draw(st.booleans())


class TestSeedsAgainstAFullScan:
    @given(seed_case())
    def test_reports_equal_the_full_scan(self, case):
        want = seed_by_full_scan(*build_seed_case(case))
        assert is_seed(*build_seed_case(case)) == want

    def test_a_body_stepping_below_the_space_at_an_exit_of_the_order(self):
        # 0 > -1 passes the order's pair test, but the order has no
        # successor at 0 in the space
        sp = int_range(0, 3)
        body = from_pairs(sp, sp, [(Int(0), Int(-1))], check=False)
        order = named("INTGREATER", sp)
        rep = is_seed(body, order)
        assert rep == seed_by_full_scan(body, named("INTGREATER", sp))
        assert rep == SeedReport(False, domain_witness=Int(0),
                                 domain_side="body_only")
        assert rep.render() == ("seed: no, domain mismatch at 0 "
                                "(smaller relation only)")

    def test_a_body_stepping_below_the_space_where_the_order_steps(self):
        # 1 -> -1 leaves the space, but the order steps at 1 as well
        sp = int_range(0, 3)
        body = from_pairs(sp, sp, [(Int(1), Int(-1)), (Int(2), Int(1)),
                                   (Int(3), Int(2))], check=False)
        rep = is_seed(body, named("INTGREATER", sp))
        assert rep == seed_by_full_scan(body, named("INTGREATER", sp))
        assert rep == SeedReport(True)

    def test_a_claimed_certificate_does_not_vouch_for_the_enumeration(self):
        # TestSeeds' under-reporting order, stamped with a claimed rule: the
        # probe where the body steps stays, as it does without a certificate
        body = rel(4, [(3, 1), (2, 0)])
        order = _stamp(Relation(body.source, body.target,
                                lambda a: body._succ(a) if a == Int(3) else (),
                                holds=body.holds), "PARENT")
        assert order.cert is not None and not order.cert.sound
        assert is_seed(body, order).render() == (
            "seed: no, domain mismatch at 2 (smaller relation only)")

    def test_a_relation_is_its_own_seed_without_a_walk(self):
        sp = int_range(0, 3)

        def unwalked(a):
            raise AssertionError(f"stepped {a}")

        r = Relation(sp, sp, unwalked, holds=lambda a, b: False)
        assert is_seed(r, r) == SeedReport(True)
        assert r._adj is None and r._pairs is None

    @given(seed_case())
    def test_a_filled_body_iterates_its_pairs_as_before(self, case):
        # the pair set built from the adjacency that is_seed filled
        # iterates as the one the source walk itself used to fill; a
        # from_pairs body starts with its pair set, so it is left out
        case = case[:-1] + (False,)
        body, order = build_seed_case(case)
        twin, _ = build_seed_case(case)
        is_seed(body, order)
        got = set()
        for a in twin.source.values():
            for b in list(twin._step(a) or ()):
                got.add((a, b))
        assert list(body.pairs()) == list(frozenset(got))


class TestNoetherianStructure:
    @given(dag_relation(max_n=5))
    def test_closure_of_noetherian_is_asymmetric(self, r):
        assert is_noetherian(r).holds is True
        flags = r.plus().classify()
        assert flags.irreflexive and flags.asymmetric

    @given(dag_relation(max_n=5))
    def test_verdict_matches_classification(self, r):
        assert is_noetherian(r).holds == r.classify().acyclic
