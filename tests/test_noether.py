"""Termination checking, descent measures, limits, and seeds."""

import pytest
from hypothesis import given, strategies as st

from conftest import any_relation, dag_relation, int_space
from noet.errors import FuelExhausted, NotNoetherian, SpaceMismatch
from noet.noether import (MAXDEPTH, REACHABLE_MINIMA, Chain, assert_noetherian,
                          height_from, is_minimal, is_noetherian, is_seed,
                          limit_from, limit_relation, minima, reachable_from)
from noet.relations import (Relation, after, empty_relation, from_pairs,
                            from_successors)
from noet.spaces import explicit, int_range, lazy_explicit
from noet.values import Int, Node


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
        assert v.witness is not None and not v.witness.complete
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
        assert_noetherian(greater_on(4))
        with pytest.raises(NotNoetherian):
            assert_noetherian(rel(2, [(0, 0)]))


class TestBoundedProbe:
    """Sources too large to enumerate fall back to a sampled, fueled walk."""

    def _huge(self, factory, top):
        sp = lazy_explicit(factory,
                           contains=lambda v: isinstance(v, Int)
                           and 0 <= v.value <= top,
                           estimate=10 ** 9)
        return from_successors(
            sp, sp, lambda a: (Int(a.value - 1),) if a.value > 0 else ())

    def test_clean_probe_stays_unknown(self):
        r = self._huge(lambda: (Int(i) for i in range(16)), top=15)
        v = is_noetherian(r)
        assert v.holds is None
        assert v.method == "bounded" and v.witness is None
        assert v.render() == ("unknown: bounded probe walked 15 edges "
                              "without a verdict")

    def test_fuel_cut_reports_the_partial_chain(self):
        top = 10 ** 6
        r = self._huge(lambda: (Int(top - i) for i in range(200)), top=top)
        v = is_noetherian(r, fuel=100)
        assert v.status == "unknown_fuel_exhausted"
        assert v.witness is not None and v.witness.steps >= 100
        assert v.render().startswith("unknown: fuel exhausted after")
        assert "descending chain of" in v.render()


class TestDescentMeasures:
    def test_height_pinned(self):
        assert height_from(greater_on(6), Int(5)) == 5
        assert height_from(SPLIT, Node("a")) == 2
        assert height_from(SPLIT, Node("b")) == 0

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
        # the copy shares r's frozenset, so successors come in the same
        # order and the DFS meets cycles in the same order
        fresh = lambda: Relation(r.source, r.target, pairs=r.pairs())
        starts = data.draw(st.permutations(r.source.values()))
        queries = [(height_from, a) for a in starts]
        queries += [(limit_from, a, mode)
                    for a in starts for mode in (MAXDEPTH, REACHABLE_MINIMA)]
        queries += [(limit_relation, mode)
                    for mode in (MAXDEPTH, REACHABLE_MINIMA)]
        for fn, *args in data.draw(st.permutations(queries)):
            assert _outcome(fn, r, *args) == _outcome(fn, fresh(), *args)


class TestChainEnumeration:
    def test_chain_len_and_steps(self):
        c = Chain((Int(3), Int(1), Int(0)), True)
        assert len(c) == 3 and c.steps == 2


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
        e = empty_relation(sp, sp)
        lim = limit_relation(e, MAXDEPTH)
        for i in range(4):
            assert lim.image_of(Int(i)) == frozenset({Int(i)})

    def test_limit_relation_name_and_image(self):
        lim = limit_relation(SPLIT, REACHABLE_MINIMA)
        assert lim.name == "limit[reachable_minima]"
        assert lim.image_of(Node("a")) == frozenset({Node("b"), Node("d")})
        assert lim.image_of(Node("c")) == frozenset({Node("d")})

    def test_maxdepth_is_the_image_under_the_height_power(self):
        # branching descent from 5: every step may drop any amount, yet
        # only 0 is five steps away and nothing is six
        g = greater_on(9)
        assert after(g, Int(5), 5) == {Int(0)}
        assert after(g, Int(5), 6) == set()
        assert limit_from(g, Int(5), MAXDEPTH) == [Int(0)]
        assert g.power(5).image_of(Int(5)) == frozenset({Int(0)})

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
                         succ=lambda a: body._succ(a) if a == Int(3) else (),
                         holds=body.holds)
        rep = is_seed(body, order)
        assert rep.render() == ("seed: no, domain mismatch at 2 "
                                "(smaller relation only)")

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatch):
            is_seed(rel(3, []), rel(4, []))

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


class TestNoetherianStructure:
    @given(dag_relation(max_n=5))
    def test_closure_of_noetherian_is_asymmetric(self, r):
        assert is_noetherian(r).holds is True
        flags = r.plus().classify()
        assert flags.irreflexive and flags.asymmetric

    @given(dag_relation(max_n=5))
    def test_verdict_matches_classification(self, r):
        assert is_noetherian(r).holds == r.classify().acyclic
