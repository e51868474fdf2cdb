import pytest
from hypothesis import given, strategies as st

from conftest import any_relation, dag_relation, int_space
from noet.errors import (FuelExhausted, RequiresExtensional, SpaceMismatch,
                         ValueOutsideSpace)
from noet.noether import is_noetherian
from noet.relations import (after, empty_relation, from_pairs,
                            from_successors, identity, is_minimal, reach)
from noet.spaces import explicit, int_range
from noet.values import Int, Node, value_key


def rel(n, pairs):
    sp = int_space(n)
    return from_pairs(sp, sp, [(Int(a), Int(b)) for a, b in pairs])


def naive_acyclic(r) -> bool:
    """Reachability by plain BFS, sharing nothing with the library."""
    for a in r.source.values():
        frontier = set(r.successors(a))
        seen = set(frontier)
        while frontier:
            if a in frontier:
                return False
            frontier = {c for b in frontier for c in r.successors(b)} - seen
            seen |= frontier
    return True


class TestConstruction:
    def test_pairs_must_live_in_the_space(self):
        sp = int_space(2)
        with pytest.raises(ValueOutsideSpace):
            from_pairs(sp, sp, [(Int(0), Int(5))])

    def test_successors_sorted_and_deduped(self):
        r = rel(4, [(0, 3), (0, 1), (0, 3), (0, 2)])
        assert [v.value for v in r.successors(Int(0))] == [1, 2, 3]

    def test_image_of_checks_membership(self):
        r = rel(2, [(0, 1)])
        with pytest.raises(ValueOutsideSpace):
            r.image_of(Int(9))

    def test_holds(self):
        r = rel(3, [(0, 1)])
        assert r.holds(Int(0), Int(1))
        assert not r.holds(Int(1), Int(0))


class TestOperations:
    def test_inverse_swaps_pairs(self):
        r = rel(3, [(0, 1), (1, 2)])
        assert sorted((a.value, b.value) for a, b in r.inverse().pairs()) \
            == [(1, 0), (2, 1)]

    def test_inverse_needs_pairs_on_hand(self):
        sp = int_space(3)
        r = from_successors(sp, sp, lambda a: ())
        with pytest.raises(RequiresExtensional):
            r.inverse()
        assert r.materialized().inverse().is_empty()

    def test_compose_chains_images(self):
        sp = explicit([Node("a"), Node("b")])
        fwd = from_pairs(sp, sp, [(Node("a"), Node("b"))])
        back = from_pairs(sp, sp, [(Node("b"), Node("a"))])
        composite = fwd.compose(back)
        assert composite.holds(Node("a"), Node("a"))
        assert not composite.holds(Node("b"), Node("b"))

    def test_compose_requires_chainable_spaces(self):
        r = rel(2, [(0, 1)])
        other = from_pairs(int_space(3), int_space(3), [])
        with pytest.raises(SpaceMismatch):
            r.compose(other)

    def test_restrict_keeps_only_listed_sources(self):
        r = rel(3, [(0, 1), (1, 2)])
        kept = r.restrict([Int(0)])
        assert kept.holds(Int(0), Int(1))
        assert not kept.holds(Int(1), Int(2))

    def test_restrict_validates_members(self):
        r = rel(2, [(0, 1)])
        with pytest.raises(ValueOutsideSpace):
            r.restrict([Int(7)])

    def test_power_zero_is_identity(self):
        r = rel(3, [(0, 1), (1, 2)])
        p0 = r.power(0)
        assert p0.holds(Int(1), Int(1))
        assert not p0.holds(Int(0), Int(1))
        assert r.power(2).holds(Int(0), Int(2))
        assert not r.power(2).holds(Int(0), Int(1))

    def test_plus_is_transitive_reach(self):
        r = rel(4, [(0, 1), (1, 2), (2, 3)])
        p = r.plus()
        assert p.holds(Int(0), Int(3))
        assert not p.holds(Int(0), Int(0))

    def test_reach_counts_every_edge_against_fuel(self):
        # 0 -> 1 -> 2 -> 0 plus 0 -> 2: four edges, three values
        r = rel(4, [(0, 1), (1, 2), (2, 0), (0, 2)])
        ints = lambda vs: {v.value for v in vs}
        assert ints(reach(r, [Int(0)])) == {0, 1, 2}
        assert ints(reach(r, [Int(3)])) == {3}
        assert ints(reach(r, [Int(0)], fuel=4)) == {0, 1, 2}
        with pytest.raises(FuelExhausted):
            reach(r, [Int(0)], fuel=3)

    @given(any_relation(), st.integers(0, 4))
    def test_after_agrees_with_repeated_composition(self, r, n):
        step = identity(r.source)
        for _ in range(n):
            step = step.compose(r)
        for a in r.source.values():
            assert after(r, a, n) == set(step._succ(a))
            assert is_minimal(r, a) == (not after(r, a, 1))

    def test_star_adds_the_diagonal(self):
        r = rel(2, [(0, 1)])
        s = r.star()
        assert s.holds(Int(1), Int(1))
        assert s.holds(Int(0), Int(1))

    def test_union(self):
        u = rel(3, [(0, 1)]).union(rel(3, [(1, 2)]))
        assert u.holds(Int(0), Int(1)) and u.holds(Int(1), Int(2))

    def test_subset_with_witness(self):
        small, big = rel(3, [(0, 1)]), rel(3, [(0, 1), (1, 2)])
        assert small.is_subset_of(big) == (True, None)
        ok, witness = big.is_subset_of(small)
        assert not ok and witness == (Int(1), Int(2))

    @given(any_relation(), st.data())
    def test_subset_witness_is_the_first_failure_of_a_sorted_scan(self, r,
                                                                  data):
        pairs = sorted(r.pairs(), key=lambda p: (value_key(p[0]),
                                                 value_key(p[1])))
        dropped = data.draw(st.sets(st.sampled_from(pairs), min_size=2)
                            if len(pairs) >= 2 else st.just(set()))
        other = from_pairs(r.source, r.target,
                           [p for p in pairs if p not in dropped])
        first = next((p for p in pairs if not other.holds(*p)), None)
        ok, witness = r.is_subset_of(other)
        assert ok is (first is None) and witness == first


class TestClassify:
    def test_flags_on_a_strict_chain(self):
        r = rel(3, [(0, 1), (0, 2), (1, 2)])
        f = r.classify()
        assert f.irreflexive and f.transitive and f.order
        assert f.asymmetric and f.acyclic

    def test_reflexive_pair_breaks_order(self):
        f = rel(2, [(0, 0)]).classify()
        assert not f.irreflexive and not f.order and not f.acyclic

    def test_transitivity_gap(self):
        f = rel(3, [(0, 1), (1, 2)]).classify()
        assert f.irreflexive and not f.transitive and not f.order
        assert f.acyclic

    def test_function_flag(self):
        assert rel(3, [(0, 1), (1, 2)]).classify().function
        assert not rel(3, [(0, 1), (0, 2)]).classify().function

    @pytest.mark.parametrize("n, pairs, acyclic", [
        # a self-loop and nothing else
        (3, [(1, 1)], False),
        # a cycle no in-degree-0 value reaches, beside an acyclic chain
        (6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], False),
        # 2 appears only as a target, 0 only as a source
        (3, [(0, 1), (1, 2), (0, 2)], True),
        (200, [(i, i - 1) for i in range(1, 200)], True),
        (200, [(i, i - 1) for i in range(1, 200)] + [(0, 199)], False),
    ], ids=["self_loop", "unreached_cycle", "target_only", "chain200",
            "chain200_back_edge"])
    def test_kahn_peeling_agrees_with_the_cycle_search(self, n, pairs,
                                                       acyclic):
        r = rel(n, pairs)
        assert r.classify().acyclic is acyclic
        assert is_noetherian(r).holds is acyclic

    @given(any_relation())
    def test_acyclic_agrees_with_naive_reachability(self, r):
        assert r.classify().acyclic == naive_acyclic(r)

    @given(dag_relation())
    def test_closure_of_acyclic_is_an_order(self, r):
        flags = r.plus().classify()
        assert flags.order and flags.asymmetric

    @given(any_relation(max_n=4))
    def test_inverse_is_an_involution(self, r):
        assert r.inverse().inverse().same_pairs(r)

    @given(any_relation(max_n=4))
    def test_plus_contained_in_star(self, r):
        ok, _ = r.plus().is_subset_of(r.star())
        assert ok


class TestPrefabs:
    def test_identity_and_empty(self):
        sp = int_space(3)
        assert identity(sp).holds(Int(2), Int(2))
        assert empty_relation(sp, sp).is_empty()
        assert not empty_relation(sp, sp).holds(Int(0), Int(1))
