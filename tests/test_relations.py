import pytest
from hypothesis import given, strategies as st

from conftest import any_relation, dag_relation, int_space
from noet.errors import (FuelExhausted, NotNoetherian, SpaceMismatch,
                         SpaceTooLarge, ValueOutsideSpace)
from noet.loops import make_loop, terminals_of
from noet.noether import (LIMIT_MODES, height_from, is_noetherian,
                          limit_from, limit_relation, limits)
from noet.relations import (Relation, after, from_pairs, identity,
                            is_minimal, reach)
from noet.spaces import explicit, int_range, max_space
from noet.values import Int, Node, Pair, value_key


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

    def test_outside_values_are_quoted_rendered(self):
        sp = int_space(2)
        with pytest.raises(ValueOutsideSpace,
                           match=r"^value \(0, 1\) is not a member of explicit\(2 values\)$"):
            from_pairs(sp, sp, [(Pair(Int(0), Int(1)), Int(0))])
        # something that is no value at all falls back to its repr
        with pytest.raises(ValueOutsideSpace, match=r"^value 'x' is not a member"):
            from_pairs(sp, sp, [("x", Int(0))])

    def test_successors_sorted_and_deduped(self):
        r = rel(4, [(0, 3), (0, 1), (0, 3), (0, 2)])
        assert [v.value for v in r.successors(Int(0))] == [1, 2, 3]

    def test_successors_are_a_new_list(self):
        # one value and none skip the sort, but still come back as a new
        # list: changing it leaves the adjacency and the pair set as they were
        r = rel(3, [(0, 1), (1, 2), (1, 0)])
        for a in (0, 1, 2):
            got = r.successors(Int(a))
            got.append(Int(2))
            got.reverse()
        assert r._adj[Int(0)] == [Int(1)]
        assert Int(2) not in r._adj
        assert r.successors(Int(0)) == [Int(1)] and r.successors(Int(2)) == []
        assert r.pairs() == {(Int(0), Int(1)), (Int(1), Int(2)), (Int(1), Int(0))}
        shared = [Int(1)]
        lazy = Relation(int_space(2), int_space(2), lambda a: shared)
        assert lazy.successors(Int(0)) is not shared

    def test_a_lone_non_value_successor_raises(self):
        sp = int_space(2)
        with pytest.raises(TypeError, match="not a value"):
            Relation(sp, sp, lambda a: (7,)).successors(Int(0))
        with pytest.raises(TypeError, match="not a value"):
            explicit([7])

    def test_holds(self):
        r = rel(3, [(0, 1)])
        assert r.holds(Int(0), Int(1))
        assert not r.holds(Int(1), Int(0))


class TestOperations:
    def test_inverse_swaps_pairs(self):
        r = rel(3, [(0, 1), (1, 2)])
        assert sorted((a.value, b.value) for a, b in r.inverse().pairs()) \
            == [(1, 0), (2, 1)]

    def test_inverse_of_a_successor_function(self):
        sp = int_space(3)
        assert not Relation(sp, sp, lambda a: ()).inverse().pairs()
        down = Relation(sp, sp,
                        lambda a: (Int(a.value - 1),) if a.value else ())
        assert sorted((a.value, b.value) for a, b in down.inverse().pairs()) \
            == [(0, 1), (1, 2)]

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

    def test_stop_values_are_kept_but_not_expanded(self):
        r = rel(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        ints = lambda vs: {v.value for v in vs}
        assert ints(reach(r, [Int(0)], stop={Int(1)})) == {0, 1, 4}
        assert ints(reach(r, [Int(0)], stop={Int(2), Int(4)})) == {0, 1, 2, 4}
        # a stop root is kept and walks nothing
        assert ints(reach(r, [Int(0)], fuel=0, stop={Int(0)})) == {0}

    def test_stop_values_charge_no_fuel_for_edges_past_them(self):
        # 0 -> 1, 0 -> 2, 1 -> 3, 1 -> 4, 2 -> 5: five edges, three of
        # them walked when 1 stops the walk
        r = rel(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        ints = lambda vs: {v.value for v in vs}
        assert ints(reach(r, [Int(0)], fuel=3, stop={Int(1)})) == {0, 1, 2, 5}
        with pytest.raises(FuelExhausted):
            reach(r, [Int(0)], fuel=2, stop={Int(1)})
        with pytest.raises(FuelExhausted):
            reach(r, [Int(0)], fuel=4)

    @given(any_relation())
    def test_without_stop_the_sets_keep_their_insertion_order(self, r):
        # the level walk reach had before it took stop; closures, and the
        # cycle witnesses found on them, iterate these sets in this order
        def level_walk(roots):
            seen, frontier = set(), set(roots)
            while frontier:
                seen.update(frontier)
                nxt = set()
                for x in frontier:
                    for y in r._succ(x):
                        if y not in seen:
                            nxt.add(y)
                frontier = nxt
            return seen

        p = r.plus()
        for a in r.source.values():
            assert list(reach(r, (a,))) == list(level_walk((a,)))
            assert list(reach(r, (a,), stop=set())) == list(level_walk((a,)))
            assert list(p._succ(a)) == list(level_walk(r._succ(a)))

    def test_closure_cycle_witness_follows_the_walk_order(self):
        # found by comparing witnesses over 20,000 random cyclic relations
        # with a copy of reach that walked each frontier in reverse; this
        # one, the smallest that differed, then reports 1 → 6 → 1
        sp = int_range(0, 6)
        r = from_pairs(sp, sp, [(Int(a), Int(b)) for a, b in [
            (1, 2), (1, 6), (2, 0), (3, 6), (4, 0), (6, 1), (6, 2)]])
        verdict = is_noetherian(r.plus())
        assert verdict.render() == "not Noetherian, cycle: 6 → 6"

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

    def test_subset_with_witness(self):
        small, big = rel(3, [(0, 1)]), rel(3, [(0, 1), (1, 2)])
        assert small.is_subset_of(big) == (True, None)
        ok, witness = big.is_subset_of(small)
        assert not ok and witness == (Int(1), Int(2))

    def test_a_relation_is_its_own_subset(self):
        # answered without a pair test, which leans on holds agreeing with
        # the successors: test_catalog.py's TestEveryNamedFamily::
        # test_pair_test_agrees_with_the_successors checks that per family
        r = rel(3, [(0, 1), (1, 2)])
        assert r.is_subset_of(r) == (True, None)
        wide = Relation(int_range(0, 99), int_range(0, 99), lambda a: ())
        with max_space(10), pytest.raises(SpaceTooLarge):
            wide.is_subset_of(wide)

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

    def test_every_flag_matches_its_definition_on_three_values(self):
        # all 512 relations on three values, self-loops included
        all_pairs = [(a, b) for a in range(3) for b in range(3)]
        for bits in range(2 ** len(all_pairs)):
            ps = {p for k, p in enumerate(all_pairs) if bits >> k & 1}
            f = rel(3, ps).classify()
            transitive = all((a, d) in ps for a, b in ps
                             for c, d in ps if b == c)
            irreflexive = all(a != b for a, b in ps)
            assert f.transitive is transitive, ps
            assert f.irreflexive is irreflexive, ps
            assert f.asymmetric is all((b, a) not in ps for a, b in ps), ps
            assert f.order is (transitive and irreflexive), ps
            assert f.function is all(
                sum(1 for c, _ in ps if c == a) <= 1 for a in range(3)), ps
            assert f.acyclic is naive_acyclic(rel(3, ps)), ps

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
    def test_identity(self):
        assert identity(int_space(3)).holds(Int(2), Int(2))


def _walk(call):
    """A walk's answer, or the limit or verdict error it raised."""
    try:
        return "value", call()
    except FuelExhausted as exc:
        return "fuel", exc.fuel, exc.partial
    except NotNoetherian as exc:
        return "cycle", str(exc)


class TestMaterializingChangesNoWalk:
    """Every relation on int_range(0, 2) (2^9 of them), walked through its
    successor function and again through the adjacency that pairs() fills:
    the walks step through Relation._step, which reads that adjacency once
    it exists, and must give the same answers, witnesses and fuel counts."""

    SPACE = int_range(0, 2)

    def walks(self, adj, materialize):
        """Every walk's outcome, each on a relation of its own, so that no
        height memo is shared between calls."""
        sp = self.SPACE

        def fresh():
            r = Relation(sp, sp, lambda a: adj.get(a, ()))
            if materialize:
                r.pairs()
            return r

        def tree(a):
            # the edges a walk from a expands: every reached value's own
            return sum(len(adj.get(v, ())) for v in reach(fresh(), (a,)))

        def loop():
            r = fresh()
            return make_loop(sp, r, identity(sp), r, check=False)

        out = [_walk(lambda: is_noetherian(fresh()))]
        out += [_walk(lambda: limits(fresh(), mode)) for mode in LIMIT_MODES]
        for a in sp.values():
            out += [_walk(lambda: limit_from(fresh(), a, mode))
                    for mode in LIMIT_MODES]
            out.append(_walk(lambda: reach(fresh(), (a,))))
            out.append(_walk(lambda: is_minimal(fresh(), a)))
            out += [_walk(lambda: after(fresh(), a, n)) for n in range(4)]
            out.append(_walk(lambda: height_from(fresh(), a)))
            out.append(_walk(lambda: terminals_of(loop(), a)))
            edges = tree(a)
            for fuel in range(edges + 1):
                out.append(_walk(lambda: reach(fresh(), (a,), fuel)))
                out.append(_walk(lambda: height_from(fresh(), a, fuel)))
                out.append(_walk(lambda: terminals_of(loop(), a, fuel)))
            # the exact edge count passes, one under runs out
            assert _walk(lambda: reach(fresh(), (a,), edges))[0] == "value"
            assert _walk(lambda: terminals_of(loop(), a, edges))[0] == "value"
            if edges:
                assert _walk(lambda: reach(fresh(), (a,), edges - 1))[0] == "fuel"
                assert _walk(
                    lambda: terminals_of(loop(), a, edges - 1))[0] == "fuel"
        return out

    def test_every_relation_on_three_states(self):
        vals = self.SPACE.values()
        cells = [(a, b) for a in vals for b in vals]
        for bits in range(2 ** len(cells)):
            adj = {}
            for k, (a, b) in enumerate(cells):
                if bits >> k & 1:
                    adj.setdefault(a, []).append(b)
            assert self.walks(adj, False) == self.walks(adj, True), bits


class TestLookupMisses:
    """A from_pairs adjacency holds only the values that have successors.
    A sink of the space and a value outside it miss that adjacency: they
    step to nothing in every walk, and the misses leave the pair set, the
    domain and the pair test as they were."""

    SINK, OUTSIDE = Int(2), Int(9)

    def reads(self, r):
        vals = list(r.source.values()) + [self.OUTSIDE]
        return (r.pairs(), r.sorted_pairs(), r.domain(),
                [r.holds(a, b) for a in vals for b in vals])

    def test_a_sink_and_an_outside_value_step_to_nothing(self):
        r = rel(3, [(0, 1), (1, 2), (0, 2)])
        sp = r.source
        before = self.reads(r)
        # init reaches the outside value from an input space that holds it
        inputs = int_range(0, 9)
        loop = make_loop(sp, r, Relation(inputs, sp, lambda a: (a,)), r,
                         check=False)
        for v in (self.SINK, self.OUTSIDE):
            assert list(r._succ(v)) == []
            assert r.successors(v) == []
            assert reach(r, (v,)) == {v}
            assert after(r, v, 1) == set()
            assert is_minimal(r, v)
            assert terminals_of(loop, v) == frozenset({v})
        for mode in LIMIT_MODES:
            lims = limits(r, mode)
            assert lims[self.SINK] == frozenset({self.SINK})
            assert self.OUTSIDE not in lims
        assert height_from(r, self.SINK) == 0
        with pytest.raises(ValueOutsideSpace):
            height_from(r, self.OUTSIDE)
        assert self.reads(r) == before

    def test_a_filled_adjacency_answers_the_pair_test_without_a_pair_set(self):
        # is_subset_of and limit_relation fill the adjacency alone; the
        # pair test then reads it, and a value it lacks is in no pair
        sp = int_range(0, 2)
        down = lambda a: [Int(a.value - 1)] if a.value else []
        r = Relation(sp, sp, down)
        assert r.is_subset_of(Relation(sp, sp, down)) == (True, None)
        lim = limit_relation(r)
        for filled in (r, lim):
            assert filled._adj is not None and filled._pairs is None
            assert not filled.holds(self.OUTSIDE, Int(0))
            assert not filled.holds(Int(2), self.OUTSIDE)
        assert r.holds(Int(2), Int(1)) and not r.holds(Int(0), Int(0))
        assert lim.holds(Int(2), Int(0)) and lim.holds(Int(0), Int(0))
        assert r._pairs is None and lim._pairs is None
