"""Loop assembly, execution, denotations, and the obligation verifier."""

import collections
import itertools

import pytest

from noet import loops, noether
from noet.catalog import named, subrel
from noet.errors import (BodyNotSubsetOfOrder, DomainMismatch, EmptySpace,
                         FuelExhausted, InitEscapesSpace, InputOutsideSpace,
                         NegativeVariantValue, NonTotalFunction,
                         NotNoetherian, OrderNotNoetherian, SpaceMismatch,
                         SpaceTooLarge, UnknownOracle)
from noet.loops import (OBLIGATIONS, ObligationResult, denotation_closure,
                        denotation_limit, exit_condition, make_loop, run,
                        terminals_of, variant_to_relation, verify)
from noet.relations import Relation, from_pairs, reach
from noet.spaces import explicit, int_range, product
from noet.values import Int, Node


def counting_loop(n=5, postcondition=None):
    """States 0..n, one step down at a time, started at the input value."""
    sp = int_range(0, n)
    init = Relation(sp, sp, lambda a: (a,), name="start-here")
    return make_loop(sp, named("INTGREATER", sp), init,
                     named("SUCCESSOR", sp), postcondition)


def branch_loop():
    """One start, two possible finishes."""
    sp = explicit([Node(c) for c in "abc"])
    inp = explicit([Int(0)])
    order = from_pairs(sp, sp, [(Node("a"), Node("b")), (Node("a"), Node("c"))])
    init = from_pairs(inp, sp, [(Int(0), Node("a"))])
    return make_loop(sp, order, init, order)


class TestMakeLoop:
    def test_shape_guards_always_run(self):
        sp, other = int_range(0, 3), int_range(0, 4)
        inner = from_pairs(sp, sp, [])
        outer = from_pairs(other, other, [])
        with pytest.raises(SpaceMismatch):
            make_loop(sp, outer, inner, inner, check=False)
        with pytest.raises(SpaceMismatch):
            make_loop(sp, inner, outer, inner, check=False)
        with pytest.raises(SpaceMismatch):
            make_loop(sp, inner, inner, outer, check=False)

    def test_one_mismatched_space_is_enough_to_reject(self):
        # each guard checks source and target separately
        sp, other = int_range(0, 3), int_range(0, 4)
        ok = from_pairs(sp, sp, [])
        for half in (Relation(sp, other, lambda a: ()),
                     Relation(other, sp, lambda a: ())):
            with pytest.raises(SpaceMismatch, match="order"):
                make_loop(sp, half, ok, ok, check=False)
            with pytest.raises(SpaceMismatch, match="body"):
                make_loop(sp, ok, ok, half, check=False)

    def test_empty_space_rejected(self):
        sp = explicit([])
        r = from_pairs(sp, sp, [])
        with pytest.raises(EmptySpace):
            make_loop(sp, r, r, r)

    def test_a_space_too_large_to_check_is_not_called_empty(self):
        sp = product(int_range(1, 400), int_range(1, 400))
        r = Relation(sp, sp, lambda v: ())
        with pytest.raises(SpaceTooLarge, match="space needs 160000 elements"):
            make_loop(sp, r, r, r)

    def test_init_must_land_inside(self):
        sp = int_range(0, 3)
        bad_init = from_pairs(sp, sp, [(Int(0), Int(9))], check=False)
        ok = from_pairs(sp, sp, [])
        with pytest.raises(InitEscapesSpace) as err:
            make_loop(sp, ok, bad_init, ok)
        assert err.value.witness == Int(9)

    def test_init_escape_witness_comes_from_the_least_failing_pair(self):
        # (0, 9) is the least escaping pair; 7 would be the least escapee
        sp = int_range(0, 3)
        bad_init = from_pairs(sp, sp, [(Int(2), Int(1)), (Int(1), Int(7)),
                                       (Int(0), Int(9))], check=False)
        ok = from_pairs(sp, sp, [])
        with pytest.raises(InitEscapesSpace) as err:
            make_loop(sp, ok, bad_init, ok)
        assert err.value.witness == Int(9)
        report = verify(make_loop(sp, ok, bad_init, ok, check=False))
        by_name = {r.name: r for r in report.results}
        assert by_name["init_range"].detail \
            == "initial state 9 outside the space"

    def test_body_outside_order(self):
        sp = int_range(0, 3)
        order = named("INTGREATER", sp)
        climbing = from_pairs(sp, sp, [(Int(1), Int(2))])
        init = from_pairs(sp, sp, [])
        with pytest.raises(BodyNotSubsetOfOrder) as err:
            make_loop(sp, order, init, climbing)
        assert err.value.witness == (Int(1), Int(2))

    def test_body_must_cover_the_order_domain(self):
        sp = int_range(0, 3)
        order = named("INTGREATER", sp)
        partial = subrel(order, [(Int(3), Int(2))])
        init = from_pairs(sp, sp, [])
        with pytest.raises(DomainMismatch) as err:
            make_loop(sp, order, init, partial)
        assert err.value.side == "order_only"

    def test_order_must_terminate(self):
        sp = int_range(0, 1)
        spin = from_pairs(sp, sp, [(Int(0), Int(1)), (Int(1), Int(0))])
        init = from_pairs(sp, sp, [])
        with pytest.raises(OrderNotNoetherian) as err:
            make_loop(sp, spin, init, spin)
        assert "0 → 1 → 0" in err.value.witness

    def test_check_order_earlier_obligation_wins(self):
        # escaping init + climbing body: the init complaint comes first
        sp = int_range(0, 3)
        order = named("INTGREATER", sp)
        bad_init = from_pairs(sp, sp, [(Int(0), Int(9))], check=False)
        climbing = from_pairs(sp, sp, [(Int(1), Int(2))])
        with pytest.raises(InitEscapesSpace):
            make_loop(sp, order, bad_init, climbing)

    def test_a_cyclic_order_is_refused_before_a_seed_failure(self):
        # the checks run in report order: order_noetherian, then body_is_seed
        sp = int_range(0, 2)
        spin = from_pairs(sp, sp, [(Int(0), Int(1)), (Int(1), Int(0)),
                                   (Int(2), Int(0))])
        partial = from_pairs(sp, sp, [(Int(0), Int(1))])
        init = from_pairs(sp, sp, [])
        with pytest.raises(OrderNotNoetherian):
            make_loop(sp, spin, init, partial)

    def test_check_false_skips_the_proofs(self):
        sp = int_range(0, 1)
        spin = from_pairs(sp, sp, [(Int(0), Int(1)), (Int(1), Int(0))])
        init = from_pairs(sp, sp, [])
        loop = make_loop(sp, spin, init, spin, check=False)
        assert loop.body is spin


class TestExitCondition:
    def test_counting_loop_exits_at_zero(self):
        assert exit_condition(counting_loop()) == [Int(0)]

    def test_exits_are_the_bodyless_states(self):
        loop = branch_loop()
        assert exit_condition(loop) == [Node("b"), Node("c")]


class TestRun:
    def test_single_trace_pinned(self):
        t = run(counting_loop(), Int(5))
        assert t.render() == "5 → 4 → 3 → 2 → 1 → 0"
        assert t.steps == 5 and t.terminal == Int(0)

    def test_canonical_choice_takes_the_least_successor(self):
        sp = int_range(0, 3)
        init = Relation(sp, sp, lambda a: (a,))
        loop = make_loop(sp, named("INTGREATER", sp), init,
                         named("INTGREATER", sp))
        assert run(loop, Int(3)).render() == "3 → 0"
        slow = run(loop, Int(3), choose=lambda s, succs: succs[-1])
        assert slow.render() == "3 → 2 → 1 → 0"

    def test_canonical_choice_ignores_successor_order_and_repeats(self):
        # the unchosen step takes the least raw successor; a chooser still
        # sees the sorted, deduplicated list
        sp = int_range(0, 3)
        init = Relation(sp, sp, lambda a: (a,))
        body = Relation(
            sp, sp, lambda a: [Int(v) for v in reversed(range(a.value))] * 2)
        loop = make_loop(sp, named("INTGREATER", sp), init, body)
        assert run(loop, Int(3)).render() == "3 → 0"
        offered = []
        slow = run(loop, Int(3),
                   choose=lambda s, succs: offered.append(succs) or succs[-1])
        assert slow.render() == "3 → 2 → 1 → 0"
        assert offered[0] == [Int(0), Int(1), Int(2)]

    def test_fuel_exhaustion_keeps_the_partial_trace(self):
        with pytest.raises(FuelExhausted) as err:
            run(counting_loop(), Int(5), fuel=2)
        assert err.value.partial.steps == 2
        assert err.value.partial.states == (Int(5), Int(4), Int(3))

    def test_exact_fuel_is_enough(self):
        t = run(counting_loop(), Int(3), fuel=3)
        assert t.terminal == Int(0)

    def test_all_mode_returns_one_trace_per_terminal(self):
        traces = run(branch_loop(), Int(0), mode="all")
        assert [t.terminal for t in traces] == [Node("b"), Node("c")]
        assert all(t.states[0] == Node("a") for t in traces)

    def test_all_mode_fuel_counts_edges(self):
        sp = int_range(0, 3)
        init = Relation(sp, sp, lambda a: (a,))
        loop = make_loop(sp, named("INTGREATER", sp), init,
                         named("INTGREATER", sp))
        with pytest.raises(FuelExhausted):
            run(loop, Int(3), mode="all", fuel=2)

    def test_all_mode_fuel_budget_is_exact(self):
        # from 3 under INTGREATER the walk crosses 3 + 2 + 1 = 6 edges
        sp = int_range(0, 3)
        init = Relation(sp, sp, lambda a: (a,))
        loop = make_loop(sp, named("INTGREATER", sp), init,
                         named("INTGREATER", sp))
        assert [t.terminal for t in run(loop, Int(3), mode="all", fuel=6)] \
            == [Int(0)]
        assert terminals_of(loop, Int(3), fuel=6) == frozenset({Int(0)})
        with pytest.raises(FuelExhausted):
            run(loop, Int(3), mode="all", fuel=5)
        with pytest.raises(FuelExhausted):
            terminals_of(loop, Int(3), fuel=5)

    def test_validated_all_mode_refuses_a_reachable_cycle(self):
        # order and body both hold 1 → 2 → 1: every step is in the order,
        # and no state is terminal
        sp = int_range(0, 2)
        spin = from_pairs(sp, sp, [(Int(1), Int(2)), (Int(2), Int(1))])
        init = from_pairs(sp, sp, [(Int(1), Int(1))])
        loop = make_loop(sp, spin, init, spin, check=False)
        assert run(loop, Int(1), mode="all") == []
        with pytest.raises(NotNoetherian, match="1 → 2 → 1"):
            run(loop, Int(1), mode="all", validate=True)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run(counting_loop(), Int(1), mode="fastest")

    def test_input_must_be_served(self):
        loop = branch_loop()
        with pytest.raises(InputOutsideSpace):
            run(loop, Int(7))

    def test_validate_catches_an_escaping_body(self):
        sp = int_range(0, 3)
        order = named("INTGREATER", sp)
        init = Relation(sp, sp, lambda a: (a,))
        rogue = Relation(
            sp, sp, lambda a: (Int(a.value + 1),) if a.value < 3 else ())
        loop = make_loop(sp, order, init, rogue, check=False)
        run(loop, Int(0))   # unvalidated, the climb goes unnoticed
        with pytest.raises(BodyNotSubsetOfOrder):
            run(loop, Int(0), validate=True)

    def test_terminals_of(self):
        assert terminals_of(branch_loop(), Int(0)) \
            == frozenset({Node("b"), Node("c")})
        assert terminals_of(counting_loop(), Int(4)) == frozenset({Int(0)})


class TestTerminalsMemo:
    """terminals_of(..., _known=) reuses the terminal sets of earlier walks."""

    def test_a_shared_memo_answers_as_fresh_calls_do(self):
        # every body on three states, cycles included, swept both ways,
        # under the identity init and one that starts each input twice
        sp = int_range(0, 2)
        val = [Int(i) for i in range(3)]
        inits = [Relation(sp, sp, lambda a: (a,)),
                 Relation(sp, sp, lambda a: (a, val[(a.value + 1) % 3]))]
        all_pairs = [(a, b) for a in val for b in val]
        for bits in range(2 ** 9):
            body = from_pairs(sp, sp, [p for k, p in enumerate(all_pairs)
                                       if bits >> k & 1])
            for init in inits:
                loop = make_loop(sp, body, init, body, check=False)
                fresh = {v: terminals_of(loop, v) for v in val}
                for order in (val, val[::-1]):
                    known = {}
                    assert {v: terminals_of(loop, v, _known=known)
                            for v in order} == fresh, bits

    def test_a_sweep_expands_each_state_once(self):
        sp = int_range(0, 9)
        calls = collections.Counter()

        def down(a):
            calls[a] += 1
            return (Int(a.value - 1),) if a.value else ()

        body = Relation(sp, sp, down)
        init = Relation(sp, sp, lambda a: (a,))
        loop = make_loop(sp, named("INTGREATER", sp), init, body, check=False)
        known = {}
        for v in sp.values():
            assert terminals_of(loop, v, fuel=1, _known=known) \
                == frozenset({Int(0)})
        assert body._pairs is None
        assert calls == {v: 1 for v in sp.values()}
        # a walk that met one known state and no sink returns its set
        assert all(s is known[Int(0)] for s in known.values())

    def test_a_known_start_needs_no_fuel(self):
        loop = counting_loop()
        known = {Int(3): frozenset({Int(0)})}
        assert terminals_of(loop, Int(3), fuel=0, _known=known) \
            is known[Int(3)]
        with pytest.raises(FuelExhausted):
            terminals_of(loop, Int(3), fuel=0)

    def test_running_out_of_fuel_leaves_the_memo_as_it_was(self):
        loop = counting_loop()
        known = {Int(1): frozenset({Int(0)})}
        with pytest.raises(FuelExhausted):
            terminals_of(loop, Int(5), fuel=3, _known=known)
        assert known == {Int(1): frozenset({Int(0)})}
        assert terminals_of(loop, Int(5), fuel=4, _known=known) \
            == frozenset({Int(0)})
        assert set(known) == {Int(1), Int(5)}

    def test_verify_fuel_bounds_each_input_past_earlier_answers(self):
        # declared change: verify's runs share one memo, so in value order
        # each input of a 20-step chain walks one edge; alone, 20 needs 20
        loop = counting_loop(20)
        assert verify(loop, fuel=3).passed
        with pytest.raises(FuelExhausted):
            terminals_of(loop, Int(20), fuel=3)


class TestDenotations:
    def test_closure_full_vs_terminal(self):
        loop = counting_loop(3)
        full, terminal = denotation_closure(loop)
        assert frozenset(full.successors(Int(2))) == frozenset({Int(i) for i in range(3)})
        assert frozenset(terminal.successors(Int(2))) == frozenset({Int(0)})
        for i in range(4):
            image = frozenset(terminal.successors(Int(i)))
            assert all(terminal.holds(Int(i), s) == (s in image)
                       for s in loop.space.values())

    def test_limit_route_agrees(self):
        loop = counting_loop(4)
        lim = denotation_limit(loop)
        _, terminal = denotation_closure(loop)
        for i in range(5):
            assert frozenset(lim.successors(Int(i))) == frozenset(terminal.successors(Int(i)))

    def test_branching_denotation(self):
        _, terminal = denotation_closure(branch_loop())
        assert frozenset(terminal.successors(Int(0))) == frozenset({Node("b"), Node("c")})

    def test_terminal_walks_neither_the_runs_nor_the_limit(self, monkeypatch):
        # denotation_agreement cross-checks three walks, so the closure may
        # not be served by the runs or by the limit's height memo
        loop = counting_loop(4)
        def refuse(*args, **kwargs):
            raise AssertionError("the closure reused another walk")
        for module in (noether, loops):
            for name in ("height_from", "limit_from", "reachable_from",
                         "terminals_of"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        _, terminal = denotation_closure(loop)
        assert [frozenset(terminal._succ(Int(i))) for i in range(5)] \
            == [frozenset({Int(0)})] * 5
        assert loop.body._heights is None

    def test_terminal_is_the_forward_closure_cut_to_the_exits(self):
        # every body on three states, cycles included, under an init that
        # starts each input in place and one that starts it in two places
        sp = int_range(0, 2)
        order = named("INTGREATER", sp)
        vals = sp.values()
        all_pairs = list(itertools.product(vals, vals))
        inits = (from_pairs(sp, sp, [(v, v) for v in vals]),
                 from_pairs(sp, sp, [(v, w) for v in vals for w in vals
                                     if w.value in (v.value, (v.value + 1) % 3)]))
        for bits in range(2 ** len(all_pairs)):
            body = from_pairs(sp, sp, [p for k, p in enumerate(all_pairs)
                                       if bits >> k & 1])
            for init in inits:
                loop = make_loop(sp, order, init, body, check=False)
                _, terminal = denotation_closure(loop)
                exits = frozenset(exit_condition(loop))
                for i in vals:
                    forward = frozenset(reach(body, init._succ(i))) & exits
                    assert frozenset(terminal._succ(i)) == forward, (bits, i)


    def test_the_closure_builds_no_pair_set_of_the_body(self):
        loop = counting_loop(4)     # the seed test filled the body
        assert loop.body._adj is not None and loop.body._pairs is None
        denotation_closure(loop)
        assert loop.body._pairs is None
        sp = int_range(0, 3)
        body = Relation(sp, sp, lambda a: [Int(a.value - 1)] if a.value else [])
        init = Relation(sp, sp, lambda a: (a,), name="start-here")
        loop = make_loop(sp, named("INTGREATER", sp), init, body, check=False)
        _, terminal = denotation_closure(loop)
        assert terminal._succ(Int(3)) == {Int(0)}
        assert body._adj is not None and body._pairs is None

    def test_terminal_equals_the_walk_over_the_inverse(self):
        # a body that leaves the space (1 -> -1) and still passes the
        # construction checks; the flipped adjacency holds what the inverse
        # holds, so the terminal sets are equal, in the same order
        sp = int_range(0, 3)
        body = from_pairs(sp, sp, [(Int(1), Int(-1)), (Int(2), Int(1)),
                                   (Int(3), Int(2))], check=False)
        init = Relation(sp, sp, lambda a: (a,), name="start-here")
        loop = make_loop(sp, named("INTGREATER", sp), init, body)
        back = body.inverse()
        exits_from = {}
        for e in exit_condition(loop):
            for s in reach(back, (e,)):
                exits_from.setdefault(s, []).append(e)
        _, terminal = denotation_closure(loop)
        for i in list(sp.values()) + [Int(-1)]:
            want = {e for s in init._succ(i) for e in exits_from.get(s, ())}
            assert list(terminal._succ(i)) == list(want), i
        assert not terminal._succ(Int(3))
        assert terminal._succ(Int(0)) == {Int(0)}


class TestVerify:
    def test_obligation_names_pinned(self):
        assert OBLIGATIONS == ("space_nonempty", "init_range",
                               "order_noetherian", "body_is_seed",
                               "exit_nonempty", "postcondition_at_minima",
                               "denotation_agreement")

    def test_green_report(self):
        report = verify(counting_loop(3, "minimum_characterization"))
        assert report.passed
        assert [r.name for r in report.results] == list(OBLIGATIONS)
        assert report.inputs_checked == 4
        text = report.render()
        assert "space_nonempty: pass (4 states)" in text
        assert "order_noetherian: pass (Noetherian (certificate))" in text
        assert text.endswith("verdict: pass")

    def test_the_exits_are_found_once(self, monkeypatch):
        # exit_nonempty and the closure denotation share one exit list
        calls = []
        real = loops.exit_condition

        def counted(loop):
            calls.append(loop)
            return real(loop)

        monkeypatch.setattr(loops, "exit_condition", counted)
        loop = branch_loop()
        assert verify(loop).passed
        assert len(calls) == 1
        _, given = denotation_closure(loop, exits=real(loop))
        _, found = denotation_closure(loop)
        assert len(calls) == 2
        assert given.pairs() == found.pairs()

    def test_failing_oracle_turns_the_report_red(self):
        # a body that stops early leaves non-minimal terminals behind
        sp = int_range(0, 4)
        order = named("INTGREATER", sp)
        body = Relation(
            sp, sp,
            lambda a: (Int(a.value - 1),) if a.value > 2 else (),
            holds=lambda a, b: a.value > 2 and b.value == a.value - 1)
        init = Relation(sp, sp, lambda a: (a,))
        loop = make_loop(sp, order, init, body, "minimum_characterization",
                         check=False)
        report = verify(loop)
        assert not report.passed
        by_name = {r.name: r for r in report.results}
        assert not by_name["postcondition_at_minima"].passed
        assert "oracle rejects terminal" in by_name["postcondition_at_minima"].detail
        assert not by_name["body_is_seed"].passed
        assert "FAIL" in report.render()

    def test_disagreeing_denotations_name_the_first_input(self):
        # the body leaves the space at 0: the run ends outside it, the
        # closure finds no exit, and the limit follows the run
        sp = int_range(0, 3)
        body = Relation(sp, sp, lambda a: (Int(-1),) if a.value == 0 else ())
        init = Relation(sp, sp, lambda a: (a,))
        loop = make_loop(sp, named("INTGREATER", sp), init, body, check=False)
        report = verify(loop)
        by_name = {r.name: r for r in report.results}
        assert not by_name["denotation_agreement"].passed
        assert by_name["denotation_agreement"].render() == (
            "denotation_agreement: FAIL "
            "(input 0: runs {-1}, closure {}, limit {-1})")
        assert not report.passed

    def test_explicit_input_list(self):
        report = verify(counting_loop(5), inputs=[Int(2), Int(3)])
        assert report.inputs_checked == 2 and report.passed

    def test_no_oracle_named_detail(self):
        report = verify(counting_loop(3))
        by_name = {r.name: r for r in report.results}
        assert by_name["postcondition_at_minima"].passed
        assert by_name["postcondition_at_minima"].detail == "no oracle named"

    def test_unknown_oracle_surfaces(self):
        with pytest.raises(UnknownOracle):
            verify(counting_loop(2, "wishful_thinking"))

    def test_a_cyclic_body_gets_a_report(self):
        sp = int_range(0, 2)
        body = from_pairs(sp, sp, [(Int(1), Int(2)), (Int(2), Int(1))])
        init = from_pairs(sp, sp, [(Int(1), Int(1))])
        report = verify(make_loop(sp, body, init, body, check=False))
        by_name = {r.name: r for r in report.results}
        assert not report.passed
        assert [r.name for r in report.results] == list(OBLIGATIONS)
        assert by_name["denotation_agreement"].detail == (
            "not evaluated: relation admits an infinite descending chain: "
            "1 → 2 → 1")

    def test_obligation_render(self):
        assert ObligationResult("init_range", True).render() == "init_range: pass"
        assert ObligationResult("init_range", False, "boom").render() \
            == "init_range: FAIL (boom)"


class TestVariants:
    def test_callable_measure(self):
        sp = int_range(0, 5)
        r = variant_to_relation(lambda v: v.value // 2, sp, fn_name="half")
        assert r.name == "variant[half]"
        assert r.cert.rule == "INDUCED" and r.cert.sound
        assert r.holds(Int(4), Int(1)) and not r.holds(Int(4), Int(5))
        # 4 and 5 share a measure, so neither steps to the other
        assert not r.holds(Int(5), Int(4))

    def test_dict_measure(self):
        sp = explicit([Node("a"), Node("b")])
        r = variant_to_relation({Node("a"): 1, Node("b"): 0}, sp)
        assert r.name == "variant"
        assert r.holds(Node("a"), Node("b"))
        assert frozenset(r.successors(Node("b"))) == frozenset()

    def test_measure_must_be_total(self):
        sp = explicit([Node("a"), Node("b")])
        with pytest.raises(NonTotalFunction) as err:
            variant_to_relation({Node("a"): 1}, sp)
        assert err.value.witness == Node("b")

    def test_measure_must_be_natural(self):
        sp = int_range(0, 2)
        with pytest.raises(NegativeVariantValue):
            variant_to_relation(lambda v: v.value - 1, sp)

    def test_int_values_accepted(self):
        sp = int_range(0, 2)
        r = variant_to_relation(lambda v: Int(v.value), sp)
        assert r.holds(Int(2), Int(0))


class TestEveryLoopOnThreeStates:
    """Every order on three states, every body inside it (3^9 = 19,683
    loops), under an init that starts each input in place and one that
    starts each input in two places. Each row of verify is compared with
    its definition, computed here from plain pair sets."""

    @staticmethod
    def closure(ps):
        out = set(ps)
        while True:
            more = {(a, d) for a, b in out for c, d in ps if b == c} - out
            if not more:
                return out
            out |= more

    def test_every_row_matches_its_definition(self):
        sp = int_range(0, 2)
        all_pairs = [(a, b) for a in range(3) for b in range(3)]
        val = [Int(i) for i in range(3)]
        inits = {"identity": {i: {i} for i in range(3)},
                 "two starts": {i: {i, (i + 1) % 3} for i in range(3)}}
        init_rels = {k: from_pairs(sp, sp, [(val[i], val[s])
                                            for i, ss in m.items() for s in ss])
                     for k, m in inits.items()}

        def rel_of(ps):
            return from_pairs(sp, sp, [(val[a], val[b]) for a, b in ps])

        for obits in range(2 ** 9):
            ops = [p for k, p in enumerate(all_pairs) if obits >> k & 1]
            order = rel_of(ops)
            order_cycle = any(a == b for a, b in self.closure(ops))
            order_dom = {a for a, _ in ops}
            for bbits in range(2 ** len(ops)):
                bps = {p for k, p in enumerate(ops) if bbits >> k & 1}
                body = rel_of(bps)
                body_cycle = any(a == b for a, b in self.closure(bps))
                body_dom = {a for a, _ in bps}
                sinks = {a for a in range(3) if a not in body_dom}
                # the body is inside the order, so only the domains can differ
                missing = min(order_dom - body_dom, default=None)
                for kind, init in init_rels.items():
                    self.check_loop(sp, order, body, init, inits[kind],
                                    order_cycle, body_cycle, missing, sinks,
                                    bps, (obits, bbits, kind))

    def check_loop(self, sp, order, body, init, starts, order_cycle,
                   body_cycle, missing, sinks, bps, where):
        loop = make_loop(sp, order, init, body, check=False)
        report = verify(loop)
        rows = {r.name: r for r in report.results}
        assert tuple(rows) == OBLIGATIONS, where
        assert rows["space_nonempty"] == ObligationResult(
            "space_nonempty", True, "3 states"), where
        assert rows["init_range"] == ObligationResult(
            "init_range", True), where

        order_row = rows["order_noetherian"]
        assert order_row.passed is not order_cycle, where
        if order_cycle:
            cycle = order_row.detail.removeprefix("not Noetherian, cycle: ")
            steps = [int(v) for v in cycle.split(" → ")]
            assert steps[0] == steps[-1], where
            assert all(order.holds(Int(a), Int(b))
                       for a, b in zip(steps, steps[1:])), where

        seed_row = rows["body_is_seed"]
        assert seed_row.passed is (missing is None), where
        if missing is not None:
            assert seed_row.detail == (f"seed: no, domain mismatch at "
                                       f"{missing} (larger relation only)")

        assert exit_condition(loop) == [Int(a) for a in sorted(sinks)], where
        assert rows["exit_nonempty"] == ObligationResult(
            "exit_nonempty", bool(sinks), f"{len(sinks)} exit states"), where
        assert rows["postcondition_at_minima"] == ObligationResult(
            "postcondition_at_minima", True, "no oracle named"), where

        agree_row = rows["denotation_agreement"]
        if body_cycle:
            assert not agree_row.passed, where
            assert agree_row.detail.startswith(
                "not evaluated: relation admits an infinite descending "
                "chain: "), where
        else:
            assert agree_row == ObligationResult(
                "denotation_agreement", True), where
            # the three denotations: every resolution of the run, the
            # closure cut to the exits, and the limit all end at the
            # reachable sinks
            _, terminal = denotation_closure(loop)
            limit = denotation_limit(loop)
            for i, ss in starts.items():
                seen, frontier = set(ss), set(ss)
                while frontier:
                    frontier = {b for a, b in bps if a in frontier} - seen
                    seen |= frontier
                want = frozenset(Int(a) for a in seen & sinks)
                assert terminals_of(loop, Int(i)) == want, where
                assert frozenset(terminal._succ(Int(i))) == want, where
                assert frozenset(limit._succ(Int(i))) == want, where

        # make_loop raises the first failing construction row's verdict
        first = next((r for r in report.results[:4] if not r.passed), None)
        if first is None:
            assert make_loop(sp, order, init, body).body is body, where
        elif first.name == "order_noetherian":
            with pytest.raises(OrderNotNoetherian) as err:
                make_loop(sp, order, init, body)
            assert first.detail == f"not Noetherian, cycle: {err.value.witness}"
        else:
            assert first.name == "body_is_seed", where
            with pytest.raises(DomainMismatch) as err:
                make_loop(sp, order, init, body)
            assert (err.value.witness, err.value.side) \
                == (Int(missing), "order_only"), where
