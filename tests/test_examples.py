"""The six shipped loop instances: pinned traces, oracles, edge cases."""

import itertools
import math

import pytest

from noet.catalog import induced, named
from noet.errors import ParameterOutOfRange, SpaceTooLarge
from noet.examples import EXAMPLE_NAMES, EXAMPLES, _gcd_core, instantiate
from noet.loops import run, terminals_of, variant_to_relation, verify
from noet.noether import is_noetherian
from noet.spaces import (DEFAULT_MAX_SPACE, Space, int_range,
                         interval_sets_of, intervals_of, lazy_explicit,
                         product)
from noet.values import (Int, Interval, IntervalSet, Node, Pair, Seq, Tup,
                         interval_strictly_within, sort_values)


def drive(inst, **kw):
    return run(inst.loop, inst.input, choose=inst.chooser, **kw)


class TestRegistry:
    def test_names_and_metadata_line_up(self):
        assert EXAMPLE_NAMES == tuple(EXAMPLES)
        assert len(EXAMPLE_NAMES) == 6
        for build, params, summary in EXAMPLES.values():
            assert callable(build) and summary
            assert all(kind in ("int", "int?", "ints") for _, kind in params)


class TestInstantiateValidation:
    def test_unknown_example(self):
        with pytest.raises(ParameterOutOfRange, match="unknown example"):
            instantiate("quicksort", t=(1,))

    def test_missing_parameters(self):
        with pytest.raises(ParameterOutOfRange, match="needs parameters: b"):
            instantiate("gcd", a=4)

    def test_extra_parameters(self):
        with pytest.raises(ParameterOutOfRange, match="does not take: pivot"):
            instantiate("lamsort", t=(1, 2), pivot=1)

    def test_gcd_inputs_must_be_positive(self):
        with pytest.raises(ParameterOutOfRange):
            instantiate("gcd", a=0, b=4)
        with pytest.raises(ParameterOutOfRange):
            instantiate("gcd", a="12", b=4)

    def test_gcd_bound_must_cover_the_inputs(self):
        with pytest.raises(ParameterOutOfRange, match="bound must cover"):
            instantiate("gcd", a=12, b=8, bound=10)

    def test_array_items_must_be_integers(self):
        with pytest.raises(ParameterOutOfRange, match="must be integers"):
            instantiate("seq_search", t=(1, "two"), x=1)
        with pytest.raises(ParameterOutOfRange):
            instantiate("lamsort", t=(True,))

    @pytest.mark.parametrize("name,params", [
        ("gcd", {"a": 1, "b": 1, "bound": 2.5}),
        ("gcd", {"a": 1, "b": 1, "bound": "3"}),
        ("gcd", {"a": True, "b": 1}),
        ("partition", {"t": (1, 2), "pivot": 2.5}),
        ("seq_search", {"t": (1, 2), "x": None}),
        ("lamsort", {"t": 3})])
    def test_each_parameter_has_its_declared_kind(self, name, params):
        with pytest.raises(ParameterOutOfRange):
            instantiate(name, **params)

    def test_an_optional_parameter_may_be_none(self):
        assert instantiate("gcd", a=4, b=6, bound=None).loop \
            is instantiate("gcd", a=4, b=6).loop

    def test_gcd_cores_are_shared(self):
        a = instantiate("gcd", a=12, b=8)
        b = instantiate("gcd", a=8, b=12)
        assert a.loop is b.loop
        assert a.input == Pair(Int(12), Int(8))

    def test_check_tiering(self):
        assert instantiate("gcd", a=2, b=2).checked
        assert not instantiate("gcd", a=2, b=2, bound=33).checked
        assert instantiate("lamsort", t=(1, 2, 3, 4)).checked
        assert not instantiate("lamsort", t=(1, 2, 3, 4, 5)).checked
        assert instantiate("lamsort", t=(1, 2, 3, 4, 5), check=False).loop


class TestFrozenTraces:
    def test_gcd(self):
        inst = instantiate("gcd", a=12, b=8)
        t = drive(inst)
        assert t.render() == "(12, 8) → (4, 8) → (4, 4)"
        assert inst.oracle_check(inst.input, t.terminal)

    def test_seq_search(self):
        inst = instantiate("seq_search", t=(5, 3), x=3)
        t = drive(inst)
        assert t.render() == "1..0 → 1..1"
        assert inst.oracle_check(inst.input, t.terminal)

    def test_binary_search_policy(self):
        inst = instantiate("general_search_interval", t=(1, 2, 3, 4), x=3)
        t = drive(inst)
        assert t.render() == "1..4 → 3..4 → 3..3"
        assert inst.oracle_check(inst.input, t.terminal)

    def test_partition(self):
        inst = instantiate("partition", t=(6, 2, 8, 4), pivot=5)
        t = drive(inst)
        assert t.render() == ("([6, 2, 8, 4], 1..4) → ([4, 2, 8, 6], 2..3) → "
                              "([4, 2, 8, 6], 3..3) → ([4, 2, 8, 6], 3..2)")
        assert inst.oracle_check(inst.input, t.terminal)

    def test_lamsort(self):
        inst = instantiate("lamsort", t=(3, 1, 2))
        t = drive(inst)
        assert t.render() == ("([3, 1, 2], {1..3}) → ([1, 3, 2], {1..1, 2..3})"
                              " → ([1, 2, 3], {1..1, 2..2, 3..3})")
        assert inst.oracle_check(inst.input, t.terminal)

    def test_intervalset_search(self):
        inst = instantiate("general_search_intervalset", t=(4, 5, 6), x=5)
        t = drive(inst)
        want = IntervalSet(frozenset({Interval(1, 1), Interval(3, 3)}))
        assert t.terminal == want
        assert inst.oracle_check(inst.input, t.terminal)


class TestEmptyAndDegenerateInputs:
    def test_seq_search_empty(self):
        inst = instantiate("seq_search", t=(), x=7)
        t = drive(inst)
        assert t.terminal == Interval(1, 0) and t.steps == 0
        assert inst.oracle_check(inst.input, t.terminal)

    def test_seq_search_miss_scans_everything(self):
        inst = instantiate("seq_search", t=(5, 6, 7), x=9)
        t = drive(inst)
        assert t.terminal == Interval(1, 3)
        assert inst.oracle_check(inst.input, t.terminal)

    def test_interval_search_empty_and_absent(self):
        empty = instantiate("general_search_interval", t=(), x=1)
        t = drive(empty)
        assert t.terminal == Interval(1, 0)
        assert empty.oracle_check(empty.input, t.terminal)
        absent = instantiate("general_search_interval", t=(2, 4), x=3)
        t2 = drive(absent)
        assert t2.terminal == Interval(1, 0)
        assert absent.oracle_check(absent.input, t2.terminal)

    def test_intervalset_search_empty(self):
        inst = instantiate("general_search_intervalset", t=(), x=1)
        t = drive(inst)
        assert t.terminal == IntervalSet(frozenset())
        assert inst.oracle_check(inst.input, t.terminal)

    def test_partition_empty(self):
        inst = instantiate("partition", t=(), pivot=3)
        t = drive(inst)
        assert t.terminal == Tup((Seq(()), Interval(1, 0)))
        assert inst.oracle_check(inst.input, t.terminal)

    def test_lamsort_empty_and_singleton(self):
        for t_in in ((), (9,)):
            inst = instantiate("lamsort", t=t_in)
            t = drive(inst)
            assert t.steps == 0
            assert inst.oracle_check(inst.input, t.terminal)

    def test_lamsort_all_equal_sheds_heads(self):
        inst = instantiate("lamsort", t=(2, 2, 2))
        t = drive(inst)
        assert t.steps == 2
        assert t.terminal.items[0] == Seq((2, 2, 2))
        assert inst.oracle_check(inst.input, t.terminal)

    def test_unsorted_input_keeps_the_midpoint_policy_safe(self):
        # the binary-search chooser assumes sorted data; on unsorted data
        # it may wander, but staying inside the space keeps it sound
        inst = instantiate("general_search_interval", t=(3, 1, 2), x=1)
        t = drive(inst, validate=True)
        assert inst.oracle_check(inst.input, t.terminal)


class TestSaturation:
    def test_every_resolution_reaches_the_maximal_set(self):
        # gsis adds one missing interval per step, so all runs saturate
        for t_in, x in (((1, 2), 2), ((4, 5, 6), 5), ((7,), 7)):
            inst = instantiate("general_search_intervalset", t=t_in, x=x)
            terminals = terminals_of(inst.loop, inst.input)
            assert len(terminals) == 1

    def test_absent_key_saturates_to_full_cover(self):
        inst = instantiate("general_search_intervalset", t=(1, 2), x=9)
        t = drive(inst)
        assert t.terminal.union_positions() == frozenset({1, 2})


class TestVariantMeasures:
    SUBSUMING = [
        ("gcd", {"a": 6, "b": 4}),
        ("seq_search", {"t": (5, 3, 4), "x": 4}),
        ("general_search_interval", {"t": (1, 2, 3), "x": 2}),
        ("general_search_intervalset", {"t": (4, 5), "x": 5}),
        ("partition", {"t": (3, 1, 2), "pivot": 2}),
    ]

    @pytest.mark.parametrize("name,params", SUBSUMING,
                             ids=[s[0] for s in SUBSUMING])
    def test_classical_variant_subsumes_the_body(self, name, params):
        inst = instantiate(name, **params)
        strictly_down = variant_to_relation(inst.variant, inst.loop.space,
                                            fn_name=inst.variant_name)
        ok, witness = inst.loop.body.is_subset_of(strictly_down)
        assert ok, f"{inst.variant_name} fails to drop at {witness}"

    def test_lamsort_width_measure_does_not_subsume(self):
        inst = instantiate("lamsort", t=(1, 2, 3, 4))
        strictly_down = variant_to_relation(inst.variant, inst.loop.space,
                                            fn_name=inst.variant_name)
        ok, witness = inst.loop.body.is_subset_of(strictly_down)
        assert not ok
        w1, w2 = witness
        assert inst.variant(w1) == inst.variant(w2)

    def test_lamsort_width_plateau_witness_pinned(self):
        # splitting one of two equally wide blocks leaves the widest width
        # untouched, so the width measure stalls while block count grows
        inst = instantiate("lamsort", t=(1, 2, 3, 4))
        w1 = Tup((Seq((1, 2, 3, 4)),
                  IntervalSet(frozenset({Interval(1, 2), Interval(3, 4)}))))
        w2 = Tup((Seq((1, 2, 3, 4)),
                  IntervalSet(frozenset({Interval(1, 1), Interval(2, 2),
                                         Interval(3, 4)}))))
        assert inst.loop.body.holds(w1, w2)
        assert inst.variant(w1) == inst.variant(w2) == 2
        assert inst.loop.order.holds(w1, w2)

    def test_lamsort_block_count_subsumes_instead(self):
        inst = instantiate("lamsort", t=(2, 1, 3))
        counting = variant_to_relation(
            lambda s: len(s.items[0].items) - len(s.items[1].members),
            inst.loop.space)
        ok, _ = inst.loop.body.is_subset_of(counting)
        assert ok


class TestValidatedRuns:
    @pytest.mark.parametrize("name,params", [
        ("gcd", {"a": 9, "b": 6}),
        ("seq_search", {"t": (2, 4, 6), "x": 6}),
        ("partition", {"t": (5, 1, 4), "pivot": 3}),
        ("lamsort", {"t": (2, 3, 1)}),
    ], ids=["gcd", "seq_search", "partition", "lamsort"])
    def test_every_step_stays_inside_space_and_order(self, name, params):
        inst = instantiate(name, **params)
        t = drive(inst, validate=True)
        assert inst.oracle_check(inst.input, t.terminal)


def _top(p):
    return max(p.first.value, p.second.value)


# Each example's order as a plain predicate on pairs of states, written
# independently of the catalog constructors that build it.
HAND_WRITTEN_ORDERS = {
    "gcd": lambda p, q: _top(q) < _top(p),
    "seq_search": lambda cur, j: interval_strictly_within(cur, j),
    "general_search_interval": lambda cur, j: interval_strictly_within(j, cur),
    "general_search_intervalset": lambda s, q: s.members < q.members,
    "partition": lambda s, q: interval_strictly_within(q.items[1],
                                                       s.items[1]),
    "lamsort": lambda s, q: len(q.items[1].members) > len(s.items[1].members),
}

SMALL_INSTANCES = [
    ("gcd", {"a": 6, "b": 4}), ("gcd", {"a": 3, "b": 5, "bound": 7}),
    ("seq_search", {"t": (5, 3, 4), "x": 4}),
    ("seq_search", {"t": (1, 2), "x": 9}), ("seq_search", {"t": (), "x": 1}),
    ("general_search_interval", {"t": (1, 2, 3), "x": 2}),
    ("general_search_interval", {"t": (2, 1, 2), "x": 7}),
    ("general_search_interval", {"t": (), "x": 1}),
    ("general_search_intervalset", {"t": (4, 5), "x": 5}),
    ("general_search_intervalset", {"t": (1, 2, 1), "x": 1}),
    ("general_search_intervalset", {"t": (), "x": 1}),
    ("partition", {"t": (3, 1, 2), "pivot": 2}),
    ("partition", {"t": (2, 2), "pivot": 2}),
    ("partition", {"t": (), "pivot": 0}),
    ("lamsort", {"t": (2, 3, 1)}), ("lamsort", {"t": (1, 1)}),
    ("lamsort", {"t": ()}),
]


class TestCatalogOrders:
    @pytest.mark.parametrize("name,params", SMALL_INSTANCES,
                             ids=[f"{n}-{i}" for i, (n, _)
                                  in enumerate(SMALL_INSTANCES)])
    def test_order_has_the_hand_written_pairs(self, name, params):
        inst = instantiate(name, **params)
        order, vals = inst.loop.order, inst.loop.space.values()
        steps = HAND_WRITTEN_ORDERS[name]
        want = {(a, b) for a in vals for b in vals if steps(a, b)}
        assert order.pairs() == want
        assert all(order.holds(a, b) == ((a, b) in want)
                   for a in vals for b in vals)
        # the exhaustive search agrees with the certificate
        assert order.cert.sound and is_noetherian(order).holds is True

    @pytest.mark.parametrize("t,x", [((), 1), ((1, 2, 3), 2), ((2, 1, 2), 7),
                                     ((4, 4, 1, 4), 4)])
    @pytest.mark.parametrize("name,rule,over_space", [
        ("general_search_interval", "SUPINTERVAL", intervals_of),
        ("general_search_intervalset", "INTERVALSUBSET", interval_sets_of),
    ])
    def test_identity_order_is_the_identity_pull_back(self, name, rule,
                                                      over_space, t, x):
        # the search orders pull their base back through fn=None; it must
        # give what the identity function itself gives
        inst = instantiate(name, t=t, x=x, check=False)
        order, space = inst.loop.order, inst.loop.space
        twin = induced(lambda v: v, named(rule, over_space(1, len(t))), space)
        assert order.pairs() == twin.pairs()
        assert order.cert.render() == twin.cert.render()
        vals = space.values()
        assert all(order.holds(a, b) == twin.holds(a, b)
                   for a in vals for b in vals)

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_order_verifies_by_its_certificate(self, name):
        inst = instantiate(name, **next(p for n, p in SMALL_INSTANCES
                                        if n == name))
        report = verify(inst.loop, ctx=inst.ctx)
        by_name = {r.name: r for r in report.results}
        assert by_name["order_noetherian"].detail == "Noetherian (certificate)"
        assert report.passed


# -- example spaces generate only their members ---------------------------------

def _filtered(base, pred, pred_id):
    """The members of base that pred accepts, found by enumerating base and
    testing each: the reference a generated example space must reproduce,
    label included."""
    return lazy_explicit(lambda: (v for v in base.values() if pred(v)),
                         lambda v: base.contains(v) and pred(v),
                         label=f"filtered({base.describe()}, {pred_id})")


def _gcd_class_as_filter(g, bound):
    """Class g as the full grid filtered by gcd: the definition the
    generated class space must reproduce."""
    return _filtered(product(int_range(1, bound), int_range(1, bound)),
                     lambda v: math.gcd(v.first.value, v.second.value) == g,
                     f"gcd={g}")


def _intervalset_search_as_filter(t, x):
    n = len(t)
    hits = tuple(i + 1 for i, v in enumerate(t) if v == x)
    return _filtered(
        interval_sets_of(1, n),
        lambda s: all(not any(m.covers(p) for p in hits) for m in s.members),
        f"avoid x at {hits} in 1..{n}")


NOT_PAIRS = [Int(3), Node("a"), Interval(1, 2), Seq((1, 2)),
             Tup((Int(1), Int(1))), IntervalSet(frozenset()), None, (1, 1)]
PAIRS_OF_NON_INTS = [Pair(Node("a"), Int(1)), Pair(Int(1), Node("a")),
                     Pair(Interval(1, 1), Interval(1, 1)),
                     Pair(Pair(Int(1), Int(1)), Int(1))]


class TestGeneratedSpaces:
    @pytest.mark.parametrize("bound", [1, 2, 7, 12, 24])
    def test_gcd_classes_match_the_filtered_grid(self, bound):
        total = 0
        for g in range(1, bound + 1):
            # a fresh core: the shared one may have been enumerated already
            space = _gcd_core.__wrapped__(g, bound, False,
                                          DEFAULT_MAX_SPACE).space
            want = _gcd_class_as_filter(g, bound)
            assert space.describe() == want.describe()
            grid = [Pair(Int(a), Int(b))
                    for a in range(bound + 2) for b in range(bound + 2)]
            probes = grid + NOT_PAIRS + PAIRS_OF_NON_INTS
            # the predicates first: once enumerated, both spaces answer
            # membership from their members, and must answer the same
            answers = [want.contains(v) for v in probes]
            assert [space.contains(v) for v in probes] == answers, g
            got, expected = space.values(), want.values()
            assert len(got) == len(expected)
            assert all(a is b for a, b in zip(got, expected))
            assert [space.contains(v) for v in probes] == answers, g
            total += len(got)
        assert total == bound ** 2

    def test_intervalset_search_matches_the_filtered_power_set(self):
        extras = [IntervalSet(frozenset({Interval(0, 0)})),
                  IntervalSet(frozenset({Interval(2, 1)})),
                  Interval(1, 1), Int(1), None]
        for n in range(4):
            for t in itertools.product(range(4), repeat=n):
                for x in range(5):
                    space = instantiate("general_search_intervalset", t=t,
                                        x=x, check=False).loop.space
                    want = _intervalset_search_as_filter(t, x)
                    assert space.describe() == want.describe()
                    beyond = [IntervalSet(frozenset({Interval(1, n + 1)}))]
                    probes = (interval_sets_of(1, n).values() + tuple(extras)
                              + tuple(beyond))
                    answers = [want.contains(v) for v in probes]
                    assert [space.contains(v) for v in probes] == answers
                    assert space.values() == want.values()
                    assert [space.contains(v) for v in probes] == answers

    def test_proving_a_space_too_large_to_enumerate_says_so(self):
        # as filters over an unsampled grid these spaces had no probe
        # value, and make_loop called them empty; class 1 has 152,231
        # members at bound 500, over the default cap
        with pytest.raises(SpaceTooLarge):
            instantiate("gcd", a=1, b=1, bound=500, check=True)
        with pytest.raises(SpaceTooLarge):
            instantiate("general_search_intervalset", t=(1, 2, 3, 4, 5, 6),
                        x=9, check=True)

    def test_gcd_sweep_never_enumerates_the_grid(self, monkeypatch):
        generated = []
        real = Space._generate

        def counting(space):
            out = list(real(space))
            generated.append((space.describe(), len(out)))
            return out

        monkeypatch.setattr(Space, "_generate", counting)
        _gcd_core.cache_clear()
        try:
            inst = instantiate("gcd", a=8, b=8, bound=64)
            assert verify(inst.loop, ctx=inst.ctx).passed
        finally:
            _gcd_core.cache_clear()
        label = "filtered(product(int_range 1..64, int_range 1..64), gcd=8)"
        # (8x, 8y) for coprime x, y in 1..8, and nothing else enumerated
        assert (label, 43) in generated
        assert max(n for _, n in generated) < 64 * 64

    def test_a_run_tests_membership_without_enumerating(self, monkeypatch):
        monkeypatch.setattr(Space, "_generate", None)
        inst = instantiate("gcd", a=1000, b=999, bound=1000)
        assert drive(inst, validate=True).terminal == Pair(Int(1), Int(1))


def _seqs(alphabet, n):
    return [Seq(s) for s in itertools.product(sorted(set(alphabet)), repeat=n)]


def _partition_superset(t, pivot):
    cuts = intervals_of(0, len(t) + 1).values()
    return [Tup((s, c)) for s in _seqs(t, len(t)) for c in cuts]


def _lamsort_superset(t):
    n = len(t)
    parts = list(interval_sets_of(1, n).values())
    parts += [IntervalSet(frozenset({Interval(1, n + 1)})),
              IntervalSet(frozenset({Interval(1, 0), Interval(1, n)}))]
    return [Tup((s, p)) for s in _seqs(t, n) for p in parts]


def _gcd_superset(a, b, bound):
    return [Pair(Int(i), Int(j))
            for i in range(bound + 2) for j in range(bound + 2)]


def _intervalset_superset(t, x):
    return list(interval_sets_of(1, len(t)).values()) + [
        IntervalSet(frozenset({Interval(1, len(t) + 1)}))]


# every example whose space is a lazy_explicit factory, with a finite
# superset of its states to test membership over
LAZY_SPACES = [
    ("partition", {"t": (3, 1, 2), "pivot": 2}, _partition_superset),
    ("partition", {"t": (2, 2), "pivot": 2}, _partition_superset),
    ("partition", {"t": (1, 3, 2, 1), "pivot": 2}, _partition_superset),
    ("partition", {"t": (), "pivot": 0}, _partition_superset),
    ("lamsort", {"t": (2, 3, 1)}, _lamsort_superset),
    ("lamsort", {"t": (2, 1, 2, 1)}, _lamsort_superset),
    ("lamsort", {"t": ()}, _lamsort_superset),
    ("gcd", {"a": 6, "b": 4, "bound": 9}, _gcd_superset),
    ("gcd", {"a": 5, "b": 3, "bound": 7}, _gcd_superset),
    ("gcd", {"a": 3, "b": 3, "bound": 10}, _gcd_superset),
    ("general_search_intervalset", {"t": (4, 5), "x": 5},
     _intervalset_superset),
    ("general_search_intervalset", {"t": (1, 2, 1), "x": 1},
     _intervalset_superset),
    ("general_search_intervalset", {"t": (1, 2, 3), "x": 9},
     _intervalset_superset),
    ("general_search_intervalset", {"t": (), "x": 1}, _intervalset_superset),
]


@pytest.mark.parametrize("name,params,superset", LAZY_SPACES,
                         ids=[f"{n}-{i}" for i, (n, _, _)
                              in enumerate(LAZY_SPACES)])
def test_factory_yields_exactly_the_contained_values(name, params, superset):
    # verify enumerates through the factory alone, so a factory that drops
    # a member would go unnoticed without this; and once enumerated the
    # space answers membership from its members, so the predicate is asked
    # first, and every answer must stay the same after
    _gcd_core.cache_clear()   # a gcd core that no other test enumerated
    space = instantiate(name, check=False, **params).loop.space
    assert space.kind == "explicit"
    around = sort_values(superset(**params)) + NOT_PAIRS
    answers = [space.contains(v) for v in around]
    members = space.values()
    assert set(members) <= set(around)
    assert {v for v, ok in zip(around, answers) if ok} == set(members)
    assert [space.contains(v) for v in around] == answers


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_arrangement_membership_is_membership_in_the_values(n):
    # every permutation of t with every candidate part, allowed or not
    for t in itertools.product(range(3), repeat=n):
        perms = {Seq(p) for p in itertools.permutations(t)}
        cuts = intervals_of(0, n + 1).values()
        blockings = interval_sets_of(1, n).values() + (
            IntervalSet(frozenset({Interval(1, n + 1)})),
            IntervalSet(frozenset({Interval(0, n)})),
            IntervalSet(frozenset({Interval(1, 0), Interval(1, n)})))
        spaces = [(instantiate("partition", t=t, pivot=p,
                               check=False).loop.space, cuts)
                  for p in range(-1, 4)]
        spaces.append((instantiate("lamsort", t=t, check=False).loop.space,
                       blockings))
        for space, parts in spaces:
            states = [Tup((u, part)) for u in perms for part in parts]
            answers = [space.contains(v) for v in states]
            members = set(space.values())
            assert answers == [v in members for v in states], t
            # enumerated, the space answers from its members
            assert [space.contains(v) for v in states] == answers, t
