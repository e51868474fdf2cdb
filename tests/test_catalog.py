"""The constructor catalog: every rule on a small pinned window."""

import re
from pathlib import Path

import pytest

import noet
from noet.catalog import (CLAIMED_RULES, NAMED_FUNCTIONS, RULES,
                          NoetherianCert, certify, closure_of, compose_rel,
                          induced, inverse_of, make_depth_fn, measure_descent,
                          named, powerset_space, projection, resolve_function,
                          restrict_to, subrel)
from noet.catalog import _BUILDERS
from noet.errors import (MalformedExpr, OrderNotNoetherian,
                         UnknownNamedFunction, ValueOutsideSpace)
from noet.loops import make_loop
from noet.noether import is_minimal, is_noetherian
from noet.relations import Relation, from_pairs
from noet.spaces import (explicit, int_range, interval_sets_of, intervals_of,
                         product)
from noet.values import Int, Interval, IntervalSet, Node, Pair, Seq, Tup

PAIRS22 = product(int_range(0, 2), int_range(0, 2))
IVALS = intervals_of(1, 3)
ISETS = interval_sets_of(1, 2)


def forest_space():
    return explicit([Node(x) for x in "rxyz"])


FOREST = {"x": "r", "y": "x", "z": "r"}


def iv(lo, hi):
    return Interval(lo, hi)


class TestRegistry:
    def test_thirty_rules(self):
        assert len(RULES) == 30
        assert len(set(RULES)) == 30

    def test_primes_are_plain_ascii(self):
        assert "ACYCLIC'" in RULES and "INTERVAL'" in RULES

    def test_claimed_rules(self):
        assert CLAIMED_RULES == {"COMPOSE", "PARENT", "ANCESTOR"}

    def test_registry_splits_into_named_and_derived(self):
        derived = {"COMPOSE", "CLOSURE", "SUBREL", "RESTRICT", "INDUCED",
                   "PROJECTION", "INVERSE"}
        assert set(RULES) == set(_BUILDERS) | derived

    def test_unknown_name_rejected(self):
        with pytest.raises(MalformedExpr):
            named("GREATEST", int_range(0, 3))


# every named family, built on a window it accepts
NAMED_FIXTURES = [
    ("SUCCESSOR", int_range(0, 5), {}),
    ("INTGREATER", int_range(0, 5), {}),
    ("PREDECESSOR", int_range(0, 5), {}),
    ("INTLESSER", int_range(-2, 3), {}),
    ("INTDIFF", product(int_range(-1, 2), int_range(-1, 2)), {}),
    ("INTSUM", PAIRS22, {}),
    ("MAXINT", PAIRS22, {}),
    ("MININT", PAIRS22, {}),
    ("SUPSET", powerset_space([1, 2, 3]), {}),
    ("SUBSET", powerset_space([1, 2, 3]), {}),
    ("SUPINTERVAL", IVALS, {}),
    ("SUBINTERVAL", IVALS, {}),
    ("INTERVAL", IVALS, {}),
    ("INTERVAL'", IVALS, {}),
    ("INTERVALSUPSET", ISETS, {}),
    ("INTERVALSUBSET", ISETS, {}),
    ("INTERVALMAX", ISETS, {}),
    ("ACYCLIC", forest_space(),
     {"edges": [(Node("r"), Node("x")), (Node("x"), Node("y"))]}),
    ("ACYCLIC'", forest_space(),
     {"edges": [(Node("r"), Node("x")), (Node("x"), Node("y"))]}),
    ("PARENT", forest_space(), {"parent": FOREST}),
    ("ANCESTOR", forest_space(), {"parent": FOREST}),
    ("CHILD", forest_space(), {"parent": FOREST}),
    ("DESCENDANT", forest_space(), {"parent": FOREST}),
]


class TestEveryNamedFamily:
    @pytest.mark.parametrize("rule,space,params", NAMED_FIXTURES,
                             ids=[f[0] for f in NAMED_FIXTURES])
    def test_terminates_and_carries_a_cert(self, rule, space, params):
        r = named(rule, space, **params)
        assert r.cert.rule == rule
        # the independent exhaustive route must agree with the catalog
        assert is_noetherian(r).holds is True
        expect_sound = rule not in CLAIMED_RULES
        assert r.cert.sound == expect_sound

    def test_the_fixtures_cover_every_family(self):
        assert sorted(f[0] for f in NAMED_FIXTURES) == sorted(_BUILDERS)

    @pytest.mark.parametrize("rule,space,params", NAMED_FIXTURES,
                             ids=[f[0] for f in NAMED_FIXTURES])
    def test_pair_test_agrees_with_the_successors(self, rule, space, params):
        assert_enumeration_agrees(named(rule, space, **params))


def assert_enumeration_agrees(r):
    """At every value of r's space, the successors are exactly the values
    of the space the pair test accepts: the invariant the seed test leans
    on for an order with a sound certificate."""
    vals = r.source.values()
    for a in vals:
        assert set(r._succ(a)) == {b for b in vals if r.holds(a, b)}, a


# each constructor that can mint a sound certificate besides the named
# families, over a certified base, on a small space of its shape
DERIVED_FIXTURES = {
    "measure_descent": lambda: measure_descent(
        PAIRS22, lambda v: v.first.value * 3 - v.second.value),
    "induced": lambda: induced(resolve_function("max"),
                               named("INTGREATER", int_range(0, 2)), PAIRS22),
    "induced_identity": lambda: induced(None, named("INTGREATER",
                                                    int_range(0, 6)),
                                        int_range(1, 4)),
    "projection": lambda: projection(
        1, named("SUCCESSOR", int_range(0, 2)),
        product(int_range(0, 1), int_range(0, 2))),
    "restrict_to": lambda: restrict_to([Int(1), Int(3)],
                                       named("INTGREATER", int_range(0, 4))),
    "restrict_to_scanned": lambda: restrict_to(
        [Seq((1, 2)), Seq((1, 2, 3))],
        named("SUPSET", powerset_space([1, 2, 3]))),
    "closure_of": lambda: closure_of(named("SUCCESSOR", int_range(0, 4))),
    "subrel": lambda: subrel(named("INTGREATER", int_range(0, 4)),
                             [(Int(3), Int(1)), (Int(2), Int(0))]),
    "inverse_of": lambda: inverse_of(named("INTLESSER", int_range(0, 3))),
}


class TestDerivedEnumerationAgrees:
    @pytest.mark.parametrize("build", DERIVED_FIXTURES.values(),
                             ids=list(DERIVED_FIXTURES))
    def test_pair_test_agrees_with_the_successors(self, build):
        r = build()
        assert r.cert.sound
        assert_enumeration_agrees(r)


def scan_successors(r, a):
    """a's successors as a full scan of r's space by its pair test finds
    them, in value order: what a pull-back's lazy scan yields."""
    return [b for b in r.source.values() if r.holds(a, b)]


def shifted_greater():
    """INTGREATER on 0..3 pulled back through v - 1: the image of 1 is
    the parent's least value, and the image of 0, -1, lies outside the
    parent's space, where its pair test still says 0 > -1."""
    return induced(lambda v: Int(v.value - 1),
                   named("INTGREATER", int_range(0, 3)), int_range(0, 3))


class TestPulledBackAnswersFromItsParent:
    """A pull-back whose parent steps to nothing at a value's image skips
    the scan; its successors stay the scan's, in content and in order."""

    def test_a_member_imaged_outside_the_parent_still_follows(self):
        r = shifted_greater()
        assert list(r._succ(Int(1))) == [Int(0)]
        assert not is_minimal(r, Int(1)) and is_minimal(r, Int(0))
        for a in r.source.values():
            assert list(r._succ(a)) == scan_successors(r, a), a

    def test_a_parent_larger_than_the_space_is_not_asked(self):
        # asking INTDIFF would measure its million pairs and raise
        # SpaceTooLarge; the scan of four values answers instead
        r = induced(lambda v: Pair(v, v),
                    named("INTDIFF", product(int_range(0, 999),
                                             int_range(0, 999))),
                    int_range(0, 3))
        assert all(is_minimal(r, a) for a in r.source.values())
        assert all(list(r._succ(a)) == [] for a in r.source.values())

    @pytest.mark.parametrize("minimal_first", [True, False])
    def test_the_order_of_queries_does_not_matter(self, minimal_first):
        r, ref = shifted_greater(), shifted_greater()
        vals = list(r.source.values())
        # 1 is the value whose image is minimal in the parent
        vals.sort(key=lambda v: (v != Int(1)) == minimal_first)
        for a in vals:
            assert list(r._succ(a)) == scan_successors(ref, a), a
            assert is_minimal(r, a) == (not scan_successors(ref, a))

    @pytest.mark.parametrize("name", ["induced", "induced_identity",
                                      "projection"])
    def test_the_derived_fixtures_agree_with_the_scan(self, name):
        r = DERIVED_FIXTURES[name]()
        for a in r.source.values():
            assert list(r._succ(a)) == scan_successors(r, a), a


class TestWideWindows:
    """A family over a window too large to enumerate steps lazily, so the
    bounded probe holds one iterator per level, not one list."""

    @pytest.mark.parametrize("rule", ["SUCCESSOR", "INTGREATER",
                                      "PREDECESSOR", "INTLESSER"])
    def test_integer_windows(self, rule):
        r = named(rule, int_range(0, 10 ** 9))
        succ = r._succ(Int(5))
        assert iter(succ) is succ
        v = is_noetherian(r)
        assert v.method == "bounded" and v.holds is None

    def test_intlesser_probe_walks_its_fuel(self):
        v = is_noetherian(named("INTLESSER", int_range(0, 10 ** 9)))
        assert v.render() == ("unknown: fuel exhausted after 10001 edges; "
                              "descending chain of 10001 steps found")

    @pytest.mark.parametrize("rule,steps", [("SUPINTERVAL", 1),
                                            ("SUBINTERVAL", 10001)])
    def test_interval_windows(self, rule, steps):
        r = named(rule, intervals_of(1, 10 ** 6))
        succ = r._succ(iv(1, 3))
        assert iter(succ) is succ
        assert is_noetherian(r).render() == (
            "unknown: fuel exhausted after 10001 edges; "
            f"descending chain of {steps} steps found")


class TestNumericFamilies:
    def test_successor_steps_down_once(self):
        r = named("SUCCESSOR", int_range(0, 5))
        assert frozenset(r.successors(Int(3))) == frozenset({Int(2)})
        assert frozenset(r.successors(Int(0))) == frozenset()

    def test_closure_of_successor_is_the_strict_order(self):
        succ = named("SUCCESSOR", int_range(0, 5))
        assert closure_of(succ).same_pairs(named("INTGREATER", int_range(0, 5)))

    def test_predecessor_climbs_to_the_window_top(self):
        r = named("PREDECESSOR", int_range(0, 3))
        assert frozenset(r.successors(Int(2))) == frozenset({Int(3)})
        assert frozenset(r.successors(Int(3))) == frozenset()

    def test_intlesser_accepts_negative_windows(self):
        r = named("INTLESSER", int_range(-2, 1))
        assert r.holds(Int(-2), Int(0)) and not r.holds(Int(0), Int(-2))

    @pytest.mark.parametrize("rule", ["SUCCESSOR", "INTGREATER", "INTSUM",
                                      "MAXINT", "MININT"])
    def test_natural_window_enforced(self, rule):
        space = (int_range(-1, 3) if rule in ("SUCCESSOR", "INTGREATER")
                 else product(int_range(-1, 3), int_range(0, 3)))
        with pytest.raises(MalformedExpr):
            named(rule, space)

    def test_wrong_space_shapes_rejected(self):
        with pytest.raises(MalformedExpr):
            named("SUCCESSOR", PAIRS22)
        with pytest.raises(MalformedExpr):
            named("MAXINT", int_range(0, 3))
        with pytest.raises(MalformedExpr):
            named("INTERVAL", int_range(0, 3))
        with pytest.raises(MalformedExpr):
            named("INTERVALMAX", IVALS)

    def test_pair_measures(self):
        diff = named("INTDIFF", product(int_range(-1, 2), int_range(-1, 2)))
        assert diff.holds(Pair(Int(-1), Int(2)), Pair(Int(0), Int(1)))
        total = named("INTSUM", PAIRS22)
        assert total.holds(Pair(Int(2), Int(2)), Pair(Int(2), Int(1)))
        assert not total.holds(Pair(Int(1), Int(2)), Pair(Int(2), Int(1)))
        top = named("MAXINT", PAIRS22)
        assert top.holds(Pair(Int(2), Int(0)), Pair(Int(1), Int(1)))
        bot = named("MININT", PAIRS22)
        assert bot.holds(Pair(Int(1), Int(1)), Pair(Int(2), Int(0)))


class TestSetFamilies:
    def test_supset_shrinks_toward_empty(self):
        r = named("SUPSET", powerset_space([1, 2]))
        assert r.holds(Seq((1, 2)), Seq((2,)))
        assert not r.holds(Seq((1, 2)), Seq((1, 2)))
        assert frozenset(r.successors(Seq(()))) == frozenset()

    def test_subset_grows_toward_the_base(self):
        r = named("SUBSET", powerset_space([1, 2]))
        assert r.holds(Seq(()), Seq((1,)))
        assert frozenset(r.successors(Seq((1, 2)))) == frozenset()

    def test_members_must_be_increasing_sequences(self):
        with pytest.raises(MalformedExpr):
            named("SUPSET", explicit([Seq((2, 1))]))
        with pytest.raises(MalformedExpr):
            named("SUPSET", explicit([Int(1)]))

    def test_powerset_space_counts(self):
        assert len(powerset_space([1, 2, 3]).values()) == 8
        assert powerset_space([3, 1, 3]).contains(Seq((1, 3)))
        with pytest.raises(MalformedExpr):
            powerset_space(range(11))


class TestIntervalFamilies:
    def test_supinterval_successor_count(self):
        r = named("SUPINTERVAL", IVALS)
        # everything strictly inside 1..3: 4 empty starts + 5 proper parts
        assert len(r.successors(iv(1, 3))) == 9
        assert r.holds(iv(1, 3), iv(2, 1))
        assert frozenset(r.successors(iv(2, 1))) == frozenset()

    def test_subinterval_growth(self):
        r = named("SUBINTERVAL", IVALS)
        assert len(r.successors(iv(1, 0))) == 6
        assert frozenset(r.successors(iv(1, 1))) == frozenset({iv(1, 2), iv(1, 3)})
        assert frozenset(r.successors(iv(1, 3))) == frozenset()

    def test_width_families_ignore_position(self):
        down = named("INTERVAL", IVALS)
        assert down.holds(iv(1, 2), iv(3, 3))
        assert not down.holds(iv(1, 1), iv(3, 3))
        up = named("INTERVAL'", IVALS)
        assert up.holds(iv(3, 3), iv(1, 2))

    def test_interval_set_families(self):
        both = IntervalSet(frozenset({iv(1, 1), iv(2, 2)}))
        one = IntervalSet(frozenset({iv(1, 1)}))
        wide = IntervalSet(frozenset({iv(1, 2)}))
        none = IntervalSet(frozenset())
        drop = named("INTERVALSUPSET", ISETS)
        assert drop.holds(both, one) and not drop.holds(one, wide)
        add = named("INTERVALSUBSET", ISETS)
        assert add.holds(none, one) and add.holds(one, both)
        shrink = named("INTERVALMAX", ISETS)
        assert shrink.holds(wide, one) and shrink.holds(one, none)
        assert not shrink.holds(one, both)


class TestEdgeFamilies:
    def test_acyclic_follows_the_edges(self):
        r = named("ACYCLIC", forest_space(),
                  edges=[(Node("r"), Node("x")), (Node("x"), Node("y"))])
        assert r.holds(Node("r"), Node("x"))
        assert not r.holds(Node("x"), Node("r"))

    def test_primed_variant_flips(self):
        r = named("ACYCLIC'", forest_space(),
                  edges=[(Node("r"), Node("x"))])
        assert r.holds(Node("x"), Node("r"))
        assert not r.holds(Node("r"), Node("x"))

    def test_cycle_in_edges_rejected(self):
        with pytest.raises(MalformedExpr, match="edges contain a cycle"):
            named("ACYCLIC", forest_space(),
                  edges=[(Node("r"), Node("x")), (Node("x"), Node("r"))])

    def test_edges_required_and_checked(self):
        with pytest.raises(MalformedExpr, match="needs an edges parameter"):
            named("ACYCLIC", forest_space())
        with pytest.raises(MalformedExpr, match="outside the space"):
            named("ACYCLIC", forest_space(),
                  edges=[(Node("r"), Node("ghost"))])


class TestForestFamilies:
    def test_parent_steps_down_child_climbs_up(self):
        down = named("PARENT", forest_space(), parent=FOREST)
        assert frozenset(down.successors(Node("r"))) == frozenset({Node("x"), Node("z")})
        up = named("CHILD", forest_space(), parent=FOREST)
        assert frozenset(up.successors(Node("y"))) == frozenset({Node("x")})
        assert frozenset(up.successors(Node("r"))) == frozenset()

    def test_transitive_variants(self):
        anc = named("ANCESTOR", forest_space(), parent=FOREST)
        assert anc.holds(Node("r"), Node("y"))
        desc = named("DESCENDANT", forest_space(), parent=FOREST)
        assert desc.holds(Node("y"), Node("r"))

    def test_parent_map_validation(self):
        with pytest.raises(MalformedExpr, match="needs a parent map"):
            named("PARENT", forest_space())
        with pytest.raises(MalformedExpr, match="unknown node"):
            named("PARENT", forest_space(), parent={"x": "ghost"})
        with pytest.raises(MalformedExpr, match="loops at"):
            named("CHILD", forest_space(), parent={"x": "y", "y": "x"})
        with pytest.raises(MalformedExpr, match="members must be nodes"):
            named("PARENT", explicit([Int(1)]), parent={})


class TestCertificates:
    def test_sound_cert_is_trusted_outright(self):
        r = named("INTGREATER", int_range(0, 50))
        v = certify(r)
        assert v.holds is True
        assert v.method == "certificate" and v.explored == 0

    def test_claimed_cert_is_rechecked(self):
        r = named("PARENT", forest_space(), parent=FOREST)
        assert not r.cert.sound
        v = certify(r)
        assert v.holds is True and v.method == "exhaustive"

    def test_compose_claim_refuted(self):
        sp = explicit([Node("a"), Node("b")])
        fwd = named("ACYCLIC", sp, edges=[(Node("a"), Node("b"))])
        back = named("ACYCLIC", sp, edges=[(Node("b"), Node("a"))])
        both = compose_rel(fwd, back)
        assert both.cert.rule == "COMPOSE" and not both.cert.sound
        v = certify(both)
        assert v.holds is False
        assert v.render() == "not Noetherian, cycle: a → a"

    def test_unsound_premise_poisons_the_tree(self):
        claimed = NoetherianCert("PARENT")
        wrapped = NoetherianCert("CLOSURE", (claimed,))
        assert not claimed.sound and not wrapped.sound
        assert NoetherianCert("CLOSURE", (NoetherianCert("INTGREATER"),)).sound

    def test_render_nests(self):
        succ = named("SUCCESSOR", int_range(0, 3))
        assert succ.cert.render() == "SUCCESSOR"
        assert closure_of(succ).cert.render() == "CLOSURE[SUCCESSOR]"
        sp = explicit([Node("a"), Node("b")])
        fwd = named("ACYCLIC", sp, edges=[(Node("a"), Node("b"))])
        back = named("ACYCLIC", sp, edges=[])
        assert compose_rel(fwd, back).cert.render() \
            == "COMPOSE[ACYCLIC, ACYCLIC] (claimed)"

    def test_a_cyclic_order_cannot_borrow_a_certificate(self):
        # a sound certificate made for another relation stays with it
        sp = int_range(0, 1)
        pairs = [(Int(0), Int(1)), (Int(1), Int(0))]
        spin = from_pairs(sp, sp, pairs)
        sound = named("INTGREATER", sp).cert
        assert sound.sound
        with pytest.raises(AttributeError):
            spin.cert = sound
        with pytest.raises(TypeError):
            Relation(sp, sp, spin._succ, cert=sound)
        assert spin.cert is None
        v = certify(spin)
        assert v.render() == "not Noetherian, cycle: 0 → 1 → 0"
        assert v.method == "exhaustive"
        init = from_pairs(sp, sp, [])
        with pytest.raises(OrderNotNoetherian):
            make_loop(sp, spin, init, spin)

    def test_hand_made_certificates_attach_to_nothing(self):
        # certificates can be built by hand, sound-looking or copied from a
        # catalog relation, but no relation can be given one
        base = named("INTGREATER", int_range(0, 3))
        assert certify(base).method == "certificate"
        r = from_pairs(int_range(0, 3), int_range(0, 3), [])
        for cert in (NoetherianCert("CLOSURE", (base.cert,)),
                     NoetherianCert("SUBREL", (NoetherianCert("MAXINT"),))):
            assert cert.sound
            with pytest.raises(AttributeError):
                r.cert = cert
        assert r.cert is None and certify(r).method == "exhaustive"
        base.pairs()
        assert certify(base).method == "certificate"
        copy = from_pairs(base.source, base.target, base.pairs())
        assert copy.cert is None and certify(copy).method == "exhaustive"

    def test_only_the_catalog_mints_certificates(self):
        pkg = Path(noet.__file__).parent
        sources = {p.name: p.read_text(encoding="utf-8")
                   for p in pkg.glob("*.py")}
        minting = sorted(name for name, text in sources.items()
                         if "NoetherianCert(" in text)
        assert minting == ["catalog.py"]
        # outside the catalog, a relation's certificate slot is only cleared
        for name, text in sources.items():
            if name == "catalog.py":
                continue
            for rhs in re.findall(r"\b_cert\s*=(?!=)\s*([^\s#]+)", text):
                assert rhs == "None", (name, rhs)
        assert "._cert =" in sources["catalog.py"]

    def test_missing_cert_falls_back_to_checking(self):
        sp = int_range(0, 3)
        bare = from_pairs(sp, sp, [(Int(1), Int(0))])
        v = certify(bare)
        assert v.holds is True and v.method == "exhaustive"


class TestDerivedConstructors:
    def test_subrel_checks_pairs(self):
        base = named("INTGREATER", int_range(0, 4))
        small = subrel(base, [(Int(3), Int(1))], name="one-step")
        assert small.cert.rule == "SUBREL" and small.cert.sound
        assert small.name == "one-step"
        with pytest.raises(MalformedExpr):
            subrel(base, [(Int(1), Int(3))])

    def test_subrel_refuses_values_outside_its_space(self):
        base = named("SUCCESSOR", int_range(0, 5))
        # the window's pair test is open at the top
        assert base.holds(Int(100), Int(99))
        with pytest.raises(ValueOutsideSpace,
                           match=r"^value 100 is not a member of int_range 0\.\.5$"):
            subrel(base, [(Int(100), Int(99))])

    def test_restrict_to(self):
        base = named("SUCCESSOR", int_range(0, 4))
        r = restrict_to([Int(2)], base)
        assert r.cert.rule == "RESTRICT"
        assert r.holds(Int(2), Int(1)) and not r.holds(Int(3), Int(2))

    def test_inverse_of_flips_the_numeric_orders(self):
        lesser = named("INTLESSER", int_range(0, 4))
        flipped = inverse_of(lesser)
        assert flipped.cert.rule == "INVERSE"
        assert flipped.same_pairs(named("INTGREATER", int_range(0, 4)))

    def test_induced_pulls_back_through_a_function(self):
        over = named("INTGREATER", int_range(0, 2))
        r = induced(resolve_function("max"), over, PAIRS22, fn_name="max")
        assert r.cert.rule == "INDUCED" and r.cert.sound
        assert r.name == "induced[max]"
        assert r.holds(Pair(Int(2), Int(0)), Pair(Int(1), Int(1)))
        assert not r.holds(Pair(Int(1), Int(1)), Pair(Int(0), Int(1)))
        assert frozenset(r.successors(Pair(Int(0), Int(0)))) == frozenset()
        assert is_noetherian(r).holds is True

    def test_projection_matches_component_induction(self):
        space = product(int_range(0, 1), int_range(0, 2))
        comp = named("SUCCESSOR", int_range(0, 2))
        proj = projection(1, comp, space)
        assert proj.cert.rule == "PROJECTION"
        assert proj.name == "projection[1]"
        assert proj.same_pairs(induced(resolve_function("component_1"), comp,
                                       space))

    def test_projection_validates_the_space(self):
        comp = named("SUCCESSOR", int_range(0, 2))
        with pytest.raises(MalformedExpr):
            projection(1, comp, int_range(0, 2))
        with pytest.raises(MalformedExpr):
            projection(5, comp, PAIRS22)


class TestNamedFunctions:
    def test_numeric_measures(self):
        p = Pair(Int(3), Int(5))
        assert NAMED_FUNCTIONS["max"](p) == Int(5)
        assert NAMED_FUNCTIONS["min"](p) == Int(3)
        assert NAMED_FUNCTIONS["sum"](p) == Int(8)
        assert NAMED_FUNCTIONS["abs_diff"](p) == Int(2)

    def test_shape_measures(self):
        assert NAMED_FUNCTIONS["length"](Seq((4, 4, 1))) == Int(3)
        assert NAMED_FUNCTIONS["interval_width"](iv(2, 5)) == Int(4)
        bag = IntervalSet(frozenset({iv(1, 2), iv(4, 4)}))
        assert NAMED_FUNCTIONS["max_interval_length"](bag) == Int(2)
        assert NAMED_FUNCTIONS["cardinality"](bag) == Int(2)
        assert NAMED_FUNCTIONS["cardinality"](Seq((9,))) == Int(1)

    def test_components(self):
        t = Tup((Int(7), Int(8), Int(9)))
        assert NAMED_FUNCTIONS["component_0"](t) == Int(7)
        assert NAMED_FUNCTIONS["component_2"](t) == Int(9)
        assert NAMED_FUNCTIONS["component_1"](Pair(Int(1), Int(2))) == Int(2)
        with pytest.raises(MalformedExpr):
            NAMED_FUNCTIONS["component_3"](Pair(Int(1), Int(2)))

    def test_type_errors(self):
        with pytest.raises(MalformedExpr):
            NAMED_FUNCTIONS["length"](Int(3))
        with pytest.raises(MalformedExpr):
            NAMED_FUNCTIONS["interval_width"](Int(3))
        with pytest.raises(MalformedExpr):
            NAMED_FUNCTIONS["max"](Node("a"))

    def test_resolution(self):
        assert resolve_function("sum") is NAMED_FUNCTIONS["sum"]
        with pytest.raises(UnknownNamedFunction):
            resolve_function("entropy")
        with pytest.raises(UnknownNamedFunction):
            resolve_function("depth")
        depth = resolve_function("depth", parent=FOREST)
        assert depth(Node("r")) == Int(0)
        assert depth(Node("y")) == Int(2)

    def test_depth_loop_detection(self):
        depth = make_depth_fn({"a": "b", "b": "a"})
        with pytest.raises(MalformedExpr, match="loops at"):
            depth(Node("a"))
        with pytest.raises(MalformedExpr):
            depth(Int(3))


# each measure family's measure, written out independently of the catalog
FAMILY_MEASURES = {
    "INTDIFF": lambda v: abs(v.first.value - v.second.value),
    "INTSUM": lambda v: v.first.value + v.second.value,
    "MAXINT": lambda v: max(v.first.value, v.second.value),
    "MININT": lambda v: min(v.first.value, v.second.value),
    "INTERVAL": lambda v: v.width,
    "INTERVAL'": lambda v: -v.width,
    "INTERVALMAX": lambda v: max((m.width for m in v.members), default=0),
}


MEASURE_FIXTURES = [f for f in NAMED_FIXTURES if f[0] in FAMILY_MEASURES]


class TestMeasureDescent:
    @pytest.mark.parametrize("rule,space,params", MEASURE_FIXTURES,
                             ids=[f[0] for f in MEASURE_FIXTURES])
    def test_family_matches_a_scan_in_value_order(self, rule, space, params):
        r = named(rule, space)
        m = FAMILY_MEASURES[rule]
        vals = space.values()
        for a in vals:
            assert list(r._succ(a)) == [b for b in vals if m(b) < m(a)]
            for b in vals:
                assert r.holds(a, b) == (m(b) < m(a))

    def test_any_other_measure_is_induced_over_intgreater(self):
        r = measure_descent(PAIRS22, lambda v: v.first.value, name="first")
        assert r.name == "first"
        assert r.cert.render() == "INDUCED[INTGREATER]"
        assert certify(r).method == "certificate"
        assert r.holds(Pair(Int(1), Int(0)), Pair(Int(0), Int(2)))
        assert not r.holds(Pair(Int(1), Int(0)), Pair(Int(1), Int(2)))

    def test_space_is_measured_once_and_empty_probes_are_cheap(self):
        calls = []
        def measure(v):
            calls.append(v)
            return v.value // 2
        r = measure_descent(int_range(0, 9), measure)
        assert calls == []                       # nothing until first asked
        assert [v.value for v in r.successors(Int(5))] == [0, 1, 2, 3]
        assert len(calls) == 10 + 1              # the space once, then Int(5)
        del calls[:]
        assert not any(True for _ in r._succ(Int(1)))
        assert len(calls) == 1                   # an empty probe scans nothing


class TestFamilyParameters:
    def test_stray_parameters_rejected(self):
        with pytest.raises(MalformedExpr,
                           match="does not take: edges, parent"):
            named("SUCCESSOR", int_range(0, 3),
                  edges=[(Int(2), Int(0))], parent={"a": "b"})
        with pytest.raises(MalformedExpr, match="does not take: parent"):
            named("ACYCLIC", forest_space(), edges=[], parent=FOREST)
        with pytest.raises(MalformedExpr, match="does not take: edges"):
            named("CHILD", forest_space(), parent=FOREST, edges=[])
