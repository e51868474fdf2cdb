"""JSON documents: round-trips, canonical form, error reporting."""

import json
from pathlib import Path

import pytest

from noet.errors import MalformedExpr, ValueOutsideSpace
from noet.loops import LoopDef, run
from noet.serialize import (MAX_VALUE_DEPTH, canonical_json, emit, load_json,
                            normalize_file, parse_expr, parse_loop_file,
                            parse_rel, parse_relation_file, parse_space,
                            parse_value, rel_doc_extensional, space_doc,
                            value_doc)
from noet.spaces import int_range, lazy_explicit
from noet.values import Int, Interval, IntervalSet, Node, Pair, Seq, Tup

CORPUS = Path(__file__).parent / "corpus"

VALUES = [
    Int(-3),
    Pair(Int(1), Int(2)),
    Pair(Pair(Int(1), Int(2)), Int(0)),
    Interval(2, 5),
    Interval(3, 2),
    IntervalSet(frozenset()),
    IntervalSet(frozenset({Interval(1, 1), Interval(3, 4)})),
    Seq(()),
    Seq((4, 1, 4)),
    Node("start"),
    Tup((Seq((2, 1)), Interval(1, 2))),
]


def nested_pairs(depth):
    doc = {"int": 0}
    for _ in range(depth):
        doc = {"pair": [doc, {"int": 1}]}
    return doc


class TestValues:
    @pytest.mark.parametrize("v", VALUES, ids=[repr(v) for v in VALUES])
    def test_round_trip(self, v):
        assert parse_value(value_doc(v)) == v

    def test_doc_forms_pinned(self):
        assert value_doc(Int(5)) == {"int": 5}
        assert value_doc(Interval(3, 2)) == {"interval": [3, 2]}
        assert value_doc(Seq((1, 2))) == {"seq": [1, 2]}
        assert value_doc(Tup((Int(1), Int(2), Int(3)))) \
            == {"tuple": [{"int": 1}, {"int": 2}, {"int": 3}]}

    def test_iset_members_come_out_sorted(self):
        v = IntervalSet(frozenset({Interval(3, 4), Interval(1, 1)}))
        assert value_doc(v) == {"iset": [[1, 1], [3, 4]]}

    def test_single_tag_enforced(self):
        with pytest.raises(MalformedExpr, match="exactly one tag"):
            parse_value({"int": 1, "node": "a"})
        with pytest.raises(MalformedExpr):
            parse_value([1])

    def test_malformed_bodies(self):
        with pytest.raises(MalformedExpr):
            parse_value({"int": True})
        with pytest.raises(MalformedExpr):
            parse_value({"pair": [{"int": 1}]})
        with pytest.raises(MalformedExpr, match="non-empty"):
            parse_value({"iset": [[2, 1]]})
        with pytest.raises(MalformedExpr, match="impossible bounds"):
            parse_value({"interval": [5, 1]})
        with pytest.raises(MalformedExpr):
            parse_value({"node": ""})
        with pytest.raises(MalformedExpr, match="at least two"):
            parse_value({"tuple": [{"int": 1}]})
        with pytest.raises(MalformedExpr, match="unknown value tag"):
            parse_value({"float": 1.5})

    def test_nesting_depth_is_bounded(self):
        deep = nested_pairs(MAX_VALUE_DEPTH)
        assert value_doc(parse_value(deep)) == deep
        with pytest.raises(MalformedExpr, match="nests deeper"):
            parse_value(nested_pairs(MAX_VALUE_DEPTH + 1))
        with pytest.raises(MalformedExpr, match="nests deeper"):
            parse_value({"tuple": [nested_pairs(MAX_VALUE_DEPTH), {"int": 0}]})


SPACE_DOCS = [
    {"kind": "int_range", "lo": -2, "hi": 4},
    {"kind": "explicit", "values": [{"node": "a"}, {"node": "b"}]},
    {"kind": "product",
     "of": [{"kind": "int_range", "lo": 0, "hi": 1},
            {"kind": "int_range", "lo": 0, "hi": 2}]},
    {"kind": "product",
     "of": [{"kind": "int_range", "lo": 0, "hi": 1}] * 3},
    {"kind": "intervals_of", "lo": 1, "hi": 3},
    {"kind": "interval_sets_of", "lo": 1, "hi": 2},
]


class TestSpaces:
    @pytest.mark.parametrize("doc", SPACE_DOCS,
                             ids=[d["kind"] for d in SPACE_DOCS])
    def test_round_trip(self, doc):
        again = space_doc(parse_space(doc))
        assert parse_space(again).values() == parse_space(doc).values()
        assert space_doc(parse_space(again)) == again

    def test_explicit_values_get_sorted(self):
        doc = {"kind": "explicit", "values": [{"int": 3}, {"int": 1},
                                              {"int": 3}]}
        assert space_doc(parse_space(doc)) \
            == {"kind": "explicit", "values": [{"int": 1}, {"int": 3}]}

    def test_window_sanity(self):
        with pytest.raises(MalformedExpr, match="empty integer window"):
            parse_space({"kind": "int_range", "lo": 3, "hi": 1})
        with pytest.raises(MalformedExpr):
            parse_space({"kind": "intervals_of", "lo": 2, "hi": 0})

    def test_missing_and_unknown_fields(self):
        with pytest.raises(MalformedExpr, match="needs field"):
            parse_space({"kind": "int_range", "lo": 0})
        with pytest.raises(MalformedExpr, match="unknown space kind"):
            parse_space({"kind": "galaxy"})
        with pytest.raises(MalformedExpr):
            parse_space({"kind": "product", "of": [SPACE_DOCS[0]]})
        with pytest.raises(MalformedExpr):
            parse_space({"kind": "explicit", "values": []})

    def test_intensional_spaces_are_not_serializable(self):
        deferred = lazy_explicit(lambda: iter([Int(0)]),
                                 contains=lambda v: v == Int(0))
        with pytest.raises(MalformedExpr, match="not serializable"):
            space_doc(deferred)


def int_pairs_doc(*pairs):
    return [[{"int": a}, {"int": b}] for a, b in pairs]


REL_DOCS = [
    {"kind": "extensional", "pairs": int_pairs_doc((1, 0), (2, 1))},
    {"kind": "named", "name": "SUCCESSOR"},
    {"kind": "closure", "of": {"kind": "named", "name": "SUCCESSOR"}},
    {"kind": "inverse", "of": {"kind": "named", "name": "SUCCESSOR"}},
    {"kind": "compose",
     "first": {"kind": "named", "name": "SUCCESSOR"},
     "second": {"kind": "named", "name": "SUCCESSOR"}},
    {"kind": "restrict", "of": {"kind": "named", "name": "INTGREATER"},
     "keep": [{"int": 2}, {"int": 3}]},
    {"kind": "subrel", "of": {"kind": "named", "name": "INTGREATER"},
     "pairs": int_pairs_doc((3, 0))},
]

INDUCED_DEPTH = {"kind": "induced", "fn": "depth",
                 "over": {"kind": "named", "name": "PREDECESSOR"},
                 "over_space": {"kind": "int_range", "lo": 0, "hi": 3}}

# id -> a relation document that parsing and normalizing must both reject
MALFORMED_REL_DOCS = {
    "named-name-list": {"kind": "named", "name": ["SUCCESSOR"]},
    "induced-fn-list": {**INDUCED_DEPTH, "fn": ["max"]},
    "induced-parent-list": {**INDUCED_DEPTH, "parent": ["x"]},
    "induced-parent-int-value": {**INDUCED_DEPTH, "parent": {"x": 1}},
    "named-parent-int-value": {"kind": "named", "name": "PARENT",
                               "parent": {"x": 1}},
    "restrict-keep-not-a-list": {"kind": "restrict",
                                 "of": {"kind": "named", "name": "INTGREATER"},
                                 "keep": {"int": 2}},
    "kind-list": {"kind": ["named"], "name": "SUCCESSOR"},
    "nested-edges-not-a-list": {
        "kind": "closure",
        "of": {"kind": "named", "name": "ACYCLIC", "edges": {"int": 1}}},
    "named-stray-params": {"kind": "named", "name": "SUCCESSOR",
                           "edges": [[{"int": 2}, {"int": 0}]],
                           "parent": {"a": "b"}},
    "value-too-deep": {"kind": "restrict",
                       "of": {"kind": "named", "name": "INTGREATER"},
                       "keep": [nested_pairs(MAX_VALUE_DEPTH + 1)]},
}


class TestRelationExpressions:
    @pytest.mark.parametrize("doc", REL_DOCS,
                             ids=[d["kind"] for d in REL_DOCS])
    def test_parses_and_normalizes_stably(self, doc):
        sp = int_range(0, 3)
        r = parse_rel(doc, sp)
        if doc["kind"] != "extensional":
            # constructor expressions carry their certificate
            assert r.cert is not None
        norm = emit(parse_expr(doc))
        assert emit(parse_expr(norm)) == norm
        assert parse_rel(norm, sp).same_pairs(r)

    @pytest.mark.parametrize("doc", list(MALFORMED_REL_DOCS.values()),
                             ids=list(MALFORMED_REL_DOCS))
    def test_parse_and_normalize_reject_the_same_documents(self, doc):
        with pytest.raises(MalformedExpr):
            parse_rel(doc, int_range(0, 3))
        with pytest.raises(MalformedExpr):
            emit(parse_expr(doc))

    def test_extensional_pairs_validated_against_the_space(self):
        with pytest.raises(ValueOutsideSpace):
            parse_rel({"kind": "extensional",
                       "pairs": int_pairs_doc((9, 0))}, int_range(0, 3))

    def test_closure_expands(self):
        r = parse_rel(REL_DOCS[2], int_range(0, 3))
        assert r.holds(Int(3), Int(0))
        assert r.cert.render() == "CLOSURE[SUCCESSOR]"

    def test_compose_steps_twice(self):
        r = parse_rel(REL_DOCS[4], int_range(0, 3))
        assert frozenset(r.successors(Int(3))) == frozenset({Int(1)})
        assert not r.cert.sound

    def test_named_with_edges(self):
        sp_doc = {"kind": "explicit", "values": [{"node": "a"}, {"node": "b"}]}
        doc = {"kind": "named", "name": "ACYCLIC",
               "edges": [[{"node": "a"}, {"node": "b"}]]}
        r = parse_rel(doc, parse_space(sp_doc))
        assert r.holds(Node("a"), Node("b"))

    def test_induced_with_depth_needs_its_parent_map(self):
        sp = parse_space({"kind": "explicit",
                          "values": [{"node": "r"}, {"node": "x"}]})
        doc = {"kind": "induced", "fn": "depth",
               "over": {"kind": "named", "name": "PREDECESSOR"},
               "over_space": {"kind": "int_range", "lo": 0, "hi": 3},
               "parent": {"x": "r"}}
        r = parse_rel(doc, sp)
        assert r.holds(Node("r"), Node("x"))
        norm = emit(parse_expr(doc))
        assert norm["parent"] == {"x": "r"}
        assert emit(parse_expr(norm)) == norm

    def test_projection(self):
        sp = parse_space({"kind": "product",
                          "of": [{"kind": "int_range", "lo": 0, "hi": 1},
                                 {"kind": "int_range", "lo": 0, "hi": 1}]})
        doc = {"kind": "projection", "component": 0,
               "over": {"kind": "named", "name": "SUCCESSOR"},
               "over_space": {"kind": "int_range", "lo": 0, "hi": 1}}
        r = parse_rel(doc, sp)
        assert r.holds(Pair(Int(1), Int(0)), Pair(Int(0), Int(1)))
        assert emit(parse_expr(emit(parse_expr(doc)))) \
            == emit(parse_expr(doc))

    def test_pairs_get_sorted_and_deduped(self):
        doc = {"kind": "extensional",
               "pairs": int_pairs_doc((2, 1), (1, 0), (2, 1))}
        assert emit(parse_expr(doc))["pairs"] == int_pairs_doc((1, 0), (2, 1))

    def test_unknown_kind(self):
        with pytest.raises(MalformedExpr, match="unknown relation kind"):
            parse_rel({"kind": "transitive"}, int_range(0, 1))
        with pytest.raises(MalformedExpr):
            emit(parse_expr({"kind": "transitive"}))

    def test_extensional_doc_emission(self):
        sp = int_range(0, 2)
        r = parse_rel({"kind": "named", "name": "SUCCESSOR"}, sp)
        assert rel_doc_extensional(r) \
            == {"kind": "extensional", "pairs": int_pairs_doc((1, 0), (2, 1))}


def count_loop_doc(n=3):
    return {
        "space": {"kind": "int_range", "lo": 0, "hi": n},
        "order": {"kind": "named", "name": "INTGREATER"},
        "init": {"kind": "extensional", "pairs": int_pairs_doc((n, n))},
        "body": {"kind": "named", "name": "SUCCESSOR"},
        "postcondition": "minimum_characterization",
    }


class TestFiles:
    def test_relation_file(self):
        doc = {"space": {"kind": "int_range", "lo": 0, "hi": 2},
               "relation": {"kind": "named", "name": "SUCCESSOR"}}
        space, r = parse_relation_file(doc)
        assert space.values() == int_range(0, 2).values()
        assert r.holds(Int(2), Int(1))
        assert normalize_file(doc) == doc

    def test_loop_file_runs(self):
        loop = parse_loop_file(count_loop_doc())
        trace = run(loop, Int(3))
        assert trace.render() == "3 → 2 → 1 → 0"

    def test_loop_init_must_be_extensional(self):
        doc = count_loop_doc()
        doc["init"] = {"kind": "named", "name": "SUCCESSOR"}
        with pytest.raises(MalformedExpr, match="init must be an extensional"):
            parse_loop_file(doc)
        with pytest.raises(MalformedExpr):
            normalize_file(doc)

    def test_loop_input_space(self):
        doc = count_loop_doc()
        doc["input_space"] = {"kind": "explicit", "values": [{"node": "go"}]}
        doc["init"] = {"kind": "extensional",
                       "pairs": [[{"node": "go"}, {"int": 3}]]}
        loop = parse_loop_file(doc)
        assert run(loop, Node("go")).terminal == Int(0)
        norm = normalize_file(doc)
        assert "input_space" in norm

    def test_postcondition_must_be_a_name(self):
        doc = count_loop_doc()
        doc["postcondition"] = 7
        with pytest.raises(MalformedExpr):
            parse_loop_file(doc)
        with pytest.raises(MalformedExpr):
            normalize_file(doc)

    def test_normalize_file_dispatches_on_shape(self):
        loop_norm = normalize_file(count_loop_doc())
        assert set(loop_norm) == {"space", "order", "init", "body",
                                  "postcondition"}
        rel_norm = normalize_file(
            {"space": {"kind": "int_range", "lo": 0, "hi": 1},
             "relation": {"kind": "named", "name": "SUCCESSOR"}})
        assert set(rel_norm) == {"space", "relation"}

    def test_missing_file_fields(self):
        with pytest.raises(MalformedExpr):
            parse_relation_file({"space": {"kind": "int_range",
                                           "lo": 0, "hi": 1}})
        with pytest.raises(MalformedExpr):
            parse_loop_file({"space": {"kind": "int_range",
                                       "lo": 0, "hi": 1}})
        with pytest.raises(MalformedExpr):
            parse_relation_file([1, 2])


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        got = canonical_json({"b": 1, "a": [2]})
        assert got == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'

    def test_load_json_errors_are_wrapped(self, tmp_path):
        with pytest.raises(MalformedExpr, match="cannot read"):
            load_json(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(MalformedExpr, match="not valid JSON"):
            load_json(str(bad))


def scrambled(doc):
    """The same document with every set-like list reversed and its first
    entry repeated."""
    if isinstance(doc, list):
        return [scrambled(x) for x in doc]
    if not isinstance(doc, dict):
        return doc
    out = {}
    for key, body in doc.items():
        body = scrambled(body)
        if key in ("pairs", "edges", "keep", "values") and body:
            body = body[::-1] + body[-1:]
        out[key] = body
    return out


def parse_file(doc):
    if "order" in doc and "body" in doc:
        return parse_loop_file(doc)
    return parse_relation_file(doc)[1]


def meaning(parsed):
    if isinstance(parsed, LoopDef):
        return tuple(r.pairs() for r in (parsed.order, parsed.body,
                                         parsed.init))
    return parsed.pairs()


class TestCorpus:
    def corpus_files(self):
        files = sorted(CORPUS.glob("*.json"))
        assert len(files) >= 20
        return files

    def test_every_corpus_file_is_canonical(self):
        for path in self.corpus_files():
            raw = path.read_text(encoding="utf-8")
            doc = json.loads(raw)
            assert canonical_json(normalize_file(doc)) == raw, path.name

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")),
                             ids=lambda p: p.name)
    def test_normalization_preserves_meaning(self, path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert normalize_file(scrambled(doc)) == doc
        for variant in (doc, scrambled(doc)):
            assert meaning(parse_file(normalize_file(variant))) \
                == meaning(parse_file(variant))

    def test_every_corpus_file_parses(self):
        for path in self.corpus_files():
            doc = load_json(str(path))
            if "order" in doc and "body" in doc:
                loop = parse_loop_file(doc)
                assert loop.space.values()
            else:
                space, r = parse_relation_file(doc)
                assert r.pairs() is not None
