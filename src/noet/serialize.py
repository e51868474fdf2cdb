"""JSON documents for values, spaces, relations, loops.

Relation expressions and the two file shapes share one grammar:
``_REL_GRAMMAR`` maps each of the nine relation kinds, and ``_FILE_GRAMMAR``
each file shape, to its fields and their types (relation, space, value
list, pair list, name, name map, int). A field type ending in ``?`` may be
left out; null counts as left out. A document is read once, by
``parse_expr`` or ``_parse_file``, into a ``(kind, fields)`` tree whose
values are already parsed and whose lists keep document order. Two walks
consume the tree: ``build`` makes the relation through the catalog
constructors, and ``emit`` writes the canonical document, with value lists
sorted by the value ordering and deduplicated so that parse -> emit is
byte-stable. Parsing and normalizing therefore reject the same malformed
documents, a named family's stray parameters included (the catalog's table
says which it takes); only building checks what needs a space (values
outside it, unknown families and functions).
"""

from __future__ import annotations

import json

from . import catalog
from .errors import MalformedExpr
from .loops import LoopDef, make_loop
from .relations import Relation, from_pairs
from .spaces import (Space, explicit, int_range, interval_sets_of,
                     intervals_of, product)
from .values import (Int, Interval, IntervalSet, Node, Pair, Seq, Tup,
                     sort_values, value_key)

# deepest nesting of pairs and tuples a value document may have
MAX_VALUE_DEPTH = 100

# longest prefix of an offending document an error message quotes
_QUOTE_LIMIT = 60


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _quote(x) -> str:
    text = repr(x)
    return text if len(text) <= _QUOTE_LIMIT else text[:_QUOTE_LIMIT] + "..."


def _need(doc, key, kind):
    if key not in doc:
        raise MalformedExpr(f"{kind} needs field {key!r}")
    return doc[key]


# -- values --------------------------------------------------------------------

def value_doc(v) -> dict:
    if isinstance(v, Int):
        return {"int": v.value}
    if isinstance(v, Pair):
        return {"pair": [value_doc(v.first), value_doc(v.second)]}
    if isinstance(v, Interval):
        return {"interval": [v.lo, v.hi]}
    if isinstance(v, IntervalSet):
        members = sorted(v.members, key=value_key)
        return {"iset": [[m.lo, m.hi] for m in members]}
    if isinstance(v, Seq):
        return {"seq": list(v.items)}
    if isinstance(v, Node):
        return {"node": v.name}
    if isinstance(v, Tup):
        return {"tuple": [value_doc(x) for x in v.items]}
    raise MalformedExpr(f"not a serializable value: {v!r}")


def _raw_int(x, what):
    if not isinstance(x, int) or isinstance(x, bool):
        raise MalformedExpr(f"{what} must be an integer, got {_quote(x)}")
    return x


def _interval_of_doc(item, what):
    if not (isinstance(item, list) and len(item) == 2):
        raise MalformedExpr(f"{what} must be a [lo, hi] pair")
    lo, hi = (_raw_int(x, what) for x in item)
    if lo > hi + 1:
        raise MalformedExpr(f"{what} has impossible bounds {lo}..{hi}")
    return Interval(lo, hi)


def parse_value(doc):
    return _parse_value(doc, MAX_VALUE_DEPTH)


def _parse_value(doc, depth):
    if not isinstance(doc, dict) or len(doc) != 1:
        raise MalformedExpr(
            f"a value document has exactly one tag: {_quote(doc)}")
    tag, body = next(iter(doc.items()))
    if tag == "int":
        return Int(_raw_int(body, "int value"))
    if tag in ("pair", "tuple") and depth == 0:
        raise MalformedExpr(
            f"value nests deeper than {MAX_VALUE_DEPTH} pairs or tuples")
    if tag == "pair":
        if not (isinstance(body, list) and len(body) == 2):
            raise MalformedExpr("pair value needs two parts")
        return Pair(_parse_value(body[0], depth - 1),
                    _parse_value(body[1], depth - 1))
    if tag == "interval":
        return _interval_of_doc(body, "interval value")
    if tag == "iset":
        if not isinstance(body, list):
            raise MalformedExpr("iset value needs a list of intervals")
        members = [_interval_of_doc(item, "iset member") for item in body]
        for m in members:
            if m.empty:
                raise MalformedExpr("iset members must be non-empty")
        return IntervalSet(frozenset(members))
    if tag == "seq":
        if not isinstance(body, list):
            raise MalformedExpr("seq value needs a list of integers")
        return Seq(tuple(_raw_int(x, "seq item") for x in body))
    if tag == "node":
        if not isinstance(body, str) or not body:
            raise MalformedExpr("node value needs a non-empty name")
        return Node(body)
    if tag == "tuple":
        if not isinstance(body, list) or len(body) < 2:
            raise MalformedExpr("tuple value needs at least two parts")
        return Tup(tuple(_parse_value(x, depth - 1) for x in body))
    raise MalformedExpr(f"unknown value tag {_quote(tag)}")


# -- spaces --------------------------------------------------------------------

# kinds given by an integer window lo..hi: constructor, what the window holds
_WINDOWS = {"int_range": (int_range, "integer"),
            "intervals_of": (intervals_of, "interval"),
            "interval_sets_of": (interval_sets_of, "interval")}


def space_doc(space: Space) -> dict:
    k = space.kind
    if k in _WINDOWS:
        return {"kind": k, "lo": space.lo, "hi": space.hi}
    if k == "product":
        return {"kind": "product",
                "of": [space_doc(c) for c in space.components]}
    if k == "explicit" and space._factory is None:
        return {"kind": "explicit",
                "values": [value_doc(v) for v in space.values()]}
    raise MalformedExpr(f"space is not serializable: {space.describe()}")


def parse_space(doc) -> Space:
    if not isinstance(doc, dict):
        raise MalformedExpr("a space document is an object with a kind")
    kind = _need(doc, "kind", "space")
    if not isinstance(kind, str):
        raise MalformedExpr(f"unknown space kind {_quote(kind)}")
    if kind in _WINDOWS:
        make, noun = _WINDOWS[kind]
        lo = _raw_int(_need(doc, "lo", kind), f"{kind}.lo")
        hi = _raw_int(_need(doc, "hi", kind), f"{kind}.hi")
        if lo > hi:
            raise MalformedExpr(f"empty {noun} window {lo}..{hi}")
        return make(lo, hi)
    if kind == "product":
        parts = _need(doc, "of", "product")
        if not isinstance(parts, list) or len(parts) < 2:
            raise MalformedExpr("product needs at least two component spaces")
        return product(*(parse_space(p) for p in parts))
    if kind == "explicit":
        vals = _need(doc, "values", "explicit")
        if not isinstance(vals, list) or not vals:
            raise MalformedExpr("explicit space needs a non-empty value list")
        return explicit([parse_value(v) for v in vals])
    raise MalformedExpr(f"unknown space kind {_quote(kind)}")


# -- the grammar -----------------------------------------------------------------

_REL_GRAMMAR = {
    "extensional": (("pairs", "pairs"),),
    "named": (("name", "name"), ("edges", "pairs?"), ("parent", "names?")),
    "closure": (("of", "rel"),),
    "inverse": (("of", "rel"),),
    "compose": (("first", "rel"), ("second", "rel")),
    "restrict": (("of", "rel"), ("keep", "values")),
    "subrel": (("of", "rel"), ("pairs", "pairs")),
    "induced": (("fn", "name"), ("over", "rel"), ("over_space", "space"),
                ("parent", "names?")),
    "projection": (("component", "int"), ("over", "rel"),
                   ("over_space", "space")),
}

_FILE_GRAMMAR = {
    "relation file": (("space", "space"), ("relation", "rel")),
    "loop file": (("space", "space"), ("input_space", "space?"),
                  ("order", "rel"), ("init", "init"), ("body", "rel"),
                  ("postcondition", "name?")),
}


def _parse_pairs(body, what):
    if not isinstance(body, list):
        raise MalformedExpr(f"{what} must be a list of [a, b] pairs")
    out = []
    for item in body:
        if not (isinstance(item, list) and len(item) == 2):
            raise MalformedExpr(f"{what} entries are two-value lists")
        out.append((parse_value(item[0]), parse_value(item[1])))
    return out


def _emit_pairs(pairs):
    uniq = sorted(set(pairs),
                  key=lambda p: (value_key(p[0]), value_key(p[1])))
    return [[value_doc(a), value_doc(b)] for a, b in uniq]


def _parse_values(body, what):
    if not isinstance(body, list):
        raise MalformedExpr(f"{what} must be a list of values")
    return [parse_value(v) for v in body]


def _parse_name(body, what):
    if not isinstance(body, str):
        raise MalformedExpr(f"{what} must be a name")
    return body


def _parse_name_map(body, what):
    if not (isinstance(body, dict)
            and all(isinstance(v, str) for v in body.values())):
        raise MalformedExpr(f"{what} must be an object of names")
    return dict(body)


def _parse_init(body, what):
    if not (isinstance(body, dict) and body.get("kind") == "extensional"):
        raise MalformedExpr("loop init must be an extensional relation")
    return parse_expr(body)


# field type -> (read the JSON body, write the parsed value back)
_FIELD_TYPES = {
    "rel": (lambda body, what: parse_expr(body), lambda t: emit(t)),
    "init": (_parse_init, lambda t: emit(t)),
    "space": (lambda body, what: parse_space(body), space_doc),
    "values": (_parse_values,
               lambda vs: [value_doc(v) for v in sort_values(set(vs))]),
    "pairs": (_parse_pairs, _emit_pairs),
    "name": (_parse_name, str),
    "names": (_parse_name_map, dict),
    "int": (_raw_int, int),
}


def _parse_fields(doc, grammar, kind) -> dict:
    fields = {}
    for key, ftype in grammar:
        if ftype.endswith("?"):
            if doc.get(key) is None:
                continue
            ftype = ftype[:-1]
        fields[key] = _FIELD_TYPES[ftype][0](_need(doc, key, kind),
                                             f"{kind}.{key}")
    return fields


def _emit_fields(fields, grammar) -> dict:
    return {key: _FIELD_TYPES[ftype.rstrip("?")][1](fields[key])
            for key, ftype in grammar if key in fields}


# -- relation expressions --------------------------------------------------------

def parse_expr(doc) -> tuple:
    """Check a relation document against _REL_GRAMMAR; (kind, fields)."""
    if not isinstance(doc, dict):
        raise MalformedExpr("a relation document is an object with a kind")
    kind = _need(doc, "kind", "relation")
    if not isinstance(kind, str) or kind not in _REL_GRAMMAR:
        raise MalformedExpr(f"unknown relation kind {_quote(kind)}")
    fields = _parse_fields(doc, _REL_GRAMMAR[kind], kind)
    if kind == "named":
        catalog.check_params(fields["name"], set(fields) - {"name"})
    return kind, fields


def build(tree, space: Space) -> Relation:
    """The relation a parsed expression denotes over one space."""
    kind, f = tree
    if kind == "extensional":
        return from_pairs(space, space, f["pairs"])
    if kind == "named":
        params = {k: f[k] for k in ("edges", "parent") if k in f}
        return catalog.named(f["name"], space, **params)
    if kind == "closure":
        return catalog.closure_of(build(f["of"], space))
    if kind == "inverse":
        return catalog.inverse_of(build(f["of"], space))
    if kind == "compose":
        return catalog.compose_rel(build(f["first"], space),
                                   build(f["second"], space))
    if kind == "restrict":
        return catalog.restrict_to(f["keep"], build(f["of"], space))
    if kind == "subrel":
        return catalog.subrel(build(f["of"], space), f["pairs"])
    # induced and projection read their operand over a space of its own
    over = build(f["over"], f["over_space"])
    if kind == "induced":
        fn = catalog.resolve_function(f["fn"], parent=f.get("parent"))
        return catalog.induced(fn, over, space, fn_name=f["fn"])
    return catalog.projection(f["component"], over, space)


def emit(tree) -> dict:
    """Canonical document of a parsed expression: same constructor tree,
    value lists sorted and deduplicated."""
    kind, fields = tree
    return {"kind": kind, **_emit_fields(fields, _REL_GRAMMAR[kind])}


def parse_rel(doc, space: Space) -> Relation:
    return build(parse_expr(doc), space)


def rel_doc_extensional(r: Relation) -> dict:
    pairs = r.sorted_pairs()
    return {"kind": "extensional",
            "pairs": [[value_doc(a), value_doc(b)] for a, b in pairs]}


# -- relation and loop files ---------------------------------------------------------

def _parse_file(doc, kind) -> dict:
    if not isinstance(doc, dict):
        raise MalformedExpr(f"a {kind} is a JSON object")
    return _parse_fields(doc, _FILE_GRAMMAR[kind], kind)


def parse_relation_file(doc):
    f = _parse_file(doc, "relation file")
    return f["space"], build(f["relation"], f["space"])


def parse_loop_file(doc, *, check: bool = True, fuel=None) -> LoopDef:
    f = _parse_file(doc, "loop file")
    space = f["space"]
    order = build(f["order"], space)
    init = from_pairs(f.get("input_space", space), space,
                      f["init"][1]["pairs"])
    body = build(f["body"], space)
    return make_loop(space, order, init, body,
                     postcondition=f.get("postcondition"),
                     check=check, fuel=fuel)


def normalize_file(doc) -> dict:
    """Canonical form for any top-level document (relation or loop file)."""
    kind = ("loop file"
            if isinstance(doc, dict) and "order" in doc and "body" in doc
            else "relation file")
    return _emit_fields(_parse_file(doc, kind), _FILE_GRAMMAR[kind])


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedExpr(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedExpr(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedExpr(f"{path} nests too deeply to read") from None
