"""Certified termination constructors.

Every constructor here returns a relation carrying a certificate: the rule
that justifies the absence of infinite descent and the certificates of the
inputs it was built from. Sound rules are accepted without re-checking;
claimed rules are taken as hints and re-verified on use, because some of
them are wrong on purpose (composition being the canonical offender).

A relation's certificate is read-only, and only this module sets it, on a
relation it has just built, so a certificate always covers the relation
that carries it. At each value of its space, a relation built here with a
sound certificate steps to exactly the values of the space its pair test
accepts; noether.is_seed relies on that. The families that share a shape
share a table and a builder: ``_MEASURES`` (a space guard and an integer
measure, built by ``measure_descent``), ``_SCANNED`` (a scan of the space
by a pair test) and ``_INT_WINDOWS`` (a step over an integer window). The
scanned families, ``induced`` and ``projection`` are all pull-backs of a
pair test, built by ``_pulled_back``; ``induced`` and ``projection`` also
hand it the relation they pull back, which answers a value whose image it
steps to nothing from without a scan, when that relation's source is
smaller than the space and its successors agree with its pair test.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import NamedTuple

from .errors import MalformedExpr, SpaceTooLarge, UnknownNamedFunction
from .noether import (METHOD_CERTIFICATE, NOETHERIAN, NoetherianVerdict,
                      _find_cycle, is_noetherian)
from .relations import Relation, from_pairs, pair_values
from .spaces import Space, explicit
from .values import (Int, Interval, IntervalSet, Node, Pair, Seq, Tup,
                     interval_strictly_within)

CLAIMED_RULES = frozenset({"COMPOSE", "PARENT", "ANCESTOR"})


class NoetherianCert(NamedTuple):
    """Why a relation terminates: a rule and its input certificates. A
    certificate is sound when its rule is not merely claimed and every
    premise is sound."""
    rule: str
    premises: tuple = ()

    @property
    def sound(self) -> bool:
        if self.rule in CLAIMED_RULES:
            return False
        return all(p is not None and p.sound for p in self.premises)

    def render(self) -> str:
        inner = ""
        if self.premises:
            inner = "[" + ", ".join(p.render() if p else "?" for p in self.premises) + "]"
        tag = "" if self.sound else " (claimed)"
        return f"{self.rule}{inner}{tag}"


def _stamp(out: Relation, rule: str, *inputs: Relation) -> Relation:
    """Certify out, just built, by rule over the certificates of its
    inputs."""
    out._cert = NoetherianCert(rule, tuple(r.cert for r in inputs))
    return out


def certify(r: Relation, fuel: int | None = None) -> NoetherianVerdict:
    """A sound certificate is accepted outright. Claimed or absent:
    re-checked."""
    if r.cert is not None and r.cert.sound:
        return NoetherianVerdict(NOETHERIAN, None, METHOD_CERTIFICATE, 0)
    return is_noetherian(r, fuel)


# -- space shape guards: each raises MalformedExpr on a wrong space ----------

def _want_int_range(space: Space, rule: str, natural: bool = False) -> None:
    if space.kind != "int_range":
        raise MalformedExpr(f"{rule} needs an integer window space, "
                            f"got {space.describe()}")
    if natural and space.lo < 0:
        raise MalformedExpr(f"{rule} needs a window of naturals, "
                            f"got {space.describe()}")


def _want_int_pairs(space: Space, rule: str, natural: bool = False) -> None:
    ok = (space.kind == "product" and len(space.components) == 2
          and all(c.kind == "int_range" for c in space.components))
    if not ok:
        raise MalformedExpr(f"{rule} needs a product of two integer windows, "
                            f"got {space.describe()}")
    if natural and any(c.lo < 0 for c in space.components):
        raise MalformedExpr(f"{rule} needs windows of naturals, "
                            f"got {space.describe()}")


def _want_intervals(space: Space, rule: str) -> None:
    if space.kind != "intervals_of":
        raise MalformedExpr(f"{rule} needs a space of subintervals, "
                            f"got {space.describe()}")


def _want_interval_sets(space: Space, rule: str) -> None:
    if space.kind != "interval_sets_of":
        raise MalformedExpr(f"{rule} needs a space of subinterval sets, "
                            f"got {space.describe()}")


def _want_seq_sets(space: Space, rule: str) -> None:
    if space.kind != "explicit":
        raise MalformedExpr(f"{rule} needs an explicit space of set-like "
                            f"sequences, got {space.describe()}")
    for v in space.values():
        if not isinstance(v, Seq):
            raise MalformedExpr(f"{rule} members must be sequences, got {v!r}")
        if any(v.items[i] >= v.items[i + 1] for i in range(len(v.items) - 1)):
            raise MalformedExpr(f"{rule} members must be strictly increasing "
                                f"sequences, got {v!r}")


# -- building blocks ---------------------------------------------------------

def _leaf(space, succ, holds, name) -> Relation:
    return _stamp(Relation(space, space, succ, holds=holds, name=name), name)


def _pulled_back(test, space, fn=None, parent=None):
    """(succ, holds) for the pair test pulled back through fn over space:
    a steps to b when test(fn(a), fn(b)), with fn=None the identity.
    Successors are a lazy scan of the space in value order, so emptiness
    probes stop at the first hit.

    parent is the relation test came from, if any. When its successors
    agree with test (it has no pair test of its own, or a sound
    certificate), a value whose image lies in the parent's source and
    steps to nothing there is answered without a scan: no member whose
    image lies in that source can follow it, so only the members whose
    images lie outside it are tested, listed once in value order (normally
    none). The parent is asked only when its source's size is known and
    smaller than space, so asking it never enumerates as much as the scan
    would; where space's size is not known yet, that is decided on the
    first query."""
    if fn is None:
        holds = test
        def scan(fa):
            return (b for b in space.values() if test(fa, b))
    else:
        def holds(a, b):
            return test(fn(a), fn(b))
        def scan(fa):
            return (b for b in space.values() if test(fa, fn(b)))
    plain = scan if fn is None else lambda a: scan(fn(a))
    if parent is None:
        return plain, holds
    src = parent.source
    size, n = src.size(), space.size()
    if (size is None or (n is not None and size >= n)
            or not (parent._holds_fn is None
                    or (parent.cert and parent.cert.sound))):
        return plain, holds
    asks = None      # size < len(space.values()), once space is enumerated
    outside = None   # the members whose images lie outside src

    def succ(a):
        nonlocal asks, outside
        if asks is None:
            try:
                asks = size < len(space.values())
            except SpaceTooLarge:
                return plain(a)   # which raises it when read, as ever
        if not asks:
            return plain(a)
        fa = a if fn is None else fn(a)
        if not src.contains(fa):
            return scan(fa)
        for _ in parent._step(fa) or ():
            return scan(fa)
        if outside is None:
            outside = [b for b in space.values()
                       if not src.contains(b if fn is None else fn(b))]
        if not outside:
            return ()
        return [b for b in outside if test(fa, b if fn is None else fn(b))]

    return succ, holds


def measure_descent(space: Space, measure, rule: str = "INDUCED",
                    name: str | None = None) -> Relation:
    """a steps to b when measure(b) < measure(a), for an integer measure.

    The first successor query measures the space once; then a value at the
    lowest measure has no successors without a scan, and any other gets a
    lazy filter over the stored measures, in value order (cycle witnesses
    downstream depend on it). Certificate: rule's own for a measure family,
    INDUCED[INTGREATER] (a natural-valued measure pulled back) otherwise.
    """
    table = None

    def succ(a):
        nonlocal table
        if table is None:
            vals = space.values()
            ms = [measure(v) for v in vals]
            table = (vals, ms, min(ms, default=0))
        vals, ms, low = table
        m = measure(a)
        if m <= low:
            return ()
        return (v for v, mv in zip(vals, ms) if mv < m)

    def holds(a, b):
        return measure(b) < measure(a)

    out = Relation(space, space, succ, holds=holds, name=name or rule)
    out._cert = (NoetherianCert(rule, (NoetherianCert("INTGREATER"),))
                 if rule == "INDUCED" else NoetherianCert(rule))
    return out


# -- the named families ------------------------------------------------------

# rule -> (naturals only, the range of successors of a in the window
# lo..hi, pair test), all on plain integers; successors come out lazily,
# so a wide window costs a walk only what it visits
_INT_WINDOWS = {
    "SUCCESSOR": (True, lambda a, lo, hi: range(max(a - 1, lo), a),
                  lambda a, b, lo, hi: b == a - 1 >= lo),
    "INTGREATER": (True, lambda a, lo, hi: range(lo, a),
                   lambda a, b, lo, hi: b < a),
    "PREDECESSOR": (False, lambda a, lo, hi: range(a + 1, min(a + 2, hi + 1)),
                    lambda a, b, lo, hi: b == a + 1 <= hi),
    "INTLESSER": (False, lambda a, lo, hi: range(a + 1, hi + 1),
                  lambda a, b, lo, hi: b > a),
}


def _int_window(space, params, *, rule):
    natural, step, test = _INT_WINDOWS[rule]
    _want_int_range(space, rule, natural=natural)
    lo, hi = space.lo, space.hi
    def succ(a):
        return map(Int, step(a.value, lo, hi))
    def holds(a, b):
        return test(a.value, b.value, lo, hi)
    return _leaf(space, succ, holds, rule)


_want_natural_pairs = partial(_want_int_pairs, natural=True)

# rule -> (guard(space, rule), integer measure); each family steps to
# a strictly smaller measure
_MEASURES = {
    "INTDIFF": (_want_int_pairs,
                lambda v: abs(v.first.value - v.second.value)),
    "INTSUM": (_want_natural_pairs, lambda v: v.first.value + v.second.value),
    "MAXINT": (_want_natural_pairs,
               lambda v: max(v.first.value, v.second.value)),
    "MININT": (_want_natural_pairs,
               lambda v: min(v.first.value, v.second.value)),
    "INTERVAL": (_want_intervals, lambda v: v.width),
    "INTERVAL'": (_want_intervals, lambda v: -v.width),
    "INTERVALMAX": (_want_interval_sets, lambda v: v.max_width()),
}


def _measure_family(space, params, *, rule):
    guard, measure = _MEASURES[rule]
    guard(space, rule)
    return measure_descent(space, measure, rule)


# rule -> (guard(space, rule), pair test): the families that find
# successors by a scan of the space, a strict subset or superset of a
# set-like value
_SCANNED = {
    "SUPSET": (_want_seq_sets, lambda a, b: set(b.items) < set(a.items)),
    "SUBSET": (_want_seq_sets, lambda a, b: set(a.items) < set(b.items)),
    "INTERVALSUPSET": (_want_interval_sets,
                       lambda a, b: b.members < a.members),
    "INTERVALSUBSET": (_want_interval_sets,
                       lambda a, b: a.members < b.members),
}


def _scanned_family(space, params, *, rule):
    guard, test = _SCANNED[rule]
    guard(space, rule)
    return _leaf(space, *_pulled_back(test, space), rule)


def _supinterval(space, params):
    """Interval strictly shrinks, set-wise."""
    _want_intervals(space, "SUPINTERVAL")
    lo, hi = space.lo, space.hi
    def succ(a):
        if a.empty:
            return
        for s in range(lo, hi + 2):
            yield Interval(s, s - 1)
        for s in range(a.lo, a.hi + 1):
            for e in range(s, a.hi + 1):
                if not (s == a.lo and e == a.hi):
                    yield Interval(s, e)
    def holds(a, b):
        return interval_strictly_within(b, a)
    return _leaf(space, succ, holds, "SUPINTERVAL")


def _subinterval(space, params):
    """Interval strictly grows, set-wise, bounded by the window."""
    _want_intervals(space, "SUBINTERVAL")
    lo, hi = space.lo, space.hi
    def succ(a):
        if a.empty:
            for s in range(lo, hi + 1):
                for e in range(s, hi + 1):
                    yield Interval(s, e)
            return
        for s in range(lo, a.lo + 1):
            for e in range(a.hi, hi + 1):
                if not (s == a.lo and e == a.hi):
                    yield Interval(s, e)
    def holds(a, b):
        return interval_strictly_within(a, b)
    return _leaf(space, succ, holds, "SUBINTERVAL")


def _acyclic_edges(space, params, *, flip: bool, rule: str):
    edges = params.get("edges")
    if edges is None:
        raise MalformedExpr(f"{rule} needs an edges parameter")
    pairs = []
    for a, b in edges:
        if not space.contains(a) or not space.contains(b):
            raise MalformedExpr(f"{rule} edge endpoint outside the space")
        pairs.append((b, a) if flip else (a, b))
    out = from_pairs(space, space, pairs, name=rule, check=False)
    # reversing every edge keeps a cycle a cycle, so one check serves both
    if _find_cycle(out, pair_values(pairs), None)[0] == "cycle":
        raise MalformedExpr(f"{rule} edges contain a cycle")
    return _stamp(out, rule)


def _forest_maps(space, params, rule):
    parent = params.get("parent")
    if parent is None:
        raise MalformedExpr(f"{rule} needs a parent map")
    names = set()
    for v in space.values():
        if not isinstance(v, Node):
            raise MalformedExpr(f"{rule} space members must be nodes, got {v!r}")
        names.add(v.name)
    kids = {}
    for child, par in parent.items():
        if child not in names or par not in names:
            raise MalformedExpr(f"{rule} parent map mentions unknown node")
        kids.setdefault(par, []).append(child)
    for start in parent:
        _depth(parent, start, f"{rule} ")
    return parent, kids


def _depth(parent: dict, start, who: str = "") -> int:
    """Steps from start up the parent map to a root; MalformedExpr,
    prefixed by who, when the chain loops."""
    d, cur, seen = 0, start, set()
    while cur in parent:
        if cur in seen:
            raise MalformedExpr(f"{who}parent map loops at {cur!r}")
        seen.add(cur)
        cur = parent[cur]
        d += 1
    return d


def _parent(space, params):
    parent, kids = _forest_maps(space, params, "PARENT")
    def succ(a):
        return [Node(c) for c in kids.get(a.name, ())]
    def holds(a, b):
        return parent.get(b.name) == a.name
    return _leaf(space, succ, holds, "PARENT")


def _child(space, params):
    parent, _ = _forest_maps(space, params, "CHILD")
    def succ(a):
        p = parent.get(a.name)
        return (Node(p),) if p is not None else ()
    def holds(a, b):
        return parent.get(a.name) == b.name
    return _leaf(space, succ, holds, "CHILD")


def _transitive(space, params, *, step, rule):
    base = step(space, params)
    r = base.plus()
    r.name = rule
    return _stamp(r, rule, base)


_EDGES = ("edges",)
_FOREST = ("parent",)

# name -> (builder, the parameters the family takes)
_BUILDERS = {
    **{rule: (partial(_measure_family, rule=rule), ()) for rule in _MEASURES},
    **{rule: (partial(_scanned_family, rule=rule), ()) for rule in _SCANNED},
    **{rule: (partial(_int_window, rule=rule), ()) for rule in _INT_WINDOWS},
    "SUPINTERVAL": (_supinterval, ()),
    "SUBINTERVAL": (_subinterval, ()),
    "ACYCLIC": (partial(_acyclic_edges, flip=False, rule="ACYCLIC"), _EDGES),
    "ACYCLIC'": (partial(_acyclic_edges, flip=True, rule="ACYCLIC'"), _EDGES),
    "PARENT": (_parent, _FOREST),
    "ANCESTOR": (partial(_transitive, step=_parent, rule="ANCESTOR"), _FOREST),
    "CHILD": (_child, _FOREST),
    "DESCENDANT": (partial(_transitive, step=_child, rule="DESCENDANT"),
                   _FOREST),
}

# every rule a certificate can name: the combinators, then the families
RULES = ("COMPOSE", "CLOSURE", "SUBREL", "RESTRICT", "INDUCED", "PROJECTION",
         "INVERSE", *_BUILDERS)


def check_params(name: str, given) -> None:
    """Reject parameters a named family does not take. Unknown names pass
    here; named() rejects them."""
    entry = _BUILDERS.get(name)
    extra = sorted(set(given) - set(entry[1])) if entry else ()
    if extra:
        raise MalformedExpr(f"{name} does not take: {', '.join(extra)}")


def named(name: str, space: Space, **params) -> Relation:
    """One of the named families, validated against the space shape."""
    entry = _BUILDERS.get(name)
    if entry is None:
        raise MalformedExpr(f"unknown named relation: {name!r}")
    if params:
        check_params(name, params)
    return entry[0](space, params)


# -- combining constructors ---------------------------------------------------

def compose_rel(r: Relation, s: Relation) -> Relation:
    """Composition. Never sound: descent through two terminating relations
    can still loop, so this certificate is only ever a claim."""
    return _stamp(r.compose(s), "COMPOSE", r, s)


def closure_of(r: Relation) -> Relation:
    return _stamp(r.plus(), "CLOSURE", r)


def subrel(r: Relation, pairs, name: str | None = None) -> Relation:
    """Explicit subset of a relation's pairs, each between members of its
    spaces: a pair test may hold past the space it is built over."""
    out = from_pairs(r.source, r.target, pairs, name=name or "subrel")
    if not all(r.holds(a, b) for a, b in out.pairs()):
        raise MalformedExpr(
            "subset constructor given a pair the base relation lacks")
    return _stamp(out, "SUBREL", r)


def restrict_to(keep, r: Relation) -> Relation:
    return _stamp(r.restrict(keep), "RESTRICT", r)


def inverse_of(r: Relation) -> Relation:
    return _stamp(r.inverse(), "INVERSE", r)


def induced(fn, over: Relation, space: Space,
            fn_name: str | None = None) -> Relation:
    """Pull a relation back through a function: a steps to b when fn(a)
    steps to fn(b) in the underlying relation. fn=None is the identity,
    which restricts the relation's own pair test to space.

    over is the parent _pulled_back may ask: where fn(a) lies in its
    source and it steps to nothing there, a's successors are found
    without a scan of space, when its source is smaller than space and
    its successors agree with its pair test."""
    succ, holds = _pulled_back(over._holds_fn or over.holds, space, fn, over)
    label = f"induced[{fn_name}]" if fn_name else "induced"
    out = Relation(space, space, succ, holds=holds, name=label)
    return _stamp(out, "INDUCED", over)


def component_of(v, i: int):
    if isinstance(v, Pair):
        if i == 0:
            return v.first
        if i == 1:
            return v.second
        raise MalformedExpr(f"pair has no component {i}")
    if isinstance(v, Tup):
        if 0 <= i < len(v.items):
            return v.items[i]
        raise MalformedExpr(f"tuple has no component {i}")
    raise MalformedExpr(f"value {v!r} has no components")


def projection(i: int, comp: Relation, space: Space) -> Relation:
    """Compare one coordinate of a product space by a component relation:
    the component relation pulled back through the coordinate."""
    if space.kind != "product":
        raise MalformedExpr("projection needs a product space")
    if not (0 <= i < len(space.components)):
        raise MalformedExpr(f"product has no component {i}")
    out = induced(partial(component_of, i=i), comp, space)
    out.name = f"projection[{i}]"
    return _stamp(out, "PROJECTION", comp)


# -- named measure functions ---------------------------------------------------

def _ints_in(v):
    if isinstance(v, Int):
        return (v.value,)
    if isinstance(v, Pair):
        return (v.first.value, v.second.value)
    if isinstance(v, Tup):
        return tuple(x.value for x in v.items)
    raise MalformedExpr(f"no integer components in {v!r}")


def _fn_max(v):
    return Int(max(_ints_in(v)))


def _fn_min(v):
    return Int(min(_ints_in(v)))


def _fn_sum(v):
    return Int(sum(_ints_in(v)))


def _fn_abs_diff(v):
    a, b = _ints_in(v)
    return Int(abs(a - b))


def _fn_length(v):
    if not isinstance(v, Seq):
        raise MalformedExpr(f"length wants a sequence, got {v!r}")
    return Int(len(v.items))


def _fn_interval_width(v):
    if not isinstance(v, Interval):
        raise MalformedExpr(f"interval_width wants an interval, got {v!r}")
    return Int(v.width)


def _fn_max_interval_length(v):
    if not isinstance(v, IntervalSet):
        raise MalformedExpr(f"max_interval_length wants an interval set, got {v!r}")
    return Int(v.max_width())


def _fn_cardinality(v):
    if isinstance(v, IntervalSet):
        return Int(len(v.members))
    if isinstance(v, Seq):
        return Int(len(v.items))
    raise MalformedExpr(f"cardinality wants a set-like value, got {v!r}")


NAMED_FUNCTIONS = {
    "max": _fn_max,
    "min": _fn_min,
    "sum": _fn_sum,
    "abs_diff": _fn_abs_diff,
    "length": _fn_length,
    "interval_width": _fn_interval_width,
    "max_interval_length": _fn_max_interval_length,
    "cardinality": _fn_cardinality,
}

for _i in range(4):
    NAMED_FUNCTIONS[f"component_{_i}"] = (
        lambda v, _j=_i: component_of(v, _j))


def make_depth_fn(parent: dict):
    """Node depth in a forest given a child-to-parent map; roots at 0."""
    def depth(v):
        if not isinstance(v, Node):
            raise MalformedExpr(f"depth wants a node, got {v!r}")
        return Int(_depth(parent, v.name))
    return depth


def resolve_function(name: str, parent: dict | None = None):
    if name == "depth":
        if parent is None:
            raise UnknownNamedFunction("depth (needs a parent map)")
        return make_depth_fn(parent)
    fn = NAMED_FUNCTIONS.get(name)
    if fn is None:
        raise UnknownNamedFunction(name)
    return fn


# -- convenience ---------------------------------------------------------------

def powerset_space(base_ints, limit: int = 10) -> Space:
    """Explicit space of all subsets of a few integers, each subset encoded
    as its strictly increasing sequence."""
    base = sorted(set(base_ints))
    if len(base) > limit:
        raise MalformedExpr(f"powerset base capped at {limit} elements")
    subsets = []
    for k in range(len(base) + 1):
        for combo in itertools.combinations(base, k):
            subsets.append(Seq(combo))
    return explicit(subsets)
