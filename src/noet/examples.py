"""Six worked loops, each assembled from a certified order and a seed body.

Every instance bundles its loop definition with the oracle context, the
designated input, a single-run choice policy where the classical algorithm
has one, and the classical variant measure for that loop. Spaces are built
lazily so bulk sweeps never enumerate what a run does not touch, and each
generates only its own members. ``EXAMPLES`` registers each example once:
its builder, its parameters and its summary.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

from .catalog import induced, measure_descent, named
from .errors import ParameterOutOfRange
from . import oracles
from .loops import LoopDef, make_loop
from .relations import Relation
from .spaces import (current_max_space, explicit, int_range,
                     interval_sets_of, intervals_of, lazy_explicit, product)
from .values import (Int, Interval, IntervalSet, Node, Pair, Seq, Tup,
                     sort_values, value_key)


class ExampleInstance(NamedTuple):
    name: str
    loop: LoopDef
    input: object
    ctx: dict
    chooser: object
    variant: object
    variant_name: str
    checked: bool

    def oracle_check(self, input_value, terminal) -> bool:
        ctx = dict(self.ctx)
        ctx["loop"] = self.loop
        return oracles.check(self.loop.postcondition, ctx, input_value,
                             terminal)


def _as_items(t) -> tuple:
    try:
        items = tuple(t)
    except TypeError:
        raise ParameterOutOfRange(f"an array is a sequence, got {t!r}") from None
    for v in items:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParameterOutOfRange(f"array items must be integers, got {v!r}")
    return items


# -- shared partition machinery ------------------------------------------------

def _partition_step(items, a, b, pivot):
    """One move of the three-way walk on 1-based bounds a <= b."""
    if items[a - 1] <= pivot:
        return items, a + 1, b
    if items[b - 1] >= pivot:
        return items, a, b - 1
    moved = list(items)
    moved[a - 1], moved[b - 1] = moved[b - 1], moved[a - 1]
    return tuple(moved), a + 1, b - 1


def _partition_run(items, lo, hi, pivot):
    """Drive the walk to its exit a = b + 1. This is the partition body
    iterated deterministically, reused by lamsort as its sub-procedure."""
    a, b = lo, hi
    while a <= b:
        items, a, b = _partition_step(items, a, b, pivot)
    return items, a, b


# -- gcd -----------------------------------------------------------------------

@lru_cache(maxsize=None)   # max_space, the cap in force, only keys the cache
def _gcd_core(g: int, bound: int, check: bool, max_space: int) -> LoopDef:
    base = product(int_range(1, bound), int_range(1, bound))

    def in_class(v):
        return (base.contains(v)
                and math.gcd(v.first.value, v.second.value) == g)

    def members():
        # class g is exactly (g*x, g*y) for coprime x, y in 1..bound//g
        k = bound // g
        ints = [Int(g * x) for x in range(k + 1)]   # ints[x] is Int(g*x)
        for x in range(1, k + 1):
            for y in range(1, k + 1):
                if math.gcd(x, y) == 1:
                    yield Pair(ints[x], ints[y])

    space = lazy_explicit(members, in_class,
                          label=f"filtered({base.describe()}, gcd={g})")

    def top(v):
        return v.first.value if v.first.value >= v.second.value else v.second.value

    order = measure_descent(space, top, name="max-descent")

    def body_succ(p):
        m, n = p.first.value, p.second.value
        if m > n:
            return (Pair(Int(m - n), Int(n)),)
        if n > m:
            return (Pair(Int(m), Int(n - m)),)
        return ()

    body = Relation(space, space, body_succ, name="subtract-larger")
    init = Relation(space, space, lambda v: (v,),
                    holds=lambda v, s: v == s, name="start")
    return make_loop(space, order, init, body, postcondition="gcd",
                     check=check)


def _gcd_instance(params, check):
    a, b = params["a"], params["b"]
    if a < 1 or b < 1:
        raise ParameterOutOfRange("gcd needs positive integers a and b")
    bound = max(a, b) if params.get("bound") is None else params["bound"]
    if bound < max(a, b):
        raise ParameterOutOfRange("gcd bound must cover both inputs")
    if check is None:
        check = bound <= 32
    loop = _gcd_core(math.gcd(a, b), bound, check, current_max_space())
    return ExampleInstance(
        name="gcd", loop=loop, input=Pair(Int(a), Int(b)), ctx={},
        chooser=None, variant=lambda s: max(s.first.value, s.second.value),
        variant_name="max", checked=check)


# -- sequential search ----------------------------------------------------------

def _seq_search_instance(params, check):
    if check is None:
        check = True
    t = params["t"]
    x = params["x"]
    n = len(t)
    prefixes = []
    for i in range(n + 1):
        if x in t[:i]:
            break
        prefixes.append(Interval(1, i))
    space = explicit(prefixes)
    # on prefixes 1..i, strict set-wise growth is exactly a longer prefix
    order = measure_descent(space, lambda cur: n - cur.hi,
                            name="prefix-growth")

    def body_succ(cur):
        i = cur.hi
        if i < n and t[i] != x:
            return (Interval(1, i + 1),)
        return ()

    body = Relation(space, space, body_succ, name="scan-one-more")
    inputs = explicit([Node("start")])
    init = Relation(inputs, space, lambda v: (Interval(1, 0),),
                    name="empty-prefix")
    loop = make_loop(space, order, init, body,
                     postcondition="membership_prefix", check=check)
    return ExampleInstance(
        name="seq_search", loop=loop, input=Node("start"),
        ctx={"t": t, "x": x}, chooser=None,
        variant=lambda s: n - s.hi, variant_name="interval_width (unscanned side)",
        checked=check)


# -- general search, interval model ----------------------------------------------

def _interval_slice(t, interval):
    return t[interval.lo - 1:interval.hi]


def _gsi_instance(params, check):
    if check is None:
        check = True
    t = params["t"]
    x = params["x"]
    n = len(t)
    present = x in t
    states = []
    if not present:
        states.append(Interval(1, 0))
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            if (x in _interval_slice(t, Interval(lo, hi))) == present:
                states.append(Interval(lo, hi))
    space = explicit(states)
    order = induced(None, named("SUPINTERVAL", intervals_of(1, n)),
                    space, fn_name="interval")

    # any strict subinterval that keeps the space predicate is a legal move
    body = order

    inputs = explicit([Node("start")])
    start = Interval(1, n) if n >= 1 else Interval(1, 0)
    init = Relation(inputs, space, lambda v: (start,), name="whole-range")

    def midpoint(cur, succs):
        # binary-search policy; sensible when t is sorted, safe otherwise
        mid = (cur.lo + cur.hi) // 2
        if t[mid - 1] == x:
            nxt = Interval(mid, mid)
        elif t[mid - 1] < x:
            nxt = Interval(mid + 1, cur.hi)
        else:
            nxt = Interval(cur.lo, mid - 1)
        if nxt.empty:
            nxt = Interval(1, 0)
        return nxt if nxt in succs else succs[0]

    loop = make_loop(space, order, init, body, postcondition="membership",
                     check=check)
    return ExampleInstance(
        name="general_search_interval", loop=loop, input=Node("start"),
        ctx={"t": t, "x": x}, chooser=midpoint,
        variant=lambda s: s.width, variant_name="interval_width",
        checked=check)


# -- general search, interval set model --------------------------------------------

def _gsis_instance(params, check):
    t = params["t"]
    x = params["x"]
    n = len(t)
    eligible = tuple(sort_values(
        Interval(lo, hi)
        for lo in range(1, n + 1)
        for hi in range(lo, n + 1)
        if x not in t[lo - 1:hi]))
    hits = tuple(i + 1 for i, v in enumerate(t) if v == x)

    base = interval_sets_of(1, n)

    def avoids_x(s):
        return base.contains(s) and all(
            not any(m.covers(p) for p in hits) for m in s.members)

    def members():
        # an interval set avoids x exactly when every member is eligible
        for k in range(len(eligible) + 1):
            for chosen in itertools.combinations(eligible, k):
                yield IntervalSet(frozenset(chosen))

    space = lazy_explicit(
        members, avoids_x,
        label=f"filtered({base.describe()}, avoid x at {hits} in 1..{n})")

    order = induced(None, named("INTERVALSUBSET", base), space,
                    fn_name="interval_set")

    def body_succ(s):
        return [IntervalSet(s.members | {j}) for j in eligible
                if j not in s.members]

    body = Relation(space, space, body_succ, name="add-one-interval")
    inputs = explicit([Node("start")])
    init = Relation(inputs, space,
                    lambda v: (IntervalSet(frozenset()),),
                    name="no-intervals")
    if check is None:
        check = n <= 4
    loop = make_loop(space, order, init, body, postcondition="membership",
                     check=check)
    return ExampleInstance(
        name="general_search_intervalset", loop=loop, input=Node("start"),
        ctx={"t": t, "x": x}, chooser=None,
        variant=lambda s: len(eligible) - len(s.members),
        variant_name="missing_subintervals", checked=check)


# -- states of an arrangement with a part ----------------------------------------

def _arrangements(t, parts, ok, label):
    """States (u, part) for each permutation u of t and each member part of
    the space parts that ok(u.items, part) accepts. Membership is tested
    directly, with no enumeration of the states."""
    multiset = sorted(t)

    def contains(v):
        if not (isinstance(v, Tup) and len(v.items) == 2):
            return False
        u, part = v.items
        return (isinstance(u, Seq) and sorted(u.items) == multiset
                and parts.contains(part) and ok(u.items, part))

    def factory():
        for perm in sorted(set(itertools.permutations(t))):
            for part in parts.values():
                if ok(perm, part):
                    yield Tup((Seq(perm), part))

    return lazy_explicit(factory, contains, label=label)


# -- partition -------------------------------------------------------------------

def _partition_space(t, pivot):
    n = len(t)

    def side_ok(items, cut):
        return (all(v <= pivot for v in items[:cut.lo - 1])
                and all(v >= pivot for v in items[cut.hi:]))

    return _arrangements(t, intervals_of(1, n), side_ok,
                         f"partition states over {n} items")


def _partition_instance(params, check):
    t = params["t"]
    pivot = params["pivot"]
    n = len(t)
    space = _partition_space(t, pivot)

    order = induced(lambda s: s.items[1],
                    named("SUPINTERVAL", intervals_of(1, n)), space,
                    fn_name="cut")

    def body_succ(s):
        u, cut = s.items
        if cut.empty:
            return ()
        items, a, b = _partition_step(u.items, cut.lo, cut.hi, pivot)
        return (Tup((Seq(items), Interval(a, b))),)

    body = Relation(space, space, body_succ, name="three-way-step")
    inputs = explicit([Seq(t)])
    init = Relation(inputs, space,
                    lambda v: (Tup((v, Interval(1, n))),),
                    name="whole-array")
    if check is None:
        check = n <= 4
    loop = make_loop(space, order, init, body, postcondition="partition_split",
                     check=check)
    return ExampleInstance(
        name="partition", loop=loop, input=Seq(t),
        ctx={"pivot": pivot}, chooser=None,
        variant=lambda s: s.items[1].width, variant_name="interval_width",
        checked=check)


# -- lamsort ----------------------------------------------------------------------

def _blocks_sorted(items, parts) -> bool:
    blocks = sorted(parts.members, key=value_key)
    for earlier, later in zip(blocks, blocks[1:]):
        left = items[earlier.lo - 1:earlier.hi]
        right = items[later.lo - 1:later.hi]
        if left and right and max(left) > min(right):
            return False
    return True


def _lamsort_space(t):
    n = len(t)

    def compositions():
        if n == 0:
            yield IntervalSet(frozenset())
            return
        for cutmask in range(2 ** (n - 1)):
            blocks = []
            start = 1
            for pos in range(1, n):
                if cutmask >> (pos - 1) & 1:
                    blocks.append(Interval(start, pos))
                    start = pos + 1
            blocks.append(Interval(start, n))
            yield IntervalSet(frozenset(blocks))

    return _arrangements(t, explicit(compositions()), _blocks_sorted,
                         f"block-sorted states over {n} items")


def _lamsort_split(items, block):
    """Split one wide-enough block, partitioning around min-plus-a-half so
    both sides come out non-empty; an all-equal block just sheds its head."""
    vals = items[block.lo - 1:block.hi]
    low = min(vals)
    if all(v == low for v in vals):
        return items, Interval(block.lo, block.lo), Interval(block.lo + 1, block.hi)
    moved, a, _ = _partition_run(items, block.lo, block.hi, low + 0.5)
    return moved, Interval(block.lo, a - 1), Interval(a, block.hi)


def _lamsort_apply(state, block):
    u, parts = state.items
    items, left, right = _lamsort_split(u.items, block)
    members = (parts.members - {block}) | {left, right}
    return Tup((Seq(items), IntervalSet(members)))


def _lamsort_instance(params, check):
    t = params["t"]
    n = len(t)
    space = _lamsort_space(t)

    order = measure_descent(space, lambda s: n - len(s.items[1].members),
                            name="block-count-growth")

    def wide_blocks(s):
        return [m for m in sort_values(s.items[1].members) if m.width >= 2]

    def body_succ(s):
        return [_lamsort_apply(s, block) for block in wide_blocks(s)]

    body = Relation(space, space, body_succ, name="split-one-block")

    inputs = explicit([Seq(t)])
    start_parts = (IntervalSet(frozenset({Interval(1, n)})) if n >= 1
                   else IntervalSet(frozenset()))
    init = Relation(inputs, space,
                    lambda v: (Tup((v, start_parts)),),
                    name="one-block")

    def leftmost_longest(state, succs):
        blocks = wide_blocks(state)
        best = max(blocks, key=lambda m: (m.width, -m.lo))
        return _lamsort_apply(state, best)

    if check is None:
        check = n <= 4
    loop = make_loop(space, order, init, body,
                     postcondition="sorted_permutation", check=check)
    return ExampleInstance(
        name="lamsort", loop=loop, input=Seq(t), ctx={},
        chooser=leftmost_longest, variant=lambda s: s.items[1].max_width(),
        variant_name="max_interval_length", checked=check)


_SEARCH = (("t", "ints"), ("x", "int"))

# name -> (builder(params, check), parameters as (flag, kind), summary);
# a kind is int (not a bool), int? (optional) or ints (a tuple of ints).
# instantiate checks each, and the command line takes its example flags
# and listing from here
EXAMPLES = {
    "gcd": (_gcd_instance, (("a", "int"), ("b", "int"), ("bound", "int?")),
            "subtractive gcd on pairs sharing a gcd, ordered by max"),
    "seq_search": (_seq_search_instance, _SEARCH,
                   "scan a growing prefix until a hit or the end"),
    "general_search_interval": (_gsi_instance, _SEARCH,
                                "shrink a candidate interval set-wise"),
    "general_search_intervalset": (_gsis_instance, _SEARCH,
                                   "accumulate intervals that miss the key"),
    "partition": (_partition_instance, (("t", "ints"), ("pivot", "int")),
                  "three-way pointer walk splitting around a pivot"),
    "lamsort": (_lamsort_instance, (("t", "ints"),),
                "sort by repeatedly partitioning a widest-enough block"),
}

EXAMPLE_NAMES = tuple(EXAMPLES)


def instantiate(name: str, *, check: bool | None = None,
                **params) -> ExampleInstance:
    """Build one example instance. check defaults to construction-time
    proof whenever the space is small enough to enumerate comfortably."""
    row = EXAMPLES.get(name)
    if row is None:
        raise ParameterOutOfRange(f"unknown example: {name!r}")
    build, flags, _ = row
    needed = {flag for flag, kind in flags if not kind.endswith("?")}
    missing = needed - set(params)
    if missing:
        raise ParameterOutOfRange(
            f"{name} needs parameters: {', '.join(sorted(missing))}")
    extra = set(params) - {flag for flag, _ in flags}
    if extra:
        raise ParameterOutOfRange(
            f"{name} does not take: {', '.join(sorted(extra))}")
    for flag, kind in flags:
        v = params.get(flag)
        if kind == "ints":
            params[flag] = _as_items(v)
        elif type(v) is not int and not (v is None and kind == "int?"):
            raise ParameterOutOfRange(f"{flag} must be an integer, got {v!r}")
    return build(params, check)
