"""Structural state values that relations range over.

Seven variants: integers, pairs, integer intervals, finite sets of
intervals, integer sequences, named nodes, and tuples of values.
Equality is structural; value_key gives a total order used only for
deterministic tie-breaking and output.

Int and Pair, the values the exhaustive walks meet most, are
hash-consed: each constructor returns the one live object for its value
from a per-class table of weak references, and the hash is computed once,
when that object is made. A table entry is made by weakref.ref's own C
constructor, without running Python code, and the table's one callback
drops it when its value dies. Equal Ints are then the same object, and so
are equal Pairs of such children, so dict and set hits are identity tests
and the successor functions mint no duplicates. Hashes keep the formulas
of the dataclasses they replace, so set order, and every witness printed,
is unchanged. The other five variants are hand-written slotted classes
that are not interned; they keep the dataclass hash formulas, reprs and
frozenness too. No variant is a dataclass, so importing noet loads neither
dataclasses nor inspect.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Union


class _Entry(weakref.ref):
    """A table entry: a weak reference that remembers its key, so that its
    table's callback can remove it once the value dies. It defines no
    __new__ or __init__, so weakref.ref's C constructor makes it."""

    __slots__ = ("key",)


def _release(table, entry):
    # a later value with the same key may already have replaced this entry
    if table.get(entry.key) is entry:
        del table[entry.key]


class _Frozen:
    """Frozenness, and a repr and pickling read from _fields, shared by
    every variant."""

    __slots__ = ()

    def __setattr__(self, name, _):
        # imported only when raised: dataclasses loads inspect, ast and dis,
        # a large share of what importing noet would cost
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))


class _Interned(_Frozen):
    """The stored hash, shared by the hash-consed classes."""

    __slots__ = ()

    def __hash__(self):
        return self._hash


class Int(_Interned):
    """An integer. Equal Ints are one object, so equality is identity."""

    _fields = ("value",)
    __slots__ = _fields + ("_hash", "__weakref__")
    _table = {}
    # read through the class only: Python 3.13 warns when a partial is
    # read through an instance, as a method
    _released = partial(_release, _table)

    def __new__(cls, value):
        entry = cls._table.get(value)
        if entry is not None:
            self = entry()
            if self is not None:
                return self
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((value,)))
        entry = _Entry(self, cls._released)
        entry.key = value
        cls._table[value] = entry
        return self


class Pair(_Interned):
    """An ordered pair of values. Pairs are interned by the identity of
    their children: equal Pairs of interned children are one object.
    Equality stays structural for children that are not interned."""

    _fields = ("first", "second")
    __slots__ = _fields + ("_hash", "__weakref__")
    _table = {}
    _released = partial(_release, _table)   # read through the class only

    def __new__(cls, first, second):
        key = (id(first), id(second))
        entry = cls._table.get(key)
        if entry is not None:
            self = entry()
            if self is not None and self.first is first and self.second is second:
                return self
        self = object.__new__(cls)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "_hash", hash((first, second)))
        entry = _Entry(self, cls._released)
        entry.key = key
        cls._table[key] = entry
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Pair:
            return NotImplemented
        return self.first == other.first and self.second == other.second

    __hash__ = _Interned.__hash__


# The variants below are not interned. Each hashes its fields on every call,
# by the formula a frozen dataclass uses, since set order follows hashes.

class Interval(_Frozen):
    """Interval lo..hi of integers. lo == hi + 1 encodes an empty interval."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi + 1:
            raise ValueError(f"interval bounds {lo}..{hi} are malformed")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other):
        if type(other) is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def covers(self, position: int) -> bool:
        return self.lo <= position <= self.hi

    def positions(self) -> range:
        return range(self.lo, self.hi + 1)


class IntervalSet(_Frozen):
    __slots__ = _fields = ("members",)

    def __init__(self, members):
        ms = frozenset(members)
        for m in ms:
            if not isinstance(m, Interval):
                raise ValueError(f"interval set member {m!r} is not an interval")
        object.__setattr__(self, "members", ms)

    def __eq__(self, other):
        if type(other) is not IntervalSet:
            return NotImplemented
        return self.members == other.members

    def __hash__(self):
        return hash((self.members,))

    def union_positions(self) -> frozenset:
        out = set()
        for m in self.members:
            out.update(m.positions())
        return frozenset(out)

    def max_width(self) -> int:
        return max((m.width for m in self.members), default=0)


class Seq(_Frozen):
    __slots__ = _fields = ("items",)

    def __init__(self, items):
        object.__setattr__(self, "items", tuple(items))

    def __eq__(self, other):
        if type(other) is not Seq:
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        return hash((self.items,))


class Node(_Frozen):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        if type(other) is not Node:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        # str hashes are salted per process (PYTHONHASHSEED), and set order,
        # hence which cycle a search meets first, follows hashes; the name's
        # bytes read as an int hash the same in every process
        return hash(int.from_bytes(self.name.encode("utf-8"), "big"))


class Tup(_Frozen):
    __slots__ = _fields = ("items",)

    def __init__(self, items):
        object.__setattr__(self, "items", tuple(items))

    def __eq__(self, other):
        if type(other) is not Tup:
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        return hash((self.items,))


Value = Union[Int, Pair, Interval, IntervalSet, Seq, Node, Tup]

_RANK = {Int: 0, Pair: 1, Interval: 2, IntervalSet: 3, Seq: 4, Node: 5, Tup: 6}


def is_value(v) -> bool:
    return type(v) in _RANK


def value_key(v):
    """Total order key. Variants sort by rank, then structurally."""
    t = type(v)
    if t is Int:
        return (0, v.value)
    if t is Pair:
        # an Int child's key is written here rather than asked for, the
        # same tuple with one call per Pair instead of three
        a, b = v.first, v.second
        return (1, (0, a.value) if type(a) is Int else value_key(a),
                (0, b.value) if type(b) is Int else value_key(b))
    if t is Interval:
        return (2, v.lo, v.hi)
    if t is IntervalSet:
        return (3, tuple(sorted((m.lo, m.hi) for m in v.members)))
    if t is Seq:
        return (4, v.items)
    if t is Node:
        return (5, v.name)
    if t is Tup:
        return (6, tuple(value_key(x) for x in v.items))
    raise TypeError(f"not a value: {v!r}")


def sort_values(values):
    return sorted(values, key=value_key)


def sorted_unique(values) -> list:
    """Values in value_key order with equal neighbours dropped, as a new
    list. Sorting first keeps the output in value order whatever the input
    order; for interned values the neighbour comparison is an identity
    test. Fewer than two values are returned unsorted, since they are in
    order already, but a lone one still goes through value_key, so anything
    that is not a value raises TypeError as it does in a sort."""
    values = list(values)
    if len(values) < 2:
        if values:
            value_key(values[0])
        return values
    out, prev = [], object()
    for v in sort_values(values):
        if v != prev:
            out.append(v)
        prev = v
    return out


# Strict interval containment, on member sets. An empty interval is
# strictly contained in every non-empty one.

def interval_strictly_within(a: Interval, b: Interval) -> bool:
    if a.empty:
        return not b.empty
    return b.lo <= a.lo and a.hi <= b.hi and a.width < b.width


def render(v: Value) -> str:
    """Human-facing text form, deterministic for equal values."""
    t = type(v)
    if t is Int:
        return str(v.value)
    if t is Pair:
        return f"({render(v.first)}, {render(v.second)})"
    if t is Interval:
        return f"{v.lo}..{v.hi}"
    if t is IntervalSet:
        inner = ", ".join(f"{m.lo}..{m.hi}" for m in sorted(v.members, key=value_key))
        return "{" + inner + "}"
    if t is Seq:
        return "[" + ", ".join(str(i) for i in v.items) + "]"
    if t is Node:
        return v.name
    if t is Tup:
        return "(" + ", ".join(render(x) for x in v.items) + ")"
    raise TypeError(f"not a value: {v!r}")


def render_set(values) -> str:
    return "{" + ", ".join(render(v) for v in sort_values(values)) + "}"


def render_chain(values) -> str:
    return " → ".join(render(v) for v in values)
