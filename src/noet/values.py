"""Structural state values that relations range over.

Seven variants: integers, pairs, integer intervals, finite sets of
intervals, integer sequences, named nodes, and tuples of values.
Equality is structural; value_key gives a total order used only for
deterministic tie-breaking and output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class Int:
    value: int


@dataclass(frozen=True, slots=True)
class Pair:
    first: "Value"
    second: "Value"


@dataclass(frozen=True, slots=True)
class Interval:
    """Interval lo..hi of integers. lo == hi + 1 encodes an empty interval."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi + 1:
            raise ValueError(f"interval bounds {self.lo}..{self.hi} are malformed")

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


@dataclass(frozen=True, slots=True)
class IntervalSet:
    members: frozenset

    def __post_init__(self):
        ms = frozenset(self.members)
        for m in ms:
            if not isinstance(m, Interval):
                raise ValueError(f"interval set member {m!r} is not an interval")
        object.__setattr__(self, "members", ms)

    def union_positions(self) -> frozenset:
        out = set()
        for m in self.members:
            out.update(m.positions())
        return frozenset(out)

    def max_width(self) -> int:
        return max((m.width for m in self.members), default=0)


@dataclass(frozen=True, slots=True)
class Seq:
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True, slots=True)
class Node:
    name: str

    def __hash__(self):
        # str hashes are salted per process (PYTHONHASHSEED), and set order,
        # hence which cycle a search meets first, follows hashes; the name's
        # bytes read as an int hash the same in every process
        return hash(int.from_bytes(self.name.encode("utf-8"), "big"))


@dataclass(frozen=True, slots=True)
class Tup:
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


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
        return (1, value_key(v.first), value_key(v.second))
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
    """Values in value_key order with equal neighbours dropped. Sorts and
    compares rather than building a set, so no value gets hashed."""
    out, prev = [], object()
    for v in sort_values(values):
        if v != prev:
            out.append(v)
        prev = v
    return out


# Interval containment, on member sets. Any empty interval is contained
# in every interval and strictly contained in every non-empty one.

def interval_within(a: Interval, b: Interval) -> bool:
    if a.empty:
        return True
    return b.lo <= a.lo and a.hi <= b.hi


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
