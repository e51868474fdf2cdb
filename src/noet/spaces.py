"""Finite state spaces: enumerable, duplicate-free, with direct membership tests.

Enumeration is canonical (sorted by value_key), cached, and capped by one
setting: `max_space(n)` sets it for a block, Space.values reads it, and
examples._gcd_core keys its cache by it. A size is exact, by definition or
by count, so `values()` answers the same under one cap whatever ran before:
a known size over the cap refuses at once, an unknown one after cap + 1
distinct members. Membership never consults the cap; bounded exploration
in noether relies on that. Once enumerated, a lazy explicit space answers
membership from its members, by hash, instead of its predicate; the two
must agree.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math

from .errors import SpaceTooLarge
from .values import (Int, Pair, Interval, IntervalSet, Tup, is_value,
                     sort_values, sorted_unique, value_key)

DEFAULT_MAX_SPACE = 100_000

_MAX_SPACE = contextvars.ContextVar("max_space", default=DEFAULT_MAX_SPACE)
current_max_space = _MAX_SPACE.get   # the cap in force


@contextlib.contextmanager
def max_space(n: int):
    """Enumerate at most n values per space inside the block."""
    token = _MAX_SPACE.set(n)
    try:
        yield
    finally:
        _MAX_SPACE.reset(token)


_GENERATED_IN_ORDER = frozenset({"int_range", "product"})


def _interval_count(lo: int, hi: int) -> int:
    # non-empty subintervals plus one empty representative per start point
    w = hi - lo + 1
    if w < 0:
        return 0
    return w * (w + 1) // 2 + w + 1


def _interval_sets(lo: int, hi: int):
    # by size, then in combinations order over the subintervals; the empty
    # set and the singletons come before the subinterval list is built, so
    # the first few sets of any window cost only their own count
    yield IntervalSet(frozenset())
    for a in range(lo, hi + 1):
        for b in range(a, hi + 1):
            yield IntervalSet(frozenset({Interval(a, b)}))
    base = [Interval(a, b)
            for a in range(lo, hi + 1)
            for b in range(a, hi + 1)]
    for n in range(2, len(base) + 1):
        for s in itertools.combinations(base, n):
            yield IntervalSet(frozenset(s))


class Space:
    """One finite collection of values. Construct through the module functions."""

    __slots__ = ("kind", "lo", "hi", "components", "_values", "_factory",
                 "_contains", "_label")

    def __init__(self, kind, **kw):
        self.kind = kind
        self.lo = kw.get("lo")
        self.hi = kw.get("hi")
        self.components = kw.get("components")
        self._values = kw.get("values")
        self._factory = kw.get("factory")
        self._contains = kw.get("contains")
        self._label = kw.get("label")

    # -- size and enumeration ------------------------------------------

    def size(self):
        """The exact element count, or None when only generating the
        members can tell it."""
        if self._values is not None:
            return len(self._values)
        k = self.kind
        if k == "int_range":
            return max(self.hi - self.lo + 1, 0)
        if k == "product":
            total = 1
            for c in self.components:
                n = c.size()
                if n is None:
                    return None
                total *= n
            return total
        if k == "intervals_of":
            return _interval_count(self.lo, self.hi)
        if k == "interval_sets_of":
            w = self.hi - self.lo + 1
            nonempty = w * (w + 1) // 2
            # over 64 subintervals give more sets than any cap admits, and
            # for a wide window the power itself would not fit in memory
            return 2 ** nonempty if nonempty <= 64 else math.inf
        return None

    def values(self) -> tuple:
        """Every value, canonically sorted; more than the cap in force,
        cached or not, raises SpaceTooLarge."""
        cap = _MAX_SPACE.get()
        if self._values is None:
            n = self.size()
            if n is not None and n > cap:
                raise SpaceTooLarge(n, cap)
            out = self._generate()
            if n is None:
                seen = {}   # distinct members, in the order generated
                for v in out:
                    seen[v] = None
                    if len(seen) > cap:
                        raise SpaceTooLarge(None, cap)
                out = seen
                if self.kind == "explicit":
                    # the members answer membership from now on: one hash
                    # lookup in place of the predicate, which agrees
                    self._contains = seen.__contains__
            # no kind generates a repeat: int_range and product generate in
            # value_key order (a product of sorted components is
            # lexicographic), the interval kinds distinct values, as their
            # exact sizes say, and seen drops a factory's repeats; the rest
            # are sorted here
            if self.kind not in _GENERATED_IN_ORDER:
                out = sort_values(out)
            self._values = tuple(out)
        if len(self._values) > cap:
            raise SpaceTooLarge(len(self._values), cap)
        return self._values

    def _generate(self):
        k = self.kind
        if k == "int_range":
            return (Int(i) for i in range(self.lo, self.hi + 1))
        if k == "product":
            parts = [c.values() for c in self.components]
            if len(parts) == 2:
                return (Pair(a, b) for a, b in itertools.product(*parts))
            return (Tup(items) for items in itertools.product(*parts))
        if k == "intervals_of":
            # non-empty intervals first, so the first few are probes that
            # can step; values() sorts what this yields
            lo, hi = self.lo, self.hi
            return itertools.chain(
                (Interval(a, b)
                 for a in range(lo, hi + 1) for b in range(a, hi + 1)),
                (Interval(a, a - 1) for a in range(lo, hi + 2)))
        if k == "interval_sets_of":
            return _interval_sets(self.lo, self.hi)
        if k == "explicit":
            return self._factory()
        raise AssertionError(self.kind)

    # -- membership ------------------------------------------------------

    def contains(self, v) -> bool:
        k = self.kind
        if k == "int_range":
            return isinstance(v, Int) and self.lo <= v.value <= self.hi
        if k == "explicit":
            return is_value(v) and self._contains(v)
        if k == "product":
            cs = self.components
            if len(cs) == 2:
                return (isinstance(v, Pair)
                        and cs[0].contains(v.first) and cs[1].contains(v.second))
            return (isinstance(v, Tup) and len(v.items) == len(cs)
                    and all(c.contains(x) for c, x in zip(cs, v.items)))
        if k == "intervals_of":
            if not isinstance(v, Interval):
                return False
            if v.empty:
                return self.lo <= v.lo <= self.hi + 1
            return self.lo <= v.lo and v.hi <= self.hi
        if k == "interval_sets_of":
            if not isinstance(v, IntervalSet):
                return False
            return all(not m.empty and self.lo <= m.lo and m.hi <= self.hi
                       for m in v.members)
        raise AssertionError(self.kind)

    def sample_values(self, k: int = 8) -> list:
        """Small deterministic probe set, for when enumeration is off the
        table; it enumerates up to DEFAULT_MAX_SPACE whatever the cap."""
        with max_space(DEFAULT_MAX_SPACE):
            n = self.size()
            if n is not None and n <= DEFAULT_MAX_SPACE:
                return list(self.values()[:k])
            if self.kind == "int_range":
                cands = {self.lo, self.lo + 1, -1, 0, 1,
                         (self.lo + self.hi) // 2, self.hi - 1, self.hi}
                probes = sorted(c for c in cands if self.lo <= c <= self.hi)
                return [Int(c) for c in probes[:k]]
            if self.kind == "product":
                # the i-th probes of every component, so the probes spread
                # along each axis instead of holding all but one at its least
                probes = zip(*(c.sample_values(k) for c in self.components))
                if len(self.components) == 2:
                    return [Pair(x, y) for x, y in probes]
                return [Tup(items) for items in probes]
            if (self.kind in ("intervals_of", "interval_sets_of")
                    or self._factory is not None):
                return sort_values(itertools.islice(self._generate(), k))
            return []

    # -- identity ----------------------------------------------------------

    def signature(self):
        """Structural identity when it exists, else None (identity-only)."""
        k = self.kind
        if k == "int_range":
            return ("int_range", self.lo, self.hi)
        if k in ("intervals_of", "interval_sets_of"):
            return (k, self.lo, self.hi)
        if k == "product":
            sigs = tuple(c.signature() for c in self.components)
            return None if any(s is None for s in sigs) else ("product", sigs)
        if k == "explicit" and self._factory is None:
            return ("explicit", tuple(value_key(v) for v in self._values))
        return None

    def describe(self) -> str:
        if self._label:
            return self._label
        k = self.kind
        if k == "int_range":
            return f"int_range {self.lo}..{self.hi}"
        if k == "intervals_of":
            return f"intervals_of {self.lo}..{self.hi}"
        if k == "interval_sets_of":
            return f"interval_sets_of {self.lo}..{self.hi}"
        if k == "product":
            return "product(" + ", ".join(c.describe() for c in self.components) + ")"
        n = len(self._values) if self._values is not None else "?"
        return f"explicit({n} values)"


def same_space(a: Space, b: Space) -> bool:
    if a is b:
        return True
    sa, sb = a.signature(), b.signature()
    return sa is not None and sa == sb


# -- constructors --------------------------------------------------------

def int_range(lo: int, hi: int) -> Space:
    return Space("int_range", lo=lo, hi=hi)


def explicit(values) -> Space:
    # value_key raises TypeError on anything that is not a value
    members = tuple(sorted_unique(values))
    return Space("explicit", values=members,
                 contains=frozenset(members).__contains__)


def lazy_explicit(factory, contains, label=None) -> Space:
    """Explicit space whose enumeration is deferred until someone needs it.

    factory() yields every member, repeats allowed, and contains(v)
    accepts exactly those; the size is what the factory yields, counted
    when the space is first enumerated. From then on the members answer
    membership and contains is no longer called, so a predicate that
    accepted anything else would change its answers."""
    return Space("explicit", factory=factory, contains=contains, label=label)


def product(*components: Space) -> Space:
    if len(components) < 2:
        raise ValueError("product needs at least two component spaces")
    return Space("product", components=tuple(components))


def intervals_of(lo: int, hi: int) -> Space:
    """All subintervals of lo..hi, including one empty interval per start point."""
    if lo > hi + 1:
        raise ValueError(f"bad interval window {lo}..{hi}")
    return Space("intervals_of", lo=lo, hi=hi)


def interval_sets_of(lo: int, hi: int) -> Space:
    """All sets of non-empty subintervals of lo..hi."""
    if lo > hi + 1:
        raise ValueError(f"bad interval window {lo}..{hi}")
    return Space("interval_sets_of", lo=lo, hi=hi)
