"""Finite state spaces: enumerable, duplicate-free, with direct membership tests.

Enumeration is canonical (sorted by value_key) and cached. Spaces whose
size estimate exceeds the cap refuse to enumerate but still answer
membership; bounded exploration in noether relies on that.
"""

from __future__ import annotations

import itertools

from .errors import SpaceTooLarge
from .values import (Int, Pair, Interval, IntervalSet, Tup, is_value,
                     sort_values, sorted_unique, value_key)

DEFAULT_MAX_SPACE = 100_000

_GENERATED_IN_ORDER = frozenset({"int_range", "product", "filtered"})


def _interval_count(lo: int, hi: int) -> int:
    # non-empty subintervals plus one empty representative per start point
    w = hi - lo + 1
    if w < 0:
        return 0
    return w * (w + 1) // 2 + w + 1


class Space:
    """One finite collection of values. Construct through the module functions."""

    __slots__ = ("kind", "lo", "hi", "base", "components", "pred", "pred_id",
                 "_values", "_value_set", "_factory", "_contains", "_estimate",
                 "_label")

    def __init__(self, kind, **kw):
        self.kind = kind
        self.lo = kw.get("lo")
        self.hi = kw.get("hi")
        self.base = kw.get("base")
        self.components = kw.get("components")
        self.pred = kw.get("pred")
        self.pred_id = kw.get("pred_id")
        self._values = kw.get("values")
        self._value_set = None
        self._factory = kw.get("factory")
        self._contains = kw.get("contains")
        self._estimate = kw.get("estimate")
        self._label = kw.get("label")

    # -- size and enumeration ------------------------------------------

    def size_estimate(self):
        """Upper bound on the element count, or None when unknown."""
        if self._values is not None:
            return len(self._values)
        if self._estimate is not None:
            return self._estimate
        k = self.kind
        if k == "int_range":
            return max(self.hi - self.lo + 1, 0)
        if k == "product":
            total = 1
            for c in self.components:
                e = c.size_estimate()
                if e is None:
                    return None
                total *= e
            return total
        if k == "intervals_of":
            return _interval_count(self.lo, self.hi)
        if k == "interval_sets_of":
            w = self.hi - self.lo + 1
            nonempty = max(w * (w + 1) // 2, 0)
            return 2 ** nonempty if nonempty <= 64 else 2 ** 64
        if k == "filtered":
            return self.base.size_estimate()
        return None

    def enumerable(self, cap: int = DEFAULT_MAX_SPACE) -> bool:
        e = self.size_estimate()
        return e is not None and e <= cap

    def values(self, cap: int = DEFAULT_MAX_SPACE) -> tuple:
        """Every value, canonically sorted; more than cap, cached or not,
        raises SpaceTooLarge."""
        if self._values is not None:
            if len(self._values) > cap:
                raise SpaceTooLarge(len(self._values), cap)
            return self._values
        est = self.size_estimate()
        if est is not None and est > cap:
            raise SpaceTooLarge(est, cap)
        out = self._generate(cap)
        # int_range, product and filtered generate in value_key order with
        # no duplicates (a product of sorted components is lexicographic, a
        # filter keeps its base's order); the rest are sorted here
        if self.kind not in _GENERATED_IN_ORDER:
            out = sorted_unique(out)
        out = tuple(out)
        if len(out) > cap:
            raise SpaceTooLarge(len(out), cap)
        self._values = out
        return out

    def _generate(self, cap):
        k = self.kind
        if k == "int_range":
            return (Int(i) for i in range(self.lo, self.hi + 1))
        if k == "product":
            parts = [c.values(cap) for c in self.components]
            if len(parts) == 2:
                return (Pair(a, b) for a, b in itertools.product(*parts))
            return (Tup(items) for items in itertools.product(*parts))
        if k == "intervals_of":
            lo, hi = self.lo, self.hi
            out = [Interval(a, a - 1) for a in range(lo, hi + 2)]
            out.extend(Interval(a, b)
                       for a in range(lo, hi + 1)
                       for b in range(a, hi + 1))
            return out
        if k == "interval_sets_of":
            lo, hi = self.lo, self.hi
            base = [Interval(a, b)
                    for a in range(lo, hi + 1)
                    for b in range(a, hi + 1)]
            subsets = itertools.chain.from_iterable(
                itertools.combinations(base, n) for n in range(len(base) + 1))
            return (IntervalSet(frozenset(s)) for s in subsets)
        if k == "filtered":
            return (v for v in self.base.values(cap) if self.pred(v))
        if k == "explicit":
            return self._factory()
        raise AssertionError(self.kind)

    def value_set(self, cap: int = DEFAULT_MAX_SPACE) -> frozenset:
        if self._value_set is None:
            self._value_set = frozenset(self.values(cap))
        return self._value_set

    # -- membership ------------------------------------------------------

    def contains(self, v) -> bool:
        k = self.kind
        if k == "int_range":
            return isinstance(v, Int) and self.lo <= v.value <= self.hi
        if k == "explicit":
            if self._contains is not None:
                return is_value(v) and self._contains(v)
            return v in self.value_set()
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
        if k == "filtered":
            return self.base.contains(v) and self.pred(v)
        raise AssertionError(self.kind)

    def sample_values(self, k: int = 8) -> list:
        """Small deterministic probe set; used when enumeration is off the table."""
        if self.enumerable():
            return list(self.values()[:k])
        if self.kind == "int_range":
            cands = {self.lo, self.lo + 1, -1, 0, 1,
                     (self.lo + self.hi) // 2, self.hi - 1, self.hi}
            probes = sorted(c for c in cands if self.lo <= c <= self.hi)
            return [Int(c) for c in probes[:k]]
        if self.kind == "explicit" and self._factory is not None:
            return sort_values(itertools.islice(self._factory(), k))
        if self.kind == "filtered":
            return [v for v in self.base.sample_values(k * 4) if self.pred(v)][:k]
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
        if k == "explicit" and self._values is not None and self._contains is None:
            return ("explicit", tuple(value_key(v) for v in self._values))
        if k == "filtered":
            b = self.base.signature()
            if b is None or self.pred_id is None:
                return None
            return ("filtered", b, self.pred_id)
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
        if k == "filtered":
            return f"filtered({self.base.describe()}, {self.pred_id or 'pred'})"
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
    return Space("explicit", values=tuple(sorted_unique(values)))


def lazy_explicit(factory, contains, estimate=None, label=None) -> Space:
    """Explicit space whose enumeration is deferred until someone needs it."""
    return Space("explicit", factory=factory, contains=contains,
                 estimate=estimate, label=label)


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


def filtered(base: Space, pred, pred_id: str | None = None) -> Space:
    return Space("filtered", base=base, pred=pred, pred_id=pred_id)
