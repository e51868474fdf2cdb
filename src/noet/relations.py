"""Binary relations between finite spaces, with the operator algebra on them.

A Relation is either extensional (a frozen set of ordered pairs) or
intensional (a successor function, optionally with a direct pair test).
Operators stay intensional whenever they can, so huge spaces never get
enumerated just to step through a loop. Equality questions always go
through materialized pair sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (FuelExhausted, RequiresExtensional, SpaceMismatch,
                     ValueOutsideSpace)
from .spaces import DEFAULT_MAX_SPACE, Space, same_space
from .values import sort_values, sorted_unique, value_key


@dataclass(frozen=True, slots=True)
class RelationFlags:
    """Structural classification of one relation's materialized pairs."""
    acyclic: bool
    irreflexive: bool
    transitive: bool
    asymmetric: bool
    order: bool
    function: bool


class Relation:
    __slots__ = ("source", "target", "name", "cert", "_pairs", "_adj",
                 "_heights", "_succ_fn", "_holds_fn")

    def __init__(self, source: Space, target: Space, *, pairs=None,
                 succ=None, holds=None, name: str | None = None, cert=None):
        if (pairs is None) == (succ is None):
            raise ValueError("give exactly one of pairs or succ")
        self.source = source
        self.target = target
        self.name = name
        self.cert = cert
        self._pairs = frozenset(pairs) if pairs is not None else None
        self._adj = None
        self._heights = None   # noether.height_from's memo, made on first use
        self._succ_fn = succ
        self._holds_fn = holds

    def __repr__(self):
        tag = self.name or ("extensional" if self._pairs is not None else "intensional")
        return f"Relation<{tag}: {self.source.describe()} -> {self.target.describe()}>"

    @property
    def extensional(self) -> bool:
        return self._pairs is not None

    # -- stepping ---------------------------------------------------------

    def _succ(self, a):
        """Raw successor collection, no membership checks. Hot path."""
        if self._pairs is not None:
            if self._adj is None:
                adj = {}
                for x, y in self._pairs:
                    adj.setdefault(x, []).append(y)
                self._adj = adj
            return self._adj.get(a, ())
        return self._succ_fn(a)

    def successors(self, a) -> list:
        """Canonically sorted, deduplicated successors of one value."""
        return sorted_unique(self._succ(a))

    def holds(self, a, b) -> bool:
        if self._holds_fn is not None:
            return self._holds_fn(a, b)
        if self._pairs is not None:
            return (a, b) in self._pairs
        return any(b == c for c in self._succ_fn(a))

    def image_of(self, a) -> frozenset:
        """Successors of one checked member of the source space."""
        if not self.source.contains(a):
            raise ValueOutsideSpace(a, self.source)
        return frozenset(self._succ(a))

    # -- materialization ----------------------------------------------------

    def pairs(self, cap: int = DEFAULT_MAX_SPACE) -> frozenset:
        if self._pairs is None:
            got = set()
            for a in self.source.values(cap):
                for b in self._succ_fn(a):
                    got.add((a, b))
            self._pairs = frozenset(got)
        return self._pairs

    def sorted_pairs(self, cap: int = DEFAULT_MAX_SPACE) -> list:
        return sorted(self.pairs(cap), key=_pair_key)

    def materialized(self, cap: int = DEFAULT_MAX_SPACE) -> "Relation":
        """Extensional copy (self when already extensional)."""
        if self._pairs is not None:
            return self
        return Relation(self.source, self.target, pairs=self.pairs(cap),
                        name=self.name, cert=self.cert)

    def domain(self, cap: int = DEFAULT_MAX_SPACE) -> frozenset:
        return frozenset(a for a, _ in self.pairs(cap))

    def range_(self, cap: int = DEFAULT_MAX_SPACE) -> frozenset:
        return frozenset(b for _, b in self.pairs(cap))

    def is_empty(self, cap: int = DEFAULT_MAX_SPACE) -> bool:
        return not self.pairs(cap)

    # -- algebra ---------------------------------------------------------

    def inverse(self) -> "Relation":
        """Pair-swapped relation. Demands an extensional receiver; call
        materialized() first on intensional relations."""
        if self._pairs is None:
            raise RequiresExtensional(
                "inverse works on extensional relations; materialize first")
        flipped = frozenset((b, a) for a, b in self._pairs)
        return Relation(self.target, self.source, pairs=flipped,
                        name=_derived_name("inverse", self.name))

    def compose(self, other: "Relation") -> "Relation":
        """self ; other: step through self, then through other."""
        if not same_space(self.target, other.source):
            raise SpaceMismatch(
                f"cannot compose: {self.target.describe()} does not match "
                f"{other.source.describe()}")
        def succ(a):
            out = set()
            for m in self._succ(a):
                out.update(other._succ(m))
            return out
        return Relation(self.source, other.target, succ=succ,
                        name=_derived_name("compose", self.name, other.name))

    def restrict(self, keep, check: bool = True) -> "Relation":
        """Keep only pairs whose first component satisfies keep (a value
        collection or a predicate)."""
        if callable(keep):
            member = keep
        else:
            kept = frozenset(keep)
            if check:
                for v in kept:
                    if not self.source.contains(v):
                        raise ValueOutsideSpace(v, self.source)
            member = kept.__contains__
        def succ(a):
            return self._succ(a) if member(a) else ()
        holds = None
        if self._holds_fn is not None:
            inner = self._holds_fn
            holds = lambda a, b: member(a) and inner(a, b)
        return Relation(self.source, self.target, succ=succ, holds=holds,
                        name=_derived_name("restrict", self.name))

    def power(self, n: int) -> "Relation":
        if n < 0:
            raise ValueError("negative relation power")
        if n != 1 and not same_space(self.source, self.target):
            raise SpaceMismatch("powers need matching source and target spaces")
        if n == 0:
            return identity(self.source)
        if n == 1:
            return self
        return Relation(self.source, self.target,
                        succ=lambda a: after(self, a, n),
                        name=_derived_name(f"power{n}", self.name))

    def plus(self) -> "Relation":
        """Transitive closure: one or more steps."""
        if not same_space(self.source, self.target):
            raise SpaceMismatch("closure needs matching source and target spaces")
        def succ(a):
            return reach(self, self._succ(a))
        def holds(a, b):
            return any(b == c for c in succ(a))
        return Relation(self.source, self.target, succ=succ, holds=holds,
                        name=_derived_name("plus", self.name))

    def star(self) -> "Relation":
        """Reflexive-transitive closure: zero or more steps."""
        closed = self.plus()
        def succ(a):
            out = set(closed._succ(a))
            out.add(a)
            return out
        def holds(a, b):
            return a == b or closed.holds(a, b)
        return Relation(self.source, self.target, succ=succ, holds=holds,
                        name=_derived_name("star", self.name))

    def union(self, other: "Relation") -> "Relation":
        if not (same_space(self.source, other.source)
                and same_space(self.target, other.target)):
            raise SpaceMismatch("cannot union relations over different spaces")
        def succ(a):
            out = set(self._succ(a))
            out.update(other._succ(a))
            return out
        holds = None
        if self._holds_fn is not None and other._holds_fn is not None:
            f, g = self._holds_fn, other._holds_fn
            holds = lambda a, b: f(a, b) or g(a, b)
        return Relation(self.source, self.target, succ=succ, holds=holds,
                        name=_derived_name("union", self.name, other.name))

    def is_subset_of(self, other: "Relation", cap: int = DEFAULT_MAX_SPACE):
        """(True, None) or (False, witness_pair), the witness being the
        least pair of self that other lacks."""
        witness = least_failing(self.pairs(cap),
                                other._holds_fn or other.holds)
        return witness is None, witness

    def same_pairs(self, other: "Relation", cap: int = DEFAULT_MAX_SPACE) -> bool:
        return self.pairs(cap) == other.pairs(cap)

    # -- classification -----------------------------------------------------

    def classify(self, cap: int = DEFAULT_MAX_SPACE) -> RelationFlags:
        ps = self.pairs(cap)
        irreflexive = all(a != b for a, b in ps)
        asymmetric = all((b, a) not in ps for a, b in ps)
        adj = {}
        for a, b in ps:
            adj.setdefault(a, set()).add(b)
        transitive = True
        for a, bs in adj.items():
            for b in bs:
                if not adj.get(b, set()) <= bs:
                    transitive = False
                    break
            if not transitive:
                break
        # Kahn peeling: remove values nothing left points at; acyclic iff
        # every value goes. Built on this method's own adjacency so it shares
        # nothing with the DFS cycle search in noether: the two must stay
        # independent answers to one question.
        indegree = {}
        for a, bs in adj.items():
            indegree.setdefault(a, 0)
            for b in bs:
                indegree[b] = indegree.get(b, 0) + 1
        ready = [v for v, d in indegree.items() if d == 0]
        peeled = 0
        while ready:
            v = ready.pop()
            peeled += 1
            for b in adj.get(v, ()):
                indegree[b] -= 1
                if indegree[b] == 0:
                    ready.append(b)
        acyclic = peeled == len(indegree)
        function = all(len(bs) <= 1 for bs in adj.values())
        order = irreflexive and transitive
        return RelationFlags(acyclic=acyclic, irreflexive=irreflexive,
                             transitive=transitive, asymmetric=asymmetric,
                             order=order, function=function)


# -- walks -------------------------------------------------------------------

def reach(r: Relation, roots, fuel: int | None = None) -> set:
    """Every value reachable from roots in zero or more steps of r, roots
    included. Level by level; each reached value is expanded once. fuel
    bounds the edges walked, counting those that lead to values already
    reached; past it, FuelExhausted."""
    seen = set()
    frontier = set(roots)
    explored = 0
    while frontier:
        seen.update(frontier)
        nxt = set()
        for x in frontier:
            for y in r._succ(x):
                explored += 1
                if fuel is not None and explored > fuel:
                    raise FuelExhausted(fuel)
                if y not in seen:
                    nxt.add(y)
        frontier = nxt
    return seen


def after(r: Relation, a, n: int) -> set:
    """The values exactly n steps of r away from a: a's image under r^n."""
    frontier = {a}
    for _ in range(n):
        if not frontier:
            break
        nxt = set()
        for x in frontier:
            nxt.update(r._succ(x))
        frontier = nxt
    return frontier


def is_minimal(r: Relation, a) -> bool:
    """a has no successor under r."""
    for _ in r._succ(a):
        return False
    return True


def _pair_key(p):
    return (value_key(p[0]), value_key(p[1]))


def least_failing(pairs, test):
    """The least pair (a, b), in value order, for which test(a, b) is false,
    or None. Pairs are tested unsorted; only the failures get ordered."""
    failures = [(a, b) for a, b in pairs if not test(a, b)]
    return min(failures, key=_pair_key) if failures else None


def _derived_name(op, *parts):
    named = [p for p in parts if p]
    if not named:
        return op
    return f"{op}({', '.join(named)})"


# -- constructors ---------------------------------------------------------

def from_pairs(source: Space, target: Space, pairs, *,
               name: str | None = None, check: bool = True) -> Relation:
    got = []
    for a, b in pairs:
        if check:
            if not source.contains(a):
                raise ValueOutsideSpace(a, source)
            if not target.contains(b):
                raise ValueOutsideSpace(b, target)
        got.append((a, b))
    return Relation(source, target, pairs=got, name=name)


def from_successors(source: Space, target: Space, succ, *,
                    holds=None, name: str | None = None) -> Relation:
    return Relation(source, target, succ=succ, holds=holds, name=name)


def identity(space: Space) -> Relation:
    return Relation(space, space,
                    succ=lambda a: (a,),
                    holds=lambda a, b: a == b,
                    name="id")


def empty_relation(source: Space, target: Space) -> Relation:
    return Relation(source, target, pairs=(), name="empty")


def pair_values(pairs) -> list:
    """All values mentioned by a pair iterable, canonically sorted."""
    seen = set()
    for a, b in pairs:
        seen.add(a)
        seen.add(b)
    return sort_values(seen)
