"""Binary relations between finite spaces, with the operator algebra on them.

A Relation is one successor function (optionally with a direct pair test).
Its adjacency (_filled) walks the source space once and keeps each value's
successors as the function yields them, so stepping a member of the source
space returns the same successors, in the same order, before and after;
its pair set (pairs) is built from that adjacency only when read. Every
walk (reach, after, is_minimal here, the cycle search and the one
post-order walk of heights and limits in noether, terminals_of in loops)
binds Relation._step once, the function or, once filled, the adjacency's
dict.get, and steps a value as step(a) or (): a missing value gets None.
Operators build new successor functions, so huge spaces never get
enumerated just to step through a loop. Equality questions always go
through pair sets.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import FuelExhausted, SpaceMismatch, ValueOutsideSpace
from .spaces import Space, same_space
from .values import sort_values, sorted_unique, value_key


class RelationFlags(NamedTuple):
    """Structural classification of one relation's materialized pairs."""
    acyclic: bool
    irreflexive: bool
    transitive: bool
    asymmetric: bool
    order: bool
    function: bool


class Relation:
    __slots__ = ("source", "target", "name", "_cert", "_adj", "_pairs",
                 "_step", "_heights", "_holds_fn")

    def __init__(self, source: Space, target: Space, succ, *, holds=None,
                 name: str | None = None):
        self.source = source
        self.target = target
        self.name = name
        self._cert = None      # only the catalog sets it, on what it built
        self._adj = None       # _filled() fills this and repoints _step
        self._pairs = None     # pairs() builds this from _adj
        self._step = succ      # the successor lookup every walk reads
        self._heights = None   # noether.height_from's memo, made on first use
        self._holds_fn = holds

    def __repr__(self):
        tag = self.name or "relation"
        return f"Relation<{tag}: {self.source.describe()} -> {self.target.describe()}>"

    @property
    def cert(self):
        """The catalog's termination certificate for this relation, or None."""
        return self._cert

    # -- stepping ---------------------------------------------------------

    def _succ(self, a):
        """Raw successor collection, no membership checks, read as every
        walk reads _step: a filled adjacency's dict.get gives None for a
        value it lacks (a from_pairs sink, or a value outside the source),
        and `or ()` turns that into no successors without a call."""
        return self._step(a) or ()

    def successors(self, a) -> list:
        """Canonically sorted, deduplicated successors of one value."""
        return sorted_unique(self._succ(a))

    def holds(self, a, b) -> bool:
        if self._holds_fn is not None:
            return self._holds_fn(a, b)
        if self._pairs is not None:
            return (a, b) in self._pairs
        return any(b == c for c in self._step(a) or ())

    # -- materialization ----------------------------------------------------

    def _filled(self) -> dict:
        """The adjacency, from one walk of the source space on first use;
        _step then reads its dict.get."""
        if self._adj is None:
            self._adj = {a: list(self._step(a)) for a in self.source.values()}
            self._step = self._adj.get
        return self._adj

    def pairs(self) -> frozenset:
        """The pair set, built from the adjacency on first use. Pairs are
        added in space order, then successor order, so the set iterates as
        one filled by the source walk itself."""
        if self._pairs is None:
            got = set()
            for a, bs in self._filled().items():
                for b in bs:
                    got.add((a, b))
            self._pairs = frozenset(got)
        return self._pairs

    def sorted_pairs(self) -> list:
        return sorted(self.pairs(), key=_pair_key)

    def domain(self) -> frozenset:
        return frozenset(a for a, _ in self.pairs())

    # -- algebra ---------------------------------------------------------

    def inverse(self) -> "Relation":
        """Pair-swapped relation, over this relation's pair set."""
        flipped = ((b, a) for a, b in self.pairs())
        return from_pairs(self.target, self.source, flipped, check=False,
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
        return Relation(self.source, other.target, succ,
                        name=_derived_name("compose", self.name, other.name))

    def restrict(self, keep) -> "Relation":
        """Keep only pairs whose first component is in keep, a collection
        of members of the source space."""
        kept = frozenset(keep)
        for v in kept:
            if not self.source.contains(v):
                raise ValueOutsideSpace(v, self.source)
        def succ(a):
            return self._succ(a) if a in kept else ()
        holds = None
        if self._holds_fn is not None:
            inner = self._holds_fn
            holds = lambda a, b: a in kept and inner(a, b)
        return Relation(self.source, self.target, succ, holds=holds,
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
                        lambda a: after(self, a, n),
                        name=_derived_name(f"power{n}", self.name))

    def plus(self) -> "Relation":
        """Transitive closure: one or more steps."""
        if not same_space(self.source, self.target):
            raise SpaceMismatch("closure needs matching source and target spaces")
        return Relation(self.source, self.target,
                        lambda a: reach(self, self._succ(a)),
                        name=_derived_name("plus", self.name))

    def star(self) -> "Relation":
        """Reflexive-transitive closure: zero or more steps."""
        closed = self.plus()
        def succ(a):
            out = set(closed._succ(a))
            out.add(a)
            return out
        return Relation(self.source, self.target, succ,
                        name=_derived_name("star", self.name))

    def is_subset_of(self, other: "Relation"):
        """(True, None) or (False, witness_pair), the witness being the
        least pair in self's adjacency that other lacks. A relation whose
        pairs enumerate is its own subset."""
        adj = self._filled()
        if other is self:
            return True, None
        witness = least_failing(((a, b) for a, bs in adj.items() for b in bs),
                                other._holds_fn or other.holds)
        return witness is None, witness

    def same_pairs(self, other: "Relation") -> bool:
        return self.pairs() == other.pairs()

    # -- classification -----------------------------------------------------

    def classify(self) -> RelationFlags:
        ps = self.pairs()
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

def reach(r: Relation, roots, fuel: int | None = None, stop=None) -> set:
    """Every value reachable from roots in zero or more steps of r, roots
    included. Level by level; each reached value is expanded once. fuel
    bounds the edges walked, counting those that lead to values already
    reached; past it, FuelExhausted.

    stop, a set or dict, holds values to keep but not expand: a reached
    stop value is in the result, and the edges past it are neither walked
    nor charged. It is taken out of each level's values with one
    set.difference, which reuses the hashes the level's set stores."""
    step = r._step
    seen = set()
    frontier = set(roots)
    explored = 0
    while frontier:
        seen.update(frontier)
        if stop is not None:
            frontier = frontier.difference(stop)
        nxt = set()
        for x in frontier:
            for y in step(x) or ():
                explored += 1
                if fuel is not None and explored > fuel:
                    raise FuelExhausted(fuel)
                if y not in seen:
                    nxt.add(y)
        frontier = nxt
    return seen


def union_known(found: list, new) -> frozenset:
    """The union of the values in new and the memo sets in found, for the
    walks that stop at answered values. One found set and nothing new is
    returned itself, so the memo entries of a chain share one frozenset."""
    if not found:
        return frozenset(new)
    if not new and len(found) == 1:
        return found[0]
    return frozenset().union(new, *found)


def after(r: Relation, a, n: int) -> set:
    """The values exactly n steps of r away from a: a's image under r^n."""
    step = r._step
    frontier = {a}
    for _ in range(n):
        if not frontier:
            break
        nxt = set()
        for x in frontier:
            nxt.update(step(x) or ())
        frontier = nxt
    return frontier


def is_minimal(r: Relation, a) -> bool:
    """a has no successor under r."""
    for _ in r._step(a) or ():
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
    frozen = frozenset(got)
    adj = {}
    for a, b in frozen:
        adj.setdefault(a, []).append(b)
    r = Relation(source, target, adj.get, name=name)
    r._adj = adj
    r._pairs = frozen
    return r


def identity(space: Space) -> Relation:
    return Relation(space, space, lambda a: (a,), name="id")


def pair_values(pairs) -> list:
    """All values mentioned by a pair iterable, canonically sorted."""
    seen = set()
    for a, b in pairs:
        seen.add(a)
        seen.add(b)
    return sort_values(seen)
