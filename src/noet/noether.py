"""Termination certification and the limit operator.

A relation is treated as pointing downward: successors of a value are the
one-step-smaller values. Certifying it means proving no infinite descending
chain exists, which over finite reachable sets is exactly the absence of a
reachable cycle. The cycle search here is a three-color depth-first walk,
kept deliberately separate from the Kahn peeling in relations.classify so
the two can audit each other.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (FuelExhausted, NotNoetherian, SpaceMismatch,
                     SpaceTooLarge, ValueOutsideSpace)
from .relations import Relation, after, is_minimal, reach, union_known
from .spaces import same_space
# value_key is unused here but stays bound: perfbench's tracer test expects
# this module to hold the name it wraps
from .values import render_chain, sort_values, value_key  # noqa: F401

DEFAULT_FUEL = 10_000

NOETHERIAN = "noetherian"
NOT_NOETHERIAN = "not_noetherian"
UNKNOWN = "unknown_fuel_exhausted"

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_CERTIFICATE = "certificate"
METHOD_BOUNDED = "bounded"

MAXDEPTH = "maxdepth"
REACHABLE_MINIMA = "reachable_minima"
LIMIT_MODES = (MAXDEPTH, REACHABLE_MINIMA)


class Chain(NamedTuple):
    """A descending walk: consecutive elements are relation steps."""
    elements: tuple

    @property
    def steps(self) -> int:
        return len(self.elements) - 1

    def render(self) -> str:
        return render_chain(self.elements)


class NoetherianVerdict(NamedTuple):
    """Outcome of a termination check.

    status: noetherian | not_noetherian | unknown_fuel_exhausted
    witness: a cycle chain when refuted, an over-fuel chain when unknown
    method: exhaustive | certificate | bounded
    explored: how many relation edges the check walked
    """
    status: str
    witness: Chain | None
    method: str
    explored: int = 0

    @property
    def holds(self):
        if self.status == NOETHERIAN:
            return True
        if self.status == NOT_NOETHERIAN:
            return False
        return None

    def render(self) -> str:
        if self.status == NOETHERIAN:
            return f"Noetherian ({self.method})"
        if self.status == NOT_NOETHERIAN:
            body = f"not Noetherian ({self.method})"
            if self.witness is not None:
                body = f"not Noetherian, cycle: {self.witness.render()}"
            return body
        if self.witness is not None:
            return (f"unknown: fuel exhausted after {self.explored} edges; "
                    f"descending chain of {self.witness.steps} steps found")
        return (f"unknown: bounded probe walked {self.explored} edges "
                f"without a verdict")


class SeedReport(NamedTuple):
    """Outcome of the seed test: containment plus equal domains."""
    holds: bool
    subset_witness: tuple | None = None
    domain_witness: object = None
    domain_side: str | None = None   # "body_only" | "order_only"

    def render(self) -> str:
        if self.holds:
            return "seed: yes"
        if self.subset_witness is not None:
            a, b = self.subset_witness
            return f"seed: no, pair {render_chain((a, b))} falls outside the larger relation"
        side = ("smaller relation only" if self.domain_side == "body_only"
                else "larger relation only")
        return f"seed: no, domain mismatch at {render_chain((self.domain_witness,))} ({side})"


# -- cycle search ----------------------------------------------------------

def _find_cycle(r: Relation, starts, fuel: int | None):
    """Three-color DFS over the reachable part.

    Returns ("clear", None, explored), ("cycle", chain_elements, explored),
    or ("fuel", path_elements, explored).
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    adj = r._adj
    color = {}
    explored = 0
    for root in starts:
        if color.get(root, WHITE) != WHITE:
            continue
        path = [root]
        iters = [iter(adj.get(root, ()) if adj is not None
                      else r._succ(root))]
        color[root] = GRAY
        while iters:
            child = next(iters[-1], None)
            if child is None:
                color[path[-1]] = BLACK
                path.pop()
                iters.pop()
                continue
            explored += 1
            if fuel is not None and explored > fuel:
                return "fuel", list(path) + [child], explored
            mark = color.get(child, WHITE)
            if mark == GRAY:
                idx = path.index(child)
                return "cycle", path[idx:] + [child], explored
            if mark == WHITE:
                color[child] = GRAY
                path.append(child)
                iters.append(iter(adj.get(child, ()) if adj is not None
                                  else r._succ(child)))
    return "clear", None, explored


def is_noetherian(r: Relation, fuel: int | None = None) -> NoetherianVerdict:
    """Certify absence of infinite descent.

    Enumerable source: exhaustive, every value is a root, fuel ignored.
    Unenumerable source: bounded probe from sampled start values, cut off
    by fuel (default DEFAULT_FUEL); a clean probe is still only "unknown".
    """
    if not same_space(r.source, r.target):
        raise SpaceMismatch("termination checks need matching source and target")
    try:
        starts = r.source.values()
        method = METHOD_EXHAUSTIVE
        budget = None
    except SpaceTooLarge:
        starts = r.source.sample_values(16)
        method = METHOD_BOUNDED
        budget = DEFAULT_FUEL if fuel is None else fuel
    outcome, path, explored = _find_cycle(r, starts, budget)
    if outcome == "cycle":
        return NoetherianVerdict(NOT_NOETHERIAN, Chain(tuple(path)),
                                 method, explored)
    if outcome == "fuel":
        return NoetherianVerdict(UNKNOWN, Chain(tuple(path)),
                                 method, explored)
    if method == METHOD_BOUNDED:
        # a finite probe that found nothing proves nothing
        return NoetherianVerdict(UNKNOWN, None, method, explored)
    return NoetherianVerdict(NOETHERIAN, None, method, explored)


# -- heights ---------------------------------------------------------------

def height_from(r: Relation, a, fuel: int | None = None) -> int:
    """Longest descending chain length from one value.

    Computed bottom up over the reachable part by a depth-first walk on
    one iterator stack: each value on the path keeps its successor list
    and an iterator over it, last successor first, and the value's height
    is settled when that iterator runs out. A successor already on the
    path is a cycle, reported through NotNoetherian with the offending
    loop. A start outside r.source raises ValueOutsideSpace.

    Heights are memoized on r and shared by later calls, so fuel bounds
    the edges this call walks: a value is charged its successor count when
    first expanded, and values whose height an earlier call on r already
    settled are neither walked nor charged. A value is settled only once
    its whole reach is, and that reach is acyclic, so entries stay valid
    when a call raises and skipping them never changes which cycle is
    reported.
    """
    memo = r._heights
    if memo is None:
        memo = r._heights = {}
    elif a in memo:
        return memo[a]
    if not r.source.contains(a):
        raise ValueOutsideSpace(a, r.source)
    # an adjacency list is read, not copied: nothing here mutates kids
    adj = r._adj
    path = [a]
    on_path = {a}
    kids = adj.get(a, ()) if adj is not None else list(r._succ(a))
    explored = len(kids)
    if fuel is not None and explored > fuel:
        raise FuelExhausted(fuel, partial=render_chain(path))
    lists = [kids]
    iters = [reversed(kids)]
    while iters:
        for k in iters[-1]:
            if k in memo:
                continue
            if k in on_path:
                idx = path.index(k)
                raise NotNoetherian(render_chain(path[idx:] + [k]))
            path.append(k)
            on_path.add(k)
            kids = adj.get(k, ()) if adj is not None else list(r._succ(k))
            explored += len(kids)
            if fuel is not None and explored > fuel:
                raise FuelExhausted(fuel, partial=render_chain(path))
            lists.append(kids)
            iters.append(reversed(kids))
            break
        else:
            iters.pop()
            kids = lists.pop()
            node = path.pop()
            on_path.discard(node)
            memo[node] = 1 + max([memo[k] for k in kids]) if kids else 0
    return memo[a]


# -- reachability and minima ------------------------------------------------

def reachable_from(r: Relation, a, fuel: int | None = None, *,
                   _stop=None) -> frozenset:
    """a and every value below it. fuel bounds the edges walked. A start
    outside r.source raises ValueOutsideSpace.

    _stop is limit_from's memo: its values are kept but not expanded (see
    relations.reach), so the edges past them are not charged."""
    if not r.source.contains(a):
        raise ValueOutsideSpace(a, r.source)
    return frozenset(reach(r, (a,), fuel, _stop))


def minima(r: Relation) -> list:
    return [a for a in r.source.values() if is_minimal(r, a)]


# -- the limit operator ------------------------------------------------------

def limit_from(r: Relation, a, mode: str = REACHABLE_MINIMA,
               fuel: int | None = None, *, _known: dict | None = None) -> list:
    """Values the limit relation pairs with a.

    maxdepth: the image of a under r^height(a), the ends of its longest
    chains. reachable_minima: minimal values reachable from a. Minimal
    values map to themselves under both modes, so a start of height 0
    walks nothing after its height check. Raises NotNoetherian on a
    reachable cycle.

    fuel bounds each walk separately: the height walk (free where
    height_from already settled a value on r) and, for reachable_minima,
    the reachability walk.

    _known is limit_relation's memo for reachable_minima, a dict from a
    start already answered on r to the frozenset of its reachable minima;
    maxdepth ignores it. The reachability walk keeps a known value but
    does not expand it, so no edge past it is charged, and the limit is
    the union of the known sets met and the height-0 values found. It is
    stored under a when a's height is not 0; a walk that met one known set
    and nothing new stores that set itself.
    """
    if mode not in LIMIT_MODES:
        raise ValueError(f"unknown limit mode: {mode!r}")
    h = height_from(r, a, fuel)   # doubles as the reachable-cycle check
    if h == 0:
        return [a]
    if mode == MAXDEPTH:
        return sort_values(after(r, a, h))
    # the height walk settled every value below a; height 0 is minimal
    heights = r._heights
    if _known is None:
        return sort_values(v for v in reachable_from(r, a, fuel)
                           if heights[v] == 0)
    found = []   # known values' limits
    new = []
    for v in reachable_from(r, a, fuel, _stop=_known):
        if heights[v] == 0:   # only starts of height > 0 are stored
            new.append(v)
        elif v in _known:
            found.append(_known[v])
    lim = _known[a] = union_known(found, new)
    return sort_values(lim)


def limit_relation(r: Relation, mode: str = REACHABLE_MINIMA) -> Relation:
    """The limit as a relation over r's space, materialized here: each
    start steps to its limit_from values, with heights settled for one
    start reused for the next. Under reachable_minima the starts also
    share one memo of the limits already answered, private to this call,
    so a walk stops at the first value an earlier start answered."""
    if not same_space(r.source, r.target):
        raise SpaceMismatch("limits need matching source and target")
    known = {}
    lim = Relation(r.source, r.source,
                   lambda a: limit_from(r, a, mode, _known=known),
                   name=f"limit[{mode}]")
    lim.pairs()
    return lim


def limits(r: Relation, mode: str = REACHABLE_MINIMA) -> dict:
    """Every value's limit at once: a dict from each value of r's
    enumerable source to the frozenset limit_from would list for it.

    This is the limit fold of ROADMAP item 2, one post-order walk over
    the whole space on an explicit stack, so a long chain cannot reach
    the recursion limit. A minimal value's limit is itself. Any other
    value's limit is the union of its successors' limits, under maxdepth
    only those of the successors one height lower; a value with one such
    successor shares that successor's set. A cycle raises NotNoetherian
    with the cycle the walk meets.

    limit_relation moves onto this walk once the benchmark's traced gates
    no longer need its limit_from and reachable_from calls (ROADMAP item
    1); reachable_from and limit_relation's private memo then go."""
    if mode not in LIMIT_MODES:
        raise ValueError(f"unknown limit mode: {mode!r}")
    if not same_space(r.source, r.target):
        raise SpaceMismatch("limits need matching source and target")
    adj = r._adj
    maxdepth = mode == MAXDEPTH
    lim = {}
    height = {}
    # the source's values are the children of a root that is never settled;
    # a value without successors is settled without a frame of its own
    path = []
    on_path = set()
    lists = []
    iters = [iter(r.source.values())]
    while True:
        for k in iters[-1]:
            if k in lim:
                continue
            if k in on_path:
                idx = path.index(k)
                raise NotNoetherian(render_chain(path[idx:] + [k]))
            kids = adj.get(k, ()) if adj is not None else list(r._succ(k))
            if not kids:
                height[k] = 0
                lim[k] = frozenset((k,))
                continue
            path.append(k)
            on_path.add(k)
            lists.append(kids)
            iters.append(iter(kids))
            break
        else:
            if not path:
                return lim
            iters.pop()
            kids = lists.pop()
            node = path.pop()
            on_path.discard(node)
            if maxdepth:
                h = height[node] = 1 + max([height[k] for k in kids])
                kids = [k for k in kids if height[k] == h - 1]
            lim[node] = (lim[kids[0]] if len(kids) == 1
                         else frozenset().union(*[lim[k] for k in kids]))


# -- seeds -----------------------------------------------------------------

def is_seed(body: Relation, order: Relation) -> SeedReport:
    """body is a seed of order: body subset of order, equal domains."""
    if not (same_space(body.source, order.source)
            and same_space(body.target, order.target)):
        raise SpaceMismatch("seed test needs relations over one space")
    ok, witness = body.is_subset_of(order)
    if not ok:
        return SeedReport(False, subset_witness=witness)
    # walk the space once; is_minimal stops at the first successor, so
    # dense orders never get materialized here
    for a in body.source.values():
        in_body = not is_minimal(body, a)
        in_order = not is_minimal(order, a)
        if in_body and not in_order:
            return SeedReport(False, domain_witness=a, domain_side="body_only")
        if in_order and not in_body:
            return SeedReport(False, domain_witness=a, domain_side="order_only")
    return SeedReport(True)
