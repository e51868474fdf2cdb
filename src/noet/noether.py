"""Termination certification and the limit operator.

A relation is treated as pointing downward: successors of a value are the
one-step-smaller values. Certifying it means proving no infinite descending
chain exists, which over finite reachable sets is exactly the absence of a
reachable cycle. Three algorithms stay apart, so each can audit the others:
the three-color depth-first cycle search behind is_noetherian, the
post-order walk (_settle) that settles heights (height_from) and limits
(limits), and the Kahn peeling in relations.classify.
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
    step = r._step
    color = {}
    explored = 0
    for root in starts:
        if color.get(root, WHITE) != WHITE:
            continue
        path = [root]
        iters = [iter(step(root) or ())]
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
                iters.append(iter(step(child) or ()))
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

def _settle(r: Relation, roots, height: dict | None, lim: dict | None = None,
            fuel: int | None = None, first: list | None = None) -> None:
    """The post-order walk behind height_from and limits, on explicit
    stacks so a long chain cannot reach the recursion limit. It settles
    each value reachable from roots and not yet in height (in lim, when
    given), trying successors last first. A value with no successors is
    height 0 and its own limit; any other's height is one more than its
    successors' greatest, its limit the union of theirs (with heights,
    maxdepth: only those one lower), one such successor lending its set.
    A successor on the path raises NotNoetherian with the loop. fuel
    bounds the edges, charged at each value's first expansion; past it,
    FuelExhausted carries the path to the value that overran it. first,
    when given, is the successor list of roots' one value, which the
    caller read and charged: that value is expanded from it, not stepped
    again."""
    step = r._step
    rev = list.__reversed__   # bound once: reversed() looks it up per call
    settled = height if lim is None else lim
    if first is None:
        explored = 0
        path, lists, iters = [], [], [iter(roots)]
    else:
        explored = len(first)
        path, lists, iters = list(roots), [first], [iter(()), rev(first)]
    on_path = set(path)
    while True:
        for k in iters[-1]:
            if k in settled:
                continue
            if k in on_path:
                idx = path.index(k)
                raise NotNoetherian(render_chain(path[idx:] + [k]))
            # a list from _step is read, not copied: nothing here mutates kids
            kids = step(k) or []
            if type(kids) is not list:
                kids = list(kids)
            if fuel is not None:
                explored += len(kids)
                if explored > fuel:
                    raise FuelExhausted(fuel, partial=render_chain(path + [k]))
            if not kids:
                if height is not None:
                    height[k] = 0
                if lim is not None:
                    lim[k] = frozenset((k,))
                continue
            path.append(k)
            on_path.add(k)
            lists.append(kids)
            iters.append(rev(kids))
            break
        else:
            if not path:
                return
            iters.pop()
            kids = lists.pop()
            node = path.pop()
            on_path.discard(node)
            if height is not None:
                h = height[node] = 1 + max([height[k] for k in kids])
                if lim is None:
                    continue
                kids = [k for k in kids if height[k] == h - 1]
            lim[node] = (lim[kids[0]] if len(kids) == 1
                         else frozenset().union(*[lim[k] for k in kids]))


def height_from(r: Relation, a, fuel: int | None = None) -> int:
    """Longest descending chain length from one value, settled by the
    walk of _settle from a. A reachable cycle raises NotNoetherian with
    the loop the walk meets; a start outside r.source, ValueOutsideSpace.

    Heights are memoized on r and shared by later calls, so fuel bounds
    the edges this call walks: settled values are neither walked nor
    charged. A value is settled only once its whole reach is, and that
    reach is acyclic, so entries stay valid when a call raises and
    skipping them never changes which cycle is reported.

    The start is stepped once and its successors charged here. A start
    whose successors are all settled (limit_relation's starts, when they
    come in an order the relation descends against) is settled in place; a
    self-loop start never is, since it is not in the memo yet. Any other
    is handed to _settle with that successor list.
    """
    memo = r._heights
    if memo is None:
        memo = r._heights = {}
    elif a in memo:
        return memo[a]
    if not r.source.contains(a):
        raise ValueOutsideSpace(a, r.source)
    kids = r._step(a) or []
    if type(kids) is not list:
        kids = list(kids)
    if fuel is not None and len(kids) > fuel:
        raise FuelExhausted(fuel, partial=render_chain([a]))
    h = -1
    for k in kids:
        hk = memo.get(k)
        if hk is None:
            break
        if hk > h:
            h = hk
    else:
        memo[a] = h + 1
        return h + 1
    _settle(r, (a,), memo, fuel=fuel, first=kids)
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
    start already answered on r to the frozenset of its reachable minima
    (empty on a public call; maxdepth ignores it). The reachability walk
    keeps a known value but does not expand it, so no edge past it is
    charged, and the limit is the union of the known sets met and the
    height-0 values found. It is stored under a when a's height is not 0;
    a walk that met one known set and nothing new stores that set itself.
    """
    if mode not in LIMIT_MODES:
        raise ValueError(f"unknown limit mode: {mode!r}")
    h = height_from(r, a, fuel)   # doubles as the reachable-cycle check
    if h == 0:
        return [a]
    if mode == MAXDEPTH:
        return _listed(after(r, a, h))
    # the height walk settled every value below a; height 0 is minimal
    heights = r._heights
    if _known is None:
        _known = {}
    found = []   # known values' limits
    new = []
    for v in reachable_from(r, a, fuel, _stop=_known):
        if heights[v] == 0:   # only starts of height > 0 are stored
            new.append(v)
        elif v in _known:
            found.append(_known[v])
    lim = _known[a] = union_known(found, new)
    return _listed(lim)


def _listed(lim) -> list:
    """A limit's values in value order; one value needs no sort."""
    return list(lim) if len(lim) == 1 else sort_values(lim)


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
    lim._filled()
    return lim


def limits(r: Relation, mode: str = REACHABLE_MINIMA) -> dict:
    """Every value's limit at once: a dict from each value of r's
    enumerable source to the frozenset limit_from would list for it.

    This is the limit fold of ROADMAP item 2: height_from's walk
    (_settle), rooted at every value in value order. A minimal value's
    limit is itself; any other's is the union of its successors' limits,
    under maxdepth only of those one height lower, and one such successor
    lends its set. A cycle raises the NotNoetherian that height_from
    raises first on a fresh copy of r, taking starts in value order.

    limit_relation moves onto this walk once the benchmark's traced gates
    no longer need its limit_from and reachable_from calls (ROADMAP item
    1); reachable_from and limit_relation's private memo then go."""
    if mode not in LIMIT_MODES:
        raise ValueError(f"unknown limit mode: {mode!r}")
    if not same_space(r.source, r.target):
        raise SpaceMismatch("limits need matching source and target")
    lim = {}
    # heights only where maxdepth reads them
    _settle(r, r.source.values(), {} if mode == MAXDEPTH else None, lim)
    return lim


# -- seeds -----------------------------------------------------------------

def is_seed(body: Relation, order: Relation) -> SeedReport:
    """body is a seed of order: body subset of order, equal domains.

    A relation is its own seed, with no walk. The order is probed at each
    body exit; where the body steps, only if its first step leaves the
    space or the order's successors may miss a pair its test accepts: they
    cannot when the test reads them or the order has a sound certificate."""
    if not (same_space(body.source, order.source)
            and same_space(body.target, order.target)):
        raise SpaceMismatch("seed test needs relations over one space")
    if body is order:
        return SeedReport(True)
    ok, witness = body.is_subset_of(order)
    if not ok:
        return SeedReport(False, subset_witness=witness)
    agrees = order._holds_fn is None or (order.cert and order.cert.sound)
    space = body.source
    # walk the space once; is_minimal stops at the first successor, so
    # dense orders never get materialized here
    for a in space.values():
        kid = next(iter(body._step(a) or ()), None)
        if kid is not None and agrees and space.contains(kid):
            continue
        if (kid is None) != is_minimal(order, a):
            side = "order_only" if kid is None else "body_only"
            return SeedReport(False, domain_witness=a, domain_side=side)
    return SeedReport(True)
