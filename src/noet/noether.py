"""Termination certification and the limit operator.

A relation is treated as pointing downward: successors of a value are the
one-step-smaller values. Certifying it means proving no infinite descending
chain exists, which over finite reachable sets is exactly the absence of a
reachable cycle. The cycle search here is a three-color depth-first walk,
kept deliberately separate from the Kahn peeling in relations.classify so
the two can audit each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (FuelExhausted, NotNoetherian, SpaceMismatch,
                     SpaceTooLarge)
from .relations import Relation, after, from_pairs, is_minimal, reach
from .spaces import DEFAULT_MAX_SPACE, same_space
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


@dataclass(frozen=True, slots=True)
class Chain:
    """A descending walk: consecutive elements are relation steps.

    complete means the walk cannot be extended (its last element has no
    successors); a cycle or a chain cut off by fuel is not complete.
    """
    elements: tuple
    complete: bool

    @property
    def steps(self) -> int:
        return len(self.elements) - 1

    def __len__(self) -> int:
        return len(self.elements)

    def render(self) -> str:
        return render_chain(self.elements)


@dataclass(frozen=True, slots=True)
class NoetherianVerdict:
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


@dataclass(frozen=True, slots=True)
class SeedReport:
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
    color = {}
    explored = 0
    for root in starts:
        if color.get(root, WHITE) != WHITE:
            continue
        path = [root]
        iters = [iter(r._succ(root))]
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
                iters.append(iter(r._succ(child)))
    return "clear", None, explored


def is_noetherian(r: Relation, cap: int = DEFAULT_MAX_SPACE,
                  fuel: int | None = None) -> NoetherianVerdict:
    """Certify absence of infinite descent.

    Enumerable source: exhaustive, every value is a root, fuel ignored.
    Unenumerable source: bounded probe from sampled start values, cut off
    by fuel (default DEFAULT_FUEL); a clean probe is still only "unknown".
    """
    if not same_space(r.source, r.target):
        raise SpaceMismatch("termination checks need matching source and target")
    try:
        starts = r.source.values(cap)
        method = METHOD_EXHAUSTIVE
        budget = None
    except SpaceTooLarge:
        starts = r.source.sample_values(16)
        method = METHOD_BOUNDED
        budget = DEFAULT_FUEL if fuel is None else fuel
    outcome, path, explored = _find_cycle(r, starts, budget)
    if outcome == "cycle":
        return NoetherianVerdict(NOT_NOETHERIAN, Chain(tuple(path), False),
                                 method, explored)
    if outcome == "fuel":
        return NoetherianVerdict(UNKNOWN, Chain(tuple(path), False),
                                 method, explored)
    if method == METHOD_BOUNDED:
        # a finite probe that found nothing proves nothing
        return NoetherianVerdict(UNKNOWN, None, method, explored)
    return NoetherianVerdict(NOETHERIAN, None, method, explored)


def assert_noetherian(r: Relation, cap: int = DEFAULT_MAX_SPACE) -> None:
    verdict = is_noetherian(r, cap)
    if verdict.status != NOETHERIAN:
        raise NotNoetherian(verdict.witness.render() if verdict.witness else None)


# -- heights ---------------------------------------------------------------

def height_from(r: Relation, a, fuel: int | None = None) -> int:
    """Longest descending chain length from one value.

    Computed bottom up over the reachable part by an iterative post-order
    with an explicit stack; a gray node seen again is a cycle, reported
    through NotNoetherian with the offending loop.

    Heights are memoized on r and shared by later calls, so fuel bounds
    the edges this call walks: values whose height an earlier call on r
    already settled are neither walked nor charged. A value is settled only
    once its whole reach is, and that reach is acyclic, so entries stay
    valid when a call raises and skipping them never changes which cycle
    is reported.
    """
    if r._heights is None:
        r._heights = {}
    memo = r._heights
    on_path = set()
    path = []
    succ_cache = {}
    explored = 0
    stack = [(a, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            kids = succ_cache[node]
            memo[node] = 1 + max([memo[k] for k in kids]) if kids else 0
            on_path.discard(node)
            path.pop()
            continue
        if node in memo:
            continue
        if node in on_path:
            idx = path.index(node)
            raise NotNoetherian(render_chain(path[idx:] + [node]))
        on_path.add(node)
        path.append(node)
        kids = succ_cache.get(node)
        if kids is None:
            kids = list(r._succ(node))
            succ_cache[node] = kids
            explored += len(kids)
            if fuel is not None and explored > fuel:
                raise FuelExhausted(fuel, partial=render_chain(path))
        stack.append((node, True))
        for k in kids:
            if k not in memo:
                stack.append((k, False))
    return memo[a]


# -- reachability and minima ------------------------------------------------

def reachable_from(r: Relation, a, fuel: int | None = None) -> frozenset:
    """a and every value below it. fuel bounds the edges walked."""
    return frozenset(reach(r, (a,), fuel))


def minima(r: Relation, cap: int = DEFAULT_MAX_SPACE) -> list:
    return [a for a in r.source.values(cap) if is_minimal(r, a)]


# -- the limit operator ------------------------------------------------------

def limit_from(r: Relation, a, mode: str = REACHABLE_MINIMA,
               fuel: int | None = None) -> list:
    """Values the limit relation pairs with a.

    maxdepth: the image of a under r^height(a), the ends of its longest
    chains. reachable_minima: minimal values reachable from a. Minimal
    values map to themselves under both modes. Raises NotNoetherian on a
    reachable cycle.

    fuel bounds each walk separately: the height walk (free where
    height_from already settled a value on r) and, for reachable_minima,
    the reachability walk.
    """
    if mode not in LIMIT_MODES:
        raise ValueError(f"unknown limit mode: {mode!r}")
    h = height_from(r, a, fuel)   # doubles as the reachable-cycle check
    if mode == MAXDEPTH:
        return sort_values(after(r, a, h))
    return sort_values(v for v in reachable_from(r, a, fuel)
                       if is_minimal(r, v))


def limit_relation(r: Relation, mode: str = REACHABLE_MINIMA,
                   cap: int = DEFAULT_MAX_SPACE,
                   fuel: int | None = None) -> Relation:
    """The limit as a relation over r's space.

    fuel applies to each start's limit_from on its own; heights settled
    for one start are reused, and not charged, for the next.
    """
    if not same_space(r.source, r.target):
        raise SpaceMismatch("limits need matching source and target")
    got = []
    for a in r.source.values(cap):
        for m in limit_from(r, a, mode, fuel):
            got.append((a, m))
    return from_pairs(r.source, r.source, got, check=False,
                      name=f"limit[{mode}]")


# -- seeds -----------------------------------------------------------------

def is_seed(body: Relation, order: Relation,
            cap: int = DEFAULT_MAX_SPACE) -> SeedReport:
    """body is a seed of order: body subset of order, equal domains."""
    if not (same_space(body.source, order.source)
            and same_space(body.target, order.target)):
        raise SpaceMismatch("seed test needs relations over one space")
    ok, witness = body.is_subset_of(order, cap)
    if not ok:
        return SeedReport(False, subset_witness=witness)
    # walk the space once; is_minimal stops at the first successor, so
    # dense orders never get materialized here
    for a in body.source.values(cap):
        in_body = not is_minimal(body, a)
        in_order = not is_minimal(order, a)
        if in_body and not in_order:
            return SeedReport(False, domain_witness=a, domain_side="body_only")
        if in_order and not in_body:
            return SeedReport(False, domain_witness=a, domain_side="order_only")
    return SeedReport(True)
