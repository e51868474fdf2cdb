"""Loops built from a terminating order and a seed body.

A loop definition bundles a state space, an order relation certifying
termination, an initialization relation from an input space, and a body
that must be a seed of the order (contained in it, with the same domain).
The loop stops exactly on the states the body cannot leave, so the exit
condition is computed, never declared. Runs, closure-style denotations,
limit denotations, and an obligation-by-obligation verifier live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracles
from .catalog import certify, measure_descent
from .errors import (BodyNotSubsetOfOrder, DomainMismatch, EmptySpace,
                     FuelExhausted, InitEscapesSpace, InputOutsideSpace,
                     NegativeVariantValue, NonTotalFunction,
                     OrderNotNoetherian, SpaceMismatch)
from .noether import (DEFAULT_FUEL, NOETHERIAN, REACHABLE_MINIMA,
                      is_seed, limit_relation)
from .relations import Relation, from_successors, is_minimal, least_failing
from .spaces import DEFAULT_MAX_SPACE, Space, same_space
from .values import Int, render, render_chain, render_set, value_key


@dataclass(frozen=True, slots=True)
class LoopDef:
    space: Space
    order: Relation
    init: Relation
    body: Relation
    postcondition: str | None = None


@dataclass(frozen=True, slots=True)
class ExecTrace:
    input: object
    states: tuple

    @property
    def terminal(self):
        return self.states[-1]

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def render(self) -> str:
        return render_chain(self.states)


def make_loop(space: Space, order: Relation, init: Relation, body: Relation,
              postcondition: str | None = None, *, check: bool = True,
              cap: int = DEFAULT_MAX_SPACE,
              fuel: int | None = None) -> LoopDef:
    """Assemble and, unless told otherwise, prove the construction
    obligations. check=False keeps only the cheap shape guards, for bulk
    sweeps over spaces too large to enumerate."""
    if not (same_space(order.source, space) and same_space(order.target, space)):
        raise SpaceMismatch("order must relate the loop space to itself")
    if not (same_space(body.source, space) and same_space(body.target, space)):
        raise SpaceMismatch("body must relate the loop space to itself")
    if not same_space(init.target, space):
        raise SpaceMismatch("initialization must land in the loop space")
    if check:
        probe = space.sample_values(1)
        if not probe:
            raise EmptySpace()
        escape = _init_escape(init, space, cap)
        if escape is not None:
            raise InitEscapesSpace(witness=escape)
        report = is_seed(body, order, cap)
        if not report.holds:
            if report.subset_witness is not None:
                raise BodyNotSubsetOfOrder(witness=report.subset_witness)
            raise DomainMismatch(witness=report.domain_witness,
                                 side=report.domain_side)
        verdict = certify(order, cap, fuel)
        if verdict.status != NOETHERIAN:
            raise OrderNotNoetherian(
                witness=verdict.witness.render() if verdict.witness else None)
    return LoopDef(space=space, order=order, init=init, body=body,
                   postcondition=postcondition)


def _init_escape(init: Relation, space: Space, cap: int):
    """The initial state of the least init pair that leaves space, or None."""
    pair = least_failing(init.pairs(cap), lambda a, b: space.contains(b))
    return None if pair is None else pair[1]


def exit_condition(loop: LoopDef, cap: int = DEFAULT_MAX_SPACE) -> list:
    """States the body cannot leave, canonically sorted."""
    return [a for a in loop.space.values(cap) if is_minimal(loop.body, a)]


def served_inputs(loop: LoopDef, cap: int = DEFAULT_MAX_SPACE) -> list:
    """Inputs the initialization maps to some start state, sorted."""
    return [v for v in loop.init.source.values(cap)
            if not is_minimal(loop.init, v)]


# -- running -----------------------------------------------------------------

def _start_states(loop: LoopDef, input_value) -> list:
    if not loop.init.source.contains(input_value):
        raise InputOutsideSpace(input_value)
    starts = loop.init.successors(input_value)
    if not starts:
        raise InputOutsideSpace(input_value)
    return starts


def _step_checked(loop: LoopDef, state, nxt) -> None:
    if not loop.space.contains(nxt):
        raise SpaceMismatch(
            f"body left the loop space at {render(nxt)}")
    if not loop.order.holds(state, nxt):
        raise BodyNotSubsetOfOrder(witness=(state, nxt))


def run(loop: LoopDef, input_value, *, fuel: int = DEFAULT_FUEL,
        mode: str = "single", choose=None, validate: bool = False):
    """Execute from one input.

    single: one trace, resolving choice canonically (or through choose).
    all: one witness trace per distinct terminal, exploring every
    resolution breadth-first. validate re-checks each step against the
    space and the order as it happens.
    """
    if mode == "single":
        return _run_single(loop, input_value, fuel, choose, validate)
    if mode == "all":
        return _run_all(loop, input_value, fuel, validate)
    raise ValueError(f"unknown run mode: {mode!r}")


def _run_single(loop, input_value, fuel, choose, validate) -> ExecTrace:
    state = _start_states(loop, input_value)[0]
    if validate and not loop.space.contains(state):
        raise InitEscapesSpace(witness=state)
    states = [state]
    for _ in range(fuel):
        succs = loop.body.successors(state)
        if not succs:
            return ExecTrace(input=input_value, states=tuple(states))
        nxt = choose(state, succs) if choose is not None else succs[0]
        if validate:
            _step_checked(loop, state, nxt)
        state = nxt
        states.append(state)
    if is_minimal(loop.body, state):
        return ExecTrace(input=input_value, states=tuple(states))
    raise FuelExhausted(fuel, partial=ExecTrace(input=input_value,
                                                states=tuple(states)))


def _run_all(loop, input_value, fuel, validate) -> list[ExecTrace]:
    starts = _start_states(loop, input_value)
    parent = {s: None for s in starts}
    frontier = list(starts)
    terminals = []
    explored = 0
    while frontier:
        nxt_frontier = []
        for state in frontier:
            succs = loop.body.successors(state)
            if not succs:
                terminals.append(state)
                continue
            for nxt in succs:
                explored += 1
                if explored > fuel:
                    raise FuelExhausted(fuel)
                if validate:
                    _step_checked(loop, state, nxt)
                if nxt not in parent:
                    parent[nxt] = state
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    traces = []
    for t in sorted(set(terminals), key=value_key):
        back = [t]
        while parent[back[-1]] is not None:
            back.append(parent[back[-1]])
        traces.append(ExecTrace(input=input_value,
                                states=tuple(reversed(back))))
    return traces


def terminals_of(loop: LoopDef, input_value,
                 fuel: int = DEFAULT_FUEL) -> frozenset:
    """All-resolution terminal states, without trace bookkeeping."""
    starts = _start_states(loop, input_value)
    seen = set(starts)
    frontier = list(starts)
    out = set()
    explored = 0
    while frontier:
        nxt_frontier = []
        for state in frontier:
            any_succ = False
            for nxt in loop.body._succ(state):
                any_succ = True
                explored += 1
                if explored > fuel:
                    raise FuelExhausted(fuel)
                if nxt not in seen:
                    seen.add(nxt)
                    nxt_frontier.append(nxt)
            if not any_succ:
                out.add(state)
        frontier = nxt_frontier
    return frozenset(out)


# -- denotations ----------------------------------------------------------------

def denotation_closure(loop: LoopDef, cap: int = DEFAULT_MAX_SPACE):
    """(full, terminal): inputs related to every reachable state, and the
    same cut down to exit states."""
    full = loop.init.compose(loop.body.star())
    exits = frozenset(exit_condition(loop, cap))
    def succ(inp):
        return [s for s in full._succ(inp) if s in exits]
    def holds(inp, s):
        return s in exits and full.holds(inp, s)
    terminal = from_successors(loop.init.source, loop.space, succ,
                               holds=holds, name="denotation[terminal]")
    return full, terminal


def denotation_limit(loop: LoopDef, cap: int = DEFAULT_MAX_SPACE,
                     fuel: int | None = None) -> Relation:
    """Initialization composed with the body's limit."""
    lim = limit_relation(loop.body, REACHABLE_MINIMA, cap, fuel)
    return loop.init.compose(lim)


# -- verification -----------------------------------------------------------------

OBLIGATIONS = ("space_nonempty", "init_range", "order_noetherian",
               "body_is_seed", "exit_nonempty", "postcondition_at_minima",
               "denotation_agreement")


@dataclass(frozen=True, slots=True)
class ObligationResult:
    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {'pass' if self.passed else 'FAIL'}{tail}"


@dataclass(frozen=True, slots=True)
class VerificationReport:
    results: tuple
    inputs_checked: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [r.render() for r in self.results]
        lines.append(f"inputs checked: {self.inputs_checked}")
        lines.append("verdict: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def verify(loop: LoopDef, inputs=None, *, ctx: dict | None = None,
           cap: int = DEFAULT_MAX_SPACE, fuel: int = DEFAULT_FUEL,
           run_fuel: int | None = None) -> VerificationReport:
    """Prove every obligation on an enumerable instance.

    inputs defaults to the initialized part of the input space. ctx carries
    oracle context (the loop itself is added under "loop")."""
    run_fuel = fuel if run_fuel is None else run_fuel
    results = []
    space_values = loop.space.values(cap)
    results.append(ObligationResult(
        "space_nonempty", bool(space_values), f"{len(space_values)} states"))

    escape = _init_escape(loop.init, loop.space, cap)
    results.append(ObligationResult(
        "init_range", escape is None,
        "" if escape is None else f"initial state {render(escape)} outside the space"))

    verdict = certify(loop.order, cap)
    results.append(ObligationResult(
        "order_noetherian", verdict.status == NOETHERIAN, verdict.render()))

    seed = is_seed(loop.body, loop.order, cap)
    results.append(ObligationResult("body_is_seed", seed.holds,
                                    "" if seed.holds else seed.render()))

    exits = exit_condition(loop, cap)
    results.append(ObligationResult(
        "exit_nonempty", bool(exits), f"{len(exits)} exit states"))

    inputs = served_inputs(loop, cap) if inputs is None else list(inputs)

    oracle_ok = True
    oracle_detail = "no oracle named" if loop.postcondition is None else ""
    full_ctx = dict(ctx or {})
    full_ctx["loop"] = loop

    agree_ok = True
    agree_detail = ""
    _, terminal_rel = denotation_closure(loop, cap)
    limit_rel = denotation_limit(loop, cap)

    for inp in inputs:
        ts = terminals_of(loop, inp, fuel=run_fuel)
        if loop.postcondition is not None and oracle_ok:
            for t in sorted(ts, key=value_key):
                if not oracles.check(loop.postcondition, full_ctx, inp, t):
                    oracle_ok = False
                    oracle_detail = (f"oracle rejects terminal {render(t)} "
                                     f"for input {render(inp)}")
                    break
        if agree_ok:
            via_closure = frozenset(terminal_rel._succ(inp))
            via_limit = frozenset(limit_rel._succ(inp))
            if not (ts == via_closure == via_limit):
                agree_ok = False
                agree_detail = (f"input {render(inp)}: runs {render_set(ts)}, "
                                f"closure {render_set(via_closure)}, "
                                f"limit {render_set(via_limit)}")

    results.append(ObligationResult("postcondition_at_minima", oracle_ok,
                                    oracle_detail))
    results.append(ObligationResult("denotation_agreement", agree_ok,
                                    agree_detail))
    return VerificationReport(results=tuple(results),
                              inputs_checked=len(inputs))


# -- classical variants ------------------------------------------------------------

def variant_to_relation(f, space: Space, *, fn_name: str | None = None,
                        cap: int = DEFAULT_MAX_SPACE) -> Relation:
    """Turn a natural-valued measure into the strict descent relation it
    induces on a space. Total and non-negative, or it is no variant."""
    raw = f.get if isinstance(f, dict) else f
    measure = {}
    for v in space.values(cap):
        got = raw(v)
        if isinstance(got, Int):
            got = got.value
        if got is None:
            raise NonTotalFunction(witness=v)
        if got < 0:
            raise NegativeVariantValue(witness=v, value=got)
        measure[v] = got
    name = f"variant[{fn_name}]" if fn_name else "variant"
    return measure_descent(space, measure.__getitem__, name=name, cap=cap)
