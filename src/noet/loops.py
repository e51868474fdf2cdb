"""Loops built from a terminating order and a seed body.

A loop definition bundles a state space, an order relation certifying
termination, an initialization relation from an input space, and a body
that must be a seed of the order (contained in it, with the same domain).
One generator states the construction obligations: make_loop raises the
first that fails, verify reports each. The loop stops exactly on the
states the body cannot leave, so the exit condition is computed, never
declared. Runs, the closure denotation (init ; body* cut to the exits,
walked backwards over the body's flipped adjacency), the limit denotation
and the verifier live here too.
"""

from __future__ import annotations

from typing import NamedTuple

from . import oracles
from .catalog import certify, measure_descent
from .errors import (BodyNotSubsetOfOrder, DomainMismatch, EmptySpace,
                     FuelExhausted, InitEscapesSpace, InputOutsideSpace,
                     NegativeVariantValue, NonTotalFunction,
                     NotNoetherian, OrderNotNoetherian, SpaceMismatch)
from .noether import (DEFAULT_FUEL, NOETHERIAN, REACHABLE_MINIMA,
                      height_from, is_seed, limit_relation, minima)
from .relations import (Relation, is_minimal, least_failing, reach,
                        union_known)
from .spaces import Space, same_space
from .values import Int, render, render_chain, render_set, value_key


class LoopDef(NamedTuple):
    space: Space
    order: Relation
    init: Relation
    body: Relation
    postcondition: str | None = None


class ExecTrace(NamedTuple):
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
    loop = LoopDef(space=space, order=order, init=init, body=body,
                   postcondition=postcondition)
    if check:
        for _, passed, _, error in _construction(loop, fuel):
            if not passed:
                raise error
    return loop


def _construction(loop: LoopDef, fuel: int | None = None):
    """The construction obligations in OBLIGATIONS order, as (name, passed,
    detail, error): error, the verdict make_loop raises, is built only on a
    failure. Lazy, so a caller that stops at a failure runs no later check."""
    n = len(loop.space.values())
    yield "space_nonempty", n > 0, f"{n} states", None if n else EmptySpace()

    pair = least_failing(loop.init.pairs(), lambda a, b: loop.space.contains(b))
    yield ("init_range", pair is None, "" if pair is None else
           f"initial state {render(pair[1])} outside the space",
           None if pair is None else InitEscapesSpace(witness=pair[1]))

    verdict = certify(loop.order, fuel)
    ok = verdict.status == NOETHERIAN
    witness = verdict.witness.render() if verdict.witness else None
    yield ("order_noetherian", ok, verdict.render(),
           None if ok else OrderNotNoetherian(witness=witness))

    seed = is_seed(loop.body, loop.order)
    if seed.holds:
        yield "body_is_seed", True, "", None
    elif seed.subset_witness is not None:
        yield ("body_is_seed", False, seed.render(),
               BodyNotSubsetOfOrder(witness=seed.subset_witness))
    else:
        yield ("body_is_seed", False, seed.render(), DomainMismatch(
            witness=seed.domain_witness, side=seed.domain_side))


def exit_condition(loop: LoopDef) -> list:
    """States the body cannot leave, canonically sorted."""
    return minima(loop.body)


def served_inputs(loop: LoopDef) -> list:
    """Inputs the initialization maps to some start state, sorted."""
    return [v for v in loop.init.source.values()
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
        raise SpaceMismatch(f"body left the loop space at {render(nxt)}")
    if not loop.order.holds(state, nxt):
        raise BodyNotSubsetOfOrder(witness=(state, nxt))


def run(loop: LoopDef, input_value, *, fuel: int = DEFAULT_FUEL,
        mode: str = "single", choose=None, validate: bool = False):
    """Execute from one input.

    single: one trace, resolving choice canonically (or through choose).
    all: one witness trace per distinct terminal, exploring every
    resolution breadth-first. validate re-checks each step against the
    space and the order as it happens, and in all mode first refuses a
    body cycle reachable from a start.
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
        if choose is None:
            nxt = min(loop.body._succ(state), key=value_key, default=None)
        else:
            succs = loop.body.successors(state)
            nxt = choose(state, succs) if succs else None
        if nxt is None:
            return ExecTrace(input=input_value, states=tuple(states))
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
    if validate:   # a reachable body cycle is a verdict, not an empty run
        for s in starts:
            height_from(loop.body, s, fuel)
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


def terminals_of(loop: LoopDef, input_value, fuel: int = DEFAULT_FUEL, *,
                 _known: dict | None = None) -> frozenset:
    """All-resolution terminal states, without trace bookkeeping. fuel
    bounds the edges this call walks.

    _known is verify's memo across its inputs: a dict from a state to the
    terminal set already found from it, shared only between calls on the
    same loop, since nothing ties an entry to the body it came from. The
    walk takes a known state's set instead of expanding it, so no edge past
    it is charged, and a walk from a single start stores its result under
    that start. A walk that met one known state and no sink returns that
    state's set itself. A call that runs out of fuel leaves the memo as it
    was."""
    starts = _start_states(loop, input_value)
    memo = {} if _known is None else _known
    step = loop.body._step
    seen = set(starts)
    found = []   # known states' sets
    frontier = []
    for s in starts:
        if s in memo:
            found.append(memo[s])
        else:
            frontier.append(s)
    out = set()
    explored = 0
    while frontier:
        nxt_frontier = []
        for state in frontier:
            any_succ = False
            for nxt in step(state) or ():
                any_succ = True
                explored += 1
                if explored > fuel:
                    raise FuelExhausted(fuel)
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt in memo:
                        found.append(memo[nxt])
                    else:
                        nxt_frontier.append(nxt)
            if not any_succ:
                out.add(state)
        frontier = nxt_frontier
    result = union_known(found, out)
    if _known is not None and len(starts) == 1:
        _known[starts[0]] = result
    return result


# -- denotations ----------------------------------------------------------------

def denotation_closure(loop: LoopDef, *, exits=None):
    """(full, terminal): init ; body*, inputs related to every reachable
    state, and the same cut down to exit states.

    terminal does not go through full. It walks backwards from the exits:
    one reach per exit over the body's adjacency flipped (a private dict
    from each state to the states that step to it, made from the body's
    filled adjacency, with no pair set built) records, for each state, the
    exits it reaches, and an input's terminals are the union of those
    records over its start states. The flipped adjacency holds the body's
    pairs, so these are the exits of init ; body*, found without the
    forward walk that the runs and the limit make. The cost is the body's
    pairs plus each exit's ancestors, whatever the number of inputs.
    exits, when given, is exit_condition(loop), which is otherwise
    computed here."""
    if exits is None:
        exits = exit_condition(loop)
    full = loop.init.compose(loop.body.star())
    sources = {}
    for a, bs in loop.body._filled().items():
        for b in bs:
            sources.setdefault(b, []).append(a)
    back = Relation(loop.space, loop.space, sources.get)
    exits_from = {}
    for e in exits:
        for s in reach(back, (e,)):
            exits_from.setdefault(s, []).append(e)
    def succ(inp):
        return {e for s in loop.init._succ(inp) for e in exits_from.get(s, ())}
    terminal = Relation(loop.init.source, loop.space, succ,
                        name="denotation[terminal]")
    return full, terminal


def denotation_limit(loop: LoopDef) -> Relation:
    """Initialization composed with the body's limit."""
    lim = limit_relation(loop.body, REACHABLE_MINIMA)
    return loop.init.compose(lim)


# -- verification -----------------------------------------------------------------

OBLIGATIONS = ("space_nonempty", "init_range", "order_noetherian",
               "body_is_seed", "exit_nonempty", "postcondition_at_minima",
               "denotation_agreement")


class ObligationResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {'pass' if self.passed else 'FAIL'}{tail}"


class VerificationReport(NamedTuple):
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
           fuel: int = DEFAULT_FUEL) -> VerificationReport:
    """Prove every obligation on an enumerable instance and report each, the
    construction ones from the checks make_loop raises on. A body cycle
    leaves no limit, so denotation_agreement fails "not evaluated:" with the
    cycle. inputs defaults to the initialized part of the input space. ctx
    carries oracle context (the loop itself is added under "loop").

    The runs share one terminals_of memo across the inputs, so fuel bounds
    only the edges each input walks past the states earlier inputs
    answered. They still walk forward on their own, apart from the closure
    and the limit they are compared with."""
    results = [ObligationResult(name, passed, detail)
               for name, passed, detail, _ in _construction(loop)]
    exits = exit_condition(loop)
    results.append(ObligationResult(
        "exit_nonempty", bool(exits), f"{len(exits)} exit states"))

    inputs = served_inputs(loop) if inputs is None else list(inputs)
    oracle_ok = True
    oracle_detail = "no oracle named" if loop.postcondition is None else ""
    full_ctx = {**(ctx or {}), "loop": loop}

    agree_ok, agree_detail = True, ""
    _, terminal_rel = denotation_closure(loop, exits=exits)
    try:
        limit_rel = denotation_limit(loop)
    except NotNoetherian as err:   # a cyclic body has no limit to compare
        agree_ok, agree_detail = False, f"not evaluated: {err}"

    known = {}
    for inp in inputs:
        ts = terminals_of(loop, inp, fuel=fuel, _known=known)
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
    return VerificationReport(tuple(results), len(inputs))


# -- classical variants ------------------------------------------------------------

def variant_to_relation(f, space: Space, *,
                        fn_name: str | None = None) -> Relation:
    """Turn a natural-valued measure into the strict descent relation it
    induces on a space. Total and non-negative, or it is no variant."""
    raw = f.get if isinstance(f, dict) else f
    measure = {}
    for v in space.values():
        got = raw(v)
        if isinstance(got, Int):
            got = got.value
        if got is None:
            raise NonTotalFunction(witness=v)
        if got < 0:
            raise NegativeVariantValue(witness=v, value=got)
        measure[v] = got
    name = f"variant[{fn_name}]" if fn_name else "variant"
    return measure_descent(space, measure.__getitem__, name=name)
