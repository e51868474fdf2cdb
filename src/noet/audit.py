"""Property audit for three contested closure/limit claims.

Each claim is a row of CLAIMS: a claim id, a restriction, a deterministic
regression fixture or none, a draw of one random sample and a refuter of
one sample. One loop runs every row. Findings carry serialized
counterexamples that can be re-verified from the document alone, and
identical seeds reproduce the report byte for byte.

Samples are drawn from five spaces, int_range(0, 1..5), built once per
claim. A sample is drawn as one list of pairs per relation; its relations
are built only when the refuter evaluates it, which happens only while
nothing has refuted the claim. A sample equal to one the claim has already
evaluated (same space, same pair set for each relation) is drawn but not
evaluated again: refuters are deterministic, so it cannot refute where its
first occurrence did not. A claim its fixture refutes still draws every
sample, so the claims after it see the same random stream.

The limit claims evaluate a sample with noether.limits, one walk per
relation that yields every value's limit. reverify re-checks a finding
through limit_from at the one value it names, so the evidence does not
rest on the walk that found it.
"""

from __future__ import annotations

import random
from functools import partial
from typing import NamedTuple

from .errors import MalformedExpr, MalformedInput
from .noether import (MAXDEPTH, NOETHERIAN, REACHABLE_MINIMA, is_noetherian,
                      limit_from, limits)
from .relations import from_pairs
from .serialize import (canonical_json, parse_space, parse_value, parse_rel,
                        rel_doc_extensional, space_doc, value_doc)
from .spaces import Space, explicit, int_range
from .values import Node, render, render_chain, sort_values

CLAIM_COMPOSE = "compose_noetherian"
CLAIM_LIMIT_SUBSET = "limit_subset_theorem"
CLAIM_STAR_IDENTITY = "maxdepth_star_identity"
CLAIM_IDS = (CLAIM_COMPOSE, CLAIM_LIMIT_SUBSET, CLAIM_STAR_IDENTITY)

VALIDATED = "validated_on_sample"
REFUTED = "counterexample_found"

DEFAULT_SAMPLES = 1000
DEFAULT_SEED = 0


class AuditFinding(NamedTuple):
    claim_id: str
    status: str
    restriction: str | None
    counterexample: dict | None
    sample_size: int
    random_seed: int

    def doc(self) -> dict:
        return {"claim_id": self.claim_id, "status": self.status,
                "restriction": self.restriction,
                "counterexample": self.counterexample,
                "sample_size": self.sample_size,
                "random_seed": self.random_seed}

    def render(self) -> str:
        head = self.claim_id
        if self.restriction:
            head += f" [{self.restriction}]"
        if self.status == VALIDATED:
            return (f"{head}: {VALIDATED} "
                    f"({self.sample_size} samples, seed {self.random_seed})")
        detail = ""
        ce = self.counterexample or {}
        if "cycle" in ce:
            cyc = [parse_value(d) for d in ce["cycle"]]
            detail = f" -- composite has cycle {render_chain(cyc)}"
        elif "at" in ce:
            detail = f" -- limits differ at {render(parse_value(ce['at']))}"
        return f"{head}: {REFUTED}{detail}"


def report_doc(findings) -> dict:
    return {"findings": [f.doc() for f in findings]}


def report_json(findings) -> str:
    return canonical_json(report_doc(findings))


def render_report(findings) -> str:
    return "\n".join(f.render() for f in findings)


# -- random generation ----------------------------------------------------------

def _sample_spaces() -> tuple:
    """The spaces samples are drawn from, int_range(0, 1..5); each claim
    builds them once and shares them across its samples."""
    return tuple(int_range(0, hi) for hi in range(1, 6))


def _random_space(rng: random.Random, spaces: tuple) -> Space:
    return spaces[rng.randint(1, 5) - 1]


def _random_pairs(rng: random.Random, space: Space) -> list:
    """Pairs of a random acyclic relation: edges point down a shuffled
    arrangement."""
    vals = list(space.values())
    rng.shuffle(vals)
    return [(a, b) for i, a in enumerate(vals) for b in vals[i + 1:]
            if rng.random() < 0.4]


def _draw_one(rng: random.Random, space: Space):
    return (_random_pairs(rng, space),)


def _draw_two(rng: random.Random, space: Space):
    return _random_pairs(rng, space), _random_pairs(rng, space)


def _seed_pairs(rng: random.Random, space: Space):
    """(pairs of r, pairs of s) with r a subset of s over the same domain."""
    s_pairs = _random_pairs(rng, space)
    s = from_pairs(space, space, s_pairs)
    pairs = []
    for a in sort_values(s.domain()):
        succs = s.successors(a)
        kept = [b for b in succs if rng.random() < 0.6]
        if not kept:
            kept = [succs[rng.randrange(len(succs))]]
        pairs.extend((a, b) for b in kept)
    return pairs, s_pairs


# -- the claims ------------------------------------------------------------------

def _refute_compose(space, first_pairs, second_pairs) -> dict | None:
    """Is the composition of two Noetherian relations Noetherian?"""
    first = from_pairs(space, space, first_pairs)
    second = from_pairs(space, space, second_pairs)
    composite = first.compose(second)
    verdict = is_noetherian(composite)
    if verdict.status == NOETHERIAN:
        return None
    return {"space": space_doc(space),
            "first": rel_doc_extensional(first),
            "second": rel_doc_extensional(second),
            "composite": rel_doc_extensional(composite),
            "cycle": [value_doc(v) for v in verdict.witness.elements]}


def _limit_pair_counterexample(space, r, s, mode) -> dict | None:
    lr = limits(r, mode=mode)
    ls = limits(s, mode=mode)
    for a in space.values():
        if lr[a] != ls[a]:
            return {"space": space_doc(space),
                    "r": rel_doc_extensional(r),
                    "s": rel_doc_extensional(s),
                    "mode": mode,
                    "at": value_doc(a),
                    "limit_r": [value_doc(v) for v in sort_values(lr[a])],
                    "limit_s": [value_doc(v) for v in sort_values(ls[a])]}
    return None


def _refute_limit_subset(space, r_pairs, s_pairs) -> dict | None:
    """Does a seed r of s have the limits of s, under minima and then
    maxdepth?"""
    r = from_pairs(space, space, r_pairs)
    s = from_pairs(space, space, s_pairs)
    return (_limit_pair_counterexample(space, r, s, REACHABLE_MINIMA)
            or _limit_pair_counterexample(space, r, s, MAXDEPTH))


def _refute_plus_limits(space, pairs, mode) -> dict | None:
    """Does r keep its limits under mode when it grows to its transitive
    closure? This is the restricted reading of the limit-subset claim (the
    bigger relation is plus(r)), and for maxdepth the closest checkable
    reading of the star identity: the stated identity uses the reflexive
    closure, which is never Noetherian (every element loops on itself),
    so the limit is undefined there."""
    r = from_pairs(space, space, pairs)
    # limits steps the closure once per value; its pair set is built only
    # for a counterexample document
    return _limit_pair_counterexample(space, r, r.plus(), mode)


def _compose_fixture():
    space = explicit([Node("a"), Node("b")])
    return space, [(Node("a"), Node("b"))], [(Node("b"), Node("a"))]


def _limit_fixture():
    space = explicit([Node("a"), Node("b"), Node("e")])
    return (space, [(Node("a"), Node("b"))],
            [(Node("a"), Node("b")), (Node("a"), Node("e"))])


# (claim id, restriction, fixture or None, draw(rng, space), refute(space,
# ...)), in report order. A fixture returns a space and refute's other
# arguments, a draw returns those arguments for a drawn space (one list of
# pairs per relation), and refute builds the sample's relations and returns
# a counterexample or None.
CLAIMS = (
    (CLAIM_COMPOSE, None, _compose_fixture, _draw_two, _refute_compose),
    (CLAIM_LIMIT_SUBSET, None, _limit_fixture, _seed_pairs,
     _refute_limit_subset),
    (CLAIM_LIMIT_SUBSET, "s = plus(r)", None, _draw_one,
     partial(_refute_plus_limits, mode=REACHABLE_MINIMA)),
    (CLAIM_STAR_IDENTITY, "closure without the reflexive step", None,
     _draw_one, partial(_refute_plus_limits, mode=MAXDEPTH)),
)


def _sample_key(positions: dict, args) -> int:
    """A small int naming a sample of one space: with n values, the k-th
    relation's pair of the i-th and j-th value sets bit (k * n + i) * n + j.
    Equal keys mean equal pair sets, relation by relation."""
    n = len(positions)
    key = 0
    for k, pairs in enumerate(args):
        for a, b in pairs:
            key |= 1 << ((k * n + positions[a]) * n + positions[b])
    return key


def _audit_claim(claim, rng, samples, seed) -> AuditFinding:
    """Evaluate the fixture, then draw every sample and evaluate it while
    nothing has refuted the claim, skipping a sample already evaluated. A
    refuted claim keeps drawing, so the claims after it see the same random
    stream."""
    claim_id, restriction, fixture, draw, refute = claim
    counterexample = refute(*fixture()) if fixture else None
    spaces = _sample_spaces()
    # per space: each value's position and the keys of the samples evaluated
    evaluated = {space: ({v: i for i, v in enumerate(space.values())}, set())
                 for space in spaces}
    for _ in range(samples):
        space = _random_space(rng, spaces)
        args = draw(rng, space)
        if counterexample is None:
            positions, seen = evaluated[space]
            key = _sample_key(positions, args)
            if key not in seen:
                seen.add(key)
                counterexample = refute(space, *args)
    status = VALIDATED if counterexample is None else REFUTED
    return AuditFinding(claim_id, status, restriction, counterexample,
                        samples, seed)


def run_audit(seed: int = DEFAULT_SEED,
              samples: int = DEFAULT_SAMPLES) -> list[AuditFinding]:
    if samples < 0:
        raise MalformedInput(
            f"sample count must be non-negative, got {samples}")
    rng = random.Random(seed)
    return [_audit_claim(claim, rng, samples, seed) for claim in CLAIMS]


# -- counterexample re-verification -------------------------------------------------

def reverify(finding: AuditFinding) -> bool:
    """Check a finding's counterexample from its serialized form alone."""
    if finding.status == VALIDATED:
        return True
    ce = finding.counterexample
    if not ce:
        return False
    space = parse_space(ce["space"])
    if finding.claim_id == CLAIM_COMPOSE:
        first = parse_rel(ce["first"], space)
        second = parse_rel(ce["second"], space)
        composite = parse_rel(ce["composite"], space)
        recomposed = first.compose(second)
        if not recomposed.same_pairs(composite):
            return False
        return is_noetherian(composite).status != NOETHERIAN
    if finding.claim_id in (CLAIM_LIMIT_SUBSET, CLAIM_STAR_IDENTITY):
        r = parse_rel(ce["r"], space)
        s = parse_rel(ce["s"], space)
        at = parse_value(ce["at"])
        mode = ce["mode"]
        lr = limit_from(r, at, mode=mode)
        ls = limit_from(s, at, mode=mode)
        want_r = [parse_value(d) for d in ce["limit_r"]]
        want_s = [parse_value(d) for d in ce["limit_s"]]
        return lr == want_r and ls == want_s and lr != ls
    raise MalformedExpr(f"unknown claim id {finding.claim_id!r}")
