"""Property audit for three contested closure/limit claims.

Each claim gets hammered with random relation samples plus deterministic
regression fixtures. Findings carry serialized counterexamples that can be
re-verified from the document alone, and identical seeds reproduce the
report byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import MalformedExpr
from .noether import MAXDEPTH, NOETHERIAN, REACHABLE_MINIMA, is_noetherian, limit_from
from .relations import Relation, from_pairs
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


@dataclass(frozen=True, slots=True)
class AuditFinding:
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

def _random_noetherian(rng: random.Random, space: Space) -> Relation:
    """Random acyclic relation: edges point down a shuffled arrangement."""
    vals = list(space.values())
    rng.shuffle(vals)
    pairs = []
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if rng.random() < 0.4:
                pairs.append((vals[i], vals[j]))
    return from_pairs(space, space, pairs)


def _random_space(rng: random.Random) -> Space:
    return int_range(0, rng.randint(1, 5))


def _seed_pair(rng: random.Random, space: Space):
    """(r, s) with r a subset of s over the same domain."""
    s = _random_noetherian(rng, space)
    pairs = []
    for a in sort_values(s.domain()):
        succs = s.successors(a)
        kept = [b for b in succs if rng.random() < 0.6]
        if not kept:
            kept = [succs[rng.randrange(len(succs))]]
        pairs.extend((a, b) for b in kept)
    r = from_pairs(space, space, pairs)
    return r, s


# -- the three claims ------------------------------------------------------------

def _compose_fixture():
    space = explicit([Node("a"), Node("b")])
    first = from_pairs(space, space, [(Node("a"), Node("b"))])
    second = from_pairs(space, space, [(Node("b"), Node("a"))])
    return space, first, second


def _compose_counterexample(space, first, second, verdict) -> dict:
    return {"space": space_doc(space),
            "first": rel_doc_extensional(first),
            "second": rel_doc_extensional(second),
            "composite": rel_doc_extensional(first.compose(second)),
            "cycle": [value_doc(v) for v in verdict.witness.elements]}


def _audit_compose(rng, samples, seed) -> AuditFinding:
    space, first, second = _compose_fixture()
    verdict = is_noetherian(first.compose(second))
    counterexample = None
    if verdict.status != NOETHERIAN:
        counterexample = _compose_counterexample(space, first, second, verdict)
    for _ in range(samples):
        sp = _random_space(rng)
        r1 = _random_noetherian(rng, sp)
        r2 = _random_noetherian(rng, sp)
        v = is_noetherian(r1.compose(r2))
        if v.status != NOETHERIAN and counterexample is None:
            counterexample = _compose_counterexample(sp, r1, r2, v)
    if counterexample is None:
        return AuditFinding(CLAIM_COMPOSE, VALIDATED, None, None,
                            samples, seed)
    return AuditFinding(CLAIM_COMPOSE, REFUTED, None, counterexample,
                        samples, seed)


def _limits_everywhere(r: Relation, mode: str):
    return {a: frozenset(limit_from(r, a, mode=mode))
            for a in r.source.values()}


def _limit_pair_counterexample(space, r, s, mode) -> dict | None:
    lr = _limits_everywhere(r, mode)
    ls = _limits_everywhere(s, mode)
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


def _limit_fixture():
    space = explicit([Node("a"), Node("b"), Node("e")])
    r = from_pairs(space, space, [(Node("a"), Node("b"))])
    s = from_pairs(space, space,
                   [(Node("a"), Node("b")), (Node("a"), Node("e"))])
    return space, r, s


def _audit_limit_subset(rng, samples, seed) -> AuditFinding:
    space, r, s = _limit_fixture()
    counterexample = _limit_pair_counterexample(space, r, s, REACHABLE_MINIMA)
    if counterexample is None:
        counterexample = _limit_pair_counterexample(space, r, s, MAXDEPTH)
    for _ in range(samples):
        sp = _random_space(rng)
        rr, ss = _seed_pair(rng, sp)
        for mode in (REACHABLE_MINIMA, MAXDEPTH):
            ce = _limit_pair_counterexample(sp, rr, ss, mode)
            if ce is not None and counterexample is None:
                counterexample = ce
    if counterexample is None:
        return AuditFinding(CLAIM_LIMIT_SUBSET, VALIDATED, None, None,
                            samples, seed)
    return AuditFinding(CLAIM_LIMIT_SUBSET, REFUTED, None, counterexample,
                        samples, seed)


def _audit_plus_limits(rng, samples, seed, claim_id, mode,
                       restriction) -> AuditFinding:
    """Does r keep its limits under mode when it grows to its transitive
    closure? This is the restricted reading of the limit-subset claim (the
    bigger relation is plus(r)), and for maxdepth the closest checkable
    reading of the star identity: the stated identity uses the reflexive
    closure, which is never Noetherian (every element loops on itself),
    so the limit is undefined there."""
    counterexample = None
    for _ in range(samples):
        sp = _random_space(rng)
        r = _random_noetherian(rng, sp)
        s = r.plus()
        ce = _limit_pair_counterexample(sp, r, s, mode)
        if ce is not None:
            counterexample = ce
            break
    status = VALIDATED if counterexample is None else REFUTED
    return AuditFinding(claim_id, status, restriction, counterexample,
                        samples, seed)


def run_audit(seed: int = DEFAULT_SEED,
              samples: int = DEFAULT_SAMPLES) -> list[AuditFinding]:
    rng = random.Random(seed)
    return [
        _audit_compose(rng, samples, seed),
        _audit_limit_subset(rng, samples, seed),
        _audit_plus_limits(rng, samples, seed, CLAIM_LIMIT_SUBSET,
                           REACHABLE_MINIMA, "s = plus(r)"),
        _audit_plus_limits(rng, samples, seed, CLAIM_STAR_IDENTITY, MAXDEPTH,
                           "closure without the reflexive step"),
    ]


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
        lr = sort_values(limit_from(r, at, mode=mode))
        ls = sort_values(limit_from(s, at, mode=mode))
        want_r = [parse_value(d) for d in ce["limit_r"]]
        want_s = [parse_value(d) for d in ce["limit_s"]]
        return lr == want_r and ls == want_s and lr != ls
    raise MalformedExpr(f"unknown claim id {finding.claim_id!r}")
