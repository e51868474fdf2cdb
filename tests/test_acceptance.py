"""Acceptance sweep: nine numbered criteria, one printed verdict line each.

Run with -rA to see every verdict line in the summary. Each criterion test
prints exactly one line of the form

    criterion N (slug): PASS [counts, elapsed]

before asserting, so a red run still reports the line honestly. Next to
criterion 1, an unnumbered test exhausts the audit's claims over every
DAG on 2-4 states.
"""

import itertools
import json
import math
import pathlib
import random
import time

import pytest

from noet import audit
from noet.audit import render_report, report_json, reverify, run_audit
from noet.catalog import (CLAIMED_RULES, RULES, closure_of, induced,
                          inverse_of, named, powerset_space, projection,
                          resolve_function, restrict_to, subrel)
from noet.cli import main
from noet.examples import instantiate
from noet.loops import denotation_closure, denotation_limit, run, terminals_of
from noet.loops import variant_to_relation
from noet.noether import (MAXDEPTH, NOETHERIAN, REACHABLE_MINIMA,
                          is_noetherian, is_seed, minima)
from noet.relations import from_pairs
from noet.serialize import canonical_json, normalize_file, parse_loop_file
from noet.spaces import explicit, int_range, interval_sets_of, intervals_of, product
from noet.values import Int, Node

CORPUS = pathlib.Path(__file__).parent / "corpus"


def verdict_line(num, slug, ok, detail):
    line = f"criterion {num} ({slug}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    return line


# -- independent oracles -------------------------------------------------------

def naive_acyclic(pairs) -> bool:
    """Cycle test by plain reachability, sharing no code with the library."""
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
    for start in list(adj):
        seen = set()
        frontier = set(adj[start])
        while frontier:
            if start in frontier:
                return False
            seen |= frontier
            nxt = set()
            for v in frontier:
                nxt |= adj.get(v, set())
            frontier = nxt - seen
    return True


def random_noetherian(rng, n):
    """Random acyclic relation: edges only descend a shuffled rank."""
    vals = [Int(i) for i in range(n)]
    ranked = vals[:]
    rng.shuffle(ranked)
    rank = {v: i for i, v in enumerate(ranked)}
    pairs = [(a, b) for a in vals for b in vals
             if rank[a] > rank[b] and rng.random() < 0.4]
    sp = explicit(vals)
    return from_pairs(sp, sp, pairs), pairs


# -- criterion 1 ---------------------------------------------------------------

def test_criterion_1_finite_equivalence():
    t0 = time.monotonic()
    bad = 0
    checked = 0

    vals3 = [Int(i) for i in range(3)]
    sp3 = explicit(vals3)
    cells = [(a, b) for a in vals3 for b in vals3]
    for mask in range(512):
        pairs = [cells[i] for i in range(9) if mask >> i & 1]
        r = from_pairs(sp3, sp3, pairs)
        if (is_noetherian(r).status == NOETHERIAN) != naive_acyclic(pairs):
            bad += 1
        checked += 1

    rng = random.Random(101)
    for _ in range(5000):
        n = rng.randint(1, 6)
        vals = [Int(i) for i in range(n)]
        sp = explicit(vals)
        density = rng.random()
        pairs = [(a, b) for a in vals for b in vals
                 if rng.random() < density]
        r = from_pairs(sp, sp, pairs)
        if (is_noetherian(r).status == NOETHERIAN) != naive_acyclic(pairs):
            bad += 1
        checked += 1

    dt = time.monotonic() - t0
    ok = bad == 0 and dt < 30.0
    line = verdict_line(1, "finite equivalence", ok,
                        f"{checked} relations, {bad} discrepancies, {dt:.1f}s")
    assert ok, line


# -- small-scope exhaustion of the audit's claims ---------------------------------

def small_dags(n):
    """(space, pairs) for every labelled DAG on n states, in the order of
    the bitmask over the off-diagonal cells taken row by row."""
    space = int_range(0, n - 1)
    vals = [Int(i) for i in range(n)]
    cells = [(a, b) for a in vals for b in vals if a != b]
    for mask in range(1 << len(cells)):
        pairs = [c for i, c in enumerate(cells) if mask >> i & 1]
        if naive_acyclic(pairs):
            yield space, pairs


def sub_pairs(pairs):
    """Every subset of pairs, in bitmask order."""
    for mask in range(1 << len(pairs)):
        yield [p for i, p in enumerate(pairs) if mask >> i & 1]


def test_small_scope_exhaustion():
    # the audit's refuters and criterion 2's consequences over every DAG on
    # 2-4 states, the scope of the audit's three smallest sample spaces
    t0 = time.monotonic()
    dags = {n: list(small_dags(n)) for n in (2, 3, 4)}
    assert [len(dags[n]) for n in (2, 3, 4)] == [3, 25, 543]
    for n, found in dags.items():
        for space, pairs in found:
            for mode in (REACHABLE_MINIMA, MAXDEPTH):
                assert audit._refute_plus_limits(space, pairs, mode) is None
            r = from_pairs(space, space, pairs)
            for derived in (r.plus(), r.power(2), r.power(3)):
                flags = derived.classify()
                assert flags.irreflexive and flags.asymmetric, (n, pairs)
                assert is_noetherian(derived).status == NOETHERIAN

    seeds = {n: 0 for n in dags}
    least = None
    for n, found in dags.items():
        for space, s_pairs in found:
            s = from_pairs(space, space, s_pairs)
            domain = {a for a, _ in s_pairs}
            for r_pairs in sub_pairs(s_pairs):
                if {a for a, _ in r_pairs} != domain:
                    continue
                seeds[n] += 1
                ce = audit._refute_limit_subset(space, r_pairs, s)
                if least is None and ce is not None:
                    least = ce
    assert list(seeds.values()) == [3, 43, 2823]
    assert least is not None
    zero, one, two = ({"int": i} for i in range(3))
    assert least["r"]["pairs"] == [[zero, one]]
    assert least["s"]["pairs"] == [[zero, one], [zero, two]]
    assert least["at"] == zero and least["mode"] == REACHABLE_MINIMA

    space, _ = dags[2][0]
    composed = [audit._refute_compose(space, first, second)
                for _, first in dags[2] for _, second in dags[2]]
    least = next(ce for ce in composed if ce is not None)
    assert least["first"]["pairs"] == [[zero, one]]
    assert least["second"]["pairs"] == [[one, zero]]
    assert least["cycle"] == [zero, zero]
    assert time.monotonic() - t0 < 2.0


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_2_noetherian_consequences():
    t0 = time.monotonic()
    rng = random.Random(202)
    failures = []
    for i in range(1000):
        r, _ = random_noetherian(rng, rng.randint(1, 6))
        flags = r.classify()
        if not (flags.irreflexive and flags.asymmetric):
            failures.append((i, "reflexivity or symmetry slipped in"))
            continue
        if is_noetherian(r.plus()).status != NOETHERIAN:
            failures.append((i, "plus not terminating"))
            continue
        if any(is_noetherian(r.power(k)).status != NOETHERIAN
               for k in (1, 2, 3)):
            failures.append((i, "a power not terminating"))
            continue
        if not r.plus().classify().order:
            failures.append((i, "plus not a strict order"))
    dt = time.monotonic() - t0
    ok = not failures
    line = verdict_line(2, "termination consequences", ok,
                        f"1000 samples, {len(failures)} failures, {dt:.1f}s")
    assert ok, (line, failures[:3])


# -- criterion 3 ---------------------------------------------------------------

def _nat_window(rng, maxw=4):
    lo = rng.randint(0, 3)
    return int_range(lo, lo + rng.randint(0, maxw))


def _any_window(rng, maxw=4):
    lo = rng.randint(-3, 2)
    return int_range(lo, lo + rng.randint(0, maxw))


def _node_space(rng, lo=2, hi=5):
    k = rng.randint(lo, hi)
    nodes = [Node(c) for c in "abcdefgh"[:k]]
    return explicit(nodes), nodes


def _acyclic_edge_sample(rng):
    sp, nodes = _node_space(rng)
    ranked = nodes[:]
    rng.shuffle(ranked)
    rank = {v: i for i, v in enumerate(ranked)}
    edges = [(a, b) for a in nodes for b in nodes
             if rank[a] > rank[b] and rng.random() < 0.5]
    return sp, edges


def _forest_sample(rng):
    k = rng.randint(1, 5)
    names = list("rstuvw")[:k]
    parent = {}
    for i in range(1, k):
        if rng.random() < 0.8:
            parent[names[i]] = names[rng.randrange(0, i)]
    return explicit([Node(x) for x in names]), parent


def _plain(build):
    return lambda rng: (build(rng), None)


def _sample_induced(rng):
    over = named("INTGREATER", int_range(0, 6))
    sp = product(_nat_window(rng, 3), _nat_window(rng, 3))
    fn = resolve_function("max")
    r = induced(fn, over, sp, fn_name="max")
    # every enumerated step must map to a step of the base relation
    def image_check():
        return all(over.holds(fn(a), fn(b)) for a, b in r.sorted_pairs())
    return r, image_check


def _sample_projection(rng):
    comp = named("INTGREATER", int_range(0, 6))
    sp = product(_nat_window(rng, 3), _nat_window(rng, 3))
    i = rng.choice((0, 1))
    r = projection(i, comp, sp)
    # projection is built as a pull-back, so check it against the pairs
    # enumerated straight from its definition
    vals = sp.values()
    coord = (lambda v: v.first) if i == 0 else (lambda v: v.second)
    want = {(a, b) for a in vals for b in vals
            if comp.holds(coord(a), coord(b))}
    return r, lambda: r.pairs() == want


def _subrel_sample(rng):
    base = named("INTGREATER", _nat_window(rng, 3))
    pairs = [p for p in base.sorted_pairs() if rng.random() < 0.5]
    return subrel(base, pairs)


def _restrict_sample(rng):
    window = _nat_window(rng, 3)
    base = named("INTGREATER", window)
    keep = [v for v in window.values() if rng.random() < 0.6]
    return restrict_to(keep, base)


SOUND_SAMPLERS = {
    "SUCCESSOR": _plain(lambda rng: named("SUCCESSOR", _nat_window(rng))),
    "INTGREATER": _plain(lambda rng: named("INTGREATER", _nat_window(rng))),
    "PREDECESSOR": _plain(lambda rng: named("PREDECESSOR", _any_window(rng))),
    "INTLESSER": _plain(lambda rng: named("INTLESSER", _any_window(rng))),
    "INTDIFF": _plain(lambda rng: named(
        "INTDIFF", product(_any_window(rng, 3), _any_window(rng, 3)))),
    "INTSUM": _plain(lambda rng: named(
        "INTSUM", product(_nat_window(rng, 3), _nat_window(rng, 3)))),
    "MAXINT": _plain(lambda rng: named(
        "MAXINT", product(_nat_window(rng, 3), _nat_window(rng, 3)))),
    "MININT": _plain(lambda rng: named(
        "MININT", product(_nat_window(rng, 3), _nat_window(rng, 3)))),
    "SUPSET": _plain(lambda rng: named(
        "SUPSET", powerset_space(rng.sample(range(8), rng.randint(0, 3))))),
    "SUBSET": _plain(lambda rng: named(
        "SUBSET", powerset_space(rng.sample(range(8), rng.randint(0, 3))))),
    "SUPINTERVAL": _plain(lambda rng: named(
        "SUPINTERVAL", intervals_of(1, 1 + rng.randint(0, 2)))),
    "SUBINTERVAL": _plain(lambda rng: named(
        "SUBINTERVAL", intervals_of(1, 1 + rng.randint(0, 2)))),
    "INTERVAL": _plain(lambda rng: named(
        "INTERVAL", intervals_of(0, rng.randint(0, 3)))),
    "INTERVAL'": _plain(lambda rng: named(
        "INTERVAL'", intervals_of(0, rng.randint(0, 3)))),
    "INTERVALSUPSET": _plain(lambda rng: named(
        "INTERVALSUPSET", interval_sets_of(1, 1 + rng.randint(0, 2)))),
    "INTERVALSUBSET": _plain(lambda rng: named(
        "INTERVALSUBSET", interval_sets_of(1, 1 + rng.randint(0, 2)))),
    "INTERVALMAX": _plain(lambda rng: named(
        "INTERVALMAX", interval_sets_of(1, 1 + rng.randint(0, 2)))),
    "ACYCLIC": _plain(lambda rng: (lambda sp, e: named(
        "ACYCLIC", sp, edges=e))(*_acyclic_edge_sample(rng))),
    "ACYCLIC'": _plain(lambda rng: (lambda sp, e: named(
        "ACYCLIC'", sp, edges=e))(*_acyclic_edge_sample(rng))),
    "CHILD": _plain(lambda rng: (lambda sp, p: named(
        "CHILD", sp, parent=p))(*_forest_sample(rng))),
    "DESCENDANT": _plain(lambda rng: (lambda sp, p: named(
        "DESCENDANT", sp, parent=p))(*_forest_sample(rng))),
    "CLOSURE": _plain(lambda rng: closure_of(
        named("SUCCESSOR", _nat_window(rng)))),
    "SUBREL": _plain(_subrel_sample),
    "RESTRICT": _plain(_restrict_sample),
    "INVERSE": _plain(lambda rng: inverse_of(
        named("SUCCESSOR", _nat_window(rng)))),
    "INDUCED": _sample_induced,
    "PROJECTION": _sample_projection,
}


def test_criterion_3_catalog_soundness():
    t0 = time.monotonic()
    rng = random.Random(303)
    sound_rules = sorted(r for r in RULES if r not in CLAIMED_RULES)
    assert sorted(SOUND_SAMPLERS) == sound_rules
    failures = []
    per_rule = 500
    for rule in sound_rules:
        sampler = SOUND_SAMPLERS[rule]
        for i in range(per_rule):
            r, extra = sampler(rng)
            v = is_noetherian(r)
            if v.status != NOETHERIAN or v.method != "exhaustive":
                failures.append((rule, i, v.render()))
                break
            if extra is not None and not extra():
                failures.append((rule, i, "image equality broke"))
                break
    dt = time.monotonic() - t0
    ok = not failures
    line = verdict_line(
        3, "catalog soundness", ok,
        f"{len(sound_rules)} rules x {per_rule} instances, "
        f"{len(failures)} failures, {dt:.1f}s")
    assert ok, (line, failures)


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_4_audit_determinism():
    t0 = time.monotonic()
    first = run_audit(seed=0, samples=1000)
    second = run_audit(seed=0, samples=1000)
    problems = []
    if report_json(first) != report_json(second):
        problems.append("reports differ between runs")
    if render_report(first) != render_report(second):
        problems.append("rendered text differs between runs")
    got = [(f.claim_id, f.status, f.restriction) for f in first]
    want = [
        ("compose_noetherian", "counterexample_found", None),
        ("limit_subset_theorem", "counterexample_found", None),
        ("limit_subset_theorem", "validated_on_sample", "s = plus(r)"),
        ("maxdepth_star_identity", "validated_on_sample",
         "closure without the reflexive step"),
    ]
    if got != want:
        problems.append(f"findings were {got}")
    for f in first:
        if not reverify(f):
            problems.append(f"{f.claim_id} does not re-verify")
    dt = time.monotonic() - t0
    ok = not problems
    line = verdict_line(4, "audit fixtures", ok,
                        f"2 runs x 1000 samples, seed 0, {dt:.1f}s")
    assert ok, (line, problems)


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_5_seed_minima():
    t0 = time.monotonic()
    rng = random.Random(505)
    failures = 0
    for _ in range(1000):
        larger, pairs = random_noetherian(rng, rng.randint(1, 6))
        by_src = {}
        for a, b in pairs:
            by_src.setdefault(a, []).append(b)
        kept = []
        for a, succs in by_src.items():
            chosen = [b for b in succs if rng.random() < 0.5]
            if not chosen:
                chosen = [rng.choice(succs)]
            kept.extend((a, b) for b in chosen)
        smaller = from_pairs(larger.source, larger.target, kept)
        if not is_seed(smaller, larger).holds:
            failures += 1
            continue
        if minima(smaller) != minima(larger):
            failures += 1
    dt = time.monotonic() - t0
    ok = failures == 0
    line = verdict_line(5, "seed pairs share minima", ok,
                        f"1000 seed pairs, {failures} failures, {dt:.1f}s")
    assert ok, line


# -- criterion 6 ---------------------------------------------------------------

def _partition_oracle(start, result, a, b, pivot):
    if a != b + 1:
        return False
    if sorted(result) != sorted(start):
        return False
    return (all(v <= pivot for v in result[:a - 1])
            and all(v >= pivot for v in result[a - 1:]))


def test_criterion_6_example_sweeps():
    from noet.examples import _partition_run

    t0 = time.monotonic()
    fails = []

    # gcd against the classical oracle, all 900 pairs
    gcd_cases = 0
    for a in range(1, 31):
        for b in range(1, 31):
            inst = instantiate("gcd", a=a, b=b)
            term = run(inst.loop, inst.input).terminal
            g = math.gcd(a, b)
            if not (term.first.value == g and term.second.value == g):
                fails.append(("gcd", a, b))
            gcd_cases += 1

    # the three search models agree with membership and with each other
    search_cases = 0
    for n in range(7):
        for t in itertools.product(range(4), repeat=n):
            for x in range(5):
                present = x in t
                s1 = instantiate("seq_search", t=t, x=x)
                t1 = run(s1.loop, s1.input).terminal
                p1 = t1.hi < n
                s2 = instantiate("general_search_interval", t=t, x=x)
                t2 = run(s2.loop, s2.input, choose=s2.chooser).terminal
                p2 = (not t2.empty) and (x in t[t2.lo - 1:t2.hi])
                s3 = instantiate("general_search_intervalset", t=t, x=x,
                                 check=False)
                t3 = run(s3.loop, s3.input).terminal
                covered = set()
                for m in t3.members:
                    covered.update(m.positions())
                p3 = covered != set(range(1, n + 1))
                oracle_ok = (s1.oracle_check(s1.input, t1)
                             and s2.oracle_check(s2.input, t2)
                             and s3.oracle_check(s3.input, t3))
                if not oracle_ok or not (p1 == p2 == p3 == present):
                    fails.append(("search", t, x))
                search_cases += 1

    # partition: full sweep through the body stepper, plus loop spot checks
    part_cases = 0
    for n in range(7):
        for t in itertools.product(range(8), repeat=n):
            for pivot in range(8):
                result, a, b = _partition_run(t, 1, n, pivot)
                if not _partition_oracle(t, result, a, b, pivot):
                    fails.append(("partition", t, pivot))
                part_cases += 1

    rng = random.Random(606)
    spot_cases = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        t = tuple(rng.randrange(8) for _ in range(n))
        pivot = rng.randrange(8)
        inst = instantiate("partition", t=t, pivot=pivot, check=False)
        term = run(inst.loop, inst.input).terminal
        items, cut = term.items
        expected, a, b = _partition_run(t, 1, n, pivot)
        same = items.items == expected and (cut.lo, cut.hi) == (a, b)
        if not same or not inst.oracle_check(inst.input, term):
            fails.append(("partition-loop", t, pivot))
        spot_cases += 1

    # lamsort: every nondeterministic resolution sorts
    lam_cases = 0
    for n in range(6):
        for t in itertools.product(range(4), repeat=n):
            inst = instantiate("lamsort", t=t)
            expected = tuple(sorted(t))
            for trace in run(inst.loop, inst.input, mode="all"):
                term = trace.terminal
                if term.items[0].items != expected:
                    fails.append(("lamsort", t))
                    break
                if not inst.oracle_check(inst.input, term):
                    fails.append(("lamsort-oracle", t))
                    break
            lam_cases += 1

    dt = time.monotonic() - t0
    ok = not fails and dt < 300.0
    line = verdict_line(
        6, "example sweeps", ok,
        f"gcd {gcd_cases}, searches {search_cases}, partition {part_cases}"
        f"+{spot_cases} loop spot checks, lamsort {lam_cases} arrays, "
        f"{len(fails)} failures, {dt:.1f}s")
    assert ok, (line, fails[:5])


# -- criterion 7 ---------------------------------------------------------------

def _agreement_gaps(loop, inputs):
    _, terminal_rel = denotation_closure(loop)
    limit_rel = denotation_limit(loop)
    gaps = []
    for inp in inputs:
        via_run = terminals_of(loop, inp)
        via_closure = frozenset(terminal_rel._succ(inp))
        via_limit = frozenset(limit_rel._succ(inp))
        if not (via_run == via_closure == via_limit):
            gaps.append(inp)
    return gaps


def _served_inputs(loop):
    return [v for v in loop.init.source.values()
            if any(True for _ in loop.init._succ(v))]


def test_criterion_7_denotation_agreement():
    t0 = time.monotonic()
    fails = []
    checked = 0

    seen_cores = set()
    for a in range(1, 13):
        for b in range(1, 13):
            inst = instantiate("gcd", a=a, b=b)
            if id(inst.loop) in seen_cores:
                continue
            seen_cores.add(id(inst.loop))
            gaps = _agreement_gaps(inst.loop, _served_inputs(inst.loop))
            if gaps:
                fails.append(("gcd", a, b, gaps[:2]))
            checked += 1

    sweeps = [
        ("seq_search", 4, 4, True),
        ("general_search_interval", 4, 4, True),
        ("general_search_intervalset", 3, 4, True),
        ("lamsort", 4, 4, False),
    ]
    for name, max_n, vals, with_x in sweeps:
        for n in range(max_n + 1):
            for t in itertools.product(range(vals), repeat=n):
                xs = range(vals + 1) if with_x else (None,)
                for x in xs:
                    params = {"t": t}
                    if with_x:
                        params["x"] = x
                    inst = instantiate(name, **params)
                    gaps = _agreement_gaps(inst.loop, [inst.input])
                    if gaps:
                        fails.append((name, t, x))
                    checked += 1

    for n in range(5):
        for t in itertools.product(range(4), repeat=n):
            for pivot in range(5):
                inst = instantiate("partition", t=t, pivot=pivot)
                gaps = _agreement_gaps(inst.loop, [inst.input])
                if gaps:
                    fails.append(("partition", t, pivot))
                checked += 1

    dt = time.monotonic() - t0
    ok = not fails
    line = verdict_line(
        7, "denotation agreement", ok,
        f"{checked} instances across all 6 examples, "
        f"{len(fails)} disagreements, {dt:.1f}s")
    assert ok, (line, fails[:5])


# -- criterion 8 ---------------------------------------------------------------

SUBSUMING_VARIANTS = [
    ("gcd", {"a": 9, "b": 6}),
    ("seq_search", {"t": (2, 0, 3), "x": 3}),
    ("general_search_interval", {"t": (1, 2, 3), "x": 2}),
    ("general_search_intervalset", {"t": (1, 2), "x": 1}),
    ("partition", {"t": (2, 0, 1), "pivot": 1}),
]


def _variant_missing_pairs(inst):
    vrel = variant_to_relation(inst.variant, inst.loop.space,
                               fn_name=inst.variant_name)
    return [(a, b) for a, b in inst.loop.body.sorted_pairs()
            if not vrel.holds(a, b)]


def test_criterion_8_variant_subsumption():
    t0 = time.monotonic()
    missing = {}
    for name, params in SUBSUMING_VARIANTS:
        inst = instantiate(name, **params)
        gaps = _variant_missing_pairs(inst)
        if gaps:
            missing[name] = gaps[:3]
    dt = time.monotonic() - t0
    ok = not missing
    line = verdict_line(
        8, "variant subsumption", ok,
        f"5 of 6 example variants, {sum(map(len, missing.values()))} "
        f"missing pairs, {dt:.1f}s")
    assert ok, (line, missing)


@pytest.mark.xfail(
    strict=True,
    reason="the classical widest-block measure plateaus when a split "
           "leaves another block of the same width, so the sixth variant "
           "cannot subsume its body")
def test_criterion_8_variant_subsumption_lamsort():
    inst = instantiate("lamsort", t=(1, 2, 3, 4))
    gaps = _variant_missing_pairs(inst)
    line = verdict_line(
        8, "variant subsumption, lamsort clause", not gaps,
        f"{len(gaps)} body pairs outside the widest-block descent")
    assert not gaps, line


# -- criterion 9 ---------------------------------------------------------------

def test_criterion_9_cli_contract(tmp_rel_file, capsys):
    t0 = time.monotonic()
    problems = []
    succ_doc = {"space": {"kind": "int_range", "lo": 0, "hi": 5},
                "relation": {"kind": "named", "name": "SUCCESSOR"}}
    cycle_doc = {"space": {"kind": "int_range", "lo": 0, "hi": 3},
                 "relation": {"kind": "extensional",
                              "pairs": [[{"int": 1}, {"int": 2}],
                                        [{"int": 2}, {"int": 1}]]}}
    loop_doc = {"space": {"kind": "int_range", "lo": 0, "hi": 5},
                "order": {"kind": "named", "name": "INTGREATER"},
                "init": {"kind": "extensional",
                         "pairs": [[{"int": 5}, {"int": 5}]]},
                "body": {"kind": "named", "name": "SUCCESSOR"},
                "postcondition": "minimum_characterization"}
    succ = tmp_rel_file(succ_doc, "succ.json")
    cycle = tmp_rel_file(cycle_doc, "cycle.json")
    loop = tmp_rel_file(loop_doc, "count.loop")

    def expect(argv, code, out=None, contains=None):
        got_code = main(argv)
        captured = capsys.readouterr()
        if got_code != code:
            problems.append((argv, f"exit {got_code}, wanted {code}"))
        if out is not None and captured.out != out:
            problems.append((argv, f"stdout {captured.out!r}"))
        if contains is not None and contains not in (captured.out
                                                     + captured.err):
            problems.append((argv, f"missing {contains!r}"))
        return captured

    expect(["check", succ], 0, out="Noetherian (exhaustive)\n")
    expect(["check", cycle], 1, out="not Noetherian, cycle: 1 → 2 → 1\n")
    cap = expect(["check", cycle, "--json"], 1)
    if json.loads(cap.out)["status"] != "not_noetherian":
        problems.append(("check --json", cap.out))
    expect(["limit", succ, "--from", "2"], 0, out="{0}\n")
    cap = expect(["limit", succ, "--from", "2", "--json"], 0)
    if json.loads(cap.out)["values"] != [{"int": 0}]:
        problems.append(("limit --json", cap.out))
    expect(["height", succ, "--from", "3"], 0, out="3\n")
    expect(["seed", succ, succ], 0, out="seed: yes\n")
    expect(["seed", succ, succ, "--json"], 0)
    expect(["run", loop, "--trace"], 0,
           out="trace: 5 → 4 → 3 → 2 → 1 → 0\nterminal: 0\nsteps: 5\n"
               "postcondition minimum_characterization: pass\n")
    cap = expect(["run", loop, "--json"], 0)
    if json.loads(cap.out)["terminals"] != [{"int": 0}]:
        problems.append(("run --json", cap.out))
    expect(["verify", loop], 0, contains="verdict: pass")
    cap = expect(["verify", loop, "--json"], 0)
    if json.loads(cap.out)["passed"] is not True:
        problems.append(("verify --json", cap.out))
    expect(["examples", "--list"], 0,
           contains="gcd (--a, --b, --bound?): subtractive gcd")
    cap = expect(["examples", "--json"], 0)
    if len(json.loads(cap.out)["examples"]) != 6:
        problems.append(("examples --json", cap.out))
    cap = expect(["audit", "--samples", "25"], 0,
                 contains="compose_noetherian: counterexample_found")
    if cap.out != render_report(run_audit(0, 25)) + "\n":
        problems.append(("audit text", cap.out))
    cap = expect(["audit", "--samples", "25", "--json"], 0)
    if cap.out != report_json(run_audit(0, 25)):
        problems.append(("audit --json", cap.out))
    expect(["check", "/no/such/file.json"], 2, contains="error:")

    corpus_files = sorted(CORPUS.glob("*.json"))
    if len(corpus_files) < 20:
        problems.append(("corpus", f"only {len(corpus_files)} files"))
    for path in corpus_files:
        raw = path.read_text(encoding="utf-8")
        doc = json.loads(raw)
        if canonical_json(normalize_file(doc)) != raw:
            problems.append(("corpus round-trip", path.name))

    dt = time.monotonic() - t0
    ok = not problems
    line = verdict_line(
        9, "command line contract", ok,
        f"8 subcommands, exit codes 0/1/2, {len(corpus_files)}-file corpus, "
        f"{dt:.1f}s")
    assert ok, (line, problems)
