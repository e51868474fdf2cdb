"""The four workloads: seeded inputs, the calls into noet, and the checks.

A workload turns its seed into plain data (ints, lists, tuples) once, at
set-up. Each timed item then builds fresh noet objects from that data and
makes the public calls a user would make. Each output is checked as soon
as its item returns, untimed and untraced, against an answer from
reference.py.

Why these four (see RATIONALE.md for the layer map):
  gcd_verify      few loops with deep chains and large filtered spaces; where
                  a shared-memo graph core would gain.
  example_sweep   thousands of tiny loops; per-instance overhead dominates,
                  so a compile-once core would gain nothing and may lose.
  audit           the same layers as gcd_verify on tiny inputs, many calls;
                  shows per-call and compile overhead.
  dense_relations wide, shallow relations on 30-60 states; the only one that
                  reaches relations.classify.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from noet import audit, cli, examples, loops, noether, relations, spaces
from noet.errors import NotNoetherian
from noet.values import Int, Pair

import reference


class Workload:
    """One seeded item list, run pass after pass by the runner."""

    name = ""
    # item_tail_ms percentile: the highest standard one with at least ten
    # items beyond it in every run (see min_items) that does not sit on a
    # step of the workload's latency distribution
    tail_pct = 90
    reaches = ()           # boundaries a traced pass must see called
    items: list            # plain-data items, built by __init__(seed, size)

    @property
    def min_items(self) -> int:
        """Items a run needs so that >= 10 lie beyond the tail percentile."""
        return -(-10 * 100 // (100 - self.tail_pct))

    def reset(self) -> None:
        """Drop noet's module-level caches so each pass does a first call's
        work."""
        examples._gcd_core.cache_clear()

    def execute(self, item):
        raise NotImplementedError

    def check(self, item, output):
        """(ok, fingerprint): whether the output is right, and a plain
        summary that must repeat exactly in every pass."""
        raise NotImplementedError

    def check_pass(self, prints, cache) -> list:
        """Failures of the pass as a whole, from the fingerprints of its
        items and _gcd_core's cache info."""
        return []

    def check_run(self) -> list:
        """(label, ok) for checks made once per run, outside the passes."""
        return []


# -- gcd_verify --------------------------------------------------------------

class GcdVerify(Workload):
    """`noet verify gcd --a-max B --b-max B`: one item per gcd class, the
    same public calls as the command line's sweep."""

    name = "gcd_verify"
    # Per pass, p93 leaves about 4.5 items beyond it, in the middle of the
    # g = 4, 5, 8 classes of similar cost; p90 and p95 fall where one class
    # costs twice the next, and the value jumps between runs.
    tail_pct = 93
    reaches = (
        "values.value_key", "values.sort_values", "spaces.values",
        "spaces.contains", "relations.succ", "relations.successors",
        "relations.pairs", "relations.is_subset_of", "relations.compose",
        "relations.plus", "noether.height_from", "noether.limit_from",
        "noether.limit_relation", "noether.reachable_from", "noether.is_seed",
        "catalog.certify", "loops.make_loop", "loops.verify",
        "loops.terminals_of", "loops.exit_condition",
        "loops.denotation_limit", "examples.instantiate")
    BOUND = {"full": 64, "tiny": 6}
    SPOT_CHECKS = 3

    def __init__(self, seed, size):
        rng = random.Random(seed)
        self.bound = self.BOUND[size]
        classes = reference.gcd_classes(self.bound)
        self.class_sizes = {g: len(pairs) for g, pairs in classes.items()}
        gs = sorted(classes)
        rng.shuffle(gs)
        self.items = [
            ("gcd_class", g, tuple(rng.sample(classes[g], min(
                self.SPOT_CHECKS, len(classes[g])))))
            for g in gs]

    def execute(self, item):
        _, g, _ = item
        inst = examples.instantiate("gcd", a=g, b=g, bound=self.bound)
        ctx = dict(inst.ctx)
        ctx["loop"] = inst.loop
        return inst.loop, loops.verify(inst.loop, ctx=ctx)

    def check(self, item, output):
        _, g, spots = item
        loop, report = output
        ok = report.passed and report.inputs_checked == self.class_sizes[g]
        for a, b in spots:
            end = loops.run(loop, Pair(Int(a), Int(b))).terminal
            want = reference.gcd(a, b)
            ok = ok and end.first.value == want == end.second.value
        return ok, (g, report.passed, report.inputs_checked)

    def check_pass(self, prints, cache):
        failures = []
        total = sum(fp[2] for fp in prints if fp)
        if total != self.bound ** 2:
            failures.append(f"sweep checked {total} inputs, "
                            f"not {self.bound ** 2}")
        if cache.hits != 0:
            failures.append(f"_gcd_core served {cache.hits} cached loops")
        return failures

    def check_run(self):
        self.reset()
        argv = ["verify", "gcd", "--a-max", str(self.bound),
                "--b-max", str(self.bound), "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        doc = json.loads(out.getvalue())
        ok = (code == 0 and doc["passed"] is True
              and doc["inputs_checked"] == self.bound ** 2)
        return [("noet " + " ".join(argv), ok)]


# -- example_sweep -----------------------------------------------------------

class ExampleSweep(Workload):
    """A seeded mix of tiny example loops, each built with checks on and
    run once."""

    name = "example_sweep"
    tail_pct = 99
    reaches = (
        "values.value_key", "values.sort_values", "spaces.values",
        "spaces.contains", "relations.succ", "relations.successors",
        "relations.pairs", "relations.is_subset_of", "noether.is_seed",
        "catalog.certify", "loops.make_loop", "loops.run",
        "examples.instantiate")
    # items per pass of each kind, and the array lengths each kind draws.
    # The interval-set search stops at 3 items: at 4 its filtered space
    # already enumerates 1024 interval sets and one instance takes ~70 ms.
    MIX = {
        "full": {"seq_search": 200, "general_search_interval": 200,
                 "general_search_intervalset": 100, "partition": 150,
                 "lamsort": 150, "gcd": 300},
        "tiny": {"seq_search": 4, "general_search_interval": 4,
                 "general_search_intervalset": 2, "partition": 3,
                 "lamsort": 3, "gcd": 6},
    }
    LENGTHS = {"seq_search": (1, 6), "general_search_interval": (1, 6),
               "general_search_intervalset": (1, 3), "partition": (2, 4),
               "lamsort": (2, 4)}
    GCD_GRID = 30

    def __init__(self, seed, size):
        # Lengths cycle evenly and every gcd class on the grid is run once
        # (its (g, g) point), so each pass does about the same work whatever
        # the seed; the seed draws the array contents and the other points.
        rng = random.Random(seed)
        diagonal = min(self.GCD_GRID, self.MIX[size]["gcd"])
        items = []
        for kind, count in self.MIX[size].items():
            for i in range(count):
                if kind == "gcd":
                    a = b = i + 1
                    if i >= diagonal:
                        a = rng.randint(1, self.GCD_GRID)
                        b = rng.randint(1, self.GCD_GRID)
                    items.append((kind, a, b))
                    continue
                lo, hi = self.LENGTHS[kind]
                n = lo + i % (hi - lo + 1)
                t = [rng.randrange(4) for _ in range(n)]
                if kind == "general_search_interval":
                    t.sort()   # the midpoint chooser is a binary search
                items.append((kind, tuple(t), rng.randrange(4)))
        rng.shuffle(items)
        self.items = items
        self.gcd_items = sum(1 for it in items if it[0] == "gcd")
        self.gcd_classes = len({reference.gcd(it[1], it[2])
                                for it in items if it[0] == "gcd"})

    def execute(self, item):
        kind = item[0]
        if kind == "gcd":
            inst = examples.instantiate("gcd", a=item[1], b=item[2],
                                        bound=self.GCD_GRID, check=True)
            return loops.run(inst.loop, inst.input)
        if kind == "partition":
            inst = examples.instantiate("partition", t=item[1],
                                        pivot=item[2], check=True)
            return loops.run(inst.loop, inst.input)
        if kind == "lamsort":
            inst = examples.instantiate("lamsort", t=item[1], check=True)
            return loops.run(inst.loop, inst.input, mode="all")
        inst = examples.instantiate(kind, t=item[1], x=item[2], check=True)
        return loops.run(inst.loop, inst.input, choose=inst.chooser)

    def check(self, item, output):
        kind = item[0]
        if kind == "gcd":
            end = output.terminal
            got = (end.first.value, end.second.value)
            want = reference.gcd(item[1], item[2])
            return got == (want, want), got
        if kind == "lamsort":
            got = [list(trace.terminal.items[0].items) for trace in output]
            want = reference.sorted_items(item[1])
            return bool(got) and all(g == want for g in got), got
        end = output.terminal
        t, x = item[1], item[2]
        if kind == "partition":
            items, cut = list(end.items[0].items), end.items[1]
            want_items, want_start = reference.three_way_partition(t, x)
            got = (items, cut.lo, cut.hi)
            return (got == (want_items, want_start, want_start - 1)
                    and reference.is_split(items, cut.lo, x)), got
        present = reference.member(t, x)
        if kind == "seq_search":
            got = (end.lo, end.hi)
            return got == (1, reference.first_hit(t, x)), got
        if kind == "general_search_interval":
            got = (end.lo, end.hi)
            if not present:
                return end.empty, got
            return end.lo == end.hi and t[end.lo - 1] == x, got
        covered = sorted({p for m in end.members
                          for p in range(m.lo, m.hi + 1)})
        want = [p for p in range(1, len(t) + 1) if t[p - 1] != x]
        full = covered == list(range(1, len(t) + 1))
        return covered == want and full != present, covered

    def check_pass(self, prints, cache):
        # every gcd item consults the cache once; a class misses only once
        if (cache.hits + cache.misses != self.gcd_items
                or cache.misses != self.gcd_classes):
            return [f"_gcd_core saw {cache.hits} hits and {cache.misses} "
                    f"misses for {self.gcd_items} runs over "
                    f"{self.gcd_classes} classes"]
        return []


# -- audit -----------------------------------------------------------------------

class Audit(Workload):
    """Repeated run_audit calls, one item per call, plus the report and the
    re-verification a reader of the report would make."""

    name = "audit"
    tail_pct = 90
    reaches = (
        "values.value_key", "values.sort_values", "spaces.values",
        "spaces.contains", "relations.succ", "relations.successors",
        "relations.pairs", "relations.compose", "relations.plus",
        "noether.is_noetherian", "noether.height_from", "noether.limit_from",
        "noether.reachable_from", "audit.run_audit", "audit.reverify",
        "serialize.canonical_json")
    CALLS = {"full": (12, 250), "tiny": (3, 10)}   # calls per pass, samples

    def __init__(self, seed, size):
        rng = random.Random(seed)
        calls, samples = self.CALLS[size]
        self.items = [("run_audit", rng.randrange(2 ** 31), samples)
                      for _ in range(calls)]

    def execute(self, item):
        _, seed, samples = item
        findings = audit.run_audit(seed, samples)
        return (findings, audit.report_json(findings),
                [audit.reverify(f) for f in findings])

    def check(self, item, output):
        findings, doc, rechecked = output
        got = [(f.claim_id, f.status, f.restriction is None)
               for f in findings]
        want = [("compose_noetherian", "counterexample_found", True),
                ("limit_subset_theorem", "counterexample_found", True),
                ("limit_subset_theorem", "validated_on_sample", False),
                ("maxdepth_star_identity", "validated_on_sample", False)]
        return (got == want and all(rechecked)
                and _compose_cycle_closes(json.loads(doc))), doc


def _compose_cycle_closes(doc) -> bool:
    """Re-walk the composition counterexample's cycle through the composite
    pairs, reading only the serialized document."""
    def key(value_doc):
        return json.dumps(value_doc, sort_keys=True)

    ce = doc["findings"][0]["counterexample"]
    adj = {}
    for a, b in ce["composite"]["pairs"]:
        adj.setdefault(key(a), set()).add(key(b))
    return reference.walks_cycle(adj, [key(v) for v in ce["cycle"]])


# -- dense_relations -----------------------------------------------------------

class DenseRelations(Workload):
    """Seeded extensional relations on 30-60 states in a few wide layers,
    two of each size; every fourth one has a planted cycle."""

    name = "dense_relations"
    reaches = (
        "values.value_key", "values.sort_values", "spaces.values",
        "spaces.contains", "relations.succ", "relations.pairs",
        "relations.classify", "relations.plus", "noether.is_noetherian",
        "noether.height_from", "noether.limit_from", "noether.limit_relation",
        "noether.reachable_from")
    SIZES = {"full": range(30, 61), "tiny": range(5, 9)}
    PER_SIZE = 2
    LAYERS = 4
    OUT_DEGREE = 4   # edges from each state of the upper three layers

    def __init__(self, seed, size):
        rng = random.Random(seed)
        ns = [n for n in self.SIZES[size] for _ in range(self.PER_SIZE)]
        items = [self._relation(rng, n, cyclic=(i % 4 == 0))
                 for i, n in enumerate(ns)]
        rng.shuffle(items)
        self.items = items

    def _relation(self, rng, n, cyclic):
        """Equal layers, each state of the upper three wired to OUT_DEGREE
        consecutive states of the next layer in that layer's seeded order
        (so in- and out-degrees are even), and for a cyclic one a 3-cycle
        along two of those edges and one edge back from the last layer.
        The seed draws which state sits where, so it changes every label,
        pair order and hash order, but the shape depends on n alone:
        relations of one size cost the same whatever the seed."""
        order = list(range(n))
        rng.shuffle(order)
        layers = [order[k * n // self.LAYERS:(k + 1) * n // self.LAYERS]
                  for k in range(self.LAYERS)]
        edges = set()
        for upper, lower in zip(layers, layers[1:]):
            for p, a in enumerate(upper):
                base = p * len(lower) // len(upper)
                for o in range(self.OUT_DEGREE):
                    edges.add((a, lower[(base + o) % len(lower)]))
        cycle = None
        if cyclic:
            start = layers[1][rng.randrange(len(layers[1]))]
            cycle = [start]
            for _ in range(2):
                cycle.append(min(b for a, b in edges if a == cycle[-1]))
            edges.add((cycle[-1], start))
        return ("relation", n, tuple(sorted(edges)), cycle)

    def execute(self, item):
        _, n, edges, _ = item
        space = spaces.int_range(0, n - 1)
        r = relations.from_pairs(space, space,
                                 [(Int(a), Int(b)) for a, b in edges])
        flags = r.classify()
        verdict = noether.is_noetherian(r)
        limits = {}
        for mode in (noether.MAXDEPTH, noether.REACHABLE_MINIMA):
            try:
                limits[mode] = noether.limit_relation(r, mode).pairs()
            except NotNoetherian:
                limits[mode] = None
        return flags, verdict, limits, r.plus().pairs()

    def check(self, item, output):
        _, n, edges, cycle = item
        flags, verdict, limits, plus_pairs = output
        adj = reference.adjacency(range(n), edges)
        plus = reference.closure(adj)
        want = reference.flags(adj, plus)
        got = {k: getattr(flags, k) for k in want}
        ok = got == want and (cycle is None or not want["acyclic"])
        ok = ok and _plain(plus_pairs) == {(a, b) for a, bs in plus.items()
                                           for b in bs}
        if want["acyclic"]:
            maxdepth, minima = reference.limits(adj)
            ok = (ok and verdict.status == noether.NOETHERIAN
                  and _plain(limits[noether.MAXDEPTH]) == _flat(maxdepth)
                  and _plain(limits[noether.REACHABLE_MINIMA]) == _flat(minima))
        else:
            path = [v.value for v in verdict.witness.elements]
            ok = (ok and verdict.status == noether.NOT_NOETHERIAN
                  and reference.walks_cycle(adj, path)
                  and all(lim is None for lim in limits.values()))
        return ok, (sorted(got.items()), verdict.status, len(plus_pairs))


def _plain(pairs) -> set:
    return {(a.value, b.value) for a, b in pairs}


def _flat(limit) -> set:
    return {(a, b) for a, bs in limit.items() for b in bs}


WORKLOADS = {w.name: w for w in (GcdVerify, ExampleSweep, Audit,
                                 DenseRelations)}
