"""Layer spans for the traced run, recorded from outside the program.

Each boundary is a public function or method of one noet module. Tracing
replaces it, at every place it is bound (module globals of every noet
module, and the class attribute for methods), with a wrapper that records
one span per call: its name, its duration and the span that caused it.
Self time is a span's duration minus the time its child spans cover.

Spans are aggregated in memory per (parent, boundary) edge rather than kept
one by one: a gcd sweep makes millions of value_key calls, and a list of
that many span records would cost more memory than the program measured.
The aggregate is written out once, when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (metric prefix, module, attribute); "Class.method" names a method.
BOUNDARIES = (
    ("values.value_key", "noet.values", "value_key"),
    ("values.sort_values", "noet.values", "sort_values"),
    ("spaces.values", "noet.spaces", "Space.values"),
    ("spaces.contains", "noet.spaces", "Space.contains"),
    ("relations.succ", "noet.relations", "Relation._succ"),
    ("relations.successors", "noet.relations", "Relation.successors"),
    ("relations.pairs", "noet.relations", "Relation.pairs"),
    ("relations.is_subset_of", "noet.relations", "Relation.is_subset_of"),
    ("relations.classify", "noet.relations", "Relation.classify"),
    ("relations.compose", "noet.relations", "Relation.compose"),
    ("relations.plus", "noet.relations", "Relation.plus"),
    ("noether.is_noetherian", "noet.noether", "is_noetherian"),
    ("noether.height_from", "noet.noether", "height_from"),
    ("noether.limit_from", "noet.noether", "limit_from"),
    ("noether.limit_relation", "noet.noether", "limit_relation"),
    ("noether.reachable_from", "noet.noether", "reachable_from"),
    ("noether.is_seed", "noet.noether", "is_seed"),
    ("catalog.certify", "noet.catalog", "certify"),
    ("loops.make_loop", "noet.loops", "make_loop"),
    ("loops.run", "noet.loops", "run"),
    ("loops.verify", "noet.loops", "verify"),
    ("loops.terminals_of", "noet.loops", "terminals_of"),
    ("loops.exit_condition", "noet.loops", "exit_condition"),
    ("loops.denotation_limit", "noet.loops", "denotation_limit"),
    ("examples.instantiate", "noet.examples", "instantiate"),
    ("audit.run_audit", "noet.audit", "run_audit"),
    ("audit.reverify", "noet.audit", "reverify"),
    ("serialize.canonical_json", "noet.serialize", "canonical_json"),
)


# Work counted at a boundary besides its calls. Each entry is
# (counter, before, after): before(args) runs ahead of the call and
# after(token, result) behind it, returning the amount to add.

def _uncached_values(args):
    return args[0]._values is None


def _uncached_pairs(args):
    return args[0]._pairs is None


def _size_if_uncached(uncached, result):
    return len(result) if uncached else 0


def _hit(uncached, _):
    return 0 if uncached else 1


def _trusted(_, verdict):
    return 1 if verdict.method == "certificate" else 0


def _steps(_, result):
    if isinstance(result, list):
        return sum(t.steps for t in result)
    return result.steps


EXTRA = {
    "spaces.values": (
        ("spaces.values.enumerated", _uncached_values, _size_if_uncached),
        ("spaces.values.hits", _uncached_values, _hit)),
    "relations.pairs": (
        ("relations.pairs.materialized", _uncached_pairs, _size_if_uncached),),
    "noether.is_noetherian": (
        ("noether.is_noetherian.explored", None, lambda _, v: v.explored),),
    "catalog.certify": (
        ("catalog.certify.trusted", None, _trusted),),
    "loops.run": (
        ("loops.run.steps", None, _steps),),
    "loops.verify": (
        ("loops.verify.inputs_checked", None, lambda _, r: r.inputs_checked),),
}


def _resolve(module, attr):
    """(owner, attribute name, current value) of one boundary."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, meth, owner.__dict__[meth]
    return owner, attr, getattr(owner, attr)


def _noet_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "noet" or name.startswith("noet."))]


class Tracer:
    """Wraps every boundary while installed; counts and times each call."""

    def __init__(self):
        self._stack = [["<item>", 0.0]]
        self.calls = {name: 0 for name, _, _ in BOUNDARIES}
        self.self_s = {name: 0.0 for name, _, _ in BOUNDARIES}
        self.counts = {counter: 0 for specs in EXTRA.values()
                       for counter, _, _ in specs}
        self.edges = {}
        self.active = True     # False while the caller checks an output
        self._patches = []

    def root(self, label: str) -> None:
        """Name the caller of top-level spans (the item kind)."""
        self._stack[0][0] = label

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        stack, calls, self_s, edges = (self._stack, self.calls, self.self_s,
                                       self.edges)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                own = elapsed - frame[1]
                calls[name] += 1
                self_s[name] += own
                key = (parent[0], name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed, own]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += own

        extras = EXTRA.get(name)
        if extras is None:
            return traced
        counts = self.counts

        def counted(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            tokens = [before(args) if before else None
                      for _, before, _ in extras]
            result = traced(*args, **kwargs)
            for (counter, _, after), token in zip(extras, tokens):
                counts[counter] += after(token, result)
            return result

        return counted

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every boundary: the class attribute of a
        method, and each noet module global bound to a function, because
        modules import boundaries by name (loops binds is_seed, certify
        and limit_relation; most modules bind sort_values and value_key)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, module, attr in BOUNDARIES:
            owner, key, fn = _resolve(module, attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
            if isinstance(owner, type):
                self._patches.append((owner, key, fn))
                setattr(owner, key, wrappers[id(fn)][1])
        for mod in _noet_modules():
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, hit[1])

    def remove(self) -> None:
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches = []

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Every count and self time so far, as one flat dict."""
        out = {}
        for name, _, _ in BOUNDARIES:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out.update(self.counts)
        return out

    def dump(self, path, items) -> None:
        """Write the edge aggregate and the item spans as one JSON file."""
        doc = {"edges": [{"parent": p, "span": s, "calls": c,
                          "total_s": t, "self_s": own}
                         for (p, s), (c, t, own) in sorted(self.edges.items())],
               "items": items}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
