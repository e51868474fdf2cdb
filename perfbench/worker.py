"""One workload process: set up, run timed passes, check, report as JSON.

run.py starts this file as a child process with noet's sources on the path
and a fixed hash seed, so set-iteration order, and with it every count the
traced run reports, repeats from run to run.

A pass runs every item of the workload once, one after the other, from one
thread: a closed loop with one caller. Passes repeat until --seconds have
gone by, and at least two passes and enough items for the tail percentile
have been made. Each pass starts from cleared caches and fresh instances.
Every time is given at the reference speed of speed.py: between items the
worker runs calibration slices, and each item's time is divided by the
slowdown the slices around it saw, which takes the host's changes of speed
out.
The heap built by the set-up is frozen out of the collector, and a
collection runs after each item, untimed, so that every item starts from a
collected heap and pays for the collections its own garbage causes, not
for a full collection that the order of earlier items happened to leave.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/worker.py \
        --workload NAME --seed N --seconds S --trace 0|1 \
        [--size full|tiny] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import speed

MAX_RUN_S = 120   # stop passing after this, whatever --seconds says
SETUP_CALIBRATION_S = 0.05  # of slices before and after the set-up

# Per-layer metrics of the traced run: (name, unit). Counts and ratios are
# per pass and must repeat exactly; self times are the median over passes,
# at the reference speed.
PER_LAYER = (
    ("values.value_key.calls", "count"),
    ("values.sort_values.calls", "count"),
    ("values.sort_values.self_s", "s"),
    ("spaces.values.calls", "count"),
    ("spaces.values.enumerated", "count"),
    ("spaces.values.self_s", "s"),
    ("spaces.values.cache_hit_ratio", "ratio"),
    ("spaces.contains.calls", "count"),
    ("relations.succ.calls", "count"),
    ("relations.successors.calls", "count"),
    ("relations.successors.self_s", "s"),
    ("relations.pairs.materialized", "count"),
    ("relations.pairs.self_s", "s"),
    ("relations.is_subset_of.self_s", "s"),
    ("relations.classify.calls", "count"),
    ("relations.classify.self_s", "s"),
    ("relations.compose.calls", "count"),
    ("relations.plus.calls", "count"),
    ("noether.is_noetherian.calls", "count"),
    ("noether.is_noetherian.self_s", "s"),
    ("noether.is_noetherian.explored", "count"),
    ("noether.height_from.calls", "count"),
    ("noether.height_from.self_s", "s"),
    ("noether.limit_from.calls", "count"),
    ("noether.limit_from.self_s", "s"),
    ("noether.limit_relation.calls", "count"),
    ("noether.limit_relation.self_s", "s"),
    ("noether.reachable_from.calls", "count"),
    ("noether.reachable_from.self_s", "s"),
    ("noether.is_seed.calls", "count"),
    ("noether.is_seed.self_s", "s"),
    ("catalog.certify.calls", "count"),
    ("catalog.certify.self_s", "s"),
    ("catalog.certify.trusted_ratio", "ratio"),
    ("loops.make_loop.calls", "count"),
    ("loops.make_loop.self_s", "s"),
    ("loops.run.calls", "count"),
    ("loops.run.self_s", "s"),
    ("loops.run.steps", "count"),
    ("loops.verify.calls", "count"),
    ("loops.verify.self_s", "s"),
    ("loops.verify.inputs_checked", "count"),
    ("loops.terminals_of.calls", "count"),
    ("loops.terminals_of.self_s", "s"),
    ("loops.exit_condition.self_s", "s"),
    ("loops.denotation_limit.self_s", "s"),
    ("examples.instantiate.calls", "count"),
    ("examples.instantiate.self_s", "s"),
    ("examples.gcd_core.hit_ratio", "ratio"),
    ("audit.run_audit.self_s", "s"),
    ("audit.reverify.self_s", "s"),
    ("serialize.canonical_json.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _layer_values(delta: dict, cache, slowdown) -> dict:
    """The per-layer metrics of one traced pass, from its counter deltas;
    self times are divided by the pass's slowdown."""
    out = {k: v / slowdown if k.endswith("self_s") else v
           for k, v in delta.items()}
    out["spaces.values.cache_hit_ratio"] = _ratio(
        delta["spaces.values.hits"], delta["spaces.values.calls"])
    out["catalog.certify.trusted_ratio"] = _ratio(
        delta["catalog.certify.trusted"], delta["catalog.certify.calls"])
    out["examples.gcd_core.hit_ratio"] = _ratio(
        cache.hits, cache.hits + cache.misses)
    return out


class Run:
    """Pass records of one phase of a run, and every failure it saw."""

    def __init__(self):
        self.walls = []          # busy time of each pass
        self.latencies = []      # every item, every pass
        self.slowdowns = []      # mean of each pass, from its slices
        self.layers = []         # per-layer values of each traced pass
        self.item_spans = []
        self.attempted = 0
        self.failures = []

    def fail(self, message):
        self.failures.append(message)


def run_passes(work, seconds, min_items=0, tracer=None) -> Run:
    """Make passes until seconds have gone by, checking each item as soon
    as it returns (untimed, untraced) so that no output outlives its check
    and the heap stays the size a single item needs. Calibration slices
    follow each item's check; times are recorded at the reference speed."""
    from noet import examples

    run = Run()
    meter = speed.Meter()
    previous = {}            # item index -> its measured time last pass
    fingerprints = None
    start = time.perf_counter()
    while True:
        work.reset()
        prints, lat, gaps = [], [], []
        if tracer is not None:
            before = tracer.snapshot()
            tracer.install()
        meter.begin()
        for i, item in enumerate(work.items):
            meter.prepay(previous.get(i, 0.0))
            gaps.append(meter.position())
            if tracer is not None:
                tracer.root(item[0])
            t0 = time.perf_counter()
            try:
                out, err = work.execute(item), None
            except Exception as exc:   # an item failing is a measured result
                out, err = None, exc
            lat.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
                run.item_spans.append(
                    {"pass": len(run.walls), "item": i, "kind": item[0],
                     "start_s": t0 - start, "duration_s": lat[-1]})
            run.attempted += 1
            ok, fp = False, None
            if err is None:
                try:
                    ok, fp = work.check(item, out)
                except Exception as exc:
                    err = exc
            if err is not None:
                run.fail(f"{item[:2]}: {type(err).__name__}: {err}")
            elif not ok:
                run.fail(f"{item[:2]}: wrong answer {fp!r}")
            prints.append(fp)
            del out
            gc.collect()
            meter.owe(lat[-1])
            if tracer is not None:
                tracer.active = True
        cache = examples._gcd_core.cache_info()
        factors = meter.finish()
        previous = dict(enumerate(lat))
        lat = [x / factors[g] for x, g in zip(lat, gaps)]
        slowdown = meter.pass_slowdown()
        if tracer is not None:
            tracer.remove()
            after = tracer.snapshot()
            run.layers.append(_layer_values(
                {k: after[k] - before[k] for k in after}, cache, slowdown))
        run.slowdowns.append(slowdown)
        run.walls.append(sum(lat))
        run.latencies.extend(lat)
        for message in work.check_pass(prints, cache):
            run.attempted += 1
            run.fail(message)
        if fingerprints is None:
            fingerprints = prints
        elif prints != fingerprints:
            run.attempted += 1
            run.fail("outputs differ from the first pass at the same seed")

        elapsed = time.perf_counter() - start
        if elapsed >= MAX_RUN_S:
            break
        if (elapsed >= seconds and len(run.walls) >= 2
                and len(run.latencies) >= min_items):
            break
    return run


def _percentile(values, pct):
    """Nearest-rank percentile: the smallest value with pct% at or below."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def setup(workload, seed, size):
    """Import noet and build the inputs; returns (workload, seconds at the
    reference speed, from calibration slices run right before and after)."""
    before = speed.sample(SETUP_CALIBRATION_S)
    t0 = time.perf_counter()
    import noet  # noqa: F401  (the import is what is timed)
    import workloads
    work = workloads.WORKLOADS[workload](seed, size)
    setup_s = time.perf_counter() - t0
    after = speed.sample(SETUP_CALIBRATION_S)
    return work, setup_s / speed.slowdown(before, after)


def measure(workload, seed, seconds, trace, size="full") -> dict:
    work, setup_s = setup(workload, seed, size)
    gc.collect()
    gc.freeze()
    if not trace:
        run = run_passes(work, seconds, work.min_items)
        for label, ok in work.check_run():
            run.attempted += 1
            if not ok:
                run.fail(f"{label}: wrong result")
        lat = run.latencies
        metrics = {
            "wall_s": (statistics.median(run.walls), "s"),
            "throughput_per_s": (len(work.items)
                                 / statistics.median(run.walls), "1/s"),
            "item_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "item_tail_ms": (_percentile(lat, work.tail_pct) * 1000, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
        notes = {"passes": len(run.walls), "items": len(lat),
                 "tail_pct": work.tail_pct,
                 "slowdown": statistics.median(run.slowdowns)}
        return _result(run, metrics, notes)

    import spans
    plain = run_passes(work, seconds / 2)
    tracer = spans.Tracer()
    run = run_passes(work, seconds / 2, tracer=tracer)
    run.attempted += plain.attempted
    run.failures = plain.failures + run.failures
    first = run.layers[0]
    for later in run.layers[1:]:
        moved = sorted(k for k in first
                       if not k.endswith("self_s") and first[k] != later[k])
        if moved:
            run.attempted += 1
            run.fail(f"counts differ between traced passes: {moved}")
    for name in work.reaches:
        run.attempted += 1
        if first[name + ".calls"] == 0:
            run.fail(f"{name} recorded no calls on {workload}")
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = (statistics.median(run.walls)
                     / statistics.median(plain.walls))
        elif name.endswith("self_s"):
            value = statistics.median(p[name] for p in run.layers)
        else:
            value = first[name]
        metrics[name] = (value, unit)
    out_dir = os.path.join(os.getcwd(), ".perfbench_trace")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.json")
    tracer.dump(path, run.item_spans)
    notes = {"passes": len(run.walls), "plain_passes": len(plain.walls),
             "spans": os.path.relpath(path)}
    return _result(run, metrics, notes)


def _result(run, metrics, notes) -> dict:
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "failures": run.failures[:20],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "notes": notes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.setup_only:
        _, setup_s = setup(args.workload, args.seed, args.size)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
