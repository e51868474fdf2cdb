"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Checks that every metric is printed by name with its unit, that the
reference checks are live (a wrong reference answer shows up as failed
items), that the traced run wraps every binding and repeats its counts,
and that the benchmark refuses to run without noet's sources.
"""

from __future__ import annotations

import ast
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("gcd_verify", "example_sweep", "audit", "dense_relations")
SEVEN = ("wall_s", "throughput_per_s", "item_p50_ms", "item_tail_ms",
         "setup_s", "peak_rss_mb", "error_ratio")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--size", "tiny",
         "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = _bench("--workload", workload)
    got = _result(proc)
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in got["metrics"].items()} == want
    assert all(v["value"] > 0 for v in got["metrics"].values())
    human = proc.stdout.splitlines()[:-1]
    for name in SEVEN:
        assert any(line.split()[:1] == [name] for line in human), name
    tail = next(line for line in human if line.split()[0] == "item_tail_ms")
    assert " ms  (p" in tail and " items)" in tail


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_cover_every_layer(workload):
    first, second = (_result(_bench("--workload", workload, "--trace", "1"))
                     for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["correct"] and second["correct"]
    for name, unit in want.items():
        if unit in ("count", "ratio") and name != "trace.overhead_ratio":
            assert (first["metrics"][name]["value"]
                    == second["metrics"][name]["value"]), name


# A wrong reference answer per workload; each must turn items into failures.
WRONG = {
    "gcd_verify": ("gcd", lambda a, b: math.gcd(a, b) + 1),
    "example_sweep": ("sorted_items", lambda t: sorted(t, reverse=True)),
    "audit": ("walks_cycle", lambda adj, path: False),
    "dense_relations": ("acyclic", lambda plus: False),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_raises_error_ratio(workload, monkeypatch):
    clean = worker.measure(workload, 3, 0.05, False, "tiny")
    assert clean["failed"] == 0
    name, wrong = WRONG[workload]
    monkeypatch.setattr(reference, name, wrong)
    broken = worker.measure(workload, 3, 0.05, False, "tiny")
    assert not broken["correct"]
    assert broken["failed"] / broken["attempted"] > 0


def test_tracer_wraps_every_binding_and_restores_them():
    import noet
    from noet import (audit, catalog, examples, loops, noether, relations,
                      serialize, spaces, values)
    originals = (noether.is_seed, noether.limit_relation, catalog.certify,
                 values.sort_values, values.value_key)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # loops imports these by name; every binding must be the wrapper
        for owners, fn in (((noet, noether, loops), "is_seed"),
                           ((noet, noether, loops), "limit_relation"),
                           ((noet, catalog, loops), "certify"),
                           ((noet, values, relations, spaces, noether,
                             examples, audit), "sort_values"),
                           ((noet, values, relations, spaces, noether, loops,
                             examples, serialize), "value_key")):
            bound = {id(getattr(mod, fn)) for mod in owners}
            assert len(bound) == 1, fn
            assert getattr(noet, fn) not in originals
        values.sort_values([values.Int(2), values.Int(1)])
        assert tracer.calls["values.sort_values"] == 1
        assert tracer.calls["values.value_key"] == 2
    finally:
        tracer.remove()
    assert (noether.is_seed, noether.limit_relation, catalog.certify,
            values.sort_values, values.value_key) == originals
    assert loops.is_seed is originals[0] and loops.certify is originals[2]


def test_meter_gives_each_item_the_slowdown_around_it():
    meter = speed.Meter()
    meter.begin()
    gaps = []
    for busy in (0.0, 0.0001, 0.01):
        gaps.append(meter.position())
        meter.owe(busy)
    # a long item pays half its slices into the group before it
    before = meter.groups[-1][0]
    meter.prepay(0.1)
    assert meter.groups[-1][0] > before and meter.debt < 0
    gaps.append(meter.position())
    meter.owe(0.1)
    factors = meter.finish()
    # items too small to owe a slice share the gap between two groups
    assert gaps[0] == gaps[1] < gaps[2] < gaps[3]
    assert len(factors) == len(meter.groups) - 1 > gaps[3]
    assert all(f > 0 for f in factors)
    # the slices after the items take at least a share of their busy time
    assert sum(spent for _, spent in meter.groups[1:]) >= 0.1101 * speed.SHARE


def test_references_never_import_noet():
    with open(os.path.join(BENCH, "reference.py")) as fh:
        tree = ast.parse(fh.read())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m and m.split(".")[0] == "noet"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
