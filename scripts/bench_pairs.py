"""Run perfbench in two checkouts, alternating, and compare them pair by pair.

    python3 scripts/bench_pairs.py --parent DIR --change DIR
        [--workload W ...] [--seed N ...] [--pairs N] [--seconds S]
        [--size full|tiny] [--out runs.jsonl]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, the
parent first in odd pairs and the change first in even ones, so a drift
of the host's speed falls on both sides alike. Every run is written as
one JSON line (side, workload, seed, seconds, pair, first, and run.py's
result), the form the `runs` list of a BENCH_<pr>.json takes. For each
workload and seed the script then prints, per end-to-end metric, the
median and quartiles of each side, whether the change shows a gain and
whether it is past the metric's bound, and the number of pairs the change
won. Each metric's direction of "better" and its bound are read from the
change's BENCHMARK.json.

A gain needs at least ten pairs, the change better in at least nine tenths
of them (ties count for neither side), and the change's median better than
the parent's by more than the distance between the parent's quartiles. A
metric is past its bound when the change's median is worse than the
parent's by more than the bound, a fraction of the parent's median.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds, size) -> dict:
    """One `perfbench/run.py` run in checkout; its last output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--size", size]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def run_pairs(dirs, workloads, seeds, pairs, seconds, size, sink):
    """Yield one record per run, alternating which side runs first."""
    for workload in workloads:
        for seed in seeds:
            for pair in range(1, pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    rec = {"side": side, "workload": workload, "seed": seed,
                           "seconds": seconds, "pair": pair, "first": order[0],
                           "result": run_once(dirs[side], workload, seed,
                                              seconds, size)}
                    if sink is not None:
                        sink.write(json.dumps(rec) + "\n")
                        sink.flush()
                    yield rec


def end_to_end_metrics(checkout) -> dict:
    """metric name -> its entry in the checkout's BENCHMARK.json, which
    holds "better" ("lower" or "higher") and "bound"."""
    doc = json.loads((pathlib.Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["end_to_end"]}


def quartiles(xs) -> list:
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def summarise(records, rules) -> dict:
    """{"workload seed N": figures} over paired runs, rules being
    end_to_end_metrics' dict."""
    groups = {}
    for rec in records:
        key = f"{rec['workload']} seed {rec['seed']}"
        pair = groups.setdefault(key, {}).setdefault(rec["pair"], {})
        pair[rec["side"]] = rec["result"]
    out = {}
    for key, by_pair in groups.items():
        pairs = [p for _, p in sorted(by_pair.items())]
        metrics = {}
        for name in pairs[0]["parent"]["metrics"]:
            vals = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                    for s in SIDES}
            lower = rules[name]["better"] == "lower"
            won = sum((c < p) if lower else (c > p)
                      for p, c in zip(vals["parent"], vals["change"]))
            pm, cm = (statistics.median(vals[s]) for s in SIDES)
            q1, q3 = quartiles(vals["parent"])
            better_by = (pm - cm) if lower else (cm - pm)
            metrics[name] = {
                "parent_median": round(pm, 6),
                "parent_q1_q3": [round(q1, 6), round(q3, 6)],
                "change_median": round(cm, 6),
                "change_q1_q3": [round(v, 6) for v in quartiles(vals["change"])],
                "gain": (len(pairs) >= 10 and 10 * won >= 9 * len(pairs)
                         and better_by > q3 - q1),
                "past_bound": -better_by > rules[name]["bound"] * pm,
                "change_better_in_pairs": f"{won}/{len(pairs)}",
                "median_change_pct": round(100 * (cm - pm) / pm, 2),
            }
        out[key] = {"pairs": len(pairs),
                    "failed": {s: sum(p[s]["failed"] for p in pairs)
                               for s in SIDES},
                    "correct": all(p[s]["correct"] for p in pairs
                                   for s in SIDES),
                    "metrics": metrics}
    return out


def _yes_no(flag) -> str:
    return "yes" if flag else "no"


def render(summary) -> str:
    lines = []
    for key, figures in summary.items():
        lines.append(f"{key}: {figures['pairs']} pairs, failed "
                     f"{figures['failed']['parent']} / "
                     f"{figures['failed']['change']}, correct "
                     f"{figures['correct']}")
        for name, f in figures["metrics"].items():
            lines.append(
                f"  {name:<17} parent {f['parent_median']:.6g} "
                f"[{f['parent_q1_q3'][0]:.6g}, {f['parent_q1_q3'][1]:.6g}]  "
                f"change {f['change_median']:.6g} "
                f"[{f['change_q1_q3'][0]:.6g}, {f['change_q1_q3'][1]:.6g}]  "
                f"{f['median_change_pct']:+.2f}%  "
                f"gain {_yes_no(f['gain'])}  "
                f"past bound {_yes_no(f['past_bound'])}  "
                f"change better in {f['change_better_in_pairs']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True,
                   help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", action="append",
                   help="repeatable, checked by run.py; default gcd_verify")
    p.add_argument("--seed", action="append", type=int,
                   help="repeatable; default 1")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--size", default="full",
                   help="passed to run.py (full or tiny); default full")
    p.add_argument("--out", help="append each run to this file as a JSON line")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    dirs = {"parent": args.parent, "change": args.change}
    sink = open(args.out, "a") if args.out else None
    try:
        records = list(run_pairs(dirs, args.workload or ["gcd_verify"],
                                 args.seed or [1], args.pairs, args.seconds,
                                 args.size, sink))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if sink is not None:
            sink.close()
    print(render(summarise(records, end_to_end_metrics(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
