"""Command line front end.

Exit codes: 0 all checks pass, 1 a checked property fails (witness printed),
2 malformed input or a resource limit. Reports go to standard output,
diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import audit as audit_mod
from . import examples as examples_mod
from . import oracles
from .errors import (BodyNotSubsetOfOrder, DomainMismatch, EmptySpace,
                     InitEscapesSpace, LimitExceeded, MalformedExpr,
                     MalformedInput, NoetError, NotNoetherian,
                     OrderNotNoetherian)
from .loops import run as run_loop
from .loops import served_inputs, verify
from .noether import (DEFAULT_FUEL, MAXDEPTH, NOETHERIAN, NOT_NOETHERIAN,
                      REACHABLE_MINIMA, height_from, is_noetherian, is_seed,
                      limit_from)
from .serialize import (canonical_json, load_json, parse_loop_file,
                        parse_relation_file, parse_value, value_doc)
from .spaces import DEFAULT_MAX_SPACE, same_space
from .values import Int, Node, render, render_set

_MODES = {"maxdepth": MAXDEPTH, "minima": REACHABLE_MINIMA}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable document")
    common.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                        help="step budget for unbounded explorations")
    common.add_argument("--max-space", type=int, default=DEFAULT_MAX_SPACE,
                        help="largest space the tool will enumerate")

    top = argparse.ArgumentParser(
        prog="noet",
        description="finite relations, termination certificates, loop limits")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="decide whether a relation terminates")
    p.add_argument("file", help="relation file (JSON)")

    p = sub.add_parser("limit", parents=[common],
                       help="values a run can end at, from one start")
    p.add_argument("file", help="relation file (JSON)")
    p.add_argument("--from", dest="from_value", required=True,
                   help="start value (JSON value document, integer, or name)")
    p.add_argument("--mode", choices=sorted(_MODES), default="maxdepth")

    p = sub.add_parser("height", parents=[common],
                       help="longest descending chain from one start")
    p.add_argument("file", help="relation file (JSON)")
    p.add_argument("--from", dest="from_value", required=True)

    p = sub.add_parser("seed", parents=[common],
                       help="is the first relation a seed of the second")
    p.add_argument("small", help="relation file (JSON)")
    p.add_argument("big", help="relation file (JSON)")

    for name in ("run", "verify"):
        p = sub.add_parser(
            name, parents=[common],
            help=("execute a loop" if name == "run"
                  else "check every loop obligation"))
        p.add_argument("target", help="loop file or example name")
        p.add_argument("--input", help="input value (JSON document or shorthand)")
        if name == "run":
            p.add_argument("--trace", action="store_true",
                           help="print the visited states")
            p.add_argument("--all", action="store_true",
                           help="explore every nondeterministic branch")
        p.add_argument("--a", type=int)
        p.add_argument("--b", type=int)
        p.add_argument("--bound", type=int)
        p.add_argument("--t", help="comma-separated integers")
        p.add_argument("--x", type=int)
        p.add_argument("--pivot", type=int)
        p.add_argument("--a-max", dest="a_max", type=int)
        p.add_argument("--b-max", dest="b_max", type=int)

    p = sub.add_parser("examples", parents=[common],
                       help="list the built-in example loops")
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("audit", parents=[common],
                       help="property-test the contested closure claims")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=audit_mod.DEFAULT_SAMPLES)

    return top


def _parse_value_arg(raw: str):
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError:
        return Node(raw)
    except RecursionError:
        raise MalformedExpr("value nests too deeply to read") from None
    if isinstance(doc, dict):
        return parse_value(doc)
    if isinstance(doc, int) and not isinstance(doc, bool):
        return Int(doc)
    raise MalformedExpr(f"cannot read a value from {raw!r}")


def _example_params(args) -> dict:
    params = {}
    for key in ("a", "b", "bound", "x", "pivot"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    t = getattr(args, "t", None)
    if t is not None:
        t = t.strip()
        try:
            params["t"] = tuple(int(part) for part in t.split(",")) if t else ()
        except ValueError:
            raise MalformedInput(
                f"--t needs comma-separated integers, got {t!r}") from None
    return params


def _print_doc(doc):
    sys.stdout.write(canonical_json(doc))


# -- relation subcommands -------------------------------------------------------

def _cmd_check(args) -> int:
    _, rel = parse_relation_file(load_json(args.file), cap=args.max_space)
    verdict = is_noetherian(rel, cap=args.max_space, fuel=args.fuel)
    if args.json:
        witness = verdict.witness
        _print_doc({"status": verdict.status, "method": verdict.method,
                    "explored": verdict.explored,
                    "witness": ([value_doc(v) for v in witness.elements]
                                if witness else None)})
    else:
        print(verdict.render())
    if verdict.status == NOETHERIAN:
        return 0
    return 1 if verdict.status == NOT_NOETHERIAN else 2


def _cmd_limit(args) -> int:
    _, rel = parse_relation_file(load_json(args.file), cap=args.max_space)
    start = _parse_value_arg(args.from_value)
    mode = _MODES[args.mode]
    values = limit_from(rel, start, mode=mode, fuel=args.fuel)
    if args.json:
        _print_doc({"from": value_doc(start), "mode": mode,
                    "values": [value_doc(v) for v in values]})
    else:
        print(render_set(values))
    return 0


def _cmd_height(args) -> int:
    _, rel = parse_relation_file(load_json(args.file), cap=args.max_space)
    start = _parse_value_arg(args.from_value)
    h = height_from(rel, start, fuel=args.fuel)
    if args.json:
        _print_doc({"from": value_doc(start), "height": h})
    else:
        print(h)
    return 0


def _cmd_seed(args) -> int:
    small_space, small = parse_relation_file(load_json(args.small),
                                             cap=args.max_space)
    big_space, big = parse_relation_file(load_json(args.big),
                                         cap=args.max_space)
    if not same_space(small_space, big_space):
        raise MalformedExpr("the two relation files use different spaces")
    report = is_seed(small, big, cap=args.max_space)
    if args.json:
        sw = report.subset_witness
        _print_doc({"holds": report.holds,
                    "subset_witness": ([value_doc(sw[0]), value_doc(sw[1])]
                                       if sw else None),
                    "domain_witness": (value_doc(report.domain_witness)
                                       if report.domain_witness is not None
                                       else None),
                    "domain_side": report.domain_side})
    else:
        print(report.render())
    return 0 if report.holds else 1


# -- loop subcommands -------------------------------------------------------------

def _load_target(args, *, check: bool):
    """(loop, instance-or-None) from an example name or a loop file."""
    target = args.target
    if target in examples_mod.EXAMPLE_NAMES:
        inst = examples_mod.instantiate(target, **_example_params(args))
        return inst.loop, inst
    if os.path.exists(target):
        loop = parse_loop_file(load_json(target), cap=args.max_space,
                               check=check, fuel=args.fuel)
        return loop, None
    raise MalformedExpr(f"{target!r} is neither an example name nor a file")


def _pick_input(args, loop, inst):
    if args.input is not None:
        return _parse_value_arg(args.input)
    if inst is not None:
        return inst.input
    served = served_inputs(loop, args.max_space)
    if len(served) == 1:
        return served[0]
    raise MalformedExpr("loop has several possible inputs; pass --input")


def _oracle_ctx(loop, inst) -> dict:
    ctx = dict(inst.ctx) if inst is not None else {}
    ctx["loop"] = loop
    return ctx


def _cmd_run(args) -> int:
    loop, inst = _load_target(args, check=False)
    input_value = _pick_input(args, loop, inst)
    chooser = inst.chooser if inst is not None else None
    mode = "all" if args.all else "single"
    traces = run_loop(loop, input_value, fuel=args.fuel, mode=mode,
                      choose=None if args.all else chooser,
                      validate=inst is None)
    if mode == "single":
        traces = [traces]

    failed = []
    if loop.postcondition:
        ctx = _oracle_ctx(loop, inst)
        for tr in traces:
            if not oracles.check(loop.postcondition, ctx, input_value,
                                 tr.terminal):
                failed.append(tr.terminal)

    if args.json:
        doc = {"input": value_doc(input_value), "mode": mode,
               "terminals": [value_doc(tr.terminal) for tr in traces],
               "steps": [tr.steps for tr in traces],
               "traces": ([[value_doc(s) for s in tr.states]
                           for tr in traces] if args.trace else None),
               "postcondition": ({"name": loop.postcondition,
                                  "passed": not failed}
                                 if loop.postcondition else None)}
        _print_doc(doc)
        return 1 if failed else 0

    if mode == "single":
        tr = traces[0]
        if args.trace:
            print(f"trace: {tr.render()}")
        print(f"terminal: {render(tr.terminal)}")
        print(f"steps: {tr.steps}")
    else:
        print(f"terminals: {render_set(tr.terminal for tr in traces)}")
        if args.trace:
            for tr in traces:
                print(f"trace to {render(tr.terminal)}: {tr.render()}")
    if loop.postcondition:
        if failed:
            print(f"postcondition {loop.postcondition}: "
                  f"FAIL at {render(failed[0])}")
        else:
            print(f"postcondition {loop.postcondition}: pass")
    return 1 if failed else 0


def _report_doc(report) -> dict:
    return {"passed": report.passed,
            "inputs_checked": report.inputs_checked,
            "obligations": [{"name": r.name, "passed": r.passed,
                             "detail": r.detail}
                            for r in report.results]}


def _cmd_verify(args) -> int:
    if (args.target == "gcd"
            and (args.a_max is not None or args.b_max is not None)):
        return _verify_gcd_sweep(args)
    loop, inst = _load_target(args, check=False)
    ctx = _oracle_ctx(loop, inst)
    # default: sweep every input the initialization serves
    inputs = [_parse_value_arg(args.input)] if args.input is not None else None
    report = verify(loop, inputs=inputs, ctx=ctx, cap=args.max_space,
                    fuel=args.fuel, run_fuel=args.fuel)
    if args.json:
        _print_doc(_report_doc(report))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _verify_gcd_sweep(args) -> int:
    a_max = args.a_max or args.b_max
    b_max = args.b_max or args.a_max
    if a_max < 1 or b_max < 1:
        raise MalformedExpr("sweep bounds must be positive")
    bound = max(a_max, b_max)
    gs = sorted({math.gcd(a, b)
                 for a in range(1, a_max + 1) for b in range(1, b_max + 1)})
    reports = []
    total = 0
    ok = True
    for g in gs:
        inst = examples_mod.instantiate("gcd", a=g, b=g, bound=bound)
        report = verify(inst.loop, ctx=_oracle_ctx(inst.loop, inst),
                        cap=args.max_space, fuel=args.fuel,
                        run_fuel=args.fuel)
        reports.append((g, report))
        total += report.inputs_checked
        ok = ok and report.passed
    if args.json:
        _print_doc({"target": "gcd", "passed": ok, "inputs_checked": total,
                    "cores": [{"gcd": g, "report": _report_doc(r)}
                              for g, r in reports]})
        return 0 if ok else 1
    print(f"gcd sweep: a <= {a_max}, b <= {b_max} ({len(gs)} gcd classes)")
    for g, report in reports:
        if not report.passed:
            print(f"-- gcd class {g} --")
            print(report.render())
    print(f"inputs checked: {total}")
    print(f"verdict: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_examples(args) -> int:
    rows = []
    for name in examples_mod.EXAMPLE_NAMES:
        flags = [f"--{flag}" + ("?" if kind.endswith("?") else "")
                 for flag, kind in examples_mod.EXAMPLE_PARAMS[name]]
        rows.append((name, flags, examples_mod.EXAMPLE_SUMMARIES[name]))
    if args.json:
        _print_doc({"examples": [{"name": n, "params": f, "summary": s}
                                 for n, f, s in rows]})
    else:
        for n, f, s in rows:
            print(f"{n} ({', '.join(f)}): {s}")
    return 0


def _cmd_audit(args) -> int:
    seed = args.seed
    env = os.environ.get("NOET_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise MalformedInput(
                f"NOET_SEED must be an integer, got {env!r}") from None
    if seed is None:
        seed = audit_mod.DEFAULT_SEED
    findings = audit_mod.run_audit(seed=seed, samples=args.samples)
    if args.json:
        sys.stdout.write(audit_mod.report_json(findings))
    else:
        print(audit_mod.render_report(findings))
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "limit": _cmd_limit,
    "height": _cmd_height,
    "seed": _cmd_seed,
    "run": _cmd_run,
    "verify": _cmd_verify,
    "examples": _cmd_examples,
    "audit": _cmd_audit,
}

# construction-time loop failures and cycles met by limit or height are
# verdicts with witnesses, not crashes
_PROPERTY_ERRORS = (EmptySpace, InitEscapesSpace, BodyNotSubsetOfOrder,
                    DomainMismatch, OrderNotNoetherian, NotNoetherian)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _PROPERTY_ERRORS as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (MalformedInput, LimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
