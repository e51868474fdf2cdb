"""Command line front end.

Exit codes: 0 all checks pass, 1 a checked property fails (a Refuted
error; witness printed), 2 malformed input or a resource limit. Each command
computes one result, (exit code, JSON document, text), and `main` writes it
to standard output, as canonical JSON under --json and as text otherwise;
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import audit as audit_mod
from . import examples as examples_mod
from . import oracles
from .errors import MalformedExpr, MalformedInput, NoetError, Refuted
from .loops import run as run_loop
from .loops import served_inputs, verify
from .noether import (DEFAULT_FUEL, MAXDEPTH, NOETHERIAN, NOT_NOETHERIAN,
                      REACHABLE_MINIMA, height_from, is_noetherian, is_seed,
                      limit_from)
from .serialize import (canonical_json, load_json, parse_loop_file,
                        parse_relation_file, parse_value, value_doc)
from .spaces import DEFAULT_MAX_SPACE, max_space, same_space
from .values import Int, Node, render, render_set

_MODES = {"maxdepth": MAXDEPTH, "minima": REACHABLE_MINIMA}

# every example parameter once, flag -> kind, in the order the examples
# table first names it
_EXAMPLE_FLAGS = {flag: kind.rstrip("?")
                  for _, params, _ in examples_mod.EXAMPLES.values()
                  for flag, kind in params}


def _non_negative(raw: str) -> int:
    """A budget or cap flag's value: a non-negative integer, else a usage
    error, which argparse reports with exit code 2."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable document")
    common.add_argument("--fuel", type=_non_negative, default=DEFAULT_FUEL,
                        help="step budget for unbounded explorations")
    common.add_argument("--max-space", type=_non_negative,
                        default=DEFAULT_MAX_SPACE,
                        help="most values enumerated from any one space")

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
        for flag, kind in _EXAMPLE_FLAGS.items():
            if kind == "ints":
                p.add_argument(f"--{flag}", help="comma-separated integers")
            else:
                p.add_argument(f"--{flag}", type=int)
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
    for flag, kind in _EXAMPLE_FLAGS.items():
        v = getattr(args, flag)
        if v is None:
            continue
        if kind == "ints":
            v = v.strip()
            try:
                v = tuple(int(part) for part in v.split(",")) if v else ()
            except ValueError:
                raise MalformedInput(f"--{flag} needs comma-separated "
                                     f"integers, got {v!r}") from None
        params[flag] = v
    return params


# -- relation subcommands -------------------------------------------------------

def _cmd_check(args) -> tuple:
    _, rel = parse_relation_file(load_json(args.file))
    verdict = is_noetherian(rel, fuel=args.fuel)
    witness = verdict.witness
    doc = {"status": verdict.status, "method": verdict.method,
           "explored": verdict.explored,
           "witness": ([value_doc(v) for v in witness.elements]
                       if witness else None)}
    code = {NOETHERIAN: 0, NOT_NOETHERIAN: 1}.get(verdict.status, 2)
    return code, doc, verdict.render()


def _relation_and_start(args):
    """The relation file's relation and the --from value; height_from
    refuses a value outside the relation's space."""
    _, rel = parse_relation_file(load_json(args.file))
    return rel, _parse_value_arg(args.from_value)


def _cmd_limit(args) -> tuple:
    rel, start = _relation_and_start(args)
    mode = _MODES[args.mode]
    values = limit_from(rel, start, mode=mode, fuel=args.fuel)
    doc = {"from": value_doc(start), "mode": mode,
           "values": [value_doc(v) for v in values]}
    return 0, doc, render_set(values)


def _cmd_height(args) -> tuple:
    rel, start = _relation_and_start(args)
    h = height_from(rel, start, fuel=args.fuel)
    return 0, {"from": value_doc(start), "height": h}, str(h)


def _cmd_seed(args) -> tuple:
    small_space, small = parse_relation_file(load_json(args.small))
    big_space, big = parse_relation_file(load_json(args.big))
    if not same_space(small_space, big_space):
        raise MalformedExpr("the two relation files use different spaces")
    report = is_seed(small, big)
    sw = report.subset_witness
    doc = {"holds": report.holds,
           "subset_witness": ([value_doc(sw[0]), value_doc(sw[1])]
                              if sw else None),
           "domain_witness": (value_doc(report.domain_witness)
                              if report.domain_witness is not None else None),
           "domain_side": report.domain_side}
    return (0 if report.holds else 1), doc, report.render()


# -- loop subcommands -------------------------------------------------------------

def _load_target(args, *, check: bool):
    """(loop, instance-or-None) from an example name or a loop file."""
    target = args.target
    if target in examples_mod.EXAMPLE_NAMES:
        inst = examples_mod.instantiate(target, **_example_params(args))
        return inst.loop, inst
    if os.path.exists(target):
        loop = parse_loop_file(load_json(target), check=check, fuel=args.fuel)
        return loop, None
    raise MalformedExpr(f"{target!r} is neither an example name nor a file")


def _pick_input(args, loop, inst):
    if args.input is not None:
        return _parse_value_arg(args.input)
    if inst is not None:
        return inst.input
    served = served_inputs(loop)
    if len(served) == 1:
        return served[0]
    raise MalformedExpr("loop has several possible inputs; pass --input")


def _cmd_run(args) -> tuple:
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
        ctx = {**(inst.ctx if inst is not None else {}), "loop": loop}
        failed = [tr.terminal for tr in traces
                  if not oracles.check(loop.postcondition, ctx, input_value,
                                       tr.terminal)]
    doc = {"input": value_doc(input_value), "mode": mode,
           "terminals": [value_doc(tr.terminal) for tr in traces],
           "steps": [tr.steps for tr in traces],
           "traces": ([[value_doc(s) for s in tr.states]
                       for tr in traces] if args.trace else None),
           "postcondition": ({"name": loop.postcondition,
                              "passed": not failed}
                             if loop.postcondition else None)}

    if mode == "single":
        tr = traces[0]
        lines = [f"trace: {tr.render()}"] if args.trace else []
        lines += [f"terminal: {render(tr.terminal)}", f"steps: {tr.steps}"]
    else:
        lines = [f"terminals: {render_set(tr.terminal for tr in traces)}"]
        if args.trace:
            lines += [f"trace to {render(tr.terminal)}: {tr.render()}"
                      for tr in traces]
    if loop.postcondition:
        outcome = f"FAIL at {render(failed[0])}" if failed else "pass"
        lines.append(f"postcondition {loop.postcondition}: {outcome}")
    return (1 if failed else 0), doc, "\n".join(lines)


def _report_doc(report) -> dict:
    return {"passed": report.passed,
            "inputs_checked": report.inputs_checked,
            "obligations": [{"name": r.name, "passed": r.passed,
                             "detail": r.detail}
                            for r in report.results]}


def _cmd_verify(args) -> tuple:
    if (args.target == "gcd"
            and (args.a_max is not None or args.b_max is not None)):
        return _verify_gcd_sweep(args)
    loop, inst = _load_target(args, check=False)
    # default: sweep every input the initialization serves
    inputs = [_parse_value_arg(args.input)] if args.input is not None else None
    report = verify(loop, inputs=inputs, fuel=args.fuel,
                    ctx=inst.ctx if inst is not None else None)
    return (0 if report.passed else 1), _report_doc(report), report.render()


def _verify_gcd_sweep(args) -> tuple:
    a_max = args.b_max if args.a_max is None else args.a_max
    b_max = args.a_max if args.b_max is None else args.b_max
    if a_max < 1 or b_max < 1:
        raise MalformedExpr("sweep bounds must be positive")
    bound = max(a_max, b_max)
    # every g <= min(a_max, b_max) is gcd(g, g), and no gcd exceeds it
    gs = range(1, min(a_max, b_max) + 1)
    reports = []
    for g in gs:
        inst = examples_mod.instantiate("gcd", a=g, b=g, bound=bound)
        reports.append((g, verify(inst.loop, ctx=inst.ctx, fuel=args.fuel)))
    total = sum(r.inputs_checked for _, r in reports)
    ok = all(r.passed for _, r in reports)
    doc = {"target": "gcd", "passed": ok, "inputs_checked": total,
           "cores": [{"gcd": g, "report": _report_doc(r)} for g, r in reports]}
    lines = [f"gcd sweep: a <= {a_max}, b <= {b_max} ({len(gs)} gcd classes)"]
    for g, report in reports:
        if not report.passed:
            lines += [f"-- gcd class {g} --", report.render()]
    lines += [f"inputs checked: {total}",
              f"verdict: {'pass' if ok else 'FAIL'}"]
    return (0 if ok else 1), doc, "\n".join(lines)


def _cmd_examples(args) -> tuple:
    rows = [(name, [f"--{flag}" + ("?" if kind.endswith("?") else "")
                    for flag, kind in params], summary)
            for name, (_, params, summary) in examples_mod.EXAMPLES.items()]
    doc = {"examples": [{"name": n, "params": f, "summary": s}
                        for n, f, s in rows]}
    return 0, doc, "\n".join(f"{n} ({', '.join(f)}): {s}" for n, f, s in rows)


def _cmd_audit(args) -> tuple:
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
    return (0, audit_mod.report_doc(findings),
            audit_mod.render_report(findings))


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with max_space(args.max_space):
            code, doc, text = _COMMANDS[args.command](args)
    except Refuted as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except NoetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(canonical_json(doc) if args.json else text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
