"""The enumeration cap is one setting that Space.values reads: no function
under src/noet/ takes a parameter named cap, except the error that reports
one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "noet"
ALLOWED = {"errors.py:SpaceTooLarge.__init__"}


def cap_takers(source: str):
    """The qualified name of every function or lambda in source with a
    parameter named cap."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                          *(p for p in (a.vararg, a.kwarg) if p)]
                if any(p.arg == "cap" for p in params):
                    yield name
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    return list(walk(ast.parse(source), ""))


def test_the_guard_sees_every_kind_of_parameter():
    source = ("def f(cap): pass\n"
              "class C:\n"
              "    def g(self, *, cap=1): pass\n"
              "    def h(self, n):\n"
              "        return lambda cap: n\n"
              "def k(*cap): pass\n"
              "def ok(capacity, caps): pass\n")
    assert cap_takers(source) == ["f", "C.g", "C.h.<lambda>", "k"]


def test_no_function_takes_a_cap():
    found = {f"{path.relative_to(SRC).as_posix()}:{name}"
             for path in sorted(SRC.rglob("*.py"))
             for name in cap_takers(path.read_text(encoding="utf-8"))}
    assert found == ALLOWED
