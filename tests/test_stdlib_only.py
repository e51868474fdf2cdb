"""The runtime is standard-library only: every import under src/noet/ names
a standard-library module or noet itself."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "noet"
ALLOWED = sys.stdlib_module_names | {"noet"}


def imported_roots(path):
    """The top-level module each absolute import in path names; relative
    imports stay inside noet."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_source_tree_is_found():
    assert (SRC / "__init__.py").is_file()


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.relative_to(SRC).as_posix())
def test_every_import_is_standard_library_or_noet(path):
    outside = sorted(set(imported_roots(path)) - ALLOWED)
    assert outside == [], f"{path.name} imports {outside}"


def test_importing_noet_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site, so every module loaded is noet's doing
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import noet, noet.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-E", "-B", "-c", code,
                           str(SRC.parent)], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"
