"""Smoke tests for the scripts under scripts/, run in-process on tiny inputs."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv, monkeypatch):
    """Load scripts/<name>.py as a module and call its main() with argv."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # each script puts the checkout's src on sys.path; keep that local
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    spec.loader.exec_module(module)
    return module.main()


def test_sweep_examples(monkeypatch, capsys):
    code = run_script("sweep_examples",
                      ["--gcd-max", "2", "--n-max", "1", "--vals", "2"],
                      monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split()[0] for line in lines] == [
        "gcd", "seq_search", "general_search_interval",
        "general_search_intervalset", "partition", "lamsort"]
    assert all(" ok " in line for line in lines)
    assert lines[0].split()[1] == "4"   # a, b in 1..2


def test_binary_search_demo(monkeypatch, capsys):
    code = run_script("binary_search_demo", ["--t", "1,3,5,7", "--x", "5"],
                      monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "searching for 5 in (1, 3, 5, 7)"
    assert lines[1].lstrip().startswith("midpoint: ")
    assert lines[2].lstrip().startswith("canonical: ")
    assert lines[3].endswith("pass the membership oracle: True")
