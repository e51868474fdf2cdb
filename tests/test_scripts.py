"""Smoke tests for the scripts under scripts/, run in-process on tiny inputs
(bench_pairs starts perfbench runs as child processes)."""

import importlib.util
import json
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


def test_bench_pairs_one_tiny_pair(monkeypatch, capsys, tmp_path):
    # the same tree on both sides: one run each, parent first
    root = str(SCRIPTS.parent)
    out = tmp_path / "runs.jsonl"
    code = run_script("bench_pairs",
                      ["--parent", root, "--change", root, "--size", "tiny",
                       "--pairs", "1", "--seconds", "0.5", "--out", str(out)],
                      monkeypatch)
    assert code == 0
    runs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["side"], r["pair"], r["first"]) for r in runs] \
        == [("parent", 1, "parent"), ("change", 1, "parent")]
    assert all(r["result"]["correct"] and r["result"]["failed"] == 0
               for r in runs)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gcd_verify seed 1: 1 pairs, failed 0 / 0, correct True"
    assert lines[1].lstrip().startswith("wall_s ")
    assert all(line.endswith(("0/1", "1/1")) for line in lines[1:])


def test_bench_pairs_leaves_the_workload_check_to_run_py(monkeypatch, capsys):
    root = str(SCRIPTS.parent)
    code = run_script("bench_pairs",
                      ["--parent", root, "--change", root, "--workload",
                       "nosuch", "--pairs", "1", "--seconds", "0.5"],
                      monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid choice: 'nosuch'" in err
