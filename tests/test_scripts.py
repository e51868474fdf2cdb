"""Smoke tests for the scripts under scripts/, run in-process on tiny inputs
(bench_pairs starts perfbench runs as child processes)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name, monkeypatch):
    """scripts/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # each script puts the checkout's src on sys.path; keep that local
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module


def run_script(name, argv, monkeypatch):
    """Load scripts/<name>.py as a module and call its main() with argv."""
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return load_script(name, monkeypatch).main()


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
    # one pair is too few to show a gain
    assert all("  gain no  past bound " in line for line in lines[1:])


def test_bench_pairs_leaves_the_workload_check_to_run_py(monkeypatch, capsys):
    root = str(SCRIPTS.parent)
    code = run_script("bench_pairs",
                      ["--parent", root, "--change", root, "--workload",
                       "nosuch", "--pairs", "1", "--seconds", "0.5"],
                      monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid choice: 'nosuch'" in err


def paired_records(parent, change):
    """bench_pairs records of one wall_s value per side and pair."""
    return [{"side": side, "workload": "audit", "seed": 1, "pair": pair,
             "result": {"failed": 0, "correct": True,
                        "metrics": {"wall_s": {"value": value}}}}
            for pair, values in enumerate(zip(parent, change), 1)
            for side, value in zip(("parent", "change"), values)]


# parent wall_s over ten pairs: median 1.045, quartiles 1.0225 and 1.0675
PARENT = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("better, change, gain, past_bound", [
    # better in 10/10 pairs, median 0.145 below the parent's (IQR 0.045)
    ("lower", [v - 0.145 for v in PARENT], True, False),
    # better in 9/10 pairs
    ("lower", [v - 0.145 for v in PARENT[:9]] + [1.2], True, False),
    # better in 8/10 pairs
    ("lower", [v - 0.145 for v in PARENT[:8]] + [1.2, 1.2], False, False),
    # better in every pair, but the medians differ by less than the IQR
    ("lower", [v - 0.03 for v in PARENT], False, False),
    # worse by a fifth of the parent's median, inside the bound of 0.25
    ("lower", [v * 1.2 for v in PARENT], False, False),
    # worse by 0.3 of it
    ("lower", [v * 1.3 for v in PARENT], False, True),
    # the same runs where higher is better
    ("higher", [v * 1.3 for v in PARENT], True, False),
    ("higher", [v - 0.3 for v in PARENT], False, True),
])
def test_bench_pairs_gain_and_past_bound(monkeypatch, better, change, gain,
                                         past_bound):
    bench_pairs = load_script("bench_pairs", monkeypatch)
    rules = {"wall_s": {"name": "wall_s", "better": better, "bound": 0.25}}
    figures = bench_pairs.summarise(paired_records(PARENT, change), rules)
    wall = figures["audit seed 1"]["metrics"]["wall_s"]
    assert (wall["gain"], wall["past_bound"]) == (gain, past_bound)
    line = bench_pairs.render(figures).splitlines()[1]
    assert (f"  gain {'yes' if gain else 'no'}  past bound "
            f"{'yes' if past_bound else 'no'}  change better in ") in line
