"""The noet command line: golden outputs and exit codes."""

import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from noet.cli import main

CORPUS = Path(__file__).parent / "corpus"


def ir(lo, hi):
    return {"kind": "int_range", "lo": lo, "hi": hi}


def nm(name):
    return {"kind": "named", "name": name}


def node_pairs(*pairs):
    return [[{"node": a}, {"node": b}] for a, b in pairs]


SUCC_FILE = {"space": ir(0, 5), "relation": nm("SUCCESSOR")}
CYCLE_FILE = {"space": ir(0, 3),
              "relation": {"kind": "extensional",
                           "pairs": [[{"int": 1}, {"int": 2}],
                                     [{"int": 2}, {"int": 1}]]}}
SPLIT_SPACE = {"kind": "explicit",
               "values": [{"node": c} for c in "abcd"]}
SPLIT_FILE = {"space": SPLIT_SPACE,
              "relation": {"kind": "extensional",
                           "pairs": node_pairs(("a", "b"), ("a", "c"),
                                               ("c", "d"))}}
COUNT_LOOP = {"space": ir(0, 5), "order": nm("INTGREATER"),
              "init": {"kind": "extensional",
                       "pairs": [[{"int": 5}, {"int": 5}]]},
              "body": nm("SUCCESSOR"),
              "postcondition": "minimum_characterization"}


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


class TestCheck:
    def test_terminating(self, tmp_rel_file, capsys):
        code = main(["check", tmp_rel_file(SUCC_FILE)])
        assert code == 0
        assert out_lines(capsys) == ["Noetherian (exhaustive)"]

    def test_cycle_witness(self, tmp_rel_file, capsys):
        code = main(["check", tmp_rel_file(CYCLE_FILE)])
        assert code == 1
        assert out_lines(capsys) == ["not Noetherian, cycle: 1 → 2 → 1"]

    def test_node_cycle_witness_is_the_same_in_every_process(self,
                                                              tmp_rel_file):
        # which cycle the search meets first follows set order, hence value
        # hashes; node hashes must not take the per-process str salt
        hub = {"space": {"kind": "explicit",
                         "values": [{"node": c} for c in "abcde"]},
               "relation": {"kind": "extensional",
                            "pairs": node_pairs(("a", "b"), ("a", "c"),
                                                ("a", "d"), ("b", "a"),
                                                ("c", "a"), ("d", "a"))}}
        path = tmp_rel_file(hub)
        outputs = set()
        for seed in ("1", "4", "5", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "noet.cli", "check", path], env=env,
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 1, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {"not Noetherian, cycle: a → d → a\n"}

    def test_unknown_is_exit_two(self, tmp_rel_file, capsys):
        huge = {"space": ir(0, 10 ** 6), "relation": nm("SUCCESSOR")}
        code = main(["check", tmp_rel_file(huge), "--fuel", "50"])
        assert code == 2
        assert out_lines(capsys)[0].startswith("unknown:")

    def test_json_document(self, tmp_rel_file, capsys):
        code = main(["check", tmp_rel_file(CYCLE_FILE), "--json"])
        assert code == 1
        raw = capsys.readouterr().out
        assert raw.endswith("\n")
        doc = json.loads(raw)
        assert doc["status"] == "not_noetherian"
        assert doc["method"] == "exhaustive"
        assert doc["witness"] == [{"int": 1}, {"int": 2}, {"int": 1}]


class TestLimitAndHeight:
    def test_limit_maxdepth(self, tmp_rel_file, capsys):
        code = main(["limit", tmp_rel_file(SUCC_FILE), "--from", "2"])
        assert code == 0
        assert out_lines(capsys) == ["{0}"]

    def test_limit_modes_disagree(self, tmp_rel_file, capsys):
        path = tmp_rel_file(SPLIT_FILE)
        main(["limit", path, "--from", "a", "--mode", "maxdepth"])
        assert out_lines(capsys) == ["{d}"]
        main(["limit", path, "--from", "a", "--mode", "minima"])
        assert out_lines(capsys) == ["{b, d}"]

    def test_limit_json(self, tmp_rel_file, capsys):
        main(["limit", tmp_rel_file(SPLIT_FILE), "--from", "a",
              "--mode", "minima", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"from": {"node": "a"}, "mode": "reachable_minima",
                       "values": [{"node": "b"}, {"node": "d"}]}

    def test_height(self, tmp_rel_file, capsys):
        code = main(["height", tmp_rel_file(SUCC_FILE), "--from", "3"])
        assert code == 0
        assert out_lines(capsys) == ["3"]

    def test_height_fuel_cut(self, tmp_rel_file, capsys):
        code = main(["height", tmp_rel_file(SUCC_FILE), "--from", "5",
                     "--fuel", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_cycle_is_an_error(self, tmp_rel_file, capsys):
        # a reachable cycle is a failed property with a witness, as in check
        code = main(["limit", tmp_rel_file(CYCLE_FILE), "--from", "1"])
        assert code == 1
        assert "infinite descending chain: 1 → 2 → 1" \
            in capsys.readouterr().err

    def test_height_cycle_is_an_error(self, tmp_rel_file, capsys):
        code = main(["height", tmp_rel_file(CYCLE_FILE), "--from", "1"])
        assert code == 1
        assert "infinite descending chain: 1 → 2 → 1" \
            in capsys.readouterr().err


class TestSeed:
    SMALL = {"space": {"kind": "explicit",
                       "values": [{"node": "a"}, {"node": "b"}, {"node": "e"}]},
             "relation": {"kind": "extensional",
                          "pairs": node_pairs(("a", "b"))}}
    BIG = {"space": {"kind": "explicit",
                     "values": [{"node": "a"}, {"node": "b"}, {"node": "e"}]},
           "relation": {"kind": "extensional",
                        "pairs": node_pairs(("a", "b"), ("a", "e"))}}

    def test_holds(self, tmp_rel_file, capsys):
        code = main(["seed", tmp_rel_file(self.SMALL, "s.json"),
                     tmp_rel_file(self.BIG, "b.json")])
        assert code == 0
        assert out_lines(capsys) == ["seed: yes"]

    def test_fails_with_witness(self, tmp_rel_file, capsys):
        code = main(["seed", tmp_rel_file(self.BIG, "b.json"),
                     tmp_rel_file(self.SMALL, "s.json")])
        assert code == 1
        assert out_lines(capsys) == [
            "seed: no, pair a → e falls outside the larger relation"]

    def test_spaces_must_match(self, tmp_rel_file, capsys):
        code = main(["seed", tmp_rel_file(self.SMALL, "s.json"),
                     tmp_rel_file(SUCC_FILE, "other.json")])
        assert code == 2
        assert "different spaces" in capsys.readouterr().err

    def test_json(self, tmp_rel_file, capsys):
        main(["seed", tmp_rel_file(self.SMALL, "s.json"),
              tmp_rel_file(self.BIG, "b.json"), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"holds": True, "subset_witness": None,
                       "domain_witness": None, "domain_side": None}


class TestRun:
    def test_loop_file_with_trace(self, tmp_rel_file, capsys):
        code = main(["run", tmp_rel_file(COUNT_LOOP, "c.loop"), "--trace"])
        assert code == 0
        assert out_lines(capsys) == [
            "trace: 5 → 4 → 3 → 2 → 1 → 0",
            "terminal: 0",
            "steps: 5",
            "postcondition minimum_characterization: pass",
        ]

    def test_example_by_name(self, capsys):
        code = main(["run", "gcd", "--a", "12", "--b", "8", "--trace"])
        assert code == 0
        assert out_lines(capsys) == [
            "trace: (12, 8) → (4, 8) → (4, 4)",
            "terminal: (4, 4)",
            "steps: 2",
            "postcondition gcd: pass",
        ]

    def test_all_mode(self, tmp_rel_file, capsys):
        branching = {
            "space": SPLIT_SPACE,
            "input_space": {"kind": "explicit", "values": [{"node": "go"}]},
            "order": {"kind": "extensional",
                      "pairs": node_pairs(("a", "b"), ("a", "c"),
                                          ("a", "d"), ("c", "d"))},
            "init": {"kind": "extensional", "pairs": node_pairs(("go", "a"))},
            "body": {"kind": "extensional",
                     "pairs": node_pairs(("a", "b"), ("a", "c"), ("c", "d"))},
        }
        code = main(["run", tmp_rel_file(branching, "b.loop"), "--all"])
        assert code == 0
        assert out_lines(capsys) == ["terminals: {b, d}"]

    def test_json_run(self, capsys):
        code = main(["run", "seq_search", "--t", "5,3", "--x", "3", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["terminals"] == [{"interval": [1, 1]}]
        assert doc["steps"] == [1]
        assert doc["traces"] is None
        assert doc["postcondition"] == {"name": "membership_prefix",
                                        "passed": True}

    def test_input_outside_init(self, tmp_rel_file, capsys):
        code = main(["run", tmp_rel_file(COUNT_LOOP, "c.loop"),
                     "--input", "3"])
        assert code == 2
        assert "not served" in capsys.readouterr().err

    def test_several_inputs_need_a_choice(self, tmp_rel_file, capsys):
        doc = dict(COUNT_LOOP)
        doc["init"] = {"kind": "extensional",
                       "pairs": [[{"int": 5}, {"int": 5}],
                                 [{"int": 4}, {"int": 4}]]}
        code = main(["run", tmp_rel_file(doc, "c.loop")])
        assert code == 2
        assert "pass --input" in capsys.readouterr().err
        code = main(["run", tmp_rel_file(doc, "c.loop"), "--input", "4"])
        assert code == 0

    def test_rogue_file_loop_is_caught_while_running(self, tmp_rel_file,
                                                     capsys):
        # file loops run validated, so a body outside the order is a
        # property failure, not a crash
        doc = dict(COUNT_LOOP)
        doc["body"] = {"kind": "named", "name": "PREDECESSOR"}
        doc["init"] = {"kind": "extensional",
                       "pairs": [[{"int": 2}, {"int": 2}]]}
        del doc["postcondition"]
        code = main(["run", tmp_rel_file(doc, "c.loop")])
        assert code == 1
        assert "check failed:" in capsys.readouterr().err


class TestVerify:
    def test_loop_file_green(self, tmp_rel_file, capsys):
        code = main(["verify", tmp_rel_file(COUNT_LOOP, "c.loop")])
        assert code == 0
        text = capsys.readouterr().out
        assert "order_noetherian: pass" in text
        assert "inputs checked: 1" in text
        assert text.rstrip().endswith("verdict: pass")

    def test_example_verify(self, capsys):
        code = main(["verify", "seq_search", "--t", "4,7", "--x", "7"])
        assert code == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_red_report(self, tmp_rel_file, capsys):
        # body stops at 2, so 2 is a terminal but not an order minimum
        doc = dict(COUNT_LOOP)
        doc["body"] = {"kind": "extensional",
                       "pairs": [[{"int": 5}, {"int": 4}],
                                 [{"int": 4}, {"int": 3}],
                                 [{"int": 3}, {"int": 2}]]}
        code = main(["verify", tmp_rel_file(doc, "c.loop")])
        assert code == 1
        text = capsys.readouterr().out
        assert "body_is_seed: FAIL" in text
        assert "postcondition_at_minima: FAIL" in text
        assert "verdict: FAIL" in text

    def test_gcd_sweep(self, capsys):
        code = main(["verify", "gcd", "--a-max", "6", "--b-max", "6"])
        assert code == 0
        lines = out_lines(capsys)
        assert lines[0] == "gcd sweep: a <= 6, b <= 6 (6 gcd classes)"
        assert lines[-1] == "verdict: pass"
        assert lines[-2].startswith("inputs checked: ")

    def test_space_cap_is_an_error(self, tmp_rel_file, capsys):
        doc = dict(COUNT_LOOP)
        doc["space"] = ir(0, 200)
        doc["order"] = nm("INTGREATER")
        doc["body"] = nm("SUCCESSOR")
        code = main(["verify", tmp_rel_file(doc, "c.loop"),
                     "--max-space", "100"])
        assert code == 2
        assert "cap is 100" in capsys.readouterr().err

    def test_verify_json(self, tmp_rel_file, capsys):
        code = main(["verify", tmp_rel_file(COUNT_LOOP, "c.loop"), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["inputs_checked"] == 1
        assert [o["name"] for o in doc["obligations"]][:2] \
            == ["space_nonempty", "init_range"]


class TestExamplesListing:
    def test_text(self, capsys):
        code = main(["examples", "--list"])
        assert code == 0
        lines = out_lines(capsys)
        assert len(lines) == 6
        assert lines[0] == ("gcd (--a, --b, --bound?): subtractive gcd on "
                            "pairs sharing a gcd, ordered by max")
        assert lines[-1].startswith("lamsort (--t): ")

    def test_json(self, capsys):
        main(["examples", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in doc["examples"]] == [
            "gcd", "seq_search", "general_search_interval",
            "general_search_intervalset", "partition", "lamsort"]


class TestAudit:
    def test_report(self, capsys):
        code = main(["audit", "--samples", "40"])
        assert code == 0
        lines = out_lines(capsys)
        assert len(lines) == 4
        assert lines[0].startswith("compose_noetherian: counterexample_found")
        assert "seed 0" in lines[2]

    def test_seed_flag(self, capsys):
        main(["audit", "--samples", "10", "--seed", "5"])
        assert "seed 5" in capsys.readouterr().out

    def test_env_seed_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("NOET_SEED", "7")
        main(["audit", "--samples", "10", "--seed", "5"])
        assert "seed 7" in capsys.readouterr().out

    def test_json_matches_library_report(self, capsys):
        from noet.audit import report_json, run_audit
        main(["audit", "--samples", "25", "--json"])
        assert capsys.readouterr().out == report_json(run_audit(0, 25))


class TestErrors:
    def test_missing_file(self, capsys):
        code = main(["check", "/nonexistent/rel.json"])
        assert code == 2
        assert "error: cannot read" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{", encoding="utf-8")
        code = main(["check", str(p)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_target(self, capsys):
        code = main(["run", "perpetuum_mobile"])
        assert code == 2
        assert "neither an example name nor a file" in capsys.readouterr().err

    def test_bad_example_params(self, capsys):
        code = main(["run", "gcd", "--a", "12"])
        assert code == 2
        assert "needs parameters" in capsys.readouterr().err

    def test_malformed_t_exits_two(self, capsys):
        code = main(["run", "seq_search", "--t", "1,x", "--x", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --t needs comma-separated integers")
        assert "Traceback" not in err

    def test_malformed_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("NOET_SEED", "abc")
        code = main(["audit", "--samples", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NOET_SEED must be an integer")
        assert "Traceback" not in err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["limit"])   # --from is required
        assert exc.value.code == 2

    def test_globals_accepted_after_subcommand(self, tmp_rel_file):
        assert main(["check", tmp_rel_file(SUCC_FILE), "--fuel", "99",
                     "--max-space", "50000"]) == 0

    @pytest.mark.parametrize("relation", [
        {"kind": "named", "name": ["SUCCESSOR"]},
        {"kind": "induced", "fn": ["max"], "over": nm("INTGREATER"),
         "over_space": ir(0, 3)},
        {"kind": "induced", "fn": "depth", "over": nm("PREDECESSOR"),
         "over_space": ir(0, 3), "parent": ["a"]},
        {"kind": "named", "name": "PARENT", "parent": {"b": 1}},
    ], ids=["name-list", "fn-list", "parent-list", "parent-int-value"])
    def test_malformed_relation_exits_two(self, tmp_rel_file, capsys,
                                          relation):
        code = main(["check", tmp_rel_file({"space": SPLIT_SPACE,
                                            "relation": relation})])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("depth", [300, 1500])
    def test_deeply_nested_value_exits_two(self, tmp_path, capsys, depth):
        value = '{"pair": [' * depth + '{"int": 0}' + ', {"int": 1}]}' * depth
        p = tmp_path / "deep.json"
        p.write_text('{"space": {"kind": "explicit", "values": [%s]}, '
                     '"relation": {"kind": "named", "name": "SUCCESSOR"}}'
                     % value, encoding="utf-8")
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("space,relation", [
        (ir(0, 3), {"kind": "extensional",
                    "pairs": [[{"x" * 900: 1}, {"int": 0}]]}),
        (ir(0, 3), {"kind": "extensional",
                    "pairs": [[{f"tag{i}": i for i in range(100)},
                               {"int": 0}]]}),
        (ir(0, 3), {"kind": "x" * 900}),
        ({"kind": "y" * 900}, nm("SUCCESSOR")),
    ], ids=["long-tag", "many-tags", "long-relation-kind", "long-space-kind"])
    def test_quoted_input_is_bounded(self, tmp_rel_file, capsys, space,
                                     relation):
        assert main(["check", tmp_rel_file({"space": space,
                                            "relation": relation})]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200

    def test_deeply_nested_int_is_quoted_briefly(self, tmp_path, capsys):
        p = tmp_path / "deep_int.json"
        p.write_text('{"space": {"kind": "int_range", "lo": 0, "hi": 3}, '
                     '"relation": {"kind": "extensional", "pairs": '
                     '[[{"int": %s}, {"int": 0}]]}}'
                     % ("[" * 900 + "]" * 900), encoding="utf-8")
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: int value must be an integer")
        assert len(err.splitlines()[0]) < 200

    def test_deeply_nested_start_value_exits_two(self, tmp_rel_file, capsys):
        start = '{"pair": [' * 1500 + '{"int": 0}' + ', {"int": 1}]}' * 1500
        assert main(["limit", tmp_rel_file(SUCC_FILE), "--from", start]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


MUTATIONS = ("delete", None, 1, "x", [], {}, [[]])


def field_paths(doc, prefix=()):
    """Key path of every object field in a document, at any depth."""
    if isinstance(doc, dict):
        for key, body in doc.items():
            yield prefix + (key,)
            yield from field_paths(body, prefix + (key,))
    elif isinstance(doc, list):
        for i, body in enumerate(doc):
            yield from field_paths(body, prefix + (i,))


CORPUS_FIELDS = [
    (path.name, field) for path in sorted(CORPUS.glob("*.json"))
    for field in field_paths(json.loads(path.read_text(encoding="utf-8")))]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestMalformedDocuments:
    @settings(max_examples=200, deadline=None)
    @given(target=st.sampled_from(CORPUS_FIELDS),
           mutation=st.sampled_from(MUTATIONS), as_json=st.booleans())
    def test_one_mutated_field_keeps_the_exit_contract(self, fuzz_dir, target,
                                                       mutation, as_json):
        name, field = target
        doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        command = "verify" if "body" in doc else "check"
        holder = doc
        for key in field[:-1]:
            holder = holder[key]
        if mutation == "delete":
            del holder[field[-1]]
        else:
            holder[field[-1]] = copy.deepcopy(mutation)
        path = fuzz_dir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path)] + (["--json"] if as_json else []))
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if as_json and code in (0, 1):
            json.loads(out.getvalue())


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        # Run the console script declared in pyproject.toml through the
        # same launcher an installer writes, placed first on PATH, so the
        # checkout's entry point is tested rather than whatever `noet` an
        # earlier install may have left behind.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["noet"]
        module, attr = entry.split(":")
        launcher = tmp_path / "noet"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n", encoding="utf-8")
        launcher.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
        proc = subprocess.run(["noet", "examples", "--list"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].startswith("gcd ")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "noet.cli", "audit", "--samples", "5"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0


# -- output bytes over cyclic closures and compositions --------------------------

MEASURES = [nm(n) for n in ("INTDIFF", "INTSUM", "MAXINT", "MININT")]
INVERSES = [{"kind": "inverse", "of": m} for m in MEASURES]
PAIR_STARTS = [{"pair": [{"int": a}, {"int": b}]}
               for a, b in ((3, 1), (0, 0), (2, 3), (1, 2), (3, 3))]


def digest_files():
    """(name, relation file, start) triples: compositions and closures of
    the measure families and their inverses on pairs of 0..3, and seeded
    random relations on 0..7 with their closures. Most of them reach a
    cycle, so most outputs carry a witness."""
    pairs_space = {"kind": "product", "of": [ir(0, 3), ir(0, 3)]}
    exprs = [{"kind": "closure", "of": a} for a in MEASURES + INVERSES]
    for m in MEASURES:
        for i in INVERSES:
            exprs.append({"kind": "compose", "first": m, "second": i})
            exprs.append({"kind": "compose", "first": i, "second": m})
    exprs += [{"kind": "closure",
               "of": {"kind": "compose", "first": m, "second": i}}
              for m, i in zip(MEASURES, INVERSES)]
    files = [(f"measure{k}", {"space": pairs_space, "relation": e},
              PAIR_STARTS[k % len(PAIR_STARTS)])
             for k, e in enumerate(exprs)]
    rng = random.Random(2024)
    for k in range(8):
        ext = {"kind": "extensional",
               "pairs": [[{"int": a}, {"int": b}] for a in range(8)
                         for b in range(8) if rng.random() < 0.2]}
        for tag, e in (("", ext), ("plus", {"kind": "closure", "of": ext})):
            files.append((f"random{k}{tag}", {"space": ir(0, 7), "relation": e},
                          {"int": k}))
    return files


class TestOutputDigest:
    def test_cli_bytes_are_pinned(self, tmp_path):
        # One sha256 over the stdout, stderr and exit code of ~500 in-process
        # runs. Cycle witnesses follow the iteration order of the sets that
        # compose and closure build, so any change to how those walks fill
        # their sets shows here. Int and pair hashes do not depend on
        # PYTHONHASHSEED, so neither does the digest.
        h = hashlib.sha256()
        runs = 0
        for name, doc, start in digest_files():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            frm = ["--from", json.dumps(start)]
            argvs = [["check"], ["check", "--json"],
                     ["height", *frm], ["height", *frm, "--fuel", "7"]]
            argvs += [["limit", *frm, "--mode", mode, *flag]
                      for mode in ("maxdepth", "minima")
                      for flag in ([], ["--json"])]
            for argv in argvs:
                argv.insert(1, str(path))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                h.update(repr((name, argv[0], argv[2:], out.getvalue(),
                               err.getvalue(), code)).encode("utf-8"))
                runs += 1
        assert runs == 480
        assert h.hexdigest() == (
            "4dc75ddd811f792d01d0800655d1d6377ac874ac53ff6063002ee0ffb18745b1")
