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

from noet.cli import _build_parser, _example_params, main
from noet.errors import (BodyNotSubsetOfOrder, DomainMismatch, EmptySpace,
                         InitEscapesSpace, NoetError, NotNoetherian,
                         OrderNotNoetherian, Refuted)
from noet.examples import EXAMPLES, _gcd_core, instantiate

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

SPIN = {"kind": "extensional",
        "pairs": [[{"int": 1}, {"int": 2}], [{"int": 2}, {"int": 1}]]}
SPIN_LOOP = {"space": ir(0, 2), "order": SPIN, "body": SPIN,
             "init": {"kind": "extensional",
                      "pairs": [[{"int": 1}, {"int": 1}]]}}


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

    def test_all_mode_refuses_a_reachable_cycle(self, tmp_rel_file, capsys):
        # order and body both hold 1 → 2 → 1, so every step is validated
        # and no state is terminal; the cycle is the verdict
        code = main(["run", tmp_rel_file(SPIN_LOOP, "spin.loop"), "--all"])
        assert code == 1
        assert capsys.readouterr() == (
            "", "check failed: relation admits an infinite descending "
                "chain: 1 → 2 → 1\n")

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

    @pytest.mark.parametrize("order", [
        SPIN, {"kind": "extensional", "pairs": [[{"int": 2}, {"int": 1}]]}],
        ids=["cyclic order", "acyclic order"])
    def test_a_cyclic_body_gets_a_report(self, tmp_rel_file, capsys, order):
        path = tmp_rel_file(dict(SPIN_LOOP, order=order), "spin.loop")
        detail = ("not evaluated: relation admits an infinite descending "
                  "chain: 1 → 2 → 1")
        assert main(["verify", path]) == 1
        lines = out_lines(capsys)
        assert f"denotation_agreement: FAIL ({detail})" in lines
        assert lines[-1] == "verdict: FAIL"
        assert main(["verify", path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["obligations"][-1] == {
            "name": "denotation_agreement", "passed": False, "detail": detail}

    def test_gcd_sweep(self, capsys):
        code = main(["verify", "gcd", "--a-max", "6", "--b-max", "6"])
        assert code == 0
        lines = out_lines(capsys)
        assert lines[0] == "gcd sweep: a <= 6, b <= 6 (6 gcd classes)"
        assert lines[-1] == "verdict: pass"
        assert lines[-2].startswith("inputs checked: ")

    @pytest.mark.parametrize("flags,digest", [
        ([], "91f052199ed932260c0d9ceb2b4ac07411f0e6ee2b512aeeea0889c575c27683"),
        (["--json"],
         "8de8197157467bf4469413c6b67f3908457bd1f9169a520be00aef8ebbc0d36d")])
    def test_gcd_sweep_at_bound_64_is_pinned(self, flags, digest):
        # the benchmark's gcd_verify workload runs this sweep
        code, out, err = run_in_process(
            ["verify", "gcd", "--a-max", "64", "--b-max", "64", *flags])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_gcd_sweep_reaches_the_cap_without_a_grid_pass(self):
        # the classes are 1..min(a_max, b_max), listed without taking the
        # gcd of every pair in the grid, so wide bounds reach the cap fast
        proc = subprocess.run(
            [sys.executable, "-m", "noet.cli", "verify", "gcd",
             "--a-max", "100000", "--b-max", "100000"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == ("error: space needs more than 100000 "
                               "elements, cap is 100000\n")

    def test_space_cap_is_an_error(self, tmp_rel_file, capsys):
        doc = dict(COUNT_LOOP)
        doc["space"] = ir(0, 200)
        doc["order"] = nm("INTGREATER")
        doc["body"] = nm("SUCCESSOR")
        code = main(["verify", tmp_rel_file(doc, "c.loop"),
                     "--max-space", "100"])
        assert code == 2
        assert "cap is 100" in capsys.readouterr().err

    @pytest.mark.parametrize("warm", [False, True])
    def test_space_cap_answer_does_not_depend_on_the_shared_cores(self, warm):
        # at bound 40, gcd class 7 has 19 states and class 1 has 979; at
        # bound 6, class 2 (built and checked, since 6 <= 32) has 7
        _gcd_core.cache_clear()
        try:
            if warm:
                for g in (1, 7):
                    instantiate("gcd", a=g, b=g, bound=40).loop.space.values()
                instantiate("gcd", a=6, b=4)
            argv = ["verify", "gcd", "--bound", "40", "--max-space", "100"]
            assert run_in_process(argv + ["--a", "7", "--b", "7"])[0] == 0
            code, _, err = run_in_process(argv + ["--a", "1", "--b", "1"])
            assert code == 2
            assert err.startswith("error: space needs ")
            assert err.endswith(" elements, cap is 100\n")
            assert run_in_process(["run", "gcd", "--a", "6", "--b", "4",
                                   "--max-space", "1"]) == (
                2, "", "error: space needs more than 1 elements, cap is 1\n")
        finally:
            _gcd_core.cache_clear()

    def test_verify_json(self, tmp_rel_file, capsys):
        code = main(["verify", tmp_rel_file(COUNT_LOOP, "c.loop"), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["inputs_checked"] == 1
        assert [o["name"] for o in doc["obligations"]][:2] \
            == ["space_nonempty", "init_range"]


class TestMaxSpaceHoldsForEveryCommand:
    def test_a_projection_scan_stops_at_the_cap(self, tmp_rel_file):
        # 100 states; the probe's scans of the space meet the cap too
        doc = {"space": {"kind": "product", "of": [ir(0, 9), ir(0, 9)]},
               "relation": {"kind": "projection", "component": 0,
                            "over": nm("INTGREATER"), "over_space": ir(0, 9)}}
        path = tmp_rel_file(doc)
        assert run_in_process(["check", path])[0] == 0
        assert run_in_process(["check", path, "--max-space", "50"]) == (
            2, "", "error: space needs 100 elements, cap is 50\n")

    @pytest.mark.parametrize("argv,cap,err", [
        (["run", "general_search_interval", "--t", "1,2,3,4", "--x", "2"],
         "1", "error: space needs 6 elements, cap is 1\n"),
        (["audit", "--samples", "3"],
         "0", "error: space needs 2 elements, cap is 0\n")])
    def test_examples_and_the_audit_enumerate_within_the_cap(self, argv, cap,
                                                             err):
        assert run_in_process(argv)[0] == 0
        assert run_in_process(argv + ["--max-space", cap]) == (2, "", err)


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


class TestExampleFlags:
    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_every_parameter_parses(self, command, name):
        _, params, _ = EXAMPLES[name]
        argv = [command, name]
        want = {}
        for flag, kind in params:
            raw, want[flag] = (("3, 1,2", (3, 1, 2)) if kind == "ints"
                               else ("7", 7))
            argv += [f"--{flag}", raw]
        args = _build_parser().parse_args(argv)
        assert _example_params(args) == want


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

    def test_default_sample_count_report_bytes_are_pinned(self, capsys,
                                                           monkeypatch):
        # the full sha256 of the default-size run, where repeated samples
        # are most common
        monkeypatch.delenv("NOET_SEED", raising=False)
        assert main(["audit", "--samples", "1000", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "da93b084bc9eaf4d2afcab2eaee1ce3f099be39c01013d6ea433aaf2e1e3cdba")

    def test_negative_samples_exit_two(self, capsys):
        assert main(["audit", "--samples", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sample count must be non-negative, "
                                "got -5\n")

    def test_zero_samples_pass(self, capsys):
        assert main(["audit", "--samples", "0"]) == 0
        assert "(0 samples, seed 0)" in capsys.readouterr().out


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

    def test_verdict_errors_are_refutations(self):
        for err in (EmptySpace, InitEscapesSpace, BodyNotSubsetOfOrder,
                    DomainMismatch, OrderNotNoetherian, NotNoetherian):
            assert issubclass(err, Refuted) and issubclass(err, NoetError)

    @pytest.mark.parametrize("rule", ["INTERVAL", "INTERVAL'"])
    def test_a_measure_over_too_many_intervals_exits_two(self, rule,
                                                         tmp_rel_file, capsys):
        # the probes are non-empty intervals, and measuring the space to
        # step from one of them is a limit
        f = tmp_rel_file({"space": {"kind": "intervals_of", "lo": 1,
                                    "hi": 500},
                          "relation": nm(rule)})
        assert main(["check", f]) == 2
        assert capsys.readouterr().err == (
            "error: space needs 125751 elements, cap is 100000\n")

    # SUCCESSOR's pair test holds for 100 -> 99, past int_range 0..5, and
    # cannot read a node at all
    @pytest.mark.parametrize("pair,shown", [
        ([{"int": 100}, {"int": 99}], "100"),
        ([{"node": "a"}, {"int": 1}], "a"),
    ], ids=["past-the-window", "wrong-kind"])
    def test_subrel_pair_outside_its_space_exits_two(self, tmp_rel_file,
                                                     capsys, pair, shown):
        rel = {"kind": "subrel", "of": nm("SUCCESSOR"), "pairs": [pair]}
        code = main(["check", tmp_rel_file({"space": ir(0, 5),
                                            "relation": rel}), "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: value {shown} is not a member of "
                                "int_range 0..5\n")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["limit"])   # --from is required
        assert exc.value.code == 2

    def test_globals_accepted_after_subcommand(self, tmp_rel_file):
        assert main(["check", tmp_rel_file(SUCC_FILE), "--fuel", "99",
                     "--max-space", "50000"]) == 0

    # each once ran: check gave a verdict (exit 0), height blamed fuel -1,
    # and verify reported a cap of -1
    @pytest.mark.parametrize("argv,flag", [
        (["check", "SUCC", "--fuel", "-1"], "--fuel"),
        (["height", "SUCC", "--from", "4", "--fuel", "-1"], "--fuel"),
        (["verify", "gcd", "--a-max", "2", "--b-max", "2",
          "--max-space", "-1"], "--max-space"),
    ], ids=["check-fuel", "height-fuel", "verify-max-space"])
    def test_negative_budget_is_a_usage_error(self, tmp_rel_file, argv, flag):
        argv = [tmp_rel_file(SUCC_FILE) if w == "SUCC" else w for w in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert out.getvalue() == ""
        assert err.getvalue().endswith(
            f"error: argument {flag}: must be non-negative, got -1\n")

    def test_zero_budget_is_accepted(self, tmp_rel_file, capsys):
        args = _build_parser().parse_args(
            ["check", "rel.json", "--fuel", "0", "--max-space", "0"])
        assert (args.fuel, args.max_space) == (0, 0)
        assert main(["check", tmp_rel_file(SUCC_FILE), "--fuel", "0"]) == 0
        assert capsys.readouterr().out == "Noetherian (exhaustive)\n"

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


# -- the exit contract under extreme flags and bad start values --------------------

EXTREMES = [[flag, str(v)] for flag, values in (("--fuel", (0, -1, 10 ** 20)),
                                                 ("--max-space", (0, -5, 10 ** 20)))
            for v in values]
FUZZ_FILES = {"SUCC": SUCC_FILE, "CYCLE": CYCLE_FILE, "SPLIT": SPLIT_FILE,
              "COUNT": COUNT_LOOP}
FUZZ_COMMANDS = [
    ["check", "SUCC"], ["check", "CYCLE"],
    ["limit", "SUCC", "--from", "2"],
    ["limit", "SPLIT", "--from", "a", "--mode", "minima"],
    ["height", "SUCC", "--from", "5"], ["height", "CYCLE", "--from", "1"],
    ["seed", "SUCC", "SUCC"], ["seed", "CYCLE", "SUCC"],
    ["run", "COUNT"], ["run", "COUNT", "--all", "--trace"],
    ["run", "gcd", "--a", "6", "--b", "4"],
    ["run", "lamsort", "--t", "3,1,2", "--all"],
    ["verify", "COUNT"], ["verify", "gcd", "--a", "6", "--b", "4"],
    ["verify", "gcd", "--a-max", "3"],
    ["verify", "seq_search", "--t", "1,2", "--x", "2"],
    ["examples"], ["audit", "--samples", "3"],
]
# (relation file, --from) pairs whose start is no member of the file's space
OUTSIDE_STARTS = [("SUCC", "9"), ("SUCC", "-1"), ("SUCC", "x"),
                  ("SUCC", '{"pair": [{"int": 0}, {"int": 1}]}'),
                  ("SPLIT", "z"), ("SPLIT", "3"),
                  ("SPLIT", '{"seq": [1, 2]}')]
# gcd bounds of 0, once read as absent: each must be refused, not defaulted
ZERO_GCD_BOUNDS = [["verify", "gcd", "--a-max", "0"],
                   ["verify", "gcd", "--a-max", "0", "--b-max", "3"],
                   ["run", "gcd", "--a", "3", "--b", "5", "--bound", "0"]]
EMPTY_T = [["seq_search", "--x", "1"], ["general_search_interval", "--x", "1"],
           ["general_search_intervalset", "--x", "1"],
           ["partition", "--pivot", "1"], ["lamsort"]]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    where = tmp_path_factory.mktemp("cli_fuzz")
    paths = {}
    for key, doc in FUZZ_FILES.items():
        paths[key] = where / f"{key.lower()}.json"
        paths[key].write_text(json.dumps(doc), encoding="utf-8")
    return {key: str(p) for key, p in paths.items()}


def run_in_process(argv):
    """(exit code, stdout, stderr) of one main call; usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if "--json" in argv and out:
        # a verdict raised as an error (a cycle met by height or limit)
        # goes to stderr alone, so only a written document is read
        json.loads(out)
    return code, err


class TestExitContractFuzz:
    @pytest.mark.parametrize("command", FUZZ_COMMANDS,
                             ids=[" ".join(c) for c in FUZZ_COMMANDS])
    def test_extreme_fuel_and_space_caps(self, fuzz_files, command):
        argv = [fuzz_files.get(word, word) for word in command]
        for extreme in EXTREMES:
            for json_flag in ([], ["--json"]):
                assert_exit_contract(argv + extreme + json_flag)

    @pytest.mark.parametrize("command", ["limit", "height"])
    @pytest.mark.parametrize("target,start", OUTSIDE_STARTS,
                             ids=[f"{t}:{s[:12]}" for t, s in OUTSIDE_STARTS])
    def test_start_outside_the_space_exits_two(self, fuzz_files, command,
                                               target, start):
        for json_flag in ([], ["--json"]):
            code, err = assert_exit_contract(
                [command, fuzz_files[target], "--from", start, *json_flag])
            assert code == 2
            assert err.startswith("error: value ") and "not a member" in err

    def test_outside_start_is_quoted_rendered(self, fuzz_files):
        code, _, err = run_in_process(["height", fuzz_files["SUCC"], "--from",
                                       '{"pair": [{"int": 0}, {"int": 1}]}'])
        assert (code, err) == (2, "error: value (0, 1) is not a member of "
                                  "int_range 0..5\n")

    @pytest.mark.parametrize("argv", [
        ["check", "SUCC", "--fuel", "x"], ["check", "SUCC", "--max-space="],
        ["limit", "SUCC", "--from", "2", "--mode", "deepest"],
        ["height", "SUCC"], ["run", "gcd", "--a", "1.5"], ["verify"],
        ["examples", "--nope"], ["audit", "--samples", "many"], ["frobnicate"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_flags_are_usage_errors(self, fuzz_files, argv):
        code, _ = assert_exit_contract([fuzz_files.get(w, w) for w in argv])
        assert code == 2

    @pytest.mark.parametrize("argv", ZERO_GCD_BOUNDS,
                             ids=lambda argv: " ".join(argv))
    def test_zero_gcd_bounds_exit_two(self, argv):
        code, err = assert_exit_contract(argv)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("example", EMPTY_T, ids=[e[0] for e in EMPTY_T])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_empty_t(self, command, example):
        for json_flag in ([], ["--json"]):
            assert_exit_contract([command, example[0], "--t=", *example[1:],
                                  *json_flag])


# -- the bytes of every command that TestOutputDigest does not run ----------------

RED_LOOP = dict(COUNT_LOOP, body={"kind": "extensional",
                                  "pairs": [[{"int": 5}, {"int": 4}],
                                            [{"int": 4}, {"int": 3}],
                                            [{"int": 3}, {"int": 2}]]})
DIGEST_FILES = dict(FUZZ_FILES, RED=RED_LOOP, SMALL=TestSeed.SMALL,
                    BIG=TestSeed.BIG)
RUN_TARGETS = [["COUNT"], ["RED"], ["gcd", "--a", "12", "--b", "8"],
               ["lamsort", "--t", "3,1,2"]]
DIGEST_COMMANDS = (
    [["run", *target, *flags] for target in RUN_TARGETS
     for flags in ([], ["--all"], ["--trace"], ["--all", "--trace"])]
    + [["verify", "COUNT"], ["verify", "RED"],
       ["verify", "seq_search", "--t", "1,2", "--x", "2"],
       ["verify", "gcd", "--a-max", "3"],
       ["seed", "SUCC", "SUCC"], ["seed", "SMALL", "BIG"],
       ["seed", "BIG", "SMALL"],
       ["examples"], ["audit", "--samples", "3"]])


class TestCommandDigest:
    def test_every_other_command_is_pinned(self, tmp_path):
        # One sha256 over the stdout, stderr and exit code of each command
        # above, with and without --json: together with TestOutputDigest it
        # covers every way a command writes its result.
        paths = {}
        for key, doc in DIGEST_FILES.items():
            paths[key] = tmp_path / f"{key.lower()}.json"
            paths[key].write_text(json.dumps(doc), encoding="utf-8")
        h = hashlib.sha256()
        runs = 0
        for command in DIGEST_COMMANDS:
            for json_flag in ([], ["--json"]):
                argv = [str(paths[w]) if w in paths else w for w in command]
                code, out, err = run_in_process(argv + json_flag)
                h.update(repr((command, json_flag, out, err,
                               code)).encode("utf-8"))
                runs += 1
        assert runs == 50
        assert h.hexdigest() == (
            "94da5fa8416143219f2349a0448515a0866f5fa96fa30ef338edd85855bc2c4c")
