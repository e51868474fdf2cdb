"""The claim audit: deterministic findings with reverifiable counterexamples."""

import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from noet import audit
from noet.audit import (CLAIM_COMPOSE, CLAIM_IDS, CLAIM_LIMIT_SUBSET,
                        CLAIM_STAR_IDENTITY, DEFAULT_SEED, REFUTED, VALIDATED,
                        AuditFinding, render_report, report_doc, report_json,
                        reverify, run_audit)
from noet.errors import MalformedInput
from noet.noether import (MAXDEPTH, NOETHERIAN, REACHABLE_MINIMA,
                          is_noetherian, is_seed)
from noet.relations import from_pairs
from noet.values import Int

# small sample count keeps the suite quick; the acceptance sweep runs the
# full default
FINDINGS = run_audit(seed=0, samples=60)


class TestFindings:
    def test_four_findings_in_fixed_order(self):
        assert [f.claim_id for f in FINDINGS] == [
            CLAIM_COMPOSE, CLAIM_LIMIT_SUBSET, CLAIM_LIMIT_SUBSET,
            CLAIM_STAR_IDENTITY]
        assert CLAIM_IDS == (CLAIM_COMPOSE, CLAIM_LIMIT_SUBSET,
                             CLAIM_STAR_IDENTITY)

    def test_statuses_and_restrictions(self):
        assert [f.status for f in FINDINGS] == [REFUTED, REFUTED,
                                                VALIDATED, VALIDATED]
        assert [f.restriction for f in FINDINGS] == [
            None, None, "s = plus(r)", "closure without the reflexive step"]

    def test_compose_counterexample_is_the_fixture(self):
        ce = FINDINGS[0].counterexample
        assert ce["cycle"] == [{"node": "a"}, {"node": "a"}]
        assert ce["composite"]["pairs"] == [[{"node": "a"}, {"node": "a"}]]

    def test_limit_counterexample_is_the_fixture(self):
        ce = FINDINGS[1].counterexample
        assert ce["at"] == {"node": "a"}
        assert ce["limit_r"] == [{"node": "b"}]
        assert ce["limit_s"] == [{"node": "b"}, {"node": "e"}]
        assert ce["mode"] == "reachable_minima"

    def test_render_lines(self):
        lines = render_report(FINDINGS).splitlines()
        assert lines[0] == ("compose_noetherian: counterexample_found"
                            " -- composite has cycle a → a")
        assert lines[1] == ("limit_subset_theorem: counterexample_found"
                            " -- limits differ at a")
        assert lines[2] == ("limit_subset_theorem [s = plus(r)]: "
                            "validated_on_sample (60 samples, seed 0)")
        assert lines[3] == ("maxdepth_star_identity [closure without the "
                            "reflexive step]: validated_on_sample "
                            "(60 samples, seed 0)")

    def test_sample_count_must_not_be_negative(self):
        with pytest.raises(MalformedInput):
            run_audit(seed=0, samples=-1)
        assert [f.sample_size for f in run_audit(seed=0, samples=0)] == [0] * 4

    def test_validated_findings_carry_no_counterexample(self):
        assert FINDINGS[2].counterexample is None
        assert FINDINGS[3].counterexample is None


class TestDeterminism:
    def test_same_seed_reproduces_the_report_byte_for_byte(self):
        again = run_audit(seed=0, samples=60)
        assert report_json(again) == report_json(FINDINGS)

    def test_default_report_bytes_are_pinned(self):
        # digest recorded before classify's Kahn peeling and the height memo
        # landed; verdicts, witnesses, sampling and canonical JSON keep it
        text = report_json(run_audit(seed=DEFAULT_SEED, samples=200))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "99ba6bda24f19f1adfe358492f9265df97431d41061776a6ff8a5241debe194c")

    def test_other_seeds_reach_the_same_conclusions(self):
        other = run_audit(seed=99, samples=40)
        assert [f.status for f in other] == [f.status for f in FINDINGS]
        # fixtures are checked before samples, so the recorded
        # counterexamples cannot drift with the seed
        assert other[0].counterexample == FINDINGS[0].counterexample
        assert other[1].counterexample == FINDINGS[1].counterexample

    def test_report_doc_is_json_clean(self):
        doc = report_doc(FINDINGS)
        assert set(doc) == {"findings"}
        rehydrated = json.loads(report_json(FINDINGS))
        assert rehydrated == doc
        for entry in doc["findings"]:
            assert set(entry) == {"claim_id", "status", "restriction",
                                  "counterexample", "sample_size",
                                  "random_seed"}


class TestReverify:
    @pytest.mark.parametrize("idx", range(4))
    def test_every_finding_reverifies(self, idx):
        assert reverify(FINDINGS[idx])

    def test_tampered_cycle_fails(self):
        ce = dict(FINDINGS[0].counterexample)
        ce["composite"] = {"kind": "extensional", "pairs": []}
        assert not reverify(FINDINGS[0]._replace(counterexample=ce))

    def test_tampered_limit_fails(self):
        ce = dict(FINDINGS[1].counterexample)
        ce["limit_r"] = ce["limit_s"]
        assert not reverify(FINDINGS[1]._replace(counterexample=ce))

    def test_refuted_finding_without_evidence_fails(self):
        bare = FINDINGS[0]._replace(counterexample=None)
        assert not reverify(bare)

    def test_unknown_claim_rejected(self):
        from noet.errors import MalformedExpr
        bogus = AuditFinding("perpetual_motion", REFUTED, None,
                             FINDINGS[0].counterexample, 1, 0)
        with pytest.raises(MalformedExpr):
            reverify(bogus)


# sha256 of report_json(run_audit(seed, samples)), recorded before a refuted
# claim stopped evaluating its samples
PINNED_DIGESTS = [
    (0, 1, "92d5114f23c943eb01d0822f65be6767"
     "c45ee1e067e473a052b075e1381af0e6"),
    (0, 50, "a8749c93c33fdc9b02b6a2a2a88842bf"
     "dbb5bc751542034fa53b7f8aec22b4eb"),
    (0, 300, "49b26506fcc348ad43ed136de4452b07"
     "164eb47ee8b46fbf31339ae434627a99"),
    (1, 1, "dfa3d8f6dea8de114e09cdffdad27ca2"
     "70e28acf6d73c080fa8b74838380fe9e"),
    (1, 50, "a3ea67f64397a65cffb3aa2299c1db40"
     "42f0f9186d8c07fbcfc09ff785a4ccf0"),
    (1, 300, "61289c1de94000626d79cda51ebd5c6e"
     "2c921038aa1558955b16bd3942f67ceb"),
    (2, 1, "0982784081c800e8ff18816bb22a2398"
     "a149e294797b87d53a29ed0fc7a68f9e"),
    (2, 50, "f8a0bd842fa4ca70c92ada927bdf71e6"
     "d12f678c5c30f3d97eb4243ee8c7d190"),
    (2, 300, "64d681f48c7f1e7b225cd8fa10265e14"
     "c7f87048a8c7b034e0c2181f663fd473"),
    (3, 1, "6388c5309ae1b1a0db6f332f2533d299"
     "3135bff6696283f41ee7ff06df907eef"),
    (3, 50, "12689a12df020ea4549bc4a38c100beb"
     "6afceb7f5951d42079b4e763f0b02bdf"),
    (3, 300, "ecc6f5b67041f4dd62e85b1291cc9ef7"
     "b679c74b417c4c69999c0e1b37b233bd"),
    (4, 1, "c579d4ca62eebc1388b972d1a0efe1ac"
     "e39b8d6ada5e1c200ca8d34e40fa8be3"),
    (4, 50, "d53d205581d7a06e39e729119ac371a7"
     "4b2ce884c651387781a1f6d17b7df7d6"),
    (4, 300, "bc2eb7614b6138962aa5c828e33b6943"
     "d16a53dce2d0c08844637ade53d7e67e"),
]


class TestSkippedSamples:
    """A claim its fixture refutes still draws every sample, so the random
    stream later claims see is unchanged, but evaluates none of them."""

    @pytest.mark.parametrize("seed, samples, digest", PINNED_DIGESTS)
    def test_report_bytes_are_unchanged(self, seed, samples, digest):
        text = report_json(run_audit(seed=seed, samples=samples))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def counting(self, monkeypatch, name):
        calls = []
        inner = getattr(audit, name)
        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return inner(*args, **kwargs)
        monkeypatch.setattr(audit, name, wrapper)
        return calls

    def audit_claim(self, claim_id, restriction, samples):
        claim, = [c for c in audit.CLAIMS if c[:2] == (claim_id, restriction)]
        return audit._audit_claim(claim, random.Random(0), samples, 0)

    def test_compose_checks_only_its_fixture(self, monkeypatch):
        calls = self.counting(monkeypatch, "is_noetherian")
        finding = self.audit_claim(CLAIM_COMPOSE, None, 200)
        assert finding.status == REFUTED and finding.sample_size == 200
        assert len(calls) == 1

    def test_limit_subset_checks_only_its_fixture(self, monkeypatch):
        # the fixture's r and s, once each: they differ under
        # reachable_minima, so maxdepth is never asked
        calls = self.counting(monkeypatch, "limits")
        finding = self.audit_claim(CLAIM_LIMIT_SUBSET, None, 200)
        assert finding.status == REFUTED and finding.sample_size == 200
        assert [kwargs["mode"] for _, kwargs in calls] \
            == [REACHABLE_MINIMA, REACHABLE_MINIMA]

    def test_reverify_of_a_limit_finding_goes_through_limit_from(
            self, monkeypatch):
        # the evidence is re-checked one value at a time, not by the walk
        # that found it: r and s at the finding's value
        finding = self.audit_claim(CLAIM_LIMIT_SUBSET, None, 0)
        assert finding.status == REFUTED
        walks = self.counting(monkeypatch, "limits")
        calls = self.counting(monkeypatch, "limit_from")
        assert reverify(finding)
        assert len(calls) == 2 and walks == []

    def test_compose_builds_only_its_fixture(self, monkeypatch):
        calls = self.counting(monkeypatch, "from_pairs")
        finding = self.audit_claim(CLAIM_COMPOSE, None, 200)
        assert finding.status == REFUTED and finding.sample_size == 200
        assert len(calls) == 2

    def test_limit_subset_builds_no_sample_r(self, monkeypatch):
        # the fixture's r and s, then one s per sample: its successors
        # drive the draw of r's pairs, but r itself is never built
        calls = self.counting(monkeypatch, "from_pairs")
        finding = self.audit_claim(CLAIM_LIMIT_SUBSET, None, 200)
        assert finding.status == REFUTED and finding.sample_size == 200
        assert len(calls) == 2 + 200

    @pytest.mark.parametrize("claim_id, mode, restriction", [
        (CLAIM_LIMIT_SUBSET, REACHABLE_MINIMA, "s = plus(r)"),
        (CLAIM_STAR_IDENTITY, MAXDEPTH, "closure without the reflexive step")])
    def test_validated_claim_evaluates_every_sample(self, monkeypatch,
                                                    claim_id, mode,
                                                    restriction):
        # every sample gets one limit walk on r and one on plus(r)
        calls = self.counting(monkeypatch, "limits")
        finding = self.audit_claim(claim_id, restriction, 50)
        assert finding.status == VALIDATED and finding.sample_size == 50
        assert len(calls) == 2 * 50
        assert {kwargs["mode"] for _, kwargs in calls} == {mode}


class TestGenerators:
    """The sample generators over the five shared spaces."""

    def test_five_spaces_int_range_zero_to_one_through_five(self):
        spaces = audit._sample_spaces()
        assert [len(sp.values()) for sp in spaces] == [2, 3, 4, 5, 6]
        assert all(sp.contains(Int(0)) and not sp.contains(Int(-1))
                   for sp in spaces)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
    def test_random_pairs_lie_in_the_space_and_are_noetherian(self, seed, idx):
        sp = audit._sample_spaces()[idx]
        pairs = audit._random_pairs(random.Random(seed), sp)
        assert all(sp.contains(a) and sp.contains(b) for a, b in pairs)
        assert is_noetherian(from_pairs(sp, sp, pairs)).status == NOETHERIAN

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
    def test_seed_pairs_make_a_seed(self, seed, idx):
        sp = audit._sample_spaces()[idx]
        r_pairs, s = audit._seed_pairs(random.Random(seed), sp)
        r = from_pairs(sp, sp, r_pairs)
        assert is_seed(r, s).holds
        assert r.pairs() <= s.pairs()
        assert r.domain() == s.domain()
