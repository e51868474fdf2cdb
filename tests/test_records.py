"""The records are NamedTuples: each keeps the Name(field=value, ...) repr
and the defaults it had, and refuses assignment to a field."""

import pytest

from noet.audit import AuditFinding
from noet.catalog import NoetherianCert
from noet.examples import ExampleInstance
from noet.loops import ExecTrace, LoopDef, ObligationResult, VerificationReport
from noet.noether import Chain, NoetherianVerdict, SeedReport
from noet.relations import RelationFlags
from noet.values import Int

# (record, its repr, the fields left at their defaults)
RECORDS = [
    (Chain((Int(1), Int(0))), "Chain(elements=(Int(value=1), Int(value=0)))",
     {}),
    (NoetherianVerdict("noetherian", None, "exhaustive"),
     "NoetherianVerdict(status='noetherian', witness=None, "
     "method='exhaustive', explored=0)", {"explored": 0}),
    (SeedReport(True),
     "SeedReport(holds=True, subset_witness=None, domain_witness=None, "
     "domain_side=None)",
     {"subset_witness": None, "domain_witness": None, "domain_side": None}),
    (RelationFlags(True, True, False, True, False, True),
     "RelationFlags(acyclic=True, irreflexive=True, transitive=False, "
     "asymmetric=True, order=False, function=True)", {}),
    (LoopDef("S", "O", "I", "B"),
     "LoopDef(space='S', order='O', init='I', body='B', postcondition=None)",
     {"postcondition": None}),
    (ExecTrace(Int(2), (Int(2), Int(1))),
     "ExecTrace(input=Int(value=2), states=(Int(value=2), Int(value=1)))", {}),
    (ObligationResult("exit_nonempty", True),
     "ObligationResult(name='exit_nonempty', passed=True, detail='')",
     {"detail": ""}),
    (VerificationReport((), 3),
     "VerificationReport(results=(), inputs_checked=3)", {}),
    (NoetherianCert("MEASURE"), "NoetherianCert(rule='MEASURE', premises=())",
     {"premises": ()}),
    (ExampleInstance("gcd", None, Int(1), {}, None, None, "v", True),
     "ExampleInstance(name='gcd', loop=None, input=Int(value=1), ctx={}, "
     "chooser=None, variant=None, variant_name='v', checked=True)", {}),
    (AuditFinding("c", "s", None, None, 5, 0),
     "AuditFinding(claim_id='c', status='s', restriction=None, "
     "counterexample=None, sample_size=5, random_seed=0)", {}),
]


@pytest.mark.parametrize("record, text, defaults", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_repr_defaults_and_frozen_fields(record, text, defaults):
    assert repr(record) == text
    for name, value in defaults.items():
        assert getattr(record, name) == value
        assert type(getattr(record, name)) is type(value)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
