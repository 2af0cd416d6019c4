"""Unit tests for the shard-codec binary wire format."""

import pytest

from repro.abstract_view import AbstractInstance, TemplateFact, semantics
from repro.abstract_view.abstract_chase import ShardReport
from repro.chase.incremental import RegionReuseStats
from repro.chase.standard import SnapshotChaseResult, chase_snapshot
from repro.chase.trace import EgdStepRecord, FailureRecord, TgdStepRecord
from repro.dependencies import DataExchangeSetting
from repro.errors import (
    RemoteShardError,
    SerializationError,
    ShardExecutionError,
)
from repro.relational import (
    AnnotatedNull,
    Constant,
    Instance,
    LabeledNull,
    Schema,
    Variable,
    fact,
)
from repro.serialize import shard_codec
from repro.temporal import INFINITY, Interval
from repro.workloads import employment_setting, employment_source_concrete


SETTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
    Schema.of(Emp=("Name", "Company", "Salary")),
    st_tgds=[
        "E(n, c) -> EXISTS s . Emp(n, c, s)",
        "E(n, c) & S(n, s) -> Emp(n, c, s)",
    ],
    egds=["Emp(n, c, s) & Emp(n, c, s2) -> s = s2"],
)


def _mixed_instance() -> Instance:
    return Instance(
        [
            fact("E", "ada", "ibm"),
            fact("E", "bob", LabeledNull("N1")),
            fact("S", "ada", AnnotatedNull("M", Interval(2, 5))),
            fact("R", 7, -3),
            fact("R", 2.5, True),
            fact("Q", Constant(None), Constant(("tu", "ple"))),
            fact("Q", Constant(Interval(0, INFINITY)), Constant(False)),
        ]
    )


class TestValueMessages:
    def test_instance_roundtrip(self):
        instance = _mixed_instance()
        decoded = shard_codec.decode_instance(
            shard_codec.encode_instance(instance)
        )
        assert decoded == instance
        assert decoded.nulls() == instance.nulls()
        assert decoded.constants() == instance.constants()

    def test_decoded_instance_indexes_answer_lookups(self):
        instance = _mixed_instance()
        decoded = shard_codec.decode_instance(
            shard_codec.encode_instance(instance)
        )
        for relation in instance.relation_names():
            for item in instance.facts_of(relation):
                for position, value in enumerate(item.args):
                    assert decoded.lookup(relation, {position: value}) == (
                        instance.lookup(relation, {position: value})
                    )

    def test_equal_constants_of_different_types_do_not_collapse(self):
        # Constant(True) == Constant(1) == Constant(1.0) under Python
        # equality; the intern tables must still keep them distinct or
        # the decoded output renders the first-seen representative.
        instance = Instance(
            [
                fact("A", Constant(1)),
                fact("B", Constant(True)),
                fact("C", Constant(1.0)),
            ]
        )
        decoded = shard_codec.decode_instance(
            shard_codec.encode_instance(instance)
        )
        (a,) = decoded.facts_of("A")
        (b,) = decoded.facts_of("B")
        (c,) = decoded.facts_of("C")
        assert a.args[0].value is not True and a.args[0].value == 1
        assert type(a.args[0].value) is int
        assert b.args[0].value is True
        assert type(c.args[0].value) is float

    def test_term_interning_shares_decoded_objects(self):
        ada = Constant("ada")
        instance = Instance([fact("E", ada, "ibm"), fact("S", ada, "10k")])
        decoded = shard_codec.decode_instance(
            shard_codec.encode_instance(instance)
        )
        (e_fact,) = decoded.facts_of("E")
        (s_fact,) = decoded.facts_of("S")
        assert e_fact.args[0] is s_fact.args[0]

    def test_abstract_instance_roundtrip(self):
        abstract = semantics(employment_source_concrete())
        decoded = shard_codec.decode_abstract_instance(
            shard_codec.encode_abstract_instance(abstract)
        )
        assert decoded == abstract
        assert decoded.same_snapshots_as(abstract)

    def test_setting_roundtrip_chases_identically(self):
        decoded = shard_codec.decode_setting(
            shard_codec.encode_setting(SETTING)
        )
        source = Instance([fact("E", "ada", "ibm"), fact("S", "ada", "10k")])
        original = chase_snapshot(source, SETTING)
        replayed = chase_snapshot(source, decoded)
        assert replayed.target == original.target
        assert [str(s) for s in replayed.trace.steps] == [
            str(s) for s in original.trace.steps
        ]


class TestTaskMessage:
    def test_roundtrip(self):
        abstract = semantics(employment_source_concrete())
        regions = abstract.regions()[:3]
        task = shard_codec.ShardTask(
            shard=2,
            variant="standard",
            regions=regions,
            templates=tuple(abstract.templates),
            setting=employment_setting(),
        )
        decoded = shard_codec.decode_shard_task(
            shard_codec.encode_shard_task(task)
        )
        assert decoded.shard == 2
        assert decoded.variant == "standard"
        assert decoded.regions == regions
        assert AbstractInstance(decoded.templates) == abstract


def _outcome_fixture() -> shard_codec.ShardOutcome:
    region_a, region_b = Interval(0, 3), Interval(3, INFINITY)
    shared = TgdStepRecord(
        dependency="σ1",
        assignment={Variable("n"): Constant("ada")},
        added_facts=(fact("Emp", "ada", "ibm", "10k"),),
        fresh_nulls=(),
    )
    minted = TgdStepRecord(
        dependency="σ1",
        assignment={Variable("n"): Constant("bob")},
        added_facts=(fact("Emp", "bob", "hp", LabeledNull("N5f0c1a2b3d4e6f70")),),
        fresh_nulls=(LabeledNull("N5f0c1a2b3d4e6f70"),),
    )
    egd = EgdStepRecord("ε1", LabeledNull("N5f0c1a2b3d4e6f70"), Constant("20k"))
    result_a = SnapshotChaseResult(
        target=Instance([fact("Emp", "ada", "ibm", "10k")])
    )
    result_a.trace.record(shared)
    result_b = SnapshotChaseResult(
        target=Instance(
            [
                fact("Emp", "ada", "ibm", "10k"),
                fact("Emp", "bob", "hp", "20k"),
            ]
        )
    )
    # The shared record appears in BOTH traces (incremental replay
    # contract) — the codec must restore the sharing.
    result_b.trace.record(shared)
    result_b.trace.record(minted)
    result_b.trace.record(egd)
    reuse = RegionReuseStats(replayed_matches=3, live_matches=1)
    report = ShardReport(
        shard=0,
        regions=2,
        seconds=0.125,
        reuse=reuse,
        remote=True,
    )
    templates = tuple(
        TemplateFact.make(item.relation, item.args, region)
        for region, result in (
            (region_a, result_a),
            (region_b, result_b),
        )
        for item in result.target.facts()
        if not item.has_nulls()
    )
    return shard_codec.ShardOutcome(
        results=((region_a, result_a), (region_b, result_b)),
        region_reuse={region_a: RegionReuseStats(live_matches=2)},
        error=None,
        report=report,
        merged_templates=templates,
    )


class TestOutcomeMessage:
    def test_roundtrip(self):
        outcome = _outcome_fixture()
        decoded = shard_codec.decode_shard_outcome(
            shard_codec.encode_shard_outcome(outcome)
        )
        assert decoded.error is None
        assert decoded.report == outcome.report
        assert decoded.report.remote is True
        assert set(decoded.merged_templates) == set(outcome.merged_templates)
        assert list(decoded.region_reuse) == list(outcome.region_reuse)
        for region, stats in outcome.region_reuse.items():
            assert vars(decoded.region_reuse[region]) == vars(stats)
        for (region, result), (dregion, dresult) in zip(
            outcome.results, decoded.results, strict=True
        ):
            assert dregion == region
            assert dresult.target == result.target
            assert dresult.failed == result.failed
            assert [str(s) for s in dresult.trace.steps] == [
                str(s) for s in result.trace.steps
            ]

    def test_shared_records_stay_shared(self):
        outcome = _outcome_fixture()
        decoded = shard_codec.decode_shard_outcome(
            shard_codec.encode_shard_outcome(outcome)
        )
        first = decoded.results[0][1].trace.steps[0]
        again = decoded.results[1][1].trace.steps[0]
        assert first is again

    def test_tgd_record_fields_roundtrip(self):
        outcome = _outcome_fixture()
        decoded = shard_codec.decode_shard_outcome(
            shard_codec.encode_shard_outcome(outcome)
        )
        minted = decoded.results[1][1].trace.steps[1]
        assert isinstance(minted, TgdStepRecord)
        assert minted.assignment == {Variable("n"): Constant("bob")}
        assert minted.fresh_nulls == (LabeledNull("N5f0c1a2b3d4e6f70"),)
        assert minted.added_facts == (
            fact("Emp", "bob", "hp", LabeledNull("N5f0c1a2b3d4e6f70")),
        )

    def test_failure_roundtrip(self):
        region = Interval(1, 4)
        failure = FailureRecord("ε1", Constant("10k"), Constant("20k"))
        result = SnapshotChaseResult(
            target=Instance([fact("Emp", "ada", "ibm", "10k")]),
            failed=True,
            failure=failure,
        )
        result.trace.record(failure)
        outcome = shard_codec.ShardOutcome(
            results=((region, result),),
            region_reuse={},
            error=None,
            report=ShardReport(1, 1, 0.0, None, remote=True),
            merged_templates=(),
        )
        decoded = shard_codec.decode_shard_outcome(
            shard_codec.encode_shard_outcome(outcome)
        )
        dresult = decoded.results[0][1]
        assert dresult.failed
        assert str(dresult.failure) == str(failure)
        assert dresult.target == result.target

    def test_error_roundtrip(self):
        region = Interval(2, 5)
        error = ShardExecutionError(3, region, ValueError("boom"))
        outcome = shard_codec.ShardOutcome(
            results=(),
            region_reuse={},
            error=error,
            report=ShardReport(3, 0, 0.0, None, remote=True),
            merged_templates=(),
        )
        decoded = shard_codec.decode_shard_outcome(
            shard_codec.encode_shard_outcome(outcome)
        )
        assert isinstance(decoded.error, ShardExecutionError)
        assert decoded.error.shard == 3
        assert decoded.error.region == region
        assert isinstance(decoded.error.__cause__, RemoteShardError)
        assert "ValueError: boom" in str(decoded.error)


class TestWireSafety:
    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError, match="magic"):
            shard_codec.decode_instance(b"NOPE" + b"\x00" * 64)

    def test_previous_layout_magic_rejected(self):
        # A TDX3 task still carried the engine and incremental slots;
        # decoding one under the current layout must fail loudly.
        abstract = semantics(employment_source_concrete())
        payload = shard_codec.encode_shard_task(
            shard_codec.ShardTask(
                shard=0,
                variant="standard",
                regions=abstract.regions(),
                templates=tuple(abstract.templates),
                setting=employment_setting(),
            )
        )
        assert payload[:4] != b"TDX3"
        with pytest.raises(SerializationError, match="bad magic"):
            shard_codec.decode_shard_task(b"TDX3" + payload[4:])

    def test_truncated_payload_rejected(self):
        payload = shard_codec.encode_instance(_mixed_instance())
        with pytest.raises(SerializationError):
            shard_codec.decode_instance(payload[: len(payload) // 3])

    def test_wrong_message_kind_rejected(self):
        payload = shard_codec.encode_instance(_mixed_instance())
        with pytest.raises(SerializationError, match="kind"):
            shard_codec.decode_shard_task(payload)
