"""Unit tests for chase traces, Skolem null names and error types."""

import re

import pytest

from repro.abstract_view import abstract_chase, semantics
from repro.chase import ChaseTrace, NullNameCollisionError, chase_snapshot, nulls
from repro.chase.trace import EgdStepRecord, FailureRecord, TgdStepRecord
from repro.concrete import c_chase
from repro.dependencies import DataExchangeSetting, SourceToTargetTGD
from repro.errors import ChaseFailureError, ParseError, ReproError, TemporalError
from repro.relational import Constant, Instance, LabeledNull, Schema, fact
from repro.workloads import (
    employment_setting,
    employment_source_concrete,
    exchange_setting_org,
    random_org_history,
)
from tests.oracles.chase import per_region_chase


def _org_source():
    return random_org_history(people=6, timeline=48, seed=11).instance


class TestSkolemNullNames:
    def test_names_are_fixed_width_digests(self):
        result = c_chase(employment_source_concrete(), employment_setting())
        bases = {null.base for null in result.pre_egd_target.nulls()}
        assert len(bases) == 5
        assert all(re.fullmatch(r"N[0-9a-f]{16}", base) for base in bases)

    def test_digest_collision_raises_instead_of_merging(self, monkeypatch):
        monkeypatch.setattr(nulls, "_digest", lambda text: "0" * 16)
        with pytest.raises(NullNameCollisionError, match="N0000000000000000"):
            c_chase(employment_source_concrete(), employment_setting())

    def test_null_keeps_its_name(self):
        """Across runs, shard counts and incremental/from-scratch schedules."""
        source = _org_source()
        setting = exchange_setting_org()
        first = c_chase(source, setting).target
        assert first.nulls()
        assert c_chase(source, setting).target == first

        abstract = semantics(source)
        reference = abstract_chase(abstract, setting).target.templates
        assert any(template.per_snapshot_nulls() for template in reference)
        for shards in (1, 2, 5):
            result = abstract_chase(abstract, setting, shards=shards)
            assert result.target.templates == reference, shards
        assert per_region_chase(abstract, setting).target.templates == reference

    def test_oblivious_firings_never_share_nulls(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Z")),
            st_tgds=["P(x, y) -> EXISTS z . T(x, z)"],
        )
        snapshot = Instance([fact("P", "a", "b"), fact("P", "a", "c")])
        standard = chase_snapshot(snapshot, setting)
        oblivious = chase_snapshot(snapshot, setting, variant="oblivious")
        assert len(standard.target.nulls()) == 1
        assert len(oblivious.target.nulls()) == 2

    def test_equally_named_tgds_mint_distinct_nulls(self):
        setting = DataExchangeSetting(
            Schema.of(P=("X",)),
            Schema.of(T=("X", "Z"), U=("X", "Z")),
            st_tgds=(
                SourceToTargetTGD.parse("P(x) -> EXISTS z . T(x, z)", name="σ"),
                SourceToTargetTGD.parse("P(x) -> EXISTS z . U(x, z)", name="σ"),
            ),
        )
        result = chase_snapshot(Instance([fact("P", "a")]), setting)
        assert len(result.target.nulls()) == 2


class TestChaseTrace:
    def test_filtering_by_kind(self):
        trace = ChaseTrace()
        tgd = TgdStepRecord("σ1", {}, (fact("T", "a"),), (LabeledNull("N1"),))
        egd = EgdStepRecord("ε1", LabeledNull("N1"), Constant("v"))
        trace.record(tgd)
        trace.record(egd)
        assert trace.tgd_steps == (tgd,)
        assert trace.egd_steps == (egd,)
        assert trace.failure is None
        assert len(trace) == 2

    def test_facts_added(self):
        trace = ChaseTrace()
        trace.record(TgdStepRecord("σ1", {}, (fact("T", "a"), fact("T", "b")), ()))
        trace.record(TgdStepRecord("σ2", {}, (), ()))
        assert trace.facts_added() == 2

    def test_failure_lookup(self):
        trace = ChaseTrace()
        failure = FailureRecord("ε1", Constant("1"), Constant("2"))
        trace.record(failure)
        assert trace.failure is failure

    def test_str_of_records(self):
        assert "σ1" in str(TgdStepRecord("σ1", {}, (fact("T", "a"),), ()))
        assert "↦" in str(EgdStepRecord("ε1", LabeledNull("N"), Constant("v")))
        assert "FAILED" in str(FailureRecord("ε1", Constant("1"), Constant("2")))


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ChaseFailureError, ReproError)
        assert issubclass(TemporalError, ReproError)
        assert issubclass(ParseError, ReproError)

    def test_chase_failure_payload(self):
        err = ChaseFailureError("ε1", Constant("1"), Constant("2"), context="x")
        assert err.left == Constant("1")
        assert "x" in str(err)

    def test_parse_error_position(self):
        err = ParseError("boom", text="R(x", position=2)
        assert "offset 2" in str(err)
