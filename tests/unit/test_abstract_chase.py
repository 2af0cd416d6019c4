"""Unit tests for the abstract (snapshot-wise) chase — Proposition 4."""

import pytest

from repro.abstract_view import (
    AbstractInstance,
    TemplateFact,
    abstract_chase,
    is_solution,
    semantics,
)
from repro.concrete import ConcreteInstance, concrete_fact
from repro.dependencies import DataExchangeSetting
from repro.errors import ChaseFailureError, InstanceError
from repro.relational import Constant, Instance, LabeledNull, Schema, fact
from repro.temporal import Interval


class TestSuccessfulChase:
    def test_figure3_snapshots(self, abstract_source, setting):
        result = abstract_chase(abstract_source, setting)
        assert result.succeeded
        target = result.target
        # Figure 3 of the paper.
        snap_2013 = target.snapshot(2013)
        assert fact("Emp", "Ada", "IBM", "18k") in snap_2013
        bob = [f for f in snap_2013.facts_of("Emp") if f.args[0] == Constant("Bob")]
        assert len(bob) == 1 and isinstance(bob[0].args[2], LabeledNull)
        snap_2015 = target.snapshot(2015)
        assert fact("Emp", "Bob", "IBM", "13k") in snap_2015
        assert fact("Emp", "Ada", "Google", "18k") in snap_2015
        snap_2018 = target.snapshot(2018)
        assert snap_2018 == Instance([fact("Emp", "Ada", "Google", "18k")])

    def test_result_is_solution(self, abstract_source, setting):
        result = abstract_chase(abstract_source, setting)
        assert is_solution(abstract_source, result.target, setting)

    def test_fresh_nulls_differ_across_regions(self, abstract_source, setting):
        # Bob's unknown salary at 2013-2014 and at 2014-2015 must be
        # DIFFERENT per-snapshot families (fresh nulls per snapshot).
        target = abstract_chase(abstract_source, setting).target
        null_2013 = target.snapshot(2013).nulls()
        null_2014 = target.snapshot(2014).nulls()
        assert null_2013 and null_2014
        assert null_2013.isdisjoint(null_2014)

    def test_region_results_recorded(self, abstract_source, setting):
        result = abstract_chase(abstract_source, setting)
        assert len(result.region_results) == len(abstract_source.regions())

    def test_empty_source(self, setting):
        result = abstract_chase(AbstractInstance.empty(), setting)
        assert result.succeeded
        assert not result.target


class TestFailingChase:
    @pytest.fixture
    def clash_setting(self) -> DataExchangeSetting:
        return DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x, y) -> T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )

    def test_failure_region_identified(self, clash_setting):
        source = semantics(
            ConcreteInstance(
                [
                    concrete_fact("P", "a", "1", interval=Interval(0, 6)),
                    concrete_fact("P", "a", "2", interval=Interval(4, 9)),
                ]
            )
        )
        result = abstract_chase(source, clash_setting)
        assert result.failed
        assert result.failed_region == Interval(4, 6)
        with pytest.raises(ChaseFailureError):
            result.unwrap()

    def test_no_failure_when_disjoint(self, clash_setting):
        source = semantics(
            ConcreteInstance(
                [
                    concrete_fact("P", "a", "1", interval=Interval(0, 4)),
                    concrete_fact("P", "a", "2", interval=Interval(4, 9)),
                ]
            )
        )
        assert abstract_chase(source, clash_setting).succeeded


class TestPreconditions:
    def test_incomplete_source_rejected(self, setting):
        dirty = AbstractInstance(
            [TemplateFact("E", (Constant("Ada"), LabeledNull("N")), Interval(0, 2))]
        )
        with pytest.raises(InstanceError, match="complete"):
            abstract_chase(dirty, setting)
