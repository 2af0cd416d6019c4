"""Unit tests for the c-chase (Definition 16)."""

import pytest

from repro.concrete import ConcreteInstance, c_chase, concrete_fact
from repro.dependencies import DataExchangeSetting
from repro.errors import ChaseFailureError
from repro.relational import Constant, Schema
from repro.relational.terms import AnnotatedNull
from repro.temporal import Interval, interval


def copy_setting() -> DataExchangeSetting:
    return DataExchangeSetting.create(
        Schema.of(R=("A", "B")),
        Schema.of(T=("A", "B")),
        st_tgds=["R(x, y) -> T(x, y)"],
    )


class TestStPhase:
    def test_copy_preserves_stamps(self):
        source = ConcreteInstance(
            [
                concrete_fact("R", "a", "b", interval=Interval(1, 5)),
                concrete_fact("R", "c", "d", interval=interval(7)),
            ]
        )
        result = c_chase(source, copy_setting())
        assert result.succeeded
        assert concrete_fact("T", "a", "b", interval=Interval(1, 5)) in result.target
        assert concrete_fact("T", "c", "d", interval=interval(7)) in result.target

    def test_fresh_nulls_annotated_with_match_stamp(self):
        setting = DataExchangeSetting.create(
            Schema.of(R=("A",)),
            Schema.of(T=("A", "B")),
            st_tgds=["R(x) -> EXISTS y . T(x, y)"],
        )
        source = ConcreteInstance(
            [concrete_fact("R", "a", interval=Interval(3, 8))]
        )
        result = c_chase(source, setting)
        (item,) = result.target.facts()
        null = item.data[1]
        assert isinstance(null, AnnotatedNull)
        assert null.annotation == Interval(3, 8)

    def test_standard_variant_avoids_redundant_null_facts(self, setting, source):
        result = c_chase(source, setting, variant="standard")
        # Where σ2 provided the salary, σ1 must not leave a null twin.
        ada_2013 = [
            f
            for f in result.target.facts_of("Emp")
            if f.data[0] == Constant("Ada") and 2013 in f.interval
        ]
        assert len(ada_2013) == 1
        assert ada_2013[0].data[2] == Constant("18k")

    def test_oblivious_variant_leaves_more_facts(self):
        # Two R-facts with the same key: the standard variant fires the
        # existential tgd once per key, the oblivious one per match.
        setting = DataExchangeSetting.create(
            Schema.of(R=("A", "B")),
            Schema.of(T=("A", "Z")),
            st_tgds=["R(x, y) -> EXISTS z . T(x, z)"],
        )
        source = ConcreteInstance(
            [
                concrete_fact("R", "a", "b", interval=Interval(0, 5)),
                concrete_fact("R", "a", "c", interval=Interval(0, 5)),
            ]
        )
        standard = c_chase(source, setting, variant="standard")
        oblivious = c_chase(source, setting, variant="oblivious")
        assert len(standard.target) == 1
        assert len(oblivious.target) == 2

    def test_normalized_source_retained(self, setting, source):
        result = c_chase(source, setting)
        assert len(result.normalized_source) == 9  # Figure 5

    def test_empty_source(self, setting):
        result = c_chase(ConcreteInstance(), setting)
        assert result.succeeded and len(result.target) == 0


class TestEgdPhase:
    def test_null_to_constant(self, setting, source):
        result = c_chase(source, setting)
        # Bob's salary over [2015, 2018) was a null from σ1 firings; the
        # egd replaced it with 13k.
        bob_rows = sorted(
            (
                f
                for f in result.target.facts_of("Emp")
                if f.data[0] == Constant("Bob")
            ),
            key=lambda f: f.sort_key(),
        )
        salaries = {str(f.data[2]) for f in bob_rows if 2015 in f.interval}
        assert salaries == {"13k"}

    def test_null_to_null_merge(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X",), Q=("X",)),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x) -> EXISTS y . T(x, y)", "Q(x) -> EXISTS y . T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", interval=Interval(0, 4)),
                concrete_fact("Q", "a", interval=Interval(0, 4)),
            ]
        )
        result = c_chase(source, setting)
        assert result.succeeded
        assert len(result.target) == 1
        assert len(result.target.nulls()) == 1

    def test_partial_overlap_merges_only_common_fragment(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X",), Q=("X",)),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x) -> EXISTS y . T(x, y)", "Q(x) -> EXISTS y . T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", interval=Interval(0, 6)),
                concrete_fact("Q", "a", interval=Interval(4, 9)),
            ]
        )
        result = c_chase(source, setting)
        assert result.succeeded
        # Fragments: [0,4) null from P only; [4,6) merged; [6,9) null from Q.
        stamps = sorted(str(f.interval) for f in result.target.facts())
        assert stamps == ["[0, 4)", "[4, 6)", "[6, 9)"]
        nulls = result.target.nulls()
        assert len(nulls) == 3

    def test_constant_clash_fails_with_overlap(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x, y) -> T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", "1", interval=Interval(0, 6)),
                concrete_fact("P", "a", "2", interval=Interval(4, 9)),
            ]
        )
        result = c_chase(source, setting)
        assert result.failed
        with pytest.raises(ChaseFailureError):
            result.unwrap()

    def test_no_clash_when_disjoint_in_time(self):
        # The same data conflict is harmless when the stamps never overlap:
        # the egd is implicitly non-temporal and only sees single stamps.
        setting = DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x, y) -> T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", "1", interval=Interval(0, 4)),
                concrete_fact("P", "a", "2", interval=Interval(4, 9)),
            ]
        )
        result = c_chase(source, setting)
        assert result.succeeded
        assert len(result.target) == 2


class TestOptions:
    def test_naive_normalization_same_semantics(self, setting, source):
        from repro.abstract_view import homomorphically_equivalent, semantics

        smart = c_chase(source, setting, normalization="conjunction")
        naive = c_chase(source, setting, normalization="naive")
        assert smart.succeeded and naive.succeeded
        assert homomorphically_equivalent(
            semantics(smart.target), semantics(naive.target)
        )

    def test_coalesce_result_option(self):
        source = ConcreteInstance(
            [
                concrete_fact("R", "a", "b", interval=Interval(0, 3)),
                concrete_fact("R", "a", "b", interval=Interval(3, 7)),
            ]
        )
        # Not coalesced on purpose; the copy tgd reproduces both stamps.
        raw = c_chase(source, copy_setting(), coalesce_result=False)
        merged = c_chase(source, copy_setting(), coalesce_result=True)
        assert len(raw.target) == 2
        assert len(merged.target) == 1

    def test_trace_records_steps(self, setting, source):
        result = c_chase(source, setting)
        assert len(result.trace.tgd_steps) >= 5
        assert len(result.trace.egd_steps) >= 2
        assert result.trace.failure is None

    def test_pre_egd_target_is_normalized_wrt_egds(self, setting, source):
        from repro.concrete import is_normalized

        result = c_chase(source, setting)
        assert is_normalized(
            result.pre_egd_target, setting.lifted_egd_lhs_conjunctions()
        )


class TestIncrementalReplay:
    """No normalization state crosses runs: each c-chase normalizes from
    scratch, and its reports say that no group was replayed."""

    def test_default_records_nothing(self, source, setting):
        result = c_chase(source, setting)
        assert result.normalization_reports is not None  # reports are free
        for report in result.normalization_reports:
            assert report.groups_replayed == 0

    def test_naive_normalization_has_no_reports(self, source, setting):
        result = c_chase(source, setting, normalization="naive")
        assert result.normalization_reports is None
