"""Unit tests for the classical snapshot chase."""

import pytest

from repro.chase import chase_snapshot, snapshot_satisfies
from repro.dependencies import DataExchangeSetting
from repro.errors import ChaseFailureError
from repro.relational import Constant, Instance, LabeledNull, Schema, fact


@pytest.fixture
def snapshot_2013() -> Instance:
    """The 2013 snapshot of Figure 1."""
    return Instance(
        [
            fact("E", "Ada", "IBM"),
            fact("S", "Ada", "18k"),
            fact("E", "Bob", "IBM"),
        ]
    )


class TestTgdPhase:
    def test_copies_and_joins(self, setting, snapshot_2013):
        result = chase_snapshot(snapshot_2013, setting)
        assert result.succeeded
        # Figure 3 at 2013: Emp(Ada, IBM, 18k), Emp(Bob, IBM, N').
        assert fact("Emp", "Ada", "IBM", "18k") in result.target
        bob_rows = [
            f for f in result.target.facts_of("Emp") if f.args[0] == Constant("Bob")
        ]
        assert len(bob_rows) == 1
        assert isinstance(bob_rows[0].args[2], LabeledNull)
        assert len(result.target) == 2

    def test_standard_variant_skips_satisfied_tgds(self, setting):
        snapshot = Instance([fact("E", "Ada", "IBM"), fact("S", "Ada", "18k")])
        result = chase_snapshot(snapshot, setting)
        # σ2 fires producing the joined fact; whether σ1 fired first or not,
        # the egd collapses to a single fact with NO null.
        assert result.target == Instance([fact("Emp", "Ada", "IBM", "18k")])

    def test_oblivious_variant_fires_always(self):
        # Two R-facts with the same key: standard fires the existential
        # tgd once for the key, oblivious fires once per homomorphism.
        setting = DataExchangeSetting.create(
            Schema.of(R=("A", "B")),
            Schema.of(T=("A", "Z")),
            st_tgds=["R(x, y) -> EXISTS z . T(x, z)"],
        )
        snapshot = Instance([fact("R", "a", "b"), fact("R", "a", "c")])
        standard = chase_snapshot(snapshot, setting, variant="standard")
        oblivious = chase_snapshot(snapshot, setting, variant="oblivious")
        assert len(standard.target) == 1
        assert len(oblivious.target) == 2

    def test_fresh_nulls_distinct_per_firing(self, setting):
        snapshot = Instance([fact("E", "Ada", "IBM"), fact("E", "Bob", "IBM")])
        result = chase_snapshot(snapshot, setting)
        nulls = result.target.nulls()
        assert len(nulls) == 2  # one unknown salary per person

    def test_empty_source_chases_to_empty(self, setting):
        result = chase_snapshot(Instance(), setting)
        assert result.succeeded and len(result.target) == 0


class TestEgdPhase:
    def test_null_replaced_by_constant(self, setting, snapshot_2013):
        result = chase_snapshot(snapshot_2013, setting)
        # Ada's salary null (from σ1) must be replaced by 18k (from σ2).
        ada_rows = [
            f for f in result.target.facts_of("Emp") if f.args[0] == Constant("Ada")
        ]
        assert ada_rows == [fact("Emp", "Ada", "IBM", "18k")]

    def test_null_merging(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X",), Q=("X",)),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x) -> EXISTS y . T(x, y)", "Q(x) -> EXISTS y . T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = Instance([fact("P", "a"), fact("Q", "a")])
        result = chase_snapshot(source, setting)
        assert result.succeeded
        assert len(result.target) == 1  # the two nulls were merged
        assert len(result.target.nulls()) == 1

    def test_constant_clash_fails(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x, y) -> T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = Instance([fact("P", "a", "1"), fact("P", "a", "2")])
        result = chase_snapshot(source, setting)
        assert result.failed
        assert result.failure is not None
        assert {result.failure.left, result.failure.right} == {
            Constant("1"),
            Constant("2"),
        }

    def test_unwrap_raises_on_failure(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x, y) -> T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = Instance([fact("P", "a", "1"), fact("P", "a", "2")])
        with pytest.raises(ChaseFailureError):
            chase_snapshot(source, setting).unwrap()

    def test_egd_cascade(self):
        # Equating via one egd enables another equation.
        setting = DataExchangeSetting.create(
            Schema.of(P=("X",)),
            Schema.of(T=("X", "Y", "Z")),
            st_tgds=["P(x) -> EXISTS y, z . T(x, y, z)"],
            egds=[
                "T(x, y, z) & T(x, y2, z2) -> y = y2",
                "T(x, y, z) & T(x, y, z2) -> z = z2",
            ],
        )
        source = Instance([fact("P", "a"), fact("P", "a")])
        result = chase_snapshot(source, setting)
        assert result.succeeded


class TestTrace:
    def test_steps_recorded(self, setting, snapshot_2013):
        result = chase_snapshot(snapshot_2013, setting)
        assert len(result.trace.tgd_steps) >= 2
        assert len(result.trace.egd_steps) >= 1
        assert result.trace.failure is None
        assert result.trace.facts_added() >= 2

    def test_failure_recorded_in_trace(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x, y) -> T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = Instance([fact("P", "a", "1"), fact("P", "a", "2")])
        result = chase_snapshot(source, setting)
        assert result.trace.failure is not None
        assert "FAILED" in str(result.trace)


class TestSatisfaction:
    def test_chase_result_is_solution(self, setting, snapshot_2013):
        result = chase_snapshot(snapshot_2013, setting)
        assert snapshot_satisfies(snapshot_2013, result.target, setting)

    def test_empty_target_not_solution(self, setting, snapshot_2013):
        assert not snapshot_satisfies(snapshot_2013, Instance(), setting)

    def test_egd_violation_detected(self, setting, snapshot_2013):
        bad = Instance(
            [
                fact("Emp", "Ada", "IBM", "18k"),
                fact("Emp", "Ada", "IBM", "99k"),
                fact("Emp", "Bob", "IBM", "10k"),
            ]
        )
        assert not snapshot_satisfies(snapshot_2013, bad, setting)

    def test_larger_solution_still_satisfies(self, setting, snapshot_2013):
        result = chase_snapshot(snapshot_2013, setting)
        bigger = result.target.copy()
        bigger.add(fact("Emp", "Zoe", "SUN", "50k"))
        assert snapshot_satisfies(snapshot_2013, bigger, setting)
