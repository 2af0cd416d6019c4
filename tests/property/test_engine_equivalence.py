"""Delta-driven chase ≡ full-rescan chase, on generated scenarios.

The semi-naive engine enumerates each egd round only against the facts
the previous substitution pass actually added; the
:func:`~tests.oracles.chase.rescan_egd_rounds` oracle re-enumerates the
whole instance every round.  The two must agree on everything
observable: success/failure, the final instance, the recorded failure,
and (because round batching is unchanged) the set of egd merges.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.chase import chase_snapshot
from repro.concrete import ConcreteInstance, c_chase, concrete_fact
from repro.dependencies import DataExchangeSetting
from repro.relational import Instance, Schema, fact
from repro.temporal import Interval

from tests.oracles.chase import rescan_egd_rounds

from .strategies import employment_instances

JOIN_SETTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
    Schema.of(Emp=("Name", "Company", "Salary")),
    st_tgds=[
        "E(n, c) -> EXISTS s . Emp(n, c, s)",
        "E(n, c) & S(n, s) -> Emp(n, c, s)",
    ],
    egds=["Emp(n, c, s) & Emp(n, c2, s2) -> s = s2"],
)


# Two key egds chained through a shared null: round 0 merges the two
# R-nulls of a key, which only then makes its two S facts share a key —
# so the S merge is found by a delta round, where delta and full-rescan
# enumeration actually differ.
CHAIN_SETTING = DataExchangeSetting.create(
    Schema.of(A=("K", "C"), B=("K",)),
    Schema.of(R=("K", "Y"), S=("Y", "Z"), T=("Z",)),
    st_tgds=[
        "A(x, c) -> EXISTS y . R(x, y) & S(y, c)",
        "B(x) -> EXISTS y, z . R(x, y) & S(y, z) & T(z)",
    ],
    egds=["R(x, y) & R(x, y2) -> y = y2", "S(y, z) & S(y, z2) -> z = z2"],
)


def _trace_summary(trace):
    return (
        [(s.dependency, str(s.replaced), str(s.replacement)) for s in trace.egd_steps],
        len(trace.tgd_steps),
    )


class TestCChaseEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(source=employment_instances())
    def test_delta_equals_rescan(self, source):
        delta = c_chase(source, JOIN_SETTING)
        with rescan_egd_rounds():
            rescan = c_chase(source, JOIN_SETTING)
        assert delta.failed == rescan.failed
        assert delta.target == rescan.target
        assert delta.normalized_source == rescan.normalized_source
        assert delta.pre_egd_target == rescan.pre_egd_target
        if delta.failed:
            assert delta.failure is not None and rescan.failure is not None
            assert (
                delta.failure.dependency,
                str(delta.failure.left),
                str(delta.failure.right),
            ) == (
                rescan.failure.dependency,
                str(rescan.failure.left),
                str(rescan.failure.right),
            )
        assert _trace_summary(delta.trace) == _trace_summary(rescan.trace)

    @settings(max_examples=60, deadline=None)
    @given(source=employment_instances())
    def test_snapshot_chase_delta_equals_rescan(self, source):
        for point in sorted({0, *source.breakpoints()})[:4]:
            snapshot = source.snapshot(point)
            delta = chase_snapshot(snapshot, JOIN_SETTING)
            with rescan_egd_rounds():
                rescan = chase_snapshot(snapshot, JOIN_SETTING)
            assert delta.failed == rescan.failed
            assert delta.target == rescan.target
            assert _trace_summary(delta.trace) == _trace_summary(rescan.trace)


class TestDeltaRoundChain:
    def test_snapshot_chase_second_round_merge(self):
        snapshot = Instance(
            [fact("A", "a", "c"), fact("B", "a"), fact("A", "b", "d"), fact("B", "b")]
        )
        delta = chase_snapshot(snapshot, CHAIN_SETTING)
        with rescan_egd_rounds():
            rescan = chase_snapshot(snapshot, CHAIN_SETTING)
        assert delta.target == rescan.target
        assert repr(delta.trace.steps) == repr(rescan.trace.steps)
        # Both S merges (second round) reached the constants.
        assert {str(item) for item in delta.target.facts() if item.relation == "T"} == {
            "T(c)",
            "T(d)",
        }

    def test_cchase_second_round_merge(self):
        stamp = Interval(0, 5)
        source = ConcreteInstance(
            [
                concrete_fact("A", "a", "c", interval=stamp),
                concrete_fact("B", "a", interval=stamp),
            ]
        )
        delta = c_chase(source, CHAIN_SETTING)
        with rescan_egd_rounds():
            rescan = c_chase(source, CHAIN_SETTING)
        assert delta.target == rescan.target
        assert repr(delta.trace.steps) == repr(rescan.trace.steps)
        assert len(delta.trace.egd_steps) == 2
