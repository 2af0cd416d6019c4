"""Unit tests for the incremental cross-region chase (PR 3).

Covers the region-delta sweep's edge cases, byte-identity of the
incremental region chain against the from-scratch reference (the
:func:`~tests.oracles.chase.per_region_chase` oracle), and
shard-failure propagation through :class:`AbstractChaseResult`.
"""

import importlib

import pytest

from repro.abstract_view import AbstractInstance, abstract_chase, semantics
from repro.abstract_view.abstract_instance import TemplateFact
from repro.chase import IncrementalRegionChaser, RegionReuseStats, chase_snapshot
from repro.concrete import ConcreteInstance
from repro.concrete.concrete_fact import concrete_fact
from repro.dependencies import DataExchangeSetting
from repro.errors import ChaseFailureError, ShardExecutionError
from repro.relational import Schema
from repro.relational.terms import Constant
from repro.temporal.interval import Interval
from repro.temporal.timepoint import INFINITY
from repro.workloads import (
    exchange_setting_join,
    exchange_setting_org,
    random_employment_history,
    random_org_history,
)
from tests.oracles.chase import per_region_chase


def _template(relation, values, interval_):
    return TemplateFact(relation, tuple(Constant(v) for v in values), interval_)


class TestRegionDeltaSweep:
    def test_empty_abstract_instance(self):
        deltas = list(AbstractInstance.empty().iter_region_deltas())
        assert len(deltas) == 1
        region, snapshot, added, removed = deltas[0]
        assert region == Interval(0, INFINITY)
        assert len(snapshot) == 0 and added == () and removed == ()

    def test_single_template(self):
        source = AbstractInstance([_template("R", ("a",), Interval(2, 5))])
        deltas = [
            (region, tuple(map(str, added)), tuple(map(str, removed)))
            for region, _snap, added, removed in source.iter_region_deltas()
        ]
        assert deltas == [
            (Interval(0, 2), (), ()),
            (Interval(2, 5), ("R(a)",), ()),
            (Interval(5, INFINITY), (), ("R(a)",)),
        ]

    def test_breakpoint_at_the_horizon(self):
        # One template ends exactly where the open-ended one begins; the
        # final region swaps one fact for the other.
        source = AbstractInstance(
            [
                _template("R", ("a",), Interval(0, 4)),
                _template("R", ("b",), Interval(4, INFINITY)),
            ]
        )
        deltas = list(source.iter_region_deltas())
        region, _snap, added, removed = deltas[-1]
        assert region == Interval(4, INFINITY)
        assert [str(f) for f in added] == ["R(b)"]
        assert [str(f) for f in removed] == ["R(a)"]

    def test_identical_adjacent_snapshots_cancel(self):
        # R(a) leaves one template and enters another at t=3: the region
        # boundary exists, but the snapshots agree, so the diff is empty.
        source = AbstractInstance(
            [
                _template("R", ("a",), Interval(0, 3)),
                _template("R", ("a",), Interval(3, 7)),
                _template("S", ("x",), Interval(0, 7)),
            ]
        )
        # The sweep instance is live (mutated between yields), so assert
        # during iteration.
        seen = []
        for region, snapshot, added, removed in source.iter_region_deltas():
            seen.append(region)
            if region == Interval(3, 7):
                assert added == () and removed == ()
                assert len(snapshot) == 2
        assert Interval(3, 7) in seen

    def test_diffs_match_snapshot_set_difference(self):
        workload = random_employment_history(people=4, timeline=30, seed=5)
        source = semantics(workload.instance)
        previous = frozenset()
        for _region, snapshot, added, removed in source.iter_region_deltas():
            current = snapshot.facts()
            assert frozenset(added) == current - previous
            assert frozenset(removed) == previous - current
            previous = current


class TestIdenticalSnapshotsReplay:
    SETTING = DataExchangeSetting.create(
        Schema.of(R=("X",), S=("Y",)),
        Schema.of(T=("X", "K")),
        st_tgds=["R(x) -> EXISTS k . T(x, k)"],
    )

    def test_zero_live_rules_on_identical_snapshots(self):
        source = AbstractInstance(
            [
                _template("R", ("a",), Interval(0, 3)),
                _template("R", ("a",), Interval(3, 7)),
                _template("S", ("x",), Interval(0, 7)),
            ]
        )
        result = abstract_chase(source, self.SETTING)
        assert result.succeeded
        # Region [3, 7) has an identical snapshot to [0, 3): the
        # incremental path must not find or fire a single live rule.
        stats = result.region_reuse[Interval(3, 7)]
        assert stats.fully_replayed
        assert stats.live_matches == 0 and stats.live_firings == 0
        assert stats.replayed_firings == 1
        # ... and the result equals the from-scratch one: each region
        # annotates the (Skolem-named) null with its own interval.
        full = per_region_chase(source, self.SETTING)
        assert sorted(map(str, result.target.templates)) == sorted(
            map(str, full.target.templates)
        )


class TestIncrementalChainByteIdentity:
    @pytest.mark.parametrize(
        "setting_factory,workload_factory",
        [
            (
                exchange_setting_join,
                lambda: random_employment_history(people=6, timeline=40, seed=7),
            ),
            (
                exchange_setting_org,
                lambda: random_org_history(people=12, timeline=64, seed=7),
            ),
        ],
    )
    def test_chain_matches_chase_snapshot_sequence(
        self, setting_factory, workload_factory
    ):
        setting = setting_factory()
        source = semantics(workload_factory().instance)
        chaser = IncrementalRegionChaser(setting)
        for region, snapshot, added, removed in source.iter_region_deltas():
            incremental, _stats = chaser.chase(snapshot, added, removed)
            reference = chase_snapshot(snapshot, setting)
            assert incremental.failed == reference.failed, region
            assert sorted(map(str, incremental.target.facts())) == sorted(
                map(str, reference.target.facts())
            ), region
            assert [repr(s) for s in incremental.trace.steps] == [
                repr(s) for s in reference.trace.steps
            ], region

    def test_failure_matches_from_scratch(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x, y) -> T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = semantics(
            ConcreteInstance(
                [
                    concrete_fact("P", "a", "1", interval=Interval(0, 6)),
                    concrete_fact("P", "a", "2", interval=Interval(4, 9)),
                ]
            )
        )
        incremental = abstract_chase(source, setting)
        full = per_region_chase(source, setting)
        assert incremental.failed and full.failed
        assert incremental.failed_region == full.failed_region == Interval(4, 6)
        assert str(incremental.failure) == str(full.failure)
        failed = incremental.region_results[Interval(4, 6)]
        reference = full.region_results[Interval(4, 6)]
        assert [repr(s) for s in failed.trace.steps] == [
            repr(s) for s in reference.trace.steps
        ]


class TestShardFailurePropagation:
    @pytest.fixture
    def setting(self):
        return exchange_setting_join()

    @pytest.fixture
    def source(self):
        workload = random_employment_history(people=4, timeline=40, seed=3)
        return semantics(workload.instance)

    def test_exception_carries_shard_and_region(
        self, setting, source, monkeypatch
    ):
        regions = source.regions()
        target_region = regions[len(regions) * 3 // 4]
        module = importlib.import_module("repro.abstract_view.abstract_chase")

        original = module.IncrementalRegionChaser.chase

        def exploding(self, snapshot, added, removed):
            if exploding.region == target_region:
                raise RuntimeError("disk on fire")
            return original(self, snapshot, added, removed)

        exploding.region = None

        def tracking(self, regions_=None):
            for region, *rest in original_iter(self, regions_):
                exploding.region = region
                yield (region, *rest)

        original_iter = module.AbstractInstance.iter_region_deltas
        monkeypatch.setattr(module.IncrementalRegionChaser, "chase", exploding)
        monkeypatch.setattr(
            module.AbstractInstance, "iter_region_deltas", tracking
        )

        result = abstract_chase(source, setting, shards=2)
        assert result.failed
        assert result.error is not None
        assert result.failed_shard == 1
        assert result.failed_region == target_region
        # Every shard still reports, including the failing one.
        assert len(result.shard_reports) == 2
        with pytest.raises(ShardExecutionError) as exc_info:
            result.unwrap()
        message = str(exc_info.value)
        assert "shard 1" in message
        assert str(target_region) in message
        assert "disk on fire" in message
        assert isinstance(exc_info.value.__cause__, RuntimeError)

    def test_incremental_exception_carries_shard_and_region(
        self, setting, source, monkeypatch
    ):
        regions = source.regions()
        target_region = regions[1]
        module = importlib.import_module("repro.abstract_view.abstract_chase")

        original = module.IncrementalRegionChaser.chase

        def exploding(self, snapshot, added, removed):
            if exploding.count == 1:
                raise RuntimeError("replay log corrupted")
            exploding.count += 1
            return original(self, snapshot, added, removed)

        exploding.count = 0
        monkeypatch.setattr(
            module.IncrementalRegionChaser, "chase", exploding
        )
        result = abstract_chase(source, setting)
        assert result.failed and result.failed_shard == 0
        assert result.failed_region == target_region
        with pytest.raises(ShardExecutionError, match="replay log corrupted"):
            result.unwrap()

    def test_chase_failure_message_names_shard(self, monkeypatch):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x, y) -> T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = semantics(
            ConcreteInstance(
                [
                    concrete_fact("P", "a", "1", interval=Interval(0, 6)),
                    concrete_fact("P", "a", "2", interval=Interval(4, 9)),
                ]
            )
        )
        result = abstract_chase(source, setting, shards=2)
        assert result.failed and result.failed_shard is not None
        with pytest.raises(ChaseFailureError) as exc_info:
            result.unwrap()
        assert f"shard {result.failed_shard}" in str(exc_info.value)


class TestRegionReuseStats:
    def test_accumulate(self):
        total = RegionReuseStats()
        total.add(RegionReuseStats(replayed_matches=2, live_firings=1))
        total.add(RegionReuseStats(live_matches=3, streams_reused=4))
        assert total.replayed_matches == 2
        assert total.live_matches == 3
        assert total.live_firings == 1
        assert total.streams_reused == 4
        assert not total.fully_replayed
        assert RegionReuseStats(replayed_matches=5).fully_replayed


class TestShardErrorSurfaces:
    """Review follow-ups: shard exceptions must not masquerade as verdicts."""

    def test_verify_correspondence_raises_shard_error(self, monkeypatch):
        from repro.correspondence import verify_correspondence
        from repro.workloads import employment_setting, employment_source_concrete

        module = importlib.import_module("repro.abstract_view.abstract_chase")

        def exploding(self, snapshot, added, removed):
            raise RuntimeError("replay log corrupted")

        monkeypatch.setattr(
            module.IncrementalRegionChaser, "chase", exploding
        )
        with pytest.raises(ShardExecutionError, match="replay log corrupted"):
            verify_correspondence(
                employment_source_concrete(), employment_setting()
            )

    def test_sweep_exception_not_blamed_on_previous_region(
        self, monkeypatch
    ):
        source = semantics(
            random_employment_history(people=2, timeline=20, seed=1).instance
        )
        module = importlib.import_module("repro.abstract_view.abstract_chase")
        original = module.AbstractInstance.iter_region_deltas

        def breaking(self, regions=None):
            iterator = original(self, regions)
            yield next(iterator)
            raise OSError("sweep storage gone")

        monkeypatch.setattr(
            module.AbstractInstance, "iter_region_deltas", breaking
        )
        result = abstract_chase(source, exchange_setting_join())
        assert result.failed and result.error is not None
        # The advance raised, not the completed region's chase.
        assert result.error.region is None
        assert "while advancing the region sweep" in str(result.error)
        assert len(result.region_results) == 1
