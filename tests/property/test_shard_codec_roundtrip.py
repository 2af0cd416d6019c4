"""Property tests: serialization round trips preserve everything.

Two codecs cross the process boundary of the ``processes`` executor:
the shard-codec binary format (tasks and outcomes) and pickle (whatever
a user-supplied pool does to auxiliary state).  Hypothesis checks that
each is lossless on generated data: instance equality, index-backed
lookups, snapshot semantics and shard reports — and that a pooled
sharded chase is byte-identical to the unsharded one.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract_view import abstract_chase, semantics
from repro.abstract_view.abstract_chase import ShardReport
from repro.chase.incremental import RegionReuseStats
from repro.dependencies import DataExchangeSetting
from repro.relational import (
    AnnotatedNull,
    Constant,
    Fact,
    Instance,
    LabeledNull,
    Schema,
)
from repro.serialize import shard_codec
from repro.temporal import Interval

from .strategies import concrete_instances, employment_instances, intervals

JOIN_SETTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
    Schema.of(Emp=("Name", "Company", "Salary")),
    st_tgds=[
        "E(n, c) -> EXISTS s . Emp(n, c, s)",
        "E(n, c) & S(n, s) -> Emp(n, c, s)",
    ],
    egds=["Emp(n, c, s) & Emp(n, c, s2) -> s = s2"],
)


@st.composite
def ground_terms(draw):
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return Constant(
            draw(
                st.one_of(
                    st.text(min_size=0, max_size=6),
                    st.integers(min_value=-(2**70), max_value=2**70),
                    st.booleans(),
                    st.none(),
                )
            )
        )
    if kind == 1:
        return LabeledNull(draw(st.sampled_from(("N1", "N2", "M3"))))
    if kind == 2:
        return AnnotatedNull(
            draw(st.sampled_from(("N1", "N2"))),
            draw(intervals(allow_unbounded=True)),
        )
    return Constant(draw(intervals(allow_unbounded=True)))


@st.composite
def relational_instances(draw, max_facts: int = 10):
    count = draw(st.integers(min_value=0, max_value=max_facts))
    instance = Instance()
    for _ in range(count):
        relation = draw(st.sampled_from(("R", "S", "T")))
        arity = draw(st.integers(min_value=1, max_value=3))
        instance.add(
            Fact(relation, tuple(draw(ground_terms()) for _ in range(arity)))
        )
    return instance


class TestInstanceRoundTrips:
    @settings(max_examples=80, deadline=None)
    @given(instance=relational_instances())
    def test_codec_preserves_equality_and_indexes(self, instance):
        decoded = shard_codec.decode_instance(
            shard_codec.encode_instance(instance)
        )
        assert decoded == instance
        assert decoded.nulls() == instance.nulls()
        assert decoded.active_domain() == instance.active_domain()
        for relation in instance.relation_names():
            assert decoded.facts_of(relation) == instance.facts_of(relation)
            for item in instance.facts_of(relation):
                for position, value in enumerate(item.args):
                    assert decoded.lookup(
                        relation, {position: value}
                    ) == instance.lookup(relation, {position: value})

    @settings(max_examples=60, deadline=None)
    @given(instance=relational_instances())
    def test_pickle_preserves_equality_and_indexes(self, instance):
        # Warm the lazy caches so the round trip has to discard them.
        for relation in instance.relation_names():
            instance.lookup(relation, {})
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance
        for relation in instance.relation_names():
            for item in instance.facts_of(relation):
                for position, value in enumerate(item.args):
                    assert clone.lookup(
                        relation, {position: value}
                    ) == instance.lookup(relation, {position: value})

    @settings(max_examples=50, deadline=None)
    @given(source=concrete_instances())
    def test_concrete_pickle_preserves_lifted_view(self, source):
        source.lifted()
        clone = pickle.loads(pickle.dumps(source))
        assert clone == source
        assert clone.lifted() == source.lifted()


class TestSnapshotRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(source=employment_instances(max_facts=6))
    def test_abstract_instance_codec_preserves_snapshots(self, source):
        abstract = semantics(source)
        decoded = shard_codec.decode_abstract_instance(
            shard_codec.encode_abstract_instance(abstract)
        )
        assert decoded == abstract
        assert decoded.same_snapshots_as(abstract)
        assert decoded.regions() == abstract.regions()


class TestShardReportRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(
        shard=st.integers(min_value=0, max_value=63),
        regions=st.integers(min_value=0, max_value=1000),
        seconds=st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        stats=st.one_of(
            st.none(),
            st.builds(
                RegionReuseStats,
                replayed_matches=st.integers(min_value=0, max_value=10**6),
                live_matches=st.integers(min_value=0, max_value=10**6),
                replayed_firings=st.integers(min_value=0, max_value=10**6),
                live_firings=st.integers(min_value=0, max_value=10**6),
                streams_reused=st.integers(min_value=0, max_value=10**4),
                streams_patched=st.integers(min_value=0, max_value=10**4),
                streams_rebuilt=st.integers(min_value=0, max_value=10**4),
            ),
        ),
    )
    def test_report_survives_outcome_payload(
        self, shard, regions, seconds, stats
    ):
        report = ShardReport(
            shard=shard,
            regions=regions,
            seconds=seconds,
            reuse=stats,
            remote=True,
        )
        outcome = shard_codec.ShardOutcome(
            results=(),
            region_reuse={Interval(0, 2): RegionReuseStats(live_matches=1)},
            error=None,
            report=report,
            merged_templates=(),
        )
        decoded = shard_codec.decode_shard_outcome(
            shard_codec.encode_shard_outcome(outcome)
        )
        assert decoded.report == report
        assert vars(decoded.region_reuse[Interval(0, 2)]) == vars(
            RegionReuseStats(live_matches=1)
        )


@pytest.fixture(scope="module")
def shared_pool():
    """One pool for every example — forking one per example would
    dominate the suite's runtime without adding coverage."""
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


class TestProcessesEqualsSerial:
    """The acceptance property: sharded processes ≡ unsharded serial,
    byte for byte."""

    @settings(max_examples=12, deadline=None)
    @given(source=employment_instances(max_facts=8))
    def test_sharded_processes_byte_identical(self, shared_pool, source):
        abstract = semantics(source)
        serial = abstract_chase(abstract, JOIN_SETTING)
        procs = abstract_chase(
            abstract, JOIN_SETTING, shards=2, executor=shared_pool
        )
        assert procs.failed == serial.failed
        assert procs.failed_region == serial.failed_region
        assert str(procs.failure) == str(serial.failure)
        assert procs.target.templates == serial.target.templates
        assert list(procs.region_results) == list(serial.region_results)
        for region in serial.region_results:
            assert (
                procs.region_results[region].target
                == serial.region_results[region].target
            )
            assert [
                str(s) for s in procs.region_results[region].trace.steps
            ] == [str(s) for s in serial.region_results[region].trace.steps]
