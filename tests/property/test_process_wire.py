"""The process-pool wire: shard tasks and outcomes cross as pickles.

The ``processes`` executor pickles each :class:`ShardTask` in the
parent and each block outcome in the worker (``_pack_outcome``: an
eager part plus two nested pickles the parent loads on first read).
Hypothesis checks that pickling is lossless on generated data —
instance equality, index-backed lookups, shard reports — and that a
pooled sharded chase is byte-identical to the unsharded one.  The unit
cases pin what the trip must keep: distinct equal-comparing constants,
trace records shared between regions, failure records, in-worker
exceptions, and the lazy sections.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract_view import AbstractInstance, TemplateFact, abstract_chase, semantics
from repro.abstract_view.abstract_chase import (
    ShardReport,
    _BlockOutcome,
    _pack_outcome,
    _unpack_outcome,
)
from repro.chase.incremental import IncrementalRegionChaser, RegionReuseStats
from repro.dependencies import DataExchangeSetting
from repro.errors import ChaseFailureError, ShardExecutionError
from repro.relational import (
    AnnotatedNull,
    Constant,
    Fact,
    Instance,
    LabeledNull,
    Schema,
)
from repro.temporal import Interval
from repro.workloads import random_employment_history

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

CLASH_SETTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Dept")),
    Schema.of(T=("Name", "Dept")),
    st_tgds=["E(x, y) -> T(x, y)"],
    egds=["T(x, y) & T(x, z) -> y = z"],
)

COPY_SETTING = DataExchangeSetting.create(
    Schema.of(A=("X", "Y"), B=("X", "Y"), C=("X", "Y")),
    Schema.of(TA=("X", "Y"), TB=("X", "Y"), TC=("X", "Y")),
    st_tgds=["A(x, y) -> TA(x, y)", "B(x, y) -> TB(x, y)", "C(x, y) -> TC(x, y)"],
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
        outcome = _BlockOutcome(
            results=[],
            region_reuse={Interval(0, 2): RegionReuseStats(live_matches=1)},
            error=None,
            report=report,
            merged_templates=(),
        )
        decoded = _unpack_outcome(_pack_outcome(outcome))
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


_ORIGINAL_CHASE = IncrementalRegionChaser.chase


def _exploding_chase(self, snapshot, added, removed):
    """A region chase that raises on each chaser's second region."""
    self.test_calls = getattr(self, "test_calls", 0) + 1
    if self.test_calls == 2:
        raise RuntimeError("replay log corrupted")
    return _ORIGINAL_CHASE(self, snapshot, added, removed)


def _install_exploding_chase():
    IncrementalRegionChaser.chase = _exploding_chase


def _shared_step_pairs(result):
    """Every (region, step) pair of consecutive regions holding one object."""
    regions = list(result.region_results)
    found = set()
    for before, after in zip(regions, regions[1:]):
        earlier = result.region_results[before].trace.steps
        later = result.region_results[after].trace.steps
        for i, step in enumerate(earlier):
            for j, other in enumerate(later):
                if step is other:
                    found.add((before, i, after, j))
    return found


class TestWireKeeps:
    def test_equal_constants_keep_their_types(self, shared_pool):
        # Constant(1) == Constant(1.0) == Constant(True) under Python
        # equality; the trip must keep each value's own type, or the
        # target renders whichever representative it met first.
        stamp = Interval(0, 4)
        source = AbstractInstance(
            [
                TemplateFact("A", (Constant(1), Constant("x")), stamp),
                TemplateFact("B", (Constant(True), Constant("x")), stamp),
                TemplateFact("C", (Constant(1.0), Constant("x")), Interval(2, 6)),
            ]
        )
        serial = abstract_chase(source, COPY_SETTING)
        procs = abstract_chase(source, COPY_SETTING, shards=2, executor=shared_pool)

        def typed(result):
            return sorted(
                (t.relation, str(t.interval), [type(a.value).__name__ for a in t.args])
                for t in result.target.templates
            )

        assert typed(procs) == typed(serial)
        assert {t.relation: type(t.args[0].value) for t in procs.target.templates} == {
            "TA": int,
            "TB": bool,
            "TC": float,
        }
        for region in serial.region_results:
            assert sorted(
                repr(f) for f in procs.region_results[region].target.facts()
            ) == sorted(repr(f) for f in serial.region_results[region].target.facts())

    def test_shared_trace_records_stay_shared(self, shared_pool):
        source = semantics(
            random_employment_history(people=3, timeline=24, seed=2).instance
        )
        serial = abstract_chase(source, JOIN_SETTING)
        procs = abstract_chase(source, JOIN_SETTING, executor=shared_pool)
        shared = _shared_step_pairs(serial)
        assert shared  # the incremental chain did reuse records
        assert _shared_step_pairs(procs) == shared

    def test_failure_record_equals_serial(self, shared_pool):
        source = AbstractInstance(
            [
                TemplateFact("E", (Constant("a"), Constant("b")), Interval(0, 4)),
                TemplateFact("E", (Constant("a"), Constant("c")), Interval(2, 6)),
            ]
        )
        serial = abstract_chase(source, CLASH_SETTING, shards=2)
        procs = abstract_chase(source, CLASH_SETTING, shards=2, executor=shared_pool)
        assert procs.failed and serial.failed
        assert procs.failure == serial.failure
        assert (procs.failed_region, procs.failed_shard) == (
            serial.failed_region,
            serial.failed_shard,
        )
        region = serial.failed_region
        assert procs.region_results[region].failure == serial.failure
        assert procs.region_results[region].trace.steps == (
            serial.region_results[region].trace.steps
        )

    def test_in_worker_exception_equals_serial(self, monkeypatch):
        monkeypatch.setattr(IncrementalRegionChaser, "chase", _exploding_chase)
        source = semantics(
            random_employment_history(people=3, timeline=24, seed=2).instance
        )
        serial = abstract_chase(source, JOIN_SETTING, shards=2)
        # Fresh spawned workers, each patched by the initializer.
        with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_install_exploding_chase,
        ) as pool:
            procs = abstract_chase(source, JOIN_SETTING, shards=2, executor=pool)
        assert isinstance(procs.error, ShardExecutionError)
        assert (procs.error.shard, procs.error.region) == (
            serial.error.shard,
            serial.error.region,
        )
        assert str(procs.error) == str(serial.error)
        assert type(procs.error.__cause__) is RuntimeError
        assert (procs.failed_region, procs.failed_shard) == (
            serial.failed_region,
            serial.failed_shard,
        )
        with pytest.raises(ShardExecutionError, match="replay log corrupted"):
            procs.unwrap()

    def test_details_and_templates_stay_pickled_until_read(self, shared_pool):
        source = semantics(
            random_employment_history(people=3, timeline=24, seed=2).instance
        )
        procs = abstract_chase(source, JOIN_SETTING, shards=2, executor=shared_pool)
        results = list(procs.region_results.values())
        pieces = procs.target._templates_source
        assert results and pieces
        assert all(result._pairs._payload is not None for result in results)
        assert all(piece._payload is not None for piece in pieces)

        assert results[0].trace is not None  # loads that shard's regions, no more
        assert results[0]._pairs._payload is None
        assert results[-1]._pairs._payload is not None
        assert all(piece._payload is not None for piece in pieces)

        serial = abstract_chase(source, JOIN_SETTING)
        assert procs.target.templates == serial.target.templates
        assert all(piece._payload is None for piece in pieces)


class TestTemplateCount:
    """``template_count`` is the merged target's size, counted without
    running the deferred merge or loading a worker's nested pickles."""

    @staticmethod
    def source():
        return semantics(
            random_employment_history(people=4, timeline=24, seed=5).instance
        )

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
    def test_count_equals_merged_templates(self, shared_pool, pooled, shards):
        result = abstract_chase(
            self.source(),
            JOIN_SETTING,
            shards=shards,
            executor=shared_pool if pooled else "serial",
        )
        count = result.template_count()
        assert result.target._templates_cache is None  # the merge waits
        assert count == len(result.unwrap().templates) > 0

    def test_counting_loads_no_pickle(self, shared_pool):
        procs = abstract_chase(
            self.source(), JOIN_SETTING, shards=2, executor=shared_pool
        )
        assert procs.template_count() > 0
        results = list(procs.region_results.values())
        pieces = procs.target._templates_source
        assert results and pieces
        assert all(result._pairs._payload is not None for result in results)
        assert all(piece._payload is not None for piece in pieces)

    def test_failed_chase_raises_like_unwrap(self, shared_pool):
        source = AbstractInstance(
            [
                TemplateFact("E", (Constant("a"), Constant("b")), Interval(0, 4)),
                TemplateFact("E", (Constant("a"), Constant("c")), Interval(2, 6)),
            ]
        )
        procs = abstract_chase(source, CLASH_SETTING, shards=2, executor=shared_pool)
        with pytest.raises(ChaseFailureError):
            procs.template_count()
