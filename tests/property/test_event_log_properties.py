"""Property tests for the event log's order-independence guarantees.

The whole ingestion design rests on compilation being a pure function
of the resolved event *set*; these tests let Hypothesis attack that
from three angles:

* any permutation of a stream, in any batching, compiles to a
  byte-identical snapshot (the tentpole invariant);
* the deltas a follow cursor hands out, applied one batch at a time
  and chased after each, reach a target byte-identical to a cold chase
  of the final snapshot — the live view really is a materialized view
  of the log;
* ``delta_between(t0, t1)`` is exactly the strict delta taking
  ``snapshot_at(t0)`` to ``snapshot_at(t1)``.

The streams come from the seeded org generator, so every draw contains
the full menu of difficulty: corrections, multi-source merge,
same-point add/remove pairs, and (after Hypothesis re-batches them)
genuinely late arrivals that transit the pending set.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concrete import ConcreteInstance, c_chase
from repro.events import EventLog
from repro.serialize import concrete_instance_to_json
from repro.workloads import (
    exchange_setting_org,
    org_event_mapping,
    org_event_stream,
)

MAPPING = org_event_mapping()
SETTING = exchange_setting_org()


def canonical(instance) -> str:
    return json.dumps(concrete_instance_to_json(instance), sort_keys=True)


@st.composite
def streams(draw, max_people: int = 10):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    people = draw(st.integers(min_value=2, max_value=max_people))
    return org_event_stream(people=people, timeline=32, seed=seed)


@st.composite
def batched_permutations(draw, events):
    """A permutation of *events* cut into 1..4 ingestion batches."""
    shuffled = draw(st.permutations(events))
    if len(shuffled) < 2:
        return [shuffled]
    cut_count = draw(st.integers(min_value=0, max_value=3))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=len(shuffled) - 1),
                min_size=cut_count,
                max_size=cut_count,
            )
        )
    )
    bounds = [0, *cuts, len(shuffled)]
    return [shuffled[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TestPermutationInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_any_permutation_any_batching_same_snapshot(self, data):
        events = data.draw(streams())
        reference = EventLog(MAPPING)
        reference.ingest(events)
        expected = canonical(reference.snapshot_at(None))

        log = EventLog(MAPPING)
        for batch in data.draw(batched_permutations(events)):
            if batch:
                log.ingest(batch)
        assert canonical(log.snapshot_at(None)) == expected
        assert log.pending_events() == reference.pending_events()

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_interior_snapshots_agree_too(self, data):
        events = data.draw(streams(max_people=6))
        when = data.draw(st.integers(min_value=0, max_value=32))
        reference = EventLog(MAPPING)
        reference.ingest(events)
        log = EventLog(MAPPING)
        log.ingest(data.draw(st.permutations(events)))
        assert canonical(log.snapshot_at(when)) == canonical(
            reference.snapshot_at(when)
        )


class TestFollowEqualsColdChase:
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_chased_follow_deltas_reach_cold_target(self, data):
        events = data.draw(streams(max_people=5))
        log = EventLog(MAPPING)
        cursor = log.follow()
        source = ConcreteInstance()
        result = None
        for batch in data.draw(batched_permutations(events)):
            if not batch:
                continue
            log.ingest(batch)
            source = cursor.advance().applied_to(source)
            result = c_chase(source, SETTING)
        cold = c_chase(log.snapshot_at(None), SETTING)
        assert canonical(result.target) == canonical(cold.target)


class TestDeltaBetween:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_delta_is_the_strict_diff(self, data):
        events = data.draw(streams(max_people=6))
        log = EventLog(MAPPING)
        log.ingest(events)
        t0 = data.draw(st.integers(min_value=0, max_value=32))
        t1 = data.draw(st.one_of(st.none(), st.integers(min_value=t0, max_value=32)))
        delta = log.delta_between(t0, t1)
        assert delta.applied_to(log.snapshot_at(t0)) == log.snapshot_at(t1)
