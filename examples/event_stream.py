#!/usr/bin/env python3
"""Event-sourced ingestion: from a live event log to a chased target.

Upstream systems rarely hand you a ready-made temporal instance — they
emit *event streams*: "employee p3 was hired", "p3 transferred", "p3
was assigned task t17".  This example runs the full ingestion pipeline
on the org-chart domain:

* an :class:`~repro.events.EventMapping` compiles entity/relationship
  events into the interval-stamped source relations the exchange
  setting expects;
* :meth:`~repro.events.EventLog.snapshot_at` replays the log up to any
  time point — the whole history is derived, never stored;
* arrival order does not matter: any permutation of the lines compiles
  to a byte-identical snapshot, corrections (same id, higher revision)
  supersede in place, and genuinely late arrivals park as *pending*
  until their history shows up;
* :meth:`~repro.events.EventLog.follow` turns each ingested batch into
  the :class:`~repro.deltas.SourceDelta` a live consumer applies, and
  chasing the source after each delta keeps a target that is
  byte-identical to chasing the final snapshot from scratch.

Run:  python examples/event_stream.py
"""

import json

from repro import EventLog, c_chase
from repro.concrete import ConcreteInstance
from repro.serialize import concrete_instance_to_json
from repro.workloads import (
    exchange_setting_org,
    late_arrival_batches,
    org_event_mapping,
    org_event_stream,
)


def canonical(instance) -> str:
    return json.dumps(concrete_instance_to_json(instance), sort_keys=True)


def main() -> None:
    mapping = org_event_mapping()
    events = org_event_stream(people=16, timeline=48, seed=42)
    print("=== The stream ===")
    print(f"{len(events)} wire-shape events over the org-chart domain")
    for line in events[:3]:
        print("  " + json.dumps(line))
    print("  ...")

    print("\n=== Compile: the log is the system of record ===")
    log = EventLog(mapping)
    report = log.ingest(events)
    print(
        f"ingested: {report.accepted} events, {report.corrections} "
        f"corrections, {report.duplicates} duplicates "
        f"(stale revisions arriving after their correction)"
    )
    print(f"log horizon: point {log.horizon} on {mapping.scale.unit} "
          f"since {mapping.scale.epoch}")
    for when in (0, 12, 24, None):
        label = "horizon" if when is None else f"t={when}"
        facts = len(list(log.snapshot_at(when).facts()))
        print(f"snapshot_at({label}): {facts} coalesced source facts")

    print("\n=== Permutation invariance ===")
    shuffled = EventLog(mapping)
    shuffled.ingest(list(reversed(events)))
    same = canonical(shuffled.snapshot_at(None)) == canonical(log.snapshot_at(None))
    print(f"reversed arrival order, byte-identical snapshot: {same}")

    print("\n=== Following the log into a live chase ===")
    setting = exchange_setting_org()
    batches = late_arrival_batches(events, batches=4, late_fraction=0.25, seed=7)
    live = EventLog(mapping)
    cursor = live.follow()
    source = ConcreteInstance()
    result = None
    for number, batch in enumerate(batches):
        batch_report = live.ingest(batch)
        delta = cursor.advance()
        source = delta.applied_to(source)
        result = c_chase(source, setting)
        print(
            f"batch {number}: {batch_report.accepted} events "
            f"({batch_report.out_of_order} behind the horizon, "
            f"{batch_report.pending} pending), "
            f"delta +{len(delta.add)}/-{len(delta.remove)}, "
            f"target now {len(list(result.target.facts()))} facts"
        )
    print(f"pending after final batch: {len(live.pending_events())}")

    cold = c_chase(log.snapshot_at(None), setting)
    identical = canonical(result.target) == canonical(cold.target)
    print(f"live view ≡ cold chase: {identical}")


if __name__ == "__main__":
    main()
