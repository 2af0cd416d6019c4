#!/usr/bin/env python3
"""Taxi/bicycle rides: the intro's "temporality of facts" domain.

Deployments, driver shifts and fares are exchanged into a fleet log.
This example highlights how the exchange distinguishes what is *certain*
(the cab's metered rates, the driver handover at hour 9) from what is
*unknown* (the bike has no meter — its rate is an interval-annotated
null, so it appears in no certain answer), and prints the trace of the
egd steps that merged the σ1-nulls with the recorded fares.

It also demonstrates the engine's **region scheduler**: the abstract
(snapshot-wise) chase of the same scenario is partitioned across shards
— each shard chases a contiguous block of constancy regions — and the
per-shard timing report is printed.  Null names are Skolem terms of
their firings, so the merged result equals the unsharded one exactly.

Run:  python examples/ride_share.py [--shards N]
          [--executor serial|threads|processes]
"""

import argparse
import time

from repro import ConjunctiveQuery, c_chase, certain_answers_concrete
from repro.abstract_view import abstract_chase, semantics
from repro.serialize import render_concrete_instance
from repro.workloads import ride_share_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards",
        type=int,
        default=3,
        help="regions are partitioned across this many shards (default 3)",
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default="serial",
        help="how the shards run (default serial; processes is the only "
        "one that parallelizes CPU-bound chases)",
    )
    args = parser.parse_args()

    scenario = ride_share_scenario()
    print(f"=== Scenario: {scenario.description} ===")
    print(render_concrete_instance(scenario.source))

    print("\n=== Exchanged fleet log (delta-driven c-chase) ===")
    result = c_chase(scenario.source, scenario.setting)
    assert result.succeeded
    print(render_concrete_instance(result.target))

    print("\n=== egd steps that merged unknowns with recorded fares ===")
    for step in result.trace.egd_steps:
        print(f"  {step}")

    print("\n=== Certain answers ===")
    for text in [
        "rates(r) :- Fleet('cab7', z, r)",
        "zones(z) :- Fleet('bike3', z, r)",
        "bike_rate(r) :- Fleet('bike3', z, r)",
        "drivers(d) :- Operates('cab7', d)",
    ]:
        query = ConjunctiveQuery.parse(text)
        answers = certain_answers_concrete(query, scenario.source, scenario.setting)
        print(f"  {text}")
        if not answers:
            print("    (no certain answers — the value is unknown)")
        for row, support in answers:
            values = ", ".join(str(v) for v in row)
            print(f"    ({values})  during {support}")

    print(f"\n=== Sharded abstract chase (--shards {args.shards}, "
          f"--executor {args.executor}) ===")
    abstract = semantics(scenario.source)
    regions = abstract.regions()
    print(f"timeline has {len(regions)} constancy regions")

    # Untimed warm-up: populate the per-setting task caches and per-term
    # sort keys once, so the two timed runs below are comparable.
    abstract_chase(abstract, scenario.setting)

    started = time.perf_counter()
    serial = abstract_chase(abstract, scenario.setting)
    serial_ms = (time.perf_counter() - started) * 1000

    started = time.perf_counter()
    sharded = abstract_chase(
        abstract,
        scenario.setting,
        shards=args.shards,
        executor=args.executor,
    )
    sharded_ms = (time.perf_counter() - started) * 1000
    assert sharded.succeeded

    print(f"serial run : {serial_ms:7.2f} ms "
          f"({len(serial.region_results)} regions, one shard)")
    print(f"sharded run: {sharded_ms:7.2f} ms, per shard:")
    for shard in sharded.shard_reports:
        print(
            f"  shard {shard.shard}: {shard.regions:>3} regions  "
            f"{shard.seconds * 1000:7.2f} ms"
        )
    identical = sharded.target == serial.target
    print(f"sharded result identical to the serial one: {identical}")


if __name__ == "__main__":
    main()
