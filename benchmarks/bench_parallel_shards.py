"""SCALE-3: process-pool parallel shard execution of the abstract chase.

The region scheduler's ``threads`` executor is GIL-bound, so CPU-bound
chases gain nothing from it; the ``processes`` executor ships each shard
to a worker process as one pickled task (and each outcome back as one
pickle) and runs them truly in parallel.  These benchmarks compare the
serial executor against a *warm* four-worker pool (pool startup is a
one-time cost a server pays once, so it stays outside the timed region)
on the largest ``bench_scale_incremental`` workload.

What to expect depends on the machine: the wall-clock win is bounded by
the parent's serial share (task pickling, outcome unpickling, merge
concat) and by the CPU count.  On a single-core container the processes
executor *loses* — the workers timeslice one core and the pickling is
pure addition; the numbers are honest either way, and the summary emits
the observed ratio.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.abstract_view import abstract_chase, semantics
from repro.workloads import exchange_setting_org, random_org_history

from conftest import emit

ORG_SETTING = exchange_setting_org()
SHARDS = 4


def _largest_org_abstract():
    workload = random_org_history(people=128, timeline=512, seed=17)
    return semantics(workload.instance)


@pytest.fixture(scope="module")
def abstract():
    return _largest_org_abstract()


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=SHARDS) as executor:
        yield executor


def test_parallel_serial_baseline(benchmark, abstract):
    result = benchmark(
        lambda: abstract_chase(
            abstract, ORG_SETTING, shards=SHARDS, executor="serial"
        )
    )
    assert result.succeeded


def test_parallel_process_pool(benchmark, abstract, pool):
    # One throwaway run forks/warms the workers before timing starts.
    abstract_chase(abstract, ORG_SETTING, shards=SHARDS, executor=pool)
    result = benchmark(
        lambda: abstract_chase(
            abstract, ORG_SETTING, shards=SHARDS, executor=pool
        )
    )
    assert result.succeeded
    assert all(report.remote for report in result.shard_reports)


def test_parallel_speedup_summary(benchmark, abstract, pool):
    serial_times = []
    pool_times = []
    for _ in range(3):
        started = time.perf_counter()
        serial = abstract_chase(
            abstract, ORG_SETTING, shards=SHARDS, executor="serial"
        )
        serial_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        parallel = abstract_chase(
            abstract, ORG_SETTING, shards=SHARDS, executor=pool
        )
        pool_times.append(time.perf_counter() - started)
    assert parallel.target == serial.target
    ratio = min(serial_times) / min(pool_times)
    emit(
        "SCALE-3: process-pool vs serial at 4 shards "
        "(org workload, people=128; pool pre-warmed)",
        f"  serial {min(serial_times) * 1000:8.1f} ms, "
        f"4-worker pool {min(pool_times) * 1000:8.1f} ms, "
        f"speedup {ratio:5.2f}x",
    )
    benchmark(
        lambda: abstract_chase(
            abstract, ORG_SETTING, shards=SHARDS, executor=pool
        )
    )


# ---------------------------------------------------------------------------
# The parent's serial share: task pickling + outcome unpickling + merge
# ---------------------------------------------------------------------------
#
# Amdahl's bound for the processes executor: whatever the parent does
# serially — pickling four shard tasks, unpickling four outcomes,
# merging — caps the speedup no matter how many workers chase.  This
# benchmark times exactly that share, with the workers' compute done
# once outside the timed region (the outcomes are pickled bytes, so
# re-unpickling them is the real per-run parent cost).  Like the merge,
# it never reads the regions' targets and traces or the merged
# templates: those stay pickled until someone asks.


def test_parent_wire_share(benchmark, abstract):
    from repro.abstract_view.abstract_chase import (
        _merge,
        _pack_tasks,
        _partition,
        _process_worker,
        _unpack_outcome,
    )

    blocks = _partition(abstract.regions(), SHARDS)
    payloads = _pack_tasks(abstract, blocks, ORG_SETTING, "standard")
    # Worker compute, once, untimed: the timed region below replays only
    # the parent's wire work against these recorded outcome payloads.
    raw_outcomes = [_process_worker(payload) for payload in payloads]

    def parent_share():
        _pack_tasks(abstract, blocks, ORG_SETTING, "standard")
        return _merge([_unpack_outcome(raw) for raw in raw_outcomes])

    result = benchmark(parent_share)
    assert result.succeeded


# ---------------------------------------------------------------------------
# Script mode: one-shot serial-vs-parallel parity pass for CI
# ---------------------------------------------------------------------------
#
#   PYTHONPATH=src python benchmarks/bench_parallel_shards.py --smoke \
#       --executor processes --workers 4
#
# The dev container is single-core, so the pytest benchmarks above can
# only document that processes lose there; the CI multi-core job runs
# this smoke pass on a 4-vCPU runner, asserts byte-identical output,
# and publishes the observed serial/parallel ratio to the step summary.


def _smoke_main(argv=None) -> int:
    import argparse
    import os
    import sys

    parser = argparse.ArgumentParser(
        description="one-shot serial-vs-parallel shard parity pass"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="run one comparison and exit"
    )
    parser.add_argument(
        "--executor", choices=["threads", "processes"], default="processes"
    )
    parser.add_argument("--workers", type=int, default=SHARDS)
    parser.add_argument(
        "--people", type=int, default=96, help="workload size (org history)"
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("this script only supports --smoke (pytest runs the rest)")

    workload = random_org_history(people=args.people, timeline=384, seed=17)
    abstract = semantics(workload.instance)
    from contextlib import nullcontext

    pool_context = (
        ProcessPoolExecutor(max_workers=args.workers)
        if args.executor == "processes"
        else nullcontext("threads")
    )
    with pool_context as executor:
        # Warm the pool (fork + import cost is a one-time server expense).
        abstract_chase(abstract, ORG_SETTING, shards=args.workers, executor=executor)
        serial_times, parallel_times = [], []
        for _ in range(3):
            started = time.perf_counter()
            serial = abstract_chase(
                abstract, ORG_SETTING, shards=args.workers, executor="serial"
            )
            serial_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            parallel = abstract_chase(
                abstract, ORG_SETTING, shards=args.workers, executor=executor
            )
            parallel_times.append(time.perf_counter() - started)
    if parallel.target != serial.target:
        print("PARITY FAILURE: parallel target differs from serial")
        return 1
    ratio = min(serial_times) / min(parallel_times)
    # The parent's serial share of the last parallel run: task pickling,
    # outcome unpickling, merge (only the processes executor reports it —
    # Amdahl's cap on the speedup column).
    timings = parallel.parent_timings
    if timings is not None:
        wire = (
            f"{timings.encode_seconds * 1000:.1f} / "
            f"{timings.decode_seconds * 1000:.1f} / "
            f"{timings.merge_seconds * 1000:.1f}"
        )
    else:
        wire = "—"
    print(
        f"serial {min(serial_times) * 1000:.1f} ms, "
        f"{args.executor} {min(parallel_times) * 1000:.1f} ms, "
        f"ratio {ratio:.2f}x, parent encode/decode/merge {wire} ms"
    )
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        try:
            with open(summary, "a", encoding="utf-8") as handle:
                handle.write(
                    "## Multi-core shard parity\n\n"
                    f"`--executor {args.executor} --workers {args.workers}` on "
                    f"{os.cpu_count()} CPUs — "
                    "outputs byte-identical to serial.\n\n"
                    "| serial | parallel | speedup | parent enc/dec/merge (ms) |\n"
                    "|---:|---:|---:|---:|\n"
                    f"| {min(serial_times) * 1000:.1f} ms "
                    f"| {min(parallel_times) * 1000:.1f} ms | {ratio:.2f}x "
                    f"| {wire} |\n"
                )
        except OSError as exc:  # pragma: no cover - CI file-system hiccup
            print(f"(could not write GITHUB_STEP_SUMMARY: {exc})", file=sys.stderr)
    print(
        "PARALLEL-SMOKE: executor=%s workers=%d ratio=%.2f"
        % (args.executor, args.workers, ratio)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(_smoke_main())
