"""The abstract chase: classical chase applied snapshot-wise (Section 3).

With non-temporal s-t tgds and egds every snapshot is chased
independently::

    chase(Ia, M) = ⟨chase(db0, M), chase(db1, M), …⟩

and the fresh nulls of one snapshot are distinct from every other
snapshot's.  On the finite representation this collapses to chasing one
*representative* snapshot per constancy region: within a region all
snapshots are equal (abstract source instances are complete), so their
chase results are equal up to the per-snapshot renaming of fresh nulls —
which is exactly what an interval-annotated null family over the region
denotes.

Fresh nulls carry Skolem names (:mod:`repro.chase.nulls`), a pure
function of their firing, and each region's nulls are annotated with
that region, so nulls of different snapshots never coincide.  Because a
region's output therefore depends on nothing but the region, regions
also **shard**: the region scheduler partitions the region list into
contiguous blocks, chases each block on its own, and merges the
per-region results back in timeline order — byte-identical to the
unsharded run.  The executor is pluggable: ``"serial"`` (default) runs
the shards in a loop, ``"threads"`` uses a ``concurrent.futures`` thread
pool, and any ``Executor`` instance may be passed directly.

Within each shard the regions are chased **incrementally**: adjacent
region snapshots differ by few facts, so each region replays the
previous region's recorded tgd firing sequence wherever the snapshot
diff left it intact, and falls through to live decisions only where the
streams deviate; the egd fixpoint runs the live semi-naive engine either
way (see :mod:`repro.chase.incremental`).  The schedule is
byte-identical to chasing every region from scratch — null names,
traces and failures included.

Proposition 4: a successful abstract chase yields a universal solution;
a failure on any snapshot means no solution exists.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.errors import ChaseFailureError, InstanceError, ShardExecutionError
from repro.abstract_view.abstract_instance import AbstractInstance, TemplateFact
from repro.chase.incremental import IncrementalRegionChaser, RegionReuseStats
from repro.chase.standard import ChaseVariant, SnapshotChaseResult
from repro.chase.trace import ChaseTrace, FailureRecord
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.instance import Instance
from repro.relational.terms import AnnotatedNull, LabeledNull
from repro.temporal.interval import Interval

__all__ = [
    "AbstractChaseResult",
    "ParentTimings",
    "RegionReuseStats",
    "ShardReport",
    "abstract_chase",
]


@dataclass(frozen=True, slots=True)
class ShardReport:
    """Per-shard execution accounting of one scheduled abstract chase."""

    shard: int
    regions: int
    seconds: float
    # Aggregated cross-region reuse of the shard's incremental chain;
    # None only for a shard whose worker died before reporting.
    reuse: RegionReuseStats | None = None
    # True when the shard executed in a worker process (the "processes"
    # executor).  Recorded firing logs never cross the process boundary:
    # the shard's incremental chain lives entirely inside its worker, so
    # — exactly as for any sharded run — the chain's first region chases
    # from scratch and `reuse` reports the in-worker replay totals.
    remote: bool = False


@dataclass(frozen=True, slots=True)
class ParentTimings:
    """The parent's serial wire share of one ``processes``-executor run.

    Amdahl's bound for the pool: whatever the parent does serially —
    pickling the shard tasks, unpickling the outcomes, merging — caps
    the speedup no matter how many workers chase.
    """

    encode_seconds: float
    decode_seconds: float
    merge_seconds: float


@dataclass
class AbstractChaseResult:
    """Outcome of the snapshot-wise chase over the whole timeline."""

    target: AbstractInstance
    failed: bool = False
    failure: FailureRecord | None = None
    failed_region: Interval | None = None
    failed_shard: int | None = None
    error: ShardExecutionError | None = None
    region_results: dict[Interval, SnapshotChaseResult] = field(default_factory=dict)
    region_reuse: dict[Interval, RegionReuseStats] = field(default_factory=dict)
    shard_reports: tuple[ShardReport, ...] = ()
    # Set by the "processes" executor only: the parent's measured
    # encode/decode/merge share of this run.
    parent_timings: ParentTimings | None = None

    @property
    def succeeded(self) -> bool:
        return not self.failed

    def template_count(self) -> int:
        """``len(self.unwrap().templates)`` without forcing the deferred merge.

        Regions are disjoint and a region's templates are its target's
        facts, stamped one to one, so the count is the sum of the region
        targets' sizes.  A region chased in a worker process carries its
        size in the eager header, so counting loads no nested pickle.
        """
        self.unwrap()
        return sum(
            result.size
            if isinstance(result, _WireSnapshotResult)
            else len(result.target)
            for result in self.region_results.values()
        )

    def reuse_totals(self) -> RegionReuseStats:
        """Cross-region reuse summed over every chased region."""
        totals = RegionReuseStats()
        for stats in self.region_reuse.values():
            totals.add(stats)
        return totals

    def unwrap(self) -> AbstractInstance:
        """The universal solution, raising on failure.

        A chase *failure* raises :class:`ChaseFailureError` with the
        failing shard and region interval in its message; an unexpected
        exception inside a shard re-raises as
        :class:`ShardExecutionError` (original exception chained).
        """
        if self.error is not None:
            raise self.error
        if self.failed:
            assert self.failure is not None
            context = f"snapshots {self.failed_region}"
            if self.failed_shard is not None:
                context = f"shard {self.failed_shard}, {context}"
            raise ChaseFailureError(
                self.failure.dependency,
                self.failure.left,
                self.failure.right,
                context=context,
            )
        return self.target


def _partition(
    regions: tuple[Interval, ...], shards: int
) -> list[tuple[Interval, ...]]:
    """Split the ascending region list into ≤ *shards* contiguous blocks.

    Blocks are balanced to within one region and preserve timeline order,
    so every shard's subsequence is ascending (what the sweep of
    :meth:`AbstractInstance.iter_region_deltas` requires) and the
    merge is a plain concatenation in region order.
    """
    count = min(shards, len(regions))
    if count <= 0:
        return []
    size, extra = divmod(len(regions), count)
    blocks: list[tuple[Interval, ...]] = []
    start = 0
    for shard in range(count):
        width = size + (1 if shard < extra else 0)
        blocks.append(regions[start : start + width])
        start += width
    return blocks


def _chase_regions(
    source: AbstractInstance,
    regions: tuple[Interval, ...],
    setting: DataExchangeSetting,
    variant: ChaseVariant,
    shard: int,
) -> tuple[
    list[tuple[Interval, SnapshotChaseResult]],
    dict[Interval, RegionReuseStats],
    ShardExecutionError | None,
]:
    """Chase one block of regions; stops at the block's first failure.

    An exception raised while chasing a region is captured as a
    :class:`ShardExecutionError` carrying this shard's index and the
    region interval, so the scheduler can surface it without dropping
    the other shards' reports.  An exception raised by the sweep
    *between* regions is attributed to no region (the advance, not the
    previous region's chase, is at fault).
    """
    results: list[tuple[Interval, SnapshotChaseResult]] = []
    region_stats: dict[Interval, RegionReuseStats] = {}
    chaser = IncrementalRegionChaser(setting, variant)
    sweep = iter(source.iter_region_deltas(regions))
    while True:
        try:
            region, snapshot, added, removed = next(sweep)
        except StopIteration:
            break
        except Exception as exc:  # noqa: BLE001 — surfaced with shard context
            return results, region_stats, ShardExecutionError(
                shard, None, exc
            )
        try:
            result, region_stats[region] = chaser.chase(snapshot, added, removed)
        except Exception as exc:  # noqa: BLE001 — surfaced with shard context
            return results, region_stats, ShardExecutionError(
                shard, region, exc
            )
        results.append((region, result))
        if result.failed:
            break
    return results, region_stats, None


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker process needs to chase one region block.

    *templates* is the source restricted to the block's span — a
    template is relevant iff its stamp overlaps the block, because block
    regions are drawn from the canonical partition.
    """

    shard: int
    variant: ChaseVariant
    regions: tuple[Interval, ...]
    templates: tuple[TemplateFact, ...]
    setting: DataExchangeSetting


@dataclass
class _BlockOutcome:
    """One shard's finished block, as the merge consumes it.

    *merged_templates* is the shard's pre-computed contribution to the
    merged target (the per-region null re-annotation of :func:`_merge`,
    applied to every successful region in block order).  Worker
    processes compute it so the parent's merge is a concatenation
    instead of a per-fact loop; in-process executors leave it ``None``
    and the merge converts the region results itself.
    """

    results: list[tuple[Interval, SnapshotChaseResult]]
    region_reuse: dict[Interval, RegionReuseStats]
    error: ShardExecutionError | None
    report: ShardReport
    merged_templates: Iterable[TemplateFact] | None = None


def _region_templates(
    region: Interval, result: SnapshotChaseResult
) -> list[TemplateFact]:
    """One successful region's contribution to the merged target.

    Every fresh null is re-annotated with the region (a labeled null of
    the representative snapshot denotes one unknown *per* covered
    snapshot), constants pass through, and the facts become templates
    stamped with the region.  Set iteration order is fine here — the
    merged instance is a set, and forcing ``sort_key`` order would
    compute tens of thousands of sort keys the chase never needed
    (measured at ~20% of the whole serial run).
    """
    templates: list[TemplateFact] = []
    for item in result.target.facts():
        args = tuple(
            AnnotatedNull(value.name, region)
            if isinstance(value, LabeledNull)
            else value
            for value in item.args
        )
        # Trusted: fresh nulls were re-annotated with the region just
        # above, and Skolem null names never contain '@'.
        templates.append(TemplateFact.make(item.relation, args, region))
    return templates


class _LazyRegionTemplates:
    """One region's merged-target contribution, computed on first read.

    Re-iterable so the deferred :class:`AbstractInstance` can hold it as
    a piece; until something walks the merged template set, the region's
    chase result never has to materialize its target (which, for a
    fully-replayed region, is itself a lazy view over the firing log).
    """

    __slots__ = ("_region", "_result")

    def __init__(self, region: Interval, result: SnapshotChaseResult):
        self._region = region
        self._result = result

    def __iter__(self):
        return iter(_region_templates(self._region, self._result))


class _Pickled:
    """A nested pickle from a worker outcome, loaded on first read.

    Iterable, so a shard's merged templates can sit in the deferred
    :class:`AbstractInstance` as a piece; the regions' ``(target,
    trace)`` pairs are read through :meth:`value`.
    """

    __slots__ = ("_payload", "_value")

    def __init__(self, payload: bytes):
        self._payload: bytes | None = payload
        self._value = None

    def value(self):
        if self._payload is not None:
            self._value = pickle.loads(self._payload)
            self._payload = None
        return self._value

    def __iter__(self):
        return iter(self.value())


class _WireSnapshotResult(SnapshotChaseResult):
    """A region result from a worker whose target and trace load lazily.

    The parent's merge reads only ``failed`` and ``failure``, and
    :meth:`AbstractChaseResult.template_count` only ``size`` (the
    target's fact count), all of which arrive eagerly; the target
    instance and the trace unpickle on first access (tests, CLI
    ``--trace``, diagnostics), together with every other region of the
    same shard.
    """

    def __init__(
        self,
        pairs: _Pickled,
        index: int,
        failed: bool,
        failure: FailureRecord | None,
        size: int,
    ) -> None:
        self._pairs = pairs
        self._index = index
        self._target: Instance | None = None
        self._trace: ChaseTrace | None = None
        self.failed = failed
        self.failure = failure
        self.size = size

    @property
    def target(self) -> Instance:  # type: ignore[override]
        if self._target is None:
            self._target = Instance(self._pairs.value()[self._index][0])
        return self._target

    @target.setter
    def target(self, value: Instance) -> None:
        self._target = value

    @property
    def trace(self) -> ChaseTrace:  # type: ignore[override]
        if self._trace is None:
            self._trace = self._pairs.value()[self._index][1]
        return self._trace

    @trace.setter
    def trace(self, value: ChaseTrace) -> None:
        self._trace = value

    def __reduce__(self):
        return (
            SnapshotChaseResult,
            (self.target, self.failed, self.failure, self.trace),
        )


def _execute_block(
    source: AbstractInstance,
    block: tuple[Interval, ...],
    setting: DataExchangeSetting,
    variant: ChaseVariant,
    shard: int,
    remote: bool = False,
) -> _BlockOutcome:
    """Chase one shard's region block and account for it.

    The single execution path behind every executor: the serial loop and
    the thread pool call it in-process, and :func:`_process_worker` calls
    it inside a worker process (*remote* marks the report accordingly).
    """
    started = time.perf_counter()
    block_results, region_stats, error = _chase_regions(
        source, block, setting, variant, shard
    )
    reuse = RegionReuseStats()
    for stats in region_stats.values():
        reuse.add(stats)
    report = ShardReport(
        shard=shard,
        regions=len(block_results),
        seconds=time.perf_counter() - started,
        reuse=reuse,
        remote=remote,
    )
    merged: tuple[TemplateFact, ...] | None = None
    if remote:
        # Pre-merge in the worker: the parent then concatenates decoded
        # templates instead of re-annotating every fact serially.
        premerged: list[TemplateFact] = []
        for region, result in block_results:
            if result.failed:
                break
            premerged.extend(_region_templates(region, result))
        merged = tuple(premerged)
    return _BlockOutcome(
        results=block_results,
        region_reuse=region_stats,
        error=error,
        report=report,
        merged_templates=merged,
    )


def _pack_tasks(
    source: AbstractInstance,
    blocks: list[tuple[Interval, ...]],
    setting: DataExchangeSetting,
    variant: ChaseVariant,
) -> list[bytes]:
    """One pickled :class:`ShardTask` per block, in shard order.

    Each task carries only the templates overlapping its block's span
    (block regions come from the canonical partition, so overlap is
    exactly "contributes to some block snapshot").
    """
    payloads: list[bytes] = []
    for index, block in enumerate(blocks):
        span = Interval(block[0].start, block[-1].end)
        templates = tuple(
            template
            for template in source.templates
            if template.interval.overlaps(span)
        )
        payloads.append(
            pickle.dumps(
                ShardTask(
                    shard=index,
                    variant=variant,
                    regions=block,
                    templates=templates,
                    setting=setting,
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
    return payloads


def _process_worker(payload: bytes) -> bytes:
    """Chase one pickled :class:`ShardTask` in a worker process.

    Rebuilds the shard's source slice, runs the block exactly as an
    in-process shard would, and pickles the outcome — traces included —
    for the parent (:func:`_pack_outcome`).  ``REPRO_SHARD_CRASH=<shard>``
    hard-kills the worker before chasing; it exists so tests can
    exercise the worker-death path deterministically.
    """
    task: ShardTask = pickle.loads(payload)
    crash = os.environ.get("REPRO_SHARD_CRASH")
    if crash is not None and crash == str(task.shard):
        os._exit(17)
    outcome = _execute_block(
        AbstractInstance(task.templates),
        task.regions,
        task.setting,
        task.variant,
        task.shard,
        remote=True,
    )
    return _pack_outcome(outcome)


def _pack_outcome(outcome: _BlockOutcome) -> bytes:
    """One worker outcome as a pickle holding two nested pickles.

    The eager part is what :func:`_merge` and the template count read:
    per-region ``(region, failed, failure, size)`` headers, the reuse
    stats, the report and the error.  The regions' ``(target, trace)``
    pairs and the merged templates ride as nested pickles the parent
    loads only on first read.  The pairs share one pickle, so facts and trace records
    shared between consecutive regions stay shared after the trip.  A
    target travels as its fact set: ``Instance`` pickling sorts every
    bucket for a deterministic form, which the trip does not need and
    which is a large part of this pickle's cost in the worker.
    """
    assert outcome.merged_templates is not None
    details = pickle.dumps(
        tuple(
            (result.target.facts(), result.trace)
            for _, result in outcome.results
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    templates = pickle.dumps(
        tuple(outcome.merged_templates), protocol=pickle.HIGHEST_PROTOCOL
    )
    headers = tuple(
        (region, result.failed, result.failure, len(result.target))
        for region, result in outcome.results
    )
    return pickle.dumps(
        (
            headers,
            outcome.region_reuse,
            outcome.report,
            outcome.error,
            details,
            templates,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _unpack_outcome(raw: bytes) -> _BlockOutcome:
    """The parent's side of :func:`_pack_outcome`: eager part only."""
    headers, region_reuse, report, error, details, templates = pickle.loads(raw)
    pairs = _Pickled(details)
    return _BlockOutcome(
        results=[
            (region, _WireSnapshotResult(pairs, index, failed, failure, size))
            for index, (region, failed, failure, size) in enumerate(headers)
        ],
        region_reuse=region_reuse,
        error=error,
        report=report,
        merged_templates=_Pickled(templates),
    )


def _run_blocks_in_processes(
    source: AbstractInstance,
    blocks: list[tuple[Interval, ...]],
    setting: DataExchangeSetting,
    variant: ChaseVariant,
    workers: int | None,
    pool: ProcessPoolExecutor | None,
) -> tuple[list[_BlockOutcome], ParentTimings]:
    """Ship every block to a worker process and gather the outcomes.

    Tasks (:func:`_pack_tasks`) and outcomes (:func:`_pack_outcome`)
    travel as pickled bytes over the pool's own pipe; the parent pickles
    and unpickles them itself so :class:`ParentTimings` measures its
    share.  A worker that dies or raises before returning yields an
    error outcome for its shard — a :class:`ShardExecutionError` with
    the shard index and the executor's exception chained — while every
    shard whose outcome *did* come back keeps its results and report,
    mirroring the in-process failure contract.  One caveat: a single
    worker death breaks the whole ``ProcessPoolExecutor`` (standard
    ``concurrent.futures`` semantics), so every still-pending shard's
    result is lost with it and the merge reports the earliest such
    shard; which worker actually died is not recoverable from
    ``BrokenProcessPool``, and a caller-supplied pool is broken for the
    caller too and must be recreated.
    """
    encode_started = time.perf_counter()
    payloads = _pack_tasks(source, blocks, setting, variant)
    encode_seconds = time.perf_counter() - encode_started

    owned = pool is None
    if owned:
        limit = workers if workers is not None else os.cpu_count() or 1
        pool = ProcessPoolExecutor(max_workers=min(limit, len(blocks)))
    assert pool is not None
    try:
        futures = [pool.submit(_process_worker, payload) for payload in payloads]
        outcomes: list[_BlockOutcome] = []
        decode_seconds = 0.0
        for index, future in enumerate(futures):
            try:
                raw = future.result()
            except Exception as exc:  # noqa: BLE001 — surfaced per shard
                # A BrokenProcessPool names no culprit: ONE worker died
                # and every still-pending future raises it, so for this
                # shard we only know its result was lost with the pool.
                if isinstance(exc, BrokenExecutor):
                    stage = (
                        "lost its result: the pool broke because a "
                        "worker process died"
                    )
                else:
                    stage = "worker process died before returning a result"
                outcomes.append(
                    _BlockOutcome(
                        results=[],
                        region_reuse={},
                        error=ShardExecutionError(index, None, exc, stage=stage),
                        report=ShardReport(
                            shard=index,
                            regions=0,
                            seconds=0.0,
                            reuse=None,
                            remote=True,
                        ),
                        merged_templates=(),
                    )
                )
                continue
            decode_started = time.perf_counter()
            outcomes.append(_unpack_outcome(raw))
            decode_seconds += time.perf_counter() - decode_started
        timings = ParentTimings(
            encode_seconds=encode_seconds,
            decode_seconds=decode_seconds,
            merge_seconds=0.0,
        )
        return outcomes, timings
    finally:
        if owned:
            pool.shutdown()


def abstract_chase(
    source: AbstractInstance,
    setting: DataExchangeSetting,
    variant: ChaseVariant = "standard",
    shards: int = 1,
    executor: str | Executor = "serial",
    workers: int | None = None,
) -> AbstractChaseResult:
    """``chase(Ia, M)`` on the finite representation.

    The source must be complete (constants only), as the paper assumes
    for source instances.  With ``shards > 1`` the regions are
    partitioned into contiguous blocks, each block chases on its own,
    and the per-region results merge in timeline order; because null
    names are Skolem terms of their firings, the output is
    byte-identical to the unsharded run.  *executor* selects how blocks
    run (``"serial"``, ``"threads"``, ``"processes"``, or a
    ``concurrent.futures`` executor instance).

    ``"processes"`` is the only executor that runs CPU-bound shards in
    *parallel* (threads serialize on the GIL): each block ships to a
    worker process as one pickled :class:`ShardTask` — the block's
    source slice and the exchange setting — and the finished region
    results, traces and reports ship back as one pickle, so the merged
    output is byte-identical on every executor.  *workers* bounds the
    pool size (default: one worker per block, capped at the CPU count;
    it also caps the ``"threads"`` pool).  Passing a
    ``ProcessPoolExecutor`` instance reuses your warm pool through the
    same wire path.  A worker that dies mid-block surfaces as a
    :class:`ShardExecutionError` carrying the shard index.

    Each shard's chain of regions reuses the previous region's recorded
    chase wherever the snapshot diff permits: every block is its own
    incremental chain, byte-identical to chasing each region from
    scratch.
    """
    if not source.is_complete:
        raise InstanceError(
            "abstract source instances must be complete (constants only)"
        )
    if shards < 1:
        raise InstanceError(f"shards must be >= 1, got {shards}")
    if workers is not None and workers < 1:
        raise InstanceError(f"workers must be >= 1, got {workers}")
    regions = source.regions()
    blocks = [regions] if shards == 1 else _partition(regions, shards)

    def run_block(index: int) -> _BlockOutcome:
        return _execute_block(source, blocks[index], setting, variant, index)

    indices = range(len(blocks))
    timings: ParentTimings | None = None
    if executor == "processes" or isinstance(executor, ProcessPoolExecutor):
        outcomes, timings = _run_blocks_in_processes(
            source,
            blocks,
            setting,
            variant,
            workers,
            executor if isinstance(executor, ProcessPoolExecutor) else None,
        )
    elif isinstance(executor, Executor):
        outcomes = list(executor.map(run_block, indices))
    elif executor == "serial":
        outcomes = [run_block(index) for index in indices]
    elif executor == "threads":
        limit = workers if workers is not None else len(blocks)
        with ThreadPoolExecutor(
            max_workers=max(1, min(limit, len(blocks)))
        ) as pool:
            outcomes = list(pool.map(run_block, indices))
    else:
        raise InstanceError(
            f"unknown executor {executor!r}: use 'serial', 'threads', "
            "'processes', or a concurrent.futures.Executor"
        )

    merge_started = time.perf_counter()
    result = _merge(outcomes)
    if timings is not None:
        result.parent_timings = replace(
            timings, merge_seconds=time.perf_counter() - merge_started
        )
    return result


def _merge(outcomes: list[_BlockOutcome]) -> AbstractChaseResult:
    """Fold per-shard outcomes (in timeline order) into one result.

    Contiguous partitioning keeps the concatenated block results in
    region order, so the first failed region (or shard error)
    encountered is the globally first one; regions a failing shard
    skipped lie strictly after it and are simply absent, exactly as in
    the sequential early-exit.  Every shard's report is retained either
    way.  Blocks that crossed the process boundary arrive with their
    template contribution pre-merged in the worker; in-process blocks
    convert their region results here.
    """
    reports = tuple(outcome.report for outcome in outcomes)
    # Pieces, not facts: each shard's contribution stays an opaque
    # iterable (a still-pickled section for remote blocks, a lazy
    # per-region view for in-process ones) until someone reads the
    # merged instance's template set.
    pieces: list[Iterable[TemplateFact]] = []
    region_results: dict[Interval, SnapshotChaseResult] = {}
    region_reuse: dict[Interval, RegionReuseStats] = {}
    for outcome in outcomes:
        region_reuse.update(outcome.region_reuse)
        failed: tuple[Interval, SnapshotChaseResult] | None = None
        for region, result in outcome.results:
            region_results[region] = result
            if result.failed:
                # _chase_regions stops at the block's first failure, so
                # nothing follows this region in the results list.
                failed = (region, result)
        if outcome.merged_templates is not None:
            pieces.append(outcome.merged_templates)
        else:
            for region, result in outcome.results:
                if result.failed:
                    break
                pieces.append(_LazyRegionTemplates(region, result))
        if failed is not None:
            region, result = failed
            return AbstractChaseResult(
                target=AbstractInstance.deferred(tuple(pieces)),
                failed=True,
                failure=result.failure,
                failed_region=region,
                failed_shard=outcome.report.shard,
                region_results=region_results,
                region_reuse=region_reuse,
                shard_reports=reports,
            )
        if outcome.error is not None:
            return AbstractChaseResult(
                target=AbstractInstance.deferred(tuple(pieces)),
                failed=True,
                failed_region=outcome.error.region,
                failed_shard=outcome.report.shard,
                error=outcome.error,
                region_results=region_results,
                region_reuse=region_reuse,
                shard_reports=reports,
            )

    return AbstractChaseResult(
        target=AbstractInstance.deferred(tuple(pieces)),
        region_results=region_results,
        region_reuse=region_reuse,
        shard_reports=reports,
    )
