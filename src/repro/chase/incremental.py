"""Incremental cross-region snapshot chase: replay work between regions.

The abstract chase visits one representative snapshot per constancy
region, and adjacent region snapshots typically differ by a handful of
facts — yet the from-scratch schedule re-derives every homomorphism and
re-fires every tgd per region.  This module chases a shard's region
block *incrementally*: each region records a replayable log (per-tgd
match streams with firing records), and the next region replays
everything the snapshot diff did not invalidate.  The egd fixpoint runs
the live semi-naive engine unchanged: its round-0 enumeration over the
pre-sorted target indexes is already cheaper than any replay
bookkeeping (measured — see docs/architecture.md), and the target it
runs on is identical either way.

The hard requirement is that the incremental schedule is **byte-identical**
to the from-scratch chase — null names, traces and failures included.
Three structural facts make that possible:

1. **Match streams are content-determined and patchable.**  A tgd's lhs
   match enumeration depends only on the facts of the lhs relations, and
   for the two dominant shapes its order is a sorted merge: a single-atom
   lhs enumerates matching facts in ``Fact.sort_key`` order, and an
   unconstrained two-atom lhs enumerates (outer fact, join partner) pairs
   outer-major with both levels sorted.  Removing the diff's dead facts
   and splicing its new facts into the recorded stream therefore
   reproduces the fresh enumeration *order* exactly.  When the
   cardinality rule flips the join orientation, the *pairs* are
   unchanged — re-sorting the recorded stream into the new
   (outer, inner) order reproduces the fresh order without a live
   re-enumeration.  Shapes the patcher does not understand (constants +
   multi-atom, three-plus atom joins) simply re-enumerate live —
   correct, just not accelerated.

2. **Replayed firings keep their nulls.**  A null's name is the Skolem
   term of its firing (:mod:`repro.chase.nulls`), so a surviving firing
   would mint exactly the recorded nulls: its recorded rhs facts are
   reused as objects, hash and sort-key caches intact.

3. **Fire/skip decisions and dedup outcomes replay until the streams
   deviate.**  Up to the first deviation of the region's processed match
   sequence from the recorded one, the target equals the recorded
   target at the same stream position, so every recorded decision — the
   fire/skip choice *and* which rhs facts were new to the target — is
   forced and is copied without probing the target at all.  Deviations
   split in two: purely *additive* ones (a diff-introduced match) leave
   the target a superset of the recorded one, so recorded skips stay
   forced and only recorded firings need a live extension probe;
   *dropping* ones (a dead recorded entry, a re-sorted stream)
   invalidate everything, and every later decision is probed live
   against the current target.  The rhs projection probes are seeded
   lazily at the first live decision, so a fully-replayed region never
   maintains them.

Failures stay exact by construction, but as a belt-and-braces guarantee a
replay-assisted region that *fails* re-runs from scratch, so failure
records can never drift from the reference schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.chase.engine import RhsProbe, run_egd_fixpoint
from repro.chase.standard import (
    ChaseVariant,
    SnapshotChaseResult,
    _skolem_nulls,
    _SnapshotDomain,
    _SnapshotTgdTask,
    _egd_tasks,
    _snapshot_tgd_tasks,
    chase_snapshot,
)
from repro.chase.trace import ChaseTrace, TgdStepRecord
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.fact import Fact
from repro.relational.formulas import Atom
from repro.relational.homomorphism import (
    _flat_join_plan,
    find_homomorphisms_with_images,
    has_homomorphism,
    match_atom_against_fact,
)
from repro.relational.instance import Instance
from repro.relational.terms import GroundTerm, Variable

__all__ = [
    "IncrementalRegionChaser",
    "RegionReuseStats",
    "ReplayLedger",
]


class ReplayLedger:
    """A signature-checked store of recorded decisions, with accounting.

    The recorded-replay engines of this repository share one contract: a
    decision recorded under some input may be replayed verbatim **only
    while the current input provably matches the recorded one**, and any
    mismatch must fall back to the live computation — never to a guess.
    This class is the small shared mechanism behind that contract: each
    key stores ``(signature, payload)``, and :meth:`recall` hands the
    payload back only on an exact signature match, counting hits and
    misses so callers can report replay coverage (the query layer's
    answer ledger and its per-target normalization memo).

    Signatures are whatever equality-comparable value captures *all* the
    input a decision depends on — such as the frozenset of facts a query
    disjunct reads — chosen by the caller.  A ledger never expires
    entries; one ledger represents one recorded run.
    """

    __slots__ = ("_records", "hits", "misses")

    def __init__(self) -> None:
        self._records: dict[object, tuple[object, object]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._records)

    def record(self, key: object, signature: object, payload: object) -> None:
        """Store *payload* for *key*, replayable iff *signature* recurs."""
        self._records[key] = (signature, payload)

    def recall(self, key: object, signature: object) -> object | None:
        """The recorded payload on an exact signature match, else ``None``."""
        entry = self._records.get(key)
        if entry is not None and entry[0] == signature:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def counters(self) -> tuple[int, int]:
        """The cumulative ``(hits, misses)`` pair.

        A ledger that persists across runs (``--query-log`` chains, the
        resident server's sessions) accumulates counters over its whole
        lifetime; callers that report *per-run* or *per-request* replay
        coverage take a mark before the run and difference it after with
        :meth:`delta_since`.  This is the public attach/detach surface
        the CLI and :mod:`repro.server` share — neither reaches into the
        counter attributes directly.
        """
        return (self.hits, self.misses)

    def delta_since(self, mark: tuple[int, int]) -> tuple[int, int]:
        """``(hits, misses)`` accrued since *mark* (a prior :meth:`counters`)."""
        return (self.hits - mark[0], self.misses - mark[1])


@dataclass
class RegionReuseStats:
    """How much of a region's chase was replayed vs. run live."""

    replayed_matches: int = 0
    live_matches: int = 0
    replayed_firings: int = 0
    live_firings: int = 0
    streams_reused: int = 0
    streams_patched: int = 0
    streams_rebuilt: int = 0

    def add(self, other: "RegionReuseStats") -> None:
        """Accumulate *other* into this instance (shard-level totals)."""
        self.replayed_matches += other.replayed_matches
        self.live_matches += other.live_matches
        self.replayed_firings += other.replayed_firings
        self.live_firings += other.live_firings
        self.streams_reused += other.streams_reused
        self.streams_patched += other.streams_patched
        self.streams_rebuilt += other.streams_rebuilt

    @property
    def fully_replayed(self) -> bool:
        """``True`` iff no live rule fired and no live match was found."""
        return not self.live_matches and not self.live_firings


class _FiringRecord:
    """One fired tgd step, replayable against a later region."""

    __slots__ = ("record", "facts")

    def __init__(self, record: TgdStepRecord, facts: tuple[Fact, ...]) -> None:
        self.record = record          # as traced (assignment, added, fresh)
        self.facts = facts            # full rhs instantiation, pre-dedup


class _MatchEntry:
    """One lhs match of a task's stream: images, assignment, firing-or-None."""

    __slots__ = ("images", "assignment", "firing")

    def __init__(
        self,
        images: tuple[Fact, ...],
        assignment: dict[Variable, GroundTerm],
        firing: _FiringRecord | None,
    ) -> None:
        self.images = images
        self.assignment = assignment
        self.firing = firing


class _RegionRecord:
    """Everything the next region needs to replay this one.

    *egd_clean* marks a region whose egd fixpoint recorded nothing (so
    its target is exactly the tgd pass's output) — the precondition for
    the next region's copy-on-write replay to skip the fixpoint.
    """

    __slots__ = ("task_logs", "outer_choices", "egd_clean", "_totals")

    def __init__(
        self,
        task_logs: list[list[_MatchEntry]],
        outer_choices: list[int | None],
        egd_clean: bool = False,
    ) -> None:
        self.task_logs = task_logs
        self.outer_choices = outer_choices
        self.egd_clean = egd_clean
        self._totals: tuple[int, int] | None = None

    def totals(self) -> tuple[int, int]:
        """``(matches, firings)`` across all logs, cached."""
        found = self._totals
        if found is None:
            matches = firings = 0
            for log in self.task_logs:
                matches += len(log)
                firings += sum(entry.firing is not None for entry in log)
            self._totals = found = (matches, firings)
        return found


# ---------------------------------------------------------------------------
# Stream shapes: which enumeration orders the patcher can reproduce
# ---------------------------------------------------------------------------


class _SingleShape:
    """Single-atom lhs: the stream is the atom's matching facts, sorted."""

    __slots__ = ("atom", "relations")

    def __init__(self, atom: Atom) -> None:
        self.atom = atom
        self.relations = frozenset((atom.relation,))

    def assignment_for(self, item: Fact) -> dict[Variable, GroundTerm] | None:
        return match_atom_against_fact(self.atom, item)


class _PairOrientation:
    """Join metadata of a two-atom shape for one choice of outer atom.

    Mirrors the setup of ``homomorphism._iter_pair_matches`` so patched
    streams bind assignments and order partners exactly as the live
    group join does.
    """

    __slots__ = (
        "outer_atom",
        "inner_atom",
        "outer_index",
        "inner_index",
        "outer_key_positions",
        "inner_key_positions",
        "outer_slots",
        "inner_new_slots",
    )

    def __init__(self, atoms: tuple[Atom, Atom], outer_index: int) -> None:
        self.outer_index = outer_index
        self.inner_index = 1 - outer_index
        self.outer_atom = atoms[outer_index]
        self.inner_atom = atoms[self.inner_index]
        outer_positions = {
            arg: pos for pos, arg in enumerate(self.outer_atom.args)
        }
        inner_key: list[int] = []
        outer_key: list[int] = []
        new_slots: list[tuple[Variable, int]] = []
        for position, arg in enumerate(self.inner_atom.args):
            outer_position = outer_positions.get(arg)
            if outer_position is None:
                new_slots.append((arg, position))  # type: ignore[arg-type]
            else:
                inner_key.append(position)
                outer_key.append(outer_position)
        self.inner_key_positions = tuple(inner_key)
        self.outer_key_positions = tuple(outer_key)
        self.outer_slots = tuple(enumerate(self.outer_atom.args))
        self.inner_new_slots = tuple(new_slots)

    def pair(self, outer_fact: Fact, inner_fact: Fact) -> tuple[
        tuple[Fact, ...], dict[Variable, GroundTerm]
    ]:
        """Written-order images and the full assignment of one pair."""
        assignment: dict[Variable, GroundTerm] = {}
        outer_args = outer_fact.args
        for position, variable in self.outer_slots:
            assignment[variable] = outer_args[position]  # type: ignore[index]
        inner_args = inner_fact.args
        for variable, position in self.inner_new_slots:
            assignment[variable] = inner_args[position]
        images = (
            (outer_fact, inner_fact)
            if self.outer_index == 0
            else (inner_fact, outer_fact)
        )
        return images, assignment


class _PairShape:
    """Unconstrained two-atom lhs: outer-major sorted group join."""

    __slots__ = ("atoms", "relations", "orientations")

    def __init__(self, atoms: tuple[Atom, Atom]) -> None:
        self.atoms = atoms
        self.relations = frozenset(atom.relation for atom in atoms)
        self.orientations = (
            _PairOrientation(atoms, 0),
            _PairOrientation(atoms, 1),
        )

    def outer_choice(self, snapshot: Instance) -> int:
        """Replicates the live cardinality rule for the outer atom."""
        counts = [
            snapshot.candidate_count(atom.relation, {}) for atom in self.atoms
        ]
        return 1 if counts[1] < counts[0] else 0


def _insert_all(target: Instance, facts) -> None:
    """Insert *facts* straight into the target's relation buckets.

    The no-drops replay's fast insert: valid only while nothing observes
    the target (no seeded probe, cold ``_index``/``_ordered`` caches —
    the callers check) and the facts are known-new (forced dedup) or
    idempotent re-adds.  Mirrors the parts of :meth:`Instance.add` that
    still apply: bucket membership and the ``_max_arity`` bound (which
    ``facts_with_any_term`` consults later); keep in sync with it.
    """
    buckets = target._facts_by_relation
    max_arity = target._max_arity
    for item in facts:
        bucket = buckets.get(item.relation)
        if bucket is None:
            buckets[item.relation] = bucket = set()
        bucket.add(item)
        if item.arity > max_arity.get(item.relation, 0):
            max_arity[item.relation] = item.arity


def _replay_firings(
    log: list[_MatchEntry], target: Instance, trace: ChaseTrace
) -> int:
    """Re-apply a recorded stream's firings verbatim; returns their count.

    Valid only where every recorded decision and dedup outcome is forced
    (see :func:`_insert_all` for the target-side preconditions).
    """
    firings = 0
    for entry in log:
        recorded = entry.firing
        if recorded is not None:
            firings += 1
            _insert_all(target, recorded.record.added_facts)
            trace.record(recorded.record)
    return firings


class _ReplaySnapshotResult(SnapshotChaseResult):
    """A fully-replayed region's outcome as a copy-on-write view.

    When a region's every stream reuses the recorded log verbatim and
    the recorded egd fixpoint was a no-op, its result is the recorded
    run's — determined entirely by the recorded log.  The target
    instance and the trace are built on first access, so a caller that
    never reads them (the deferred merge of the parallel scheduler,
    coverage accounting) skips the region's target build entirely.

    Mutation goes through the ``target``/``trace`` setters, which
    simply replace the lazy view — copy-on-write at result granularity.
    """

    def __init__(self, record: _RegionRecord) -> None:
        self._record = record
        self._target: Instance | None = None
        self._trace: ChaseTrace | None = None
        self.failed = False
        self.failure = None

    def _materialize(self) -> None:
        # The same replay as _replay_log, in the same task order —
        # byte-identical output.
        target = Instance()
        trace = ChaseTrace()
        for log in self._record.task_logs:
            _replay_firings(log, target, trace)
        if self._target is None:
            self._target = target
        if self._trace is None:
            self._trace = trace

    @property
    def target(self) -> Instance:
        if self._target is None:
            self._materialize()
        return self._target

    @target.setter
    def target(self, value: Instance) -> None:
        self._target = value

    @property
    def trace(self) -> ChaseTrace:
        if self._trace is None:
            self._materialize()
        return self._trace

    @trace.setter
    def trace(self, value: ChaseTrace) -> None:
        self._trace = value

    def __reduce__(self):
        return (
            SnapshotChaseResult,
            (
                self.target,
                self.failed,
                self.failure,
                ChaseTrace(list(self.trace.steps)),
            ),
        )


def _analyze_stream_shape(tgd) -> _SingleShape | _PairShape | None:
    atoms = tuple(tgd.lhs.atoms)
    if len(atoms) == 1:
        return _SingleShape(atoms[0])
    if len(atoms) == 2 and _flat_join_plan(atoms) is not None:
        return _PairShape(atoms)  # type: ignore[arg-type]
    return None


# ---------------------------------------------------------------------------
# The chaser
# ---------------------------------------------------------------------------


class IncrementalRegionChaser:
    """Chases one shard's ascending region block with cross-region reuse.

    Feed it each region's snapshot and net fact diff (from
    :meth:`AbstractInstance.iter_region_deltas`) in timeline order; it
    returns per-region :class:`SnapshotChaseResult`\\ s byte-identical to
    ``chase_snapshot``.
    """

    def __init__(
        self,
        setting: DataExchangeSetting,
        variant: ChaseVariant = "standard",
    ) -> None:
        self.setting = setting
        self.variant = variant
        # One name → Skolem term registry for the whole chain: replayed
        # nulls were registered in the region that first minted them.
        self.null_names: dict[str, tuple] = {}
        self.tasks = _snapshot_tgd_tasks(setting, variant)
        self.shapes = [
            _analyze_stream_shape(task.tgd) for task in self.tasks
        ]
        self.egd_tasks = _egd_tasks(setting)
        self.previous: _RegionRecord | None = None
        # Divergence state of the region being chased.  ``_deviated``
        # flips at the first deviation of the processed match sequence
        # from the recorded one; until then every recorded fire/skip
        # decision (and dedup outcome) is forced and is copied without
        # probing.  ``_dropped`` flips only on deviations that can
        # *remove* target content relative to the recorded run (a
        # dropped entry, a re-sorted stream); while it stays ``False``
        # the current target is a superset of the recorded target at
        # every position, so recorded *skip* decisions remain forced and
        # only recorded firings need a live probe.
        self._deviated = True
        self._dropped = True
        self._probes_ready = False

    # -- public driver -----------------------------------------------------

    def chase(
        self,
        snapshot: Instance,
        added: Sequence[Fact],
        removed: Sequence[Fact],
    ) -> tuple[SnapshotChaseResult, RegionReuseStats]:
        """Chase one region's snapshot, replaying what the diff allows."""
        previous = self.previous
        stats = RegionReuseStats()

        diff_relations = {item.relation for item in added}
        diff_relations.update(item.relation for item in removed)
        if previous is not None and previous.egd_clean:
            lazy = self._pure_replay(snapshot, diff_relations, previous, stats)
            if lazy is not None:
                return lazy, stats

        trace = ChaseTrace()
        target = Instance()
        domain = _SnapshotDomain(
            target,
            source=snapshot,
            variant=self.variant,
            null_names=self.null_names,
        )
        # Probes are seeded lazily, and only on the *dropping* path: while
        # no recorded content has been dropped, extension checks are
        # answered from the recorded decisions, the region's own
        # deviation additions (the mini probes) and exact target scans,
        # so a region without drops never maintains a projection probe.
        self._probes_ready = False
        self._minis = [
            RhsProbe(probe.relation, probe.arity, probe.slots)
            if (probe := task.rhs_probe) is not None
            else None
            for task in self.tasks
        ]

        removed_set = frozenset(removed)
        self._deviated = self._dropped = previous is None

        task_logs: list[list[_MatchEntry]] = []
        outer_choices: list[int | None] = []
        for task_index, (task, shape) in enumerate(
            zip(self.tasks, self.shapes, strict=True)
        ):
            stream, outer_choice, reuse_log = self._stream(
                task,
                shape,
                snapshot,
                added,
                removed_set,
                diff_relations,
                previous,
                task_index,
                stats,
            )
            if (
                reuse_log is not None
                and not self._deviated
                and not self._dropped
                and not self._probes_ready
                and not target._index
                and not target._ordered
            ):
                # The stream is untouched by the diff and the region has
                # not deviated: every decision and dedup outcome is
                # forced, so the whole log replays in one tight loop.
                entries = self._replay_log(target, reuse_log, stats, trace)
            else:
                entries = []
                for images, assignment, recorded in stream:
                    if recorded is None:
                        stats.live_matches += 1
                    else:
                        stats.replayed_matches += 1
                    entries.append(
                        self._fire(
                            domain,
                            task,
                            task_index,
                            images,
                            assignment,
                            recorded,
                            stats,
                            trace,
                        )
                    )
            task_logs.append(entries)
            outer_choices.append(outer_choice)

        tgd_steps = len(trace.steps)
        if (
            previous is not None
            and previous.egd_clean
            and stats.live_firings == 0
        ):
            # Every target fact is a recorded fact: replayed firings
            # re-add recorded rhs instantiations, drops and skips only
            # remove content, and no live firing added anything.  The
            # target is therefore a subset of the recorded target, on
            # which every egd equation was trivially satisfied (the
            # recorded fixpoint merged nothing) — so the fixpoint is a
            # no-op and the seed-round enumeration is skipped outright.
            failure = None
        else:
            failure = run_egd_fixpoint(domain, self.egd_tasks, trace)
        if failure is not None:
            self.previous = None
            if previous is not None:
                # Replay-assisted failure: reproduce the exact
                # from-scratch failure (trace, partial target and all).
                return (
                    chase_snapshot(snapshot, self.setting, variant=self.variant),
                    stats,
                )
            return (
                SnapshotChaseResult(
                    target=target, failed=True, failure=failure, trace=trace
                ),
                stats,
            )
        self.previous = _RegionRecord(
            task_logs, outer_choices, egd_clean=len(trace.steps) == tgd_steps
        )
        return SnapshotChaseResult(target=target, trace=trace), stats

    def _pure_replay(
        self,
        snapshot: Instance,
        diff_relations: set[str],
        previous: _RegionRecord,
        stats: RegionReuseStats,
    ) -> _ReplaySnapshotResult | None:
        """The whole-region copy-on-write fast path, when it is forced.

        Applicable when every stream would reuse the recorded log
        verbatim — every shape is patchable, no lhs relation is touched
        by the diff, no pair join flips orientation — and the recorded
        egd fixpoint was a no-op.  The region's result is then the
        recorded run's, so nothing needs to be built now: a lazy view
        over the recorded log is returned, and the next region replays
        off the same base log.
        """
        outer_choices: list[int | None] = []
        for task_index, shape in enumerate(self.shapes):
            if shape is None or (shape.relations & diff_relations):
                return None
            choice: int | None = None
            if isinstance(shape, _PairShape):
                choice = shape.outer_choice(snapshot)
                if choice != previous.outer_choices[task_index]:
                    return None
            outer_choices.append(choice)
        matches, firings = previous.totals()
        stats.streams_reused += len(self.shapes)
        stats.replayed_matches += matches
        stats.replayed_firings += firings
        self.previous = _RegionRecord(
            previous.task_logs, outer_choices, egd_clean=True
        )
        self.previous._totals = previous._totals
        return _ReplaySnapshotResult(previous)

    # -- tgd side ----------------------------------------------------------

    def _stream(
        self,
        task: _SnapshotTgdTask,
        shape: _SingleShape | _PairShape | None,
        snapshot: Instance,
        added: Sequence[Fact],
        removed_set: frozenset[Fact],
        diff_relations: set[str],
        previous: _RegionRecord | None,
        task_index: int,
        stats: RegionReuseStats,
    ) -> tuple[
        Iterable[tuple[tuple[Fact, ...], dict, _MatchEntry | None]],
        int | None,
        list[_MatchEntry] | None,
    ]:
        """The task's match stream over *snapshot*, in live enumeration order.

        Yields ``(images, assignment, previous_entry)`` triples;
        *previous_entry* is the surviving recorded entry (its firing is
        replayable) or ``None`` for a match the diff introduced.  The
        third element is the recorded log when the stream is a pure
        replay of it (enabling the tight-loop fast path), else ``None``.
        """
        if shape is None or previous is None:
            self._deviated = self._dropped = True
            stats.streams_rebuilt += 1
            # Record the pair orientation the live enumeration uses (the
            # same cardinality rule), so the next region does not
            # misread the rebuilt log as an orientation flip.
            rebuilt_choice = (
                shape.outer_choice(snapshot)
                if isinstance(shape, _PairShape)
                else None
            )
            return self._live_stream(task, snapshot), rebuilt_choice, None
        outer_choice: int | None = None
        log = previous.task_logs[task_index]
        if isinstance(shape, _PairShape):
            outer_choice = shape.outer_choice(snapshot)
            if outer_choice != previous.outer_choices[task_index]:
                # The cardinality rule flipped the join orientation: the
                # pairs are unchanged, but their enumeration order is the
                # flipped (outer, inner) sort — re-sort the recorded
                # stream into it.  The processed order now deviates from
                # the recorded one, so recorded decisions stop being
                # forced (dedup may resolve differently).
                self._deviated = self._dropped = True
                orientation = shape.orientations[outer_choice]
                outer_index = orientation.outer_index
                inner_index = orientation.inner_index
                pair = orientation.pair
                # Rebuild the assignments too: their insertion order is
                # part of the recorded trace, and the fresh enumeration
                # binds the (new) outer atom's variables first.
                log = sorted(
                    (
                        _MatchEntry(
                            *pair(
                                entry.images[outer_index],
                                entry.images[inner_index],
                            ),
                            entry.firing,
                        )
                        for entry in log
                    ),
                    key=lambda entry: (
                        entry.images[outer_index].sort_key(),
                        entry.images[inner_index].sort_key(),
                    ),
                )
        if not (shape.relations & diff_relations):
            stats.streams_reused += 1
            return (
                ((entry.images, entry.assignment, entry) for entry in log),
                outer_choice,
                log,
            )
        stats.streams_patched += 1
        if isinstance(shape, _SingleShape):
            return (
                self._patch_single(shape, log, added, removed_set),
                None,
                None,
            )
        return (
            self._patch_pair(
                shape.orientations[outer_choice],
                log,
                snapshot,
                added,
                removed_set,
            ),
            outer_choice,
            None,
        )

    def _replay_log(
        self,
        target: Instance,
        log: list[_MatchEntry],
        stats: RegionReuseStats,
        trace: ChaseTrace,
    ) -> list[_MatchEntry]:
        """Replay a whole recorded stream against a non-deviated region.

        Every fire/skip decision and dedup outcome is forced here (the
        caller checked the region has not deviated, no probe is seeded
        and the target's index caches are cold), so the log is reused
        as is: firings re-add their recorded facts and trace records,
        and nothing is allocated.
        """
        stats.replayed_matches += len(log)
        stats.replayed_firings += _replay_firings(log, target, trace)
        return log

    def _seed_probes(self, domain: _SnapshotDomain) -> None:
        """Late :meth:`_SnapshotDomain.attach_probes`, run at the first
        live fire/skip decision of the region.

        Seeding from the facts already in the target at that point is
        equivalent to observing every earlier addition — so a region
        whose decisions all replay skips probe maintenance entirely.
        """
        for task in self.tasks:
            probe = task.rhs_probe
            if probe is not None:
                probe.projection.clear()
                probe.seed(domain.target.facts_of(probe.relation))
                domain.probes_for.setdefault(probe.relation, []).append(probe)
        self._probes_ready = True

    def _live_stream(
        self, task: _SnapshotTgdTask, snapshot: Instance
    ) -> Iterator[tuple[tuple[Fact, ...], dict, None]]:
        for assignment, images in find_homomorphisms_with_images(
            task.tgd.lhs, snapshot, copy=False
        ):
            yield images, dict(assignment), None

    def _patch_single(
        self,
        shape: _SingleShape,
        log: list[_MatchEntry],
        added: Sequence[Fact],
        removed_set: frozenset[Fact],
    ) -> Iterator[tuple[tuple[Fact, ...], dict, _MatchEntry | None]]:
        """Sorted merge of the surviving recorded stream and the diff's
        new matching facts — the live single-atom enumeration order."""
        fresh: list[tuple[tuple, Fact, dict]] = []
        for item in added:
            if item.relation != shape.atom.relation:
                continue
            assignment = shape.assignment_for(item)
            if assignment is not None:
                fresh.append((item.sort_key(), item, assignment))
        fresh.sort(key=lambda entry: entry[0])
        position = 0
        count = len(fresh)
        for entry in log:
            image = entry.images[0]
            if image in removed_set:
                self._deviated = self._dropped = True
                continue
            key = image.sort_key()
            while position < count and fresh[position][0] < key:
                _key, item, assignment = fresh[position]
                position += 1
                self._deviated = True
                yield (item,), assignment, None
            yield entry.images, entry.assignment, entry
        while position < count:
            _key, item, assignment = fresh[position]
            position += 1
            self._deviated = True
            yield (item,), assignment, None

    def _patch_pair(
        self,
        orientation: _PairOrientation,
        log: list[_MatchEntry],
        snapshot: Instance,
        added: Sequence[Fact],
        removed_set: frozenset[Fact],
    ) -> Iterator[tuple[tuple[Fact, ...], dict, _MatchEntry | None]]:
        """Patched outer-major group join, in live enumeration order.

        Merges three outer-sorted sources without walking the outer
        relation: the recorded runs (one per outer fact, already in
        outer order), the diff's new outer facts (partners come from the
        live snapshot index), and the surviving outer facts that gained
        partners from the diff's new inner facts (found by probing the
        join key of each new inner fact — this also covers outer facts
        that had *no* recorded partners, which the log cannot show).
        """
        outer_index = orientation.outer_index
        inner_index = orientation.inner_index
        outer_atom = orientation.outer_atom
        inner_atom = orientation.inner_atom
        added_outer: set[Fact] = set()
        added_inner: list[Fact] = []
        for item in added:
            if (
                item.relation == outer_atom.relation
                and item.arity == outer_atom.arity
            ):
                added_outer.add(item)
            # An atom may join a relation with itself: one added fact can
            # extend both sides, so these branches are not exclusive.
            if (
                item.relation == inner_atom.relation
                and item.arity == inner_atom.arity
            ):
                added_inner.append(item)

        # Surviving outer facts gaining partners: reverse-probe each new
        # inner fact's join key against the snapshot's outer relation.
        inner_key_positions = orientation.inner_key_positions
        outer_key_positions = orientation.outer_key_positions
        new_partners_of: dict[Fact, list[Fact]] = {}
        for item in sorted(added_inner, key=Fact.sort_key):
            bindings = {
                outer_position: item.args[inner_position]
                for outer_position, inner_position in zip(
                    outer_key_positions, inner_key_positions, strict=True
                )
            }
            for outer_fact in snapshot.lookup_ordered(
                outer_atom.relation, bindings
            ):
                if (
                    outer_fact.arity != outer_atom.arity
                    or outer_fact in added_outer
                ):
                    # New outer facts enumerate all partners live below.
                    continue
                new_partners_of.setdefault(outer_fact, []).append(item)

        # Recorded entries are outer-major (equal outer facts adjacent),
        # so one pass groups them into ordered runs (dict: insertion
        # order is outer order); runs of a removed outer fact drop out
        # here, as the fresh outer loop would skip them.
        runs: dict[Fact, list[_MatchEntry]] = {}
        last_outer: Fact | None = None
        for entry in log:
            outer_fact = entry.images[outer_index]
            if outer_fact == last_outer:
                runs[outer_fact].append(entry)
                continue
            if outer_fact in removed_set:
                self._deviated = self._dropped = True
                last_outer = None
                continue
            runs[outer_fact] = [entry]
            last_outer = outer_fact

        # Outer facts entering the stream with the diff: the new outer
        # facts themselves, plus surviving outer facts that appear only
        # through new inner partners (no recorded run).  Both lists are
        # tiny — splice them into the run walk by sort key (distinct
        # facts have distinct keys, so ties cannot happen).
        extra: list[tuple[tuple, Fact, bool]] = [
            (outer_fact.sort_key(), outer_fact, True)
            for outer_fact in added_outer
        ]
        extra.extend(
            (outer_fact.sort_key(), outer_fact, False)
            for outer_fact in new_partners_of
            if outer_fact not in runs
        )
        extra.sort(key=lambda item: item[0])

        pair = orientation.pair

        def emit_extra(outer_fact: Fact, is_added: bool):
            self._deviated = True
            if is_added:
                # New outer fact: all partners come from the live
                # snapshot index (which already includes the diff's
                # new inner facts — do not add them again).
                bindings = {
                    inner_position: outer_fact.args[outer_position]
                    for outer_position, inner_position in zip(
                        outer_key_positions, inner_key_positions, strict=True
                    )
                }
                partners: Iterable[Fact] = (
                    partner
                    for partner in snapshot.lookup_ordered(
                        inner_atom.relation, bindings
                    )
                    if partner.arity == inner_atom.arity
                )
            else:
                # Survived with no recorded partners: anything it joins
                # now must have entered with the diff.
                partners = new_partners_of.get(outer_fact, ())
            for partner in partners:
                yield pair(outer_fact, partner)

        position = 0
        extra_count = len(extra)
        for outer_fact, entries in runs.items():
            run_key = outer_fact.sort_key()
            while position < extra_count and extra[position][0] < run_key:
                _key, extra_outer, is_added = extra[position]
                position += 1
                for images, assignment in emit_extra(extra_outer, is_added):
                    yield images, assignment, None
            new_partners = new_partners_of.get(outer_fact)
            if new_partners is None:
                for entry in entries:
                    if entry.images[inner_index] in removed_set:
                        self._deviated = self._dropped = True
                        continue
                    yield entry.images, entry.assignment, entry
                continue
            inner_position = 0
            inner_count = len(new_partners)
            for entry in entries:
                inner_fact = entry.images[inner_index]
                if inner_fact in removed_set:
                    self._deviated = self._dropped = True
                    continue
                inner_key = inner_fact.sort_key()
                while (
                    inner_position < inner_count
                    and new_partners[inner_position].sort_key() < inner_key
                ):
                    partner = new_partners[inner_position]
                    inner_position += 1
                    self._deviated = True
                    images, assignment = pair(outer_fact, partner)
                    yield images, assignment, None
                yield entry.images, entry.assignment, entry
            while inner_position < inner_count:
                partner = new_partners[inner_position]
                inner_position += 1
                self._deviated = True
                images, assignment = pair(outer_fact, partner)
                yield images, assignment, None
        while position < extra_count:
            _key, extra_outer, is_added = extra[position]
            position += 1
            for images, assignment in emit_extra(extra_outer, is_added):
                yield images, assignment, None

    def _scan_extension(
        self,
        target: Instance,
        probe: RhsProbe,
        assignment: dict[Variable, GroundTerm],
    ) -> bool:
        """Exact single-atom rhs extension check by scanning the bucket.

        Used for the (few) diff-introduced matches on the no-drops path,
        where neither a full projection probe nor the target index is
        warm; a linear pass over one relation's facts keeps both cold.
        """
        bucket = target._facts_by_relation.get(probe.relation)
        if not bucket:
            return False
        arity = probe.arity
        wanted = [
            (position, value if variable is None else assignment[variable])
            for position, value, variable in probe.slots
        ]
        for item in bucket:
            args = item.args
            if len(args) != arity:
                continue
            if all(args[position] == value for position, value in wanted):
                return True
        return False

    def _fire(
        self,
        domain: _SnapshotDomain,
        task: _SnapshotTgdTask,
        task_index: int,
        images: tuple[Fact, ...],
        assignment: dict[Variable, GroundTerm],
        entry: _MatchEntry | None,
        stats: RegionReuseStats,
        trace: ChaseTrace,
    ) -> _MatchEntry:
        """Decide and (re)apply one match — the replay-aware fire_tgd."""
        tgd = task.tgd
        target = domain.target
        recorded = entry.firing if entry is not None else None
        if self.variant == "standard":
            if not self._dropped:
                # No recorded content has been dropped, so the target is
                # a superset of the recorded target at every stream
                # position.  Decisions then resolve without a full
                # projection probe:
                if recorded is None and entry is not None:
                    # Recorded skip: its rhs extension existed in the
                    # recorded target, so it still exists — forced.
                    return entry
                if entry is not None:
                    # Recorded firing: its extension was absent in the
                    # recorded target, and replayed firings cannot
                    # create new extensions — only this region's
                    # deviation additions can, and those are exactly
                    # what the task's mini probe has observed.  Skipping a
                    # recorded firing *removes* its rhs facts relative
                    # to the replay, so it counts as a dropping
                    # deviation for everything after it.
                    mini = self._minis[task_index]
                    if mini is not None:
                        # Empty mini projection: no deviation additions
                        # yet, the recorded firing is forced.
                        if mini.projection and mini.check(assignment):
                            self._deviated = self._dropped = True
                            return _MatchEntry(images, assignment, None)
                    elif self._deviated and has_homomorphism(
                        tgd.rhs, target, initial=assignment
                    ):
                        self._deviated = self._dropped = True
                        return _MatchEntry(images, assignment, None)
                else:
                    # Diff-introduced match: exact check against the
                    # current target (which *is* the fresh prefix state).
                    if task.rhs_probe is not None:
                        if self._scan_extension(
                            target, task.rhs_probe, assignment
                        ):
                            return _MatchEntry(images, assignment, None)
                    elif has_homomorphism(
                        tgd.rhs, target, initial=assignment
                    ):
                        return _MatchEntry(images, assignment, None)
            else:
                if not self._probes_ready:
                    self._seed_probes(domain)
                if task.rhs_probe is not None:
                    if task.rhs_probe.check(assignment):
                        return (
                            entry
                            if entry is not None and recorded is None
                            else _MatchEntry(images, assignment, None)
                        )
                elif has_homomorphism(
                    tgd.rhs, domain.target, initial=assignment
                ):
                    return (
                        entry
                        if entry is not None and recorded is None
                        else _MatchEntry(images, assignment, None)
                    )
        if recorded is not None:
            stats.replayed_firings += 1
            if not self._deviated and (
                not self._probes_ready
                and not target._index
                and not target._ordered
            ):
                # Firing replayed pre-deviation: the facts are the very
                # same objects (Skolem-named nulls included) and the
                # dedup outcome is forced, so the recorded trace record
                # — and the whole match entry — are content-identical
                # and are reused without allocating anything.
                _insert_all(target, recorded.record.added_facts)
                trace.record(recorded.record)
                return entry  # type: ignore[return-value]
            fresh = recorded.record.fresh_nulls
            facts = recorded.facts
        else:
            fresh = _skolem_nulls(task, assignment, self.null_names)
            extension = assignment
            if fresh:
                extension = dict(assignment)
                extension.update(
                    zip(tgd.existential_variables, fresh, strict=True)
                )
            facts = tuple(
                Fact.make(
                    atom.relation,
                    tuple([extension.get(arg, arg) for arg in atom.args]),
                )
                for atom in tgd.rhs.atoms
            )
            stats.live_firings += 1

        if (
            not self._dropped
            and not self._probes_ready
            and not target._index
            and not target._ordered
        ):
            # No-drops fast inserts: nothing observes the target during
            # the tgd pass here (no seeded probe, cold index caches), so
            # facts go straight into the relation buckets.  Forced
            # replays returned above, so the region has deviated and the
            # dedup outcome is live: a membership-checked variant of
            # _insert_all that also collects the genuinely-new facts
            # (keep the invariant in sync).
            buckets = target._facts_by_relation
            max_arity = target._max_arity
            new_facts = []
            for item in facts:
                bucket = buckets.get(item.relation)
                if bucket is None:
                    buckets[item.relation] = bucket = set()
                if item in bucket:
                    continue
                bucket.add(item)
                if item.arity > max_arity.get(item.relation, 0):
                    max_arity[item.relation] = item.arity
                new_facts.append(item)
        else:
            new_facts = []
            probes_for = domain.probes_for
            for item in facts:
                if target.add(item):
                    new_facts.append(item)
                    for probe in probes_for.get(item.relation, ()):
                        probe.observe(item)
        if recorded is None and not self._dropped and new_facts:
            # Deviation additions are the only facts that can flip a
            # later recorded decision on the no-drops path; the mini
            # probes record their projections.
            for item in new_facts:
                for other in self._minis:
                    if other is not None:
                        other.observe(item)
        record = TgdStepRecord(
            dependency=task.label,
            assignment=assignment,
            added_facts=tuple(new_facts),
            fresh_nulls=fresh,
        )
        trace.record(record)
        return _MatchEntry(
            images,
            assignment,
            _FiringRecord(record, facts),
        )
