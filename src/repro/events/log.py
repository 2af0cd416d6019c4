"""``EventLog`` — ingest event streams, compile temporal source instances.

The log is the system of record: an id-keyed set of resolved
:class:`~repro.events.model.Event` objects.  Everything else is
*derived* by compilation — :meth:`EventLog.snapshot_at` replays the
events up to a time point into a full concrete source instance,
:meth:`EventLog.delta_between` diffs two such snapshots into a
:class:`~repro.deltas.SourceDelta`, and :meth:`EventLog.follow` hands
out a cursor that turns each ingested batch into the delta a live
consumer (a server session, an incremental chase) should apply next.

Because compilation is a pure function of the resolved event *set*,
the derived artifacts are independent of arrival order: ingesting a
log's lines in any permutation — late arrivals, interleaved sources,
corrections before the events they correct — yields byte-identical
snapshots.  Out-of-order arrival therefore needs no buffering beyond
the log itself; the re-sequencing happens inside compile, via
:meth:`Event.order_key`.

Events whose *history precondition* does not (yet) hold — an update or
delete of an entity nobody created, a removal of an inactive
relationship, a creation while the entity is alive — are **pending**:
compile skips them deterministically (the replay walk is in canonical
order, so which events are pending is itself a pure function of the
event set) and they take effect automatically once the missing history
arrives.  That is what makes genuinely late arrival safe: a
``relationship_removed`` delivered a batch before its
``relationship_added`` parks in the pending set and both land on the
next compile.  :meth:`EventLog.pending_events` lists what is still
parked — after a producer believes delivery is complete, a non-empty
pending set is how an inconsistent history shows up.

Ingestion is **atomic per batch**: the batch is parsed and the merged
log trial-compiled before anything is committed, so a batch containing
a malformed line (bad JSON, unknown event type, missing fields, a
timestamp before the epoch, a non-scalar value under a mapped column)
leaves the log exactly as it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.concrete.concrete_fact import concrete_fact
from repro.concrete.concrete_instance import ConcreteInstance
from repro.deltas import SourceDelta
from repro.errors import EventError
from repro.events.mapping import EventMapping
from repro.events.model import Event
from repro.temporal.interval import interval

__all__ = ["EventLog", "FollowCursor", "IngestReport"]


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`EventLog.ingest` batch did.

    ``accepted`` counts genuinely new event ids, ``corrections`` counts
    ids whose winning revision changed, ``duplicates`` counts
    re-deliveries and stale (superseded) revisions, and ``out_of_order``
    counts committed events that landed behind the log's pre-batch
    horizon — informational only, since compilation re-sequences.
    """

    accepted: int = 0
    corrections: int = 0
    duplicates: int = 0
    out_of_order: int = 0
    #: Events parked in the whole log after this batch (not per-batch):
    #: their history precondition does not hold yet.
    pending: int = 0

    def to_json(self) -> dict[str, int]:
        return {
            "accepted": self.accepted,
            "corrections": self.corrections,
            "duplicates": self.duplicates,
            "out_of_order": self.out_of_order,
            "pending": self.pending,
        }


def _normalize_batch(lines: object) -> list[object]:
    """Flatten the accepted ingest shapes into a list of raw records."""
    if isinstance(lines, (str, bytes)):
        text = lines.decode() if isinstance(lines, bytes) else lines
        return [line for line in text.splitlines() if line.strip()]
    if isinstance(lines, Mapping):
        raise EventError(
            "ingest() takes a batch of events; wrap a single event in a list"
        )
    try:
        return list(lines)  # type: ignore[arg-type]
    except TypeError:
        raise EventError(
            f"ingest() expects text or an iterable of events, got {lines!r}"
        ) from None


class EventLog:
    """A resolved event set plus the mapping that compiles it.

    The only mutable state is the id → winning-event map and a
    generation counter bumped on every committed batch; compiled
    instances are a per-generation cache, never part of the log's
    identity (and never pickled).
    """

    def __init__(self, mapping: EventMapping):
        if not isinstance(mapping, EventMapping):
            raise EventError(f"EventLog needs an EventMapping, got {mapping!r}")
        self.mapping = mapping
        self._events: dict[str, Event] = {}
        self._generation = 0
        self._compiled: dict[object, _Compiled] = {}

    # -- identity ----------------------------------------------------------

    def __getstate__(self) -> dict:
        # Identity only: the compile cache is derived state.
        return {
            "mapping": self.mapping,
            "events": dict(sorted(self._events.items())),
            "generation": self._generation,
        }

    def __setstate__(self, state: dict) -> None:
        self.mapping = state["mapping"]
        self._events = dict(state["events"])
        self._generation = state["generation"]
        self._compiled = {}

    @property
    def generation(self) -> int:
        """Bumped once per committed ingest batch."""
        return self._generation

    @property
    def horizon(self) -> int | None:
        """The latest time point any event mentions (``None`` when empty)."""
        if not self._events:
            return None
        return max(event.point for event in self._events.values())

    def events(self) -> tuple[Event, ...]:
        """The resolved log in its canonical replay order."""
        return tuple(sorted(self._events.values(), key=Event.order_key))

    def __len__(self) -> int:
        return len(self._events)

    # -- ingestion ---------------------------------------------------------

    def ingest(self, lines: object) -> IngestReport:
        """Merge a batch of events into the log (atomic; see module doc).

        *lines* may be a JSON-lines text blob, an iterable of line
        strings, an iterable of decoded event dicts, or already-built
        :class:`Event` objects — mixes are fine.
        """
        scale = self.mapping.scale
        staged = dict(self._events)
        accepted = corrections = duplicates = 0
        before = self.horizon
        landed: list[Event] = []
        for record in _normalize_batch(lines):
            if isinstance(record, Event):
                event = record
            elif isinstance(record, str):
                event = Event.parse_line(record, scale)
            else:
                event = Event.from_json(record, scale)
            existing = staged.get(event.id)
            if existing is None:
                staged[event.id] = event
                accepted += 1
                landed.append(event)
            elif event.revision == existing.revision and (
                event.content_key() == existing.content_key()
            ):
                duplicates += 1
            elif event.supersedes(existing):
                staged[event.id] = event
                corrections += 1
                landed.append(event)
            else:
                # A revision we have already superseded — e.g. the
                # original arriving after its correction.
                duplicates += 1
        out_of_order = (
            sum(1 for event in landed if event.point < before)
            if before is not None
            else 0
        )
        # Trial-compile before committing so a bad batch cannot poison
        # the log; the result seeds the new generation's cache.
        compiled = _compile(staged.values(), self.mapping, horizon=None)
        self._events = staged
        self._generation += 1
        self._compiled = {None: compiled}
        return IngestReport(
            accepted=accepted,
            corrections=corrections,
            duplicates=duplicates,
            out_of_order=out_of_order,
            pending=len(compiled.pending),
        )

    def ingest_lines(self, lines: Iterable[str]) -> IngestReport:
        """Alias of :meth:`ingest` for explicit JSON-lines input."""
        return self.ingest(lines)

    # -- derivation --------------------------------------------------------

    def _compile_at(self, horizon: int | None) -> "_Compiled":
        cached = self._compiled.get(horizon)
        if cached is None:
            events: Iterable[Event] = self._events.values()
            if horizon is not None:
                events = [e for e in self._events.values() if e.point <= horizon]
            cached = _compile(events, self.mapping, horizon=horizon)
            self._compiled[horizon] = cached
        return cached

    def pending_events(self) -> tuple[Event, ...]:
        """Events whose history precondition does not hold yet.

        Non-empty after a producer believes delivery is complete means
        the history really is inconsistent (see the module doc).
        """
        return self._compile_at(None).pending

    def snapshot_at(self, when: object = None) -> ConcreteInstance:
        """The full source instance as of time *when*.

        *when* is a time point or ISO-8601 timestamp; ``None`` means the
        log's horizon (everything).  Events after *when* are simply not
        replayed, so facts still open at *when* extend to infinity —
        the snapshot is "what the source says now", not "what it will
        have said".  Returns a fresh instance the caller may mutate.
        """
        horizon = None if when is None else self.mapping.scale.point(when)
        return self._compile_at(horizon).instance.copy()

    def delta_between(self, since: object, until: object = None) -> SourceDelta:
        """The canonical delta from ``snapshot_at(since)`` to
        ``snapshot_at(until)``."""
        return SourceDelta.between(
            self._compile_at(
                None if since is None else self.mapping.scale.point(since)
            ).instance,
            self._compile_at(
                None if until is None else self.mapping.scale.point(until)
            ).instance,
        )

    def follow(self) -> "FollowCursor":
        """A cursor yielding the deltas a live consumer should apply.

        The baseline is the *empty* instance, so the first
        :meth:`~FollowCursor.advance` delivers the whole current
        snapshot as additions — a consumer starting from an empty
        session needs no separate bootstrap path.
        """
        return FollowCursor(self)


class FollowCursor:
    """Tracks how much of an :class:`EventLog` a consumer has applied.

    ``advance()`` returns the :class:`SourceDelta` from the consumer's
    last-seen snapshot to the log's current one (empty if nothing was
    ingested since), and composing every delta a cursor ever returned
    reconstructs ``snapshot_at(now)`` exactly — that equivalence is what
    makes a chased server session fed by a cursor a true materialized
    view of the log.
    """

    def __init__(self, log: EventLog):
        self._log = log
        self._seen = ConcreteInstance()
        self._seen_generation: int | None = None

    @property
    def pending(self) -> bool:
        """Whether the log has advanced past this cursor."""
        return self._seen_generation != self._log.generation

    def peek(self) -> SourceDelta:
        """The pending delta, *without* marking it applied.

        Consumers whose apply step can fail (a chase that conflicts,
        say) peek first and :meth:`advance` only once the delta has
        actually landed — a failed apply then leaves the cursor pending
        and the next advance retries the same delta.
        """
        if self._seen_generation == self._log.generation:
            return SourceDelta.empty()
        return SourceDelta.between(self._seen, self._log._compile_at(None).instance)

    def advance(self) -> SourceDelta:
        """The delta from the last-applied snapshot to the current one."""
        generation = self._log.generation
        if generation == self._seen_generation:
            return SourceDelta.empty()
        current = self._log._compile_at(None).instance
        delta = SourceDelta.between(self._seen, current)
        self._seen = current.copy()
        self._seen_generation = generation
        return delta

    def __iter__(self) -> Iterator[SourceDelta]:
        """Drain: yield the pending delta, if any (non-blocking)."""
        if self.pending:
            delta = self.advance()
            if delta:
                yield delta


# -- compilation -----------------------------------------------------------


_SCALARS = (str, int, float, bool)


def _check_value(value: object, where: str) -> object:
    if not isinstance(value, _SCALARS):
        raise EventError(
            f"{where} projects non-scalar value {value!r}; event payload "
            "fields used in mapping columns must be strings or numbers"
        )
    return value


class _SpanTracker:
    """Emits one coalesced fact per maximal constant-valued span.

    Keyed by (rule index, subject); ``shift`` closes the open span when
    the projected tuple changes and transparently re-opens a span whose
    predecessor ended at the very point it starts with the same values —
    so delete-and-recreate with unchanged fields compiles to a single
    fact, keeping the source coalesced as the paper assumes.
    """

    def __init__(self) -> None:
        self._open: dict[tuple, tuple[tuple, int]] = {}
        self._closed: dict[tuple, list[tuple[int, int, tuple]]] = {}

    def shift(self, key: tuple, values: tuple | None, point: int) -> None:
        current = self._open.get(key)
        if current is not None:
            have, since = current
            if have == values:
                return
            del self._open[key]
            if since < point:
                self._closed.setdefault(key, []).append((since, point, have))
        if values is not None:
            start = point
            history = self._closed.get(key)
            if history and history[-1][1] == point and history[-1][2] == values:
                start = history.pop()[0]
            self._open[key] = (values, start)

    def emit(self, instance: ConcreteInstance, rules: list) -> None:
        for key, (values, since) in self._open.items():
            self._closed.setdefault(key, []).append((since, None, values))
        for key, spans in self._closed.items():
            relation = rules[key[0]].relation
            for since, until, values in spans:
                span = (
                    interval(since)
                    if until is None
                    else interval(since, until)
                )
                instance.add(concrete_fact(relation, *values, interval=span))


@dataclass(frozen=True)
class _Compiled:
    """One compilation result: the instance plus what got parked."""

    instance: ConcreteInstance
    pending: tuple[Event, ...]


def _compile(
    events: Iterable[Event], mapping: EventMapping, horizon: int | None
) -> _Compiled:
    """Replay *events* (already filtered to the horizon) into an instance.

    Events whose history precondition fails are collected as *pending*
    and skipped; the walk is in canonical order, so the pending set is a
    pure function of the event set (see the module doc).
    """
    ordered = sorted(events, key=Event.order_key)
    pending: list[Event] = []
    entity_rules = list(mapping.entities)
    rel_rules = list(mapping.relationships)
    entity_spans = _SpanTracker()
    rel_spans = _SpanTracker()
    state: dict[str, dict] = {}  # live entities only
    rel_props: dict[tuple[str, str, str], dict] = {}  # live relationships

    def project_entity(entity_id: str, point: int) -> None:
        current = state.get(entity_id)
        for index, rule in enumerate(entity_rules):
            values = None
            if current is not None and current.get("type") == rule.entity_type:
                row = rule.values(entity_id, current)
                if row is not None:
                    values = tuple(
                        _check_value(v, f"entity rule for {rule.relation!r}")
                        for v in row
                    )
            entity_spans.shift((index, entity_id), values, point)

    def project_rel(rel_key: tuple[str, str, str], point: int) -> None:
        properties = rel_props.get(rel_key)
        entity_id, rel_type, other = rel_key
        for index, rule in enumerate(rel_rules):
            values = None
            if properties is not None and rel_type == rule.rel_type:
                row = rule.values(entity_id, other, properties)
                if row is not None:
                    values = tuple(
                        _check_value(
                            v, f"relationship rule for {rule.relation!r}"
                        )
                        for v in row
                    )
            rel_spans.shift((index, rel_key), values, point)

    for event in ordered:
        entity_id = event.entity_id
        kind = event.event_type
        if kind == "created":
            if entity_id in state:
                pending.append(event)
                continue
            state[entity_id] = dict(event.payload)
            project_entity(entity_id, event.point)
        elif kind == "updated":
            if entity_id not in state:
                pending.append(event)
                continue
            state[entity_id].update(event.payload)
            project_entity(entity_id, event.point)
        elif kind == "deleted":
            if entity_id not in state:
                pending.append(event)
                continue
            del state[entity_id]
            project_entity(entity_id, event.point)
        elif kind == "relationship_added":
            payload = dict(event.payload)
            rel_key = (entity_id, payload.pop("type"), payload.pop("other"))
            # Re-adding an active relationship is a property change:
            # the tracker closes the old span only if the values moved.
            rel_props[rel_key] = payload
            project_rel(rel_key, event.point)
        elif kind == "relationship_removed":
            rel_key = (
                entity_id,
                event.payload["type"],
                event.payload["other"],
            )
            if rel_key not in rel_props:
                pending.append(event)
                continue
            del rel_props[rel_key]
            project_rel(rel_key, event.point)

    instance = ConcreteInstance()
    entity_spans.emit(instance, entity_rules)
    rel_spans.emit(instance, rel_rules)
    return _Compiled(instance=instance, pending=tuple(pending))
