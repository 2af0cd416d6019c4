"""Named sessions: warm chased state, resident between requests.

A **session** is the unit of residency: it owns the cumulative source
instance, the chased target, and a :class:`~repro.query.QueryLog` whose
answer ledger is signed by the maintained target's facts.  Requests
mutate the source by *deltas*; the c-chase of the new cumulative source
follows, and the response is the target *diff* — never the whole
target.  A query replays its recorded answers while the delta leaves
the facts they read untouched.

In front of the create path sits the
:class:`~repro.server.cache.ChaseCache`: a create is keyed by the
content digest of its (setting, source), so a second session created
from the same inputs is served from the cache without any chase work.
A delta never consults the cache: its cumulative source is new almost
every time, so the write path chases directly and keeps the live
result as the session's target — no digest, no pickle round trip.

Locking: the manager's lock guards the session map and the process
pool; each session's lock serializes its own chase/query/snapshot work.
Different sessions therefore proceed concurrently (the HTTP front-end
runs handlers on a thread pool), while one session's requests are
strictly ordered — which is what makes its answer ledger coherent.

Snapshots are pickles (live fact/ledger objects) written only under the
manager's spool directory and loaded only from there — the server-side
mirror of the CLI's ``--query-log`` trust boundary: never point the
spool at a directory untrusted writers can reach.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.concrete.cchase import c_chase
from repro.concrete.concrete_instance import ConcreteInstance
from repro.deltas import SourceDelta
from repro.dependencies.mapping import DataExchangeSetting
from repro.errors import DeltaError, EventError, ReproError
from repro.events import EventLog, EventMapping, FollowCursor
from repro.query import ConjunctiveQuery, QueryLog, UnionQuery
from repro.query.naive_eval import naive_evaluate_concrete
from repro.relational.terms import term_sort_key
from repro.serialize.digest import chase_request_digest, instance_digest
from repro.serialize.jsonio import (
    concrete_instance_to_json,
    setting_from_json,
    setting_to_json,
    term_to_json,
)
from repro.server.cache import CachedChase, ChaseCache
from repro.server.protocol import ProtocolError, check_session_name

__all__ = ["Session", "SessionManager", "SessionSnapshot", "UnknownSessionError"]

#: Bumped when the pickled snapshot layout changes.
#: 2: the snapshot carries the session's event log.
#: 3: the snapshot no longer carries a c-chase replay state.
SNAPSHOT_FORMAT = 3


class UnknownSessionError(ProtocolError):
    def __init__(self, name: str):
        super().__init__(f"no session named {name!r}", status=404)


@dataclass
class SessionSnapshot:
    """The pickled on-disk form of one evicted/persisted session."""

    format: int
    name: str
    setting_json: dict
    source: ConcreteInstance
    target: ConcreteInstance
    query_log: QueryLog
    stats: dict[str, int]
    event_log: EventLog | None = None


@dataclass
class Session:
    """One resident exchange: setting, cumulative source, chased target."""

    name: str
    setting: DataExchangeSetting
    setting_json: dict
    source: ConcreteInstance
    target: ConcreteInstance
    query_log: QueryLog = field(default_factory=QueryLog)
    stats: dict[str, int] = field(
        default_factory=lambda: {
            "chases": 0,
            "cache_hits": 0,
            "deltas": 0,
            "events": 0,
            "queries": 0,
            "queries_replayed": 0,
        }
    )
    #: Set by the first /events request; the cursor tracks how much of
    #: the log this session's source already reflects.
    event_log: EventLog | None = None
    event_cursor: FollowCursor | None = field(default=None, repr=False)
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def info(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "source_facts": len(self.source),
            "target_facts": len(self.target),
            "source_digest": instance_digest(self.source),
            "stats": dict(self.stats),
        }
        if self.event_log is not None:
            out["event_log"] = {
                "events": len(self.event_log),
                "horizon": self.event_log.horizon,
                "generation": self.event_log.generation,
            }
        return out


def _answers_to_json(answers) -> list[dict[str, Any]]:
    """A TemporalAnswerSet as JSON rows, deterministically ordered."""
    rows = sorted(
        answers,
        key=lambda item: tuple(term_sort_key(value) for value in item[0]),
    )
    return [
        {
            "row": [term_to_json(value) for value in row],
            "support": str(support),
        }
        for row, support in rows
    ]


class SessionManager:
    """The daemon's resident state: sessions, cache, warm worker pool."""

    def __init__(
        self,
        cache_entries: int = 64,
        workers: int | None = None,
        snapshot_dir: "str | Path | None" = None,
    ):
        self.cache = ChaseCache(max_entries=cache_entries)
        self.workers = workers
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        self._pool = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool (sessions die with the process)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def pool(self) -> ProcessPoolExecutor:
        """The shared warm ``ProcessPoolExecutor``, created on first use.

        Per-daemon rather than per-request on purpose: process startup
        and module import dominate small sharded chases, so the whole
        point of a resident server is that every request after the
        first finds the workers already up (``abstract_chase`` ships a
        passed pool the same pickled shard tasks as its own).  A pool
        broken by a dead worker is dropped (:meth:`_drop_pool`), so the
        next call starts a fresh one.
        """
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def _drop_pool(self, pool: ProcessPoolExecutor) -> None:
        """Forget *pool* after a worker death broke it, and shut it down."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False)

    # -- session map -------------------------------------------------------

    def _get(self, name: str) -> Session:
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise UnknownSessionError(name)
        return session

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def list_sessions(self) -> list[dict[str, Any]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [session.info() for session in sorted(sessions, key=lambda s: s.name)]

    def stats(self) -> dict[str, Any]:
        return {
            "sessions": self.names(),
            "cache": self.cache.stats(),
            "workers": self.workers,
            "pool_started": self._pool is not None,
        }

    # -- the chase front door ---------------------------------------------

    def _chase(
        self, session: Session, source: ConcreteInstance
    ) -> tuple[ConcreteInstance, dict[str, Any]]:
        """Chase a create's *source*, cache-first.  Raises 409 on failure.

        The cache is consulted before any work: a digest hit
        materializes the recorded target and the chase machinery is
        never touched.  A miss runs the c-chase, and the outcome
        (success or failure) is recorded under its digest.
        """
        digest = chase_request_digest(session.setting, source)
        cached = self.cache.get(digest)
        if cached is None:
            result = c_chase(source, session.setting)
            cached = CachedChase.from_result(digest, result)
            self.cache.put(cached)
            hit = False
        else:
            hit = True
            session.stats["cache_hits"] += 1
        session.stats["chases"] += 1
        if cached.failed:
            raise ProtocolError(f"chase failed: {cached.failure}", status=409)
        meta = {
            "digest": digest,
            "cached": hit,
            "target_facts": cached.facts,
            "chase_steps": cached.steps,
        }
        return cached.materialize(), meta

    # -- operations --------------------------------------------------------

    def create(
        self,
        name: str,
        setting_json: dict,
        source_json: dict,
        replace: bool = False,
    ) -> dict[str, Any]:
        check_session_name(name)
        try:
            setting = setting_from_json(setting_json)
        except ReproError as exc:
            raise ProtocolError(f"invalid setting: {exc}") from exc
        try:
            from repro.serialize.jsonio import concrete_instance_from_json

            source = concrete_instance_from_json(source_json)
        except ReproError as exc:
            raise ProtocolError(f"invalid source instance: {exc}") from exc
        with self._lock:
            if name in self._sessions and not replace:
                raise ProtocolError(
                    f"session {name!r} already exists (pass replace=true "
                    "to rebuild it)",
                    status=409,
                )
        probe = Session(
            name=name,
            setting=setting,
            setting_json=setting_to_json(setting),
            source=source,
            target=ConcreteInstance(),
        )
        probe.target, meta = self._chase(probe, source)
        with self._lock:
            self._sessions[name] = probe
        return {"session": probe.info(), **meta}

    def _apply_delta(
        self, session: Session, delta: SourceDelta
    ) -> tuple[SourceDelta, dict[str, Any]]:
        """Apply *delta* to the session's source and re-chase (locked by
        the caller).  Returns the *target* diff as a delta plus the
        chase metadata; the session is untouched if anything fails.

        The chase bypasses the cache: the live result becomes the
        session's target, so a warm write costs one chase and a diff.
        """
        try:
            source = delta.applied_to(session.source)
        except DeltaError as exc:
            raise ProtocolError(str(exc)) from exc
        result = c_chase(source, session.setting)
        session.stats["chases"] += 1
        if result.failed:
            raise ProtocolError(f"chase failed: {result.failure}", status=409)
        target_diff = SourceDelta.between(session.target, result.target)
        session.source = source
        session.target = result.target
        meta = {
            "target_facts": len(result.target),
            "chase_steps": len(result.trace),
        }
        return target_diff, meta

    def delta(self, name: str, delta: SourceDelta) -> dict[str, Any]:
        """Apply a source delta; respond with the *target* diff.

        Strict by design (via :meth:`SourceDelta.apply`): removing an
        absent fact or adding a duplicate is a 400 — silently absorbing
        either would let a client's view of the cumulative source drift
        from the server's, and the byte-identity guarantee (server
        target ≡ from-scratch chase of the cumulative source) is only
        meaningful when both sides agree on what that source is.  The
        diff travels in the canonical :class:`SourceDelta` codec.
        """
        session = self._get(name)
        with session.lock:
            target_diff, meta = self._apply_delta(session, delta)
            session.stats["deltas"] += 1
            return {
                "session": session.name,
                "source_facts": len(session.source),
                "diff": target_diff.to_json(),
                **meta,
            }

    def events(
        self,
        name: str,
        events: list,
        mapping_json: dict | None = None,
    ) -> dict[str, Any]:
        """Ingest an event batch; compile, apply, chase, diff.

        The first batch must carry (or the session must already have)
        an event mapping; later batches may repeat it verbatim but may
        not change it.  Ingestion is atomic — a bad batch is a 400 and
        the session's log, source and target are untouched.  The
        response's ``diff`` is the *target* diff in the canonical
        :class:`SourceDelta` codec; a batch that changes nothing (all
        duplicates, or changes cancelling out) reports ``chased: false``
        and an empty diff without running any chase.
        """
        session = self._get(name)
        with session.lock:
            if session.event_log is None:
                if mapping_json is None:
                    raise ProtocolError(
                        "the first events request for a session must carry "
                        "a 'mapping' (entity/relationship rules; see "
                        "docs/server.md)"
                    )
                try:
                    session.event_log = EventLog(EventMapping.from_json(mapping_json))
                except EventError as exc:
                    raise ProtocolError(f"invalid event mapping: {exc}") from exc
                session.event_cursor = session.event_log.follow()
            elif (
                mapping_json is not None
                and mapping_json != session.event_log.mapping.to_json()
            ):
                raise ProtocolError(
                    f"session {name!r} already follows an event log with a "
                    "different mapping",
                    status=409,
                )
            try:
                report = session.event_log.ingest(events)
            except EventError as exc:
                raise ProtocolError(str(exc)) from exc
            assert session.event_cursor is not None
            # Peek now, advance only after the apply lands: if the chase
            # fails the cursor stays pending and the next batch (even an
            # empty one) retries the same delta.
            source_delta = session.event_cursor.peek()
            session.stats["events"] = session.stats.get("events", 0) + 1
            response: dict[str, Any] = {
                "session": session.name,
                "ingest": report.to_json(),
                "applied": {
                    "add": len(source_delta.add),
                    "remove": len(source_delta.remove),
                },
            }
            if source_delta.is_empty:
                session.event_cursor.advance()
                response.update(
                    {
                        "source_facts": len(session.source),
                        "chased": False,
                        "diff": SourceDelta.empty().to_json(),
                    }
                )
                return response
            target_diff, meta = self._apply_delta(session, source_delta)
            session.event_cursor.advance()
            response.update(
                {
                    "source_facts": len(session.source),
                    "chased": True,
                    "diff": target_diff.to_json(),
                    **meta,
                }
            )
            return response

    def query(self, name: str, query_text: str) -> dict[str, Any]:
        """Certain answers against the maintained target, ledger-first.

        The session's target *is* the chased solution, so no chase runs
        here at all; evaluation goes through the session's
        :class:`QueryLog`, whose answer ledger is signed by the target
        facts of each disjunct's body relations — a repeated query
        against an unchanged target replays in O(1).
        """
        session = self._get(name)
        rules = [rule for rule in query_text.split(";") if rule.strip()]
        if not rules:
            raise ProtocolError("empty query")
        try:
            query: ConjunctiveQuery | UnionQuery
            if len(rules) == 1:
                query = ConjunctiveQuery.parse(rules[0])
            else:
                query = UnionQuery.of(*rules)
        except ReproError as exc:
            raise ProtocolError(f"invalid query: {exc}") from exc
        with session.lock:
            log = session.query_log
            mark = log.answers.counters()
            answers = naive_evaluate_concrete(
                query, session.target, log=log
            ).to_temporal()
            replayed, evaluated = log.answers.delta_since(mark)
            session.stats["queries"] += 1
            session.stats["queries_replayed"] += 1 if replayed and not evaluated else 0
            return {
                "session": session.name,
                "answers": _answers_to_json(answers),
                "replayed": replayed,
                "evaluated": evaluated,
            }

    def abstract(
        self,
        name: str,
        shards: int = 1,
        executor: str = "serial",
    ) -> dict[str, Any]:
        """A sharded abstract chase of the session's source, warm-pooled.

        ``executor="processes"`` reuses the daemon's shared
        :class:`ProcessPoolExecutor` (see :meth:`pool`), so repeated
        requests never pay worker startup.  A worker death breaks that
        pool: this request fails with the
        :class:`~repro.errors.ShardExecutionError`, and the pool is
        dropped so the next request starts a fresh one.
        """
        if executor not in ("serial", "threads", "processes"):
            raise ProtocolError(f"unknown executor {executor!r}")
        if not isinstance(shards, int) or shards < 1:
            raise ProtocolError(f"shards must be a positive integer, got {shards!r}")
        session = self._get(name)
        from repro.abstract_view import abstract_chase, semantics

        pool = self.pool() if executor == "processes" else None
        with session.lock:
            try:
                result = abstract_chase(
                    semantics(session.source),
                    session.setting,
                    shards=shards,
                    executor=executor if pool is None else pool,
                )
            except BrokenExecutor:
                if pool is not None:
                    self._drop_pool(pool)
                raise
        if result.error is not None:
            if pool is not None and isinstance(result.error.__cause__, BrokenExecutor):
                self._drop_pool(pool)
            raise result.error
        if result.failed:
            raise ProtocolError(f"chase failed: {result.failure}", status=409)
        totals = result.reuse_totals()
        return {
            "session": session.name,
            "regions": len(result.region_results),
            "templates": result.template_count(),
            "replayed_matches": totals.replayed_matches,
            "live_matches": totals.live_matches,
            "shards": [
                {
                    "shard": report.shard,
                    "regions": report.regions,
                    "ms": round(report.seconds * 1000.0, 3),
                    "remote": report.remote,
                }
                for report in result.shard_reports
            ],
        }

    def target_json(self, name: str) -> dict[str, Any]:
        session = self._get(name)
        with session.lock:
            return concrete_instance_to_json(session.target)

    def source_json(self, name: str) -> dict[str, Any]:
        session = self._get(name)
        with session.lock:
            return concrete_instance_to_json(session.source)

    def info(self, name: str) -> dict[str, Any]:
        return self._get(name).info()

    # -- persistence -------------------------------------------------------

    def _snapshot_path(self, name: str) -> Path:
        if self.snapshot_dir is None:
            raise ProtocolError(
                "this server has no snapshot directory (start it with "
                "--snapshot-dir to enable session persistence)",
                status=409,
            )
        return self.snapshot_dir / f"{name}.session"

    def snapshot(self, name: str) -> dict[str, Any]:
        """Persist the session to the spool directory (session stays live)."""
        session = self._get(name)
        path = self._snapshot_path(name)
        with session.lock:
            payload = SessionSnapshot(
                format=SNAPSHOT_FORMAT,
                name=session.name,
                setting_json=session.setting_json,
                source=session.source,
                target=session.target,
                query_log=session.query_log,
                stats=dict(session.stats),
                event_log=session.event_log,
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "wb") as handle:
                pickle.dump(payload, handle)
        return {"session": name, "path": str(path)}

    def load(self, name: str) -> dict[str, Any]:
        """Rebuild an evicted session from its snapshot, warm state intact."""
        check_session_name(name)
        path = self._snapshot_path(name)
        if not path.exists():
            raise ProtocolError(f"no snapshot for session {name!r}", status=404)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception as exc:
            raise ProtocolError(
                f"cannot read snapshot for {name!r}: {exc}", status=409
            ) from exc
        if (
            not isinstance(payload, SessionSnapshot)
            or payload.format != SNAPSHOT_FORMAT
            or payload.name != name
        ):
            raise ProtocolError(
                f"snapshot for {name!r} is not a compatible session snapshot",
                status=409,
            )
        session = Session(
            name=name,
            setting=setting_from_json(payload.setting_json),
            setting_json=payload.setting_json,
            source=payload.source,
            target=payload.target,
            query_log=payload.query_log,
            stats=dict(payload.stats),
            event_log=payload.event_log,
        )
        if session.event_log is not None:
            # The snapshotted source already reflects the whole log;
            # fast-forward a fresh cursor so the next batch diffs
            # against the right baseline (cursors are derived state and
            # are never pickled).
            session.event_cursor = session.event_log.follow()
            session.event_cursor.advance()
        with self._lock:
            self._sessions[name] = session
        return {"session": session.info(), "path": str(path)}

    def evict(self, name: str, snapshot: bool = False) -> dict[str, Any]:
        """Drop a session from memory, optionally snapshotting it first."""
        result: dict[str, Any] = {"session": name, "snapshotted": snapshot}
        if snapshot:
            result.update(self.snapshot(name))
            result["snapshotted"] = True
        with self._lock:
            if self._sessions.pop(name, None) is None:
                raise UnknownSessionError(name)
        return result
