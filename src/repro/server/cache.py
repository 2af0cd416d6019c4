"""The content-addressed chase cache.

Keyed by :func:`repro.serialize.digest.chase_request_digest` — a
salt-free sha256 of the canonical JSON of (setting, source instance,
chase parameters) — so *identical re-chases are O(1)*: any session, on
any day, submitting inputs whose canonical serialization matches an
earlier chase gets the recorded outcome back without touching a worker.
The identity-only digest discipline (TDX005) is what makes the key
stable across processes.

Entries store the chased target as **pickled bytes**, not a live
object: a hit materializes an independent instance per session, so two
sessions served from one entry can never mutate a shared target.

Failed chases cache too — failure is as content-determined as success,
and a repeated doomed request should consume zero chase work.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.concrete.cchase import CChaseResult
from repro.concrete.concrete_instance import ConcreteInstance

__all__ = ["CachedChase", "ChaseCache"]


@dataclass(frozen=True)
class CachedChase:
    """One recorded chase outcome, content-addressed by *digest*."""

    digest: str
    payload: bytes = field(repr=False)
    facts: int
    steps: int
    failed: bool
    failure: str | None

    @classmethod
    def from_result(cls, digest: str, result: CChaseResult) -> "CachedChase":
        return cls(
            digest=digest,
            payload=pickle.dumps(result.target),
            facts=len(result.target),
            steps=len(result.trace),
            failed=result.failed,
            failure=str(result.failure) if result.failure is not None else None,
        )

    def materialize(self) -> ConcreteInstance:
        """A fresh copy of the chased target for one consumer."""
        return pickle.loads(self.payload)


class ChaseCache:
    """A bounded LRU of :class:`CachedChase` entries, thread-safe.

    ``max_entries`` bounds memory; eviction is least-recently-*used*
    (a hit refreshes the entry).  All methods are safe to call from the
    server's handler threads.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CachedChase]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, digest: str) -> CachedChase | None:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return entry

    def put(self, entry: CachedChase) -> None:
        with self._lock:
            self._entries[entry.digest] = entry
            self._entries.move_to_end(entry.digest)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
