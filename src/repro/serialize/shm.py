"""Shared-memory transport for shard-codec payloads.

The ``processes`` executor's wire path used to pickle every task and
outcome payload through the pool's pipe: the parent serializes ~80 KB
per task, every byte crosses the pipe twice (pickle framing plus the
payload), and multi-megabyte outcomes are copied back the same way.
Shard-codec payloads are already flat byte strings, so they are a
ready-made shared buffer: the parent writes each task into a named
``multiprocessing.shared_memory`` segment and submits only the *name*;
the worker maps the segment, decodes in place, and publishes its
outcome through a second segment whose name the parent chose up front.

Ownership protocol (who unlinks what):

* **task segments** — created by the parent, mapped read-only by one
  worker.  The parent unlinks them after the futures settle (success or
  not); a worker that dies mid-read cannot leak them.
* **outcome segments** — created by a worker under a name the parent
  assigned when it built the task (deterministic: pid + run counter +
  shard index).  The worker gives the registration away (see below) and
  the parent unlinks after decoding — or, when the worker died before
  or after publishing, in the scheduler's cleanup sweep, which knows
  every name it handed out.  Either way a crashed shard cannot leave
  ``/dev/shm`` blocks behind.

Python 3.11/3.12 register *every* ``SharedMemory`` attach with the
``resource_tracker`` (the ``track=`` opt-out only exists from 3.13), so
a process that maps a segment it does not own must explicitly
unregister it — otherwise its tracker unlinks the segment out from
under the owner at shutdown and warns about leaks.  :func:`attach` and
:func:`give_away` encapsulate that dance.

Platform fallback: :func:`available` probes segment creation once per
process; the scheduler hands payloads over shared memory exactly when
it succeeds and keeps the original pickle path otherwise.
"""

from __future__ import annotations

import itertools
import os

try:
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover — stripped-down stdlib builds
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

__all__ = [
    "available",
    "new_run_id",
    "segment_name",
    "write",
    "give_away",
    "attach",
    "unlink",
]

_runs = itertools.count()
_probe_result: bool | None = None


def available() -> bool:
    """Whether this platform can create shared-memory segments at all.

    Probed once per process with a throwaway one-byte segment; failure
    (no ``/dev/shm``, sandboxed ``shm_open``, missing module) makes the
    scheduler fall back to the pickle wire path.
    """
    global _probe_result
    if _probe_result is None:
        if shared_memory is None:
            _probe_result = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=1)
                probe.close()
                probe.unlink()
                _probe_result = True
            except (OSError, ValueError):  # pragma: no cover — no shm fs
                _probe_result = False
    return _probe_result


def new_run_id() -> int:
    """A per-process counter distinguishing concurrent scheduler runs."""
    return next(_runs)


def segment_name(run: int, shard: int, kind: str) -> str:
    """Deterministic segment name for one shard of one run.

    The parent computes every name it will ever need *before* spawning
    work, so cleanup after a worker death is a sweep over known names
    rather than a guess over ``/dev/shm``.
    """
    return f"tdx{os.getpid()}_{run}_{kind}{shard}"


def _untrack(segment: shared_memory.SharedMemory) -> None:
    # resource_tracker's registry is name-keyed; unregister is the
    # documented-by-bug-report way to say "this process is not the one
    # responsible for unlinking".
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover — tracker already shut down
        pass


def write(name: str, payload: bytes) -> None:
    """Create segment *name* holding *payload* and unmap it locally.

    The creating process stays registered with the resource tracker, so
    an unexpected death before the hand-off still cleans the segment up;
    call :func:`give_away` once another process has taken responsibility.
    """
    # repro: ignore[TDX004]: ownership protocol — the creator stays tracker-registered; the receiving process unlinks by name (scheduler sweep / give_away), see module docstring
    segment = shared_memory.SharedMemory(
        name=name, create=True, size=max(1, len(payload))
    )
    try:
        segment.buf[: len(payload)] = payload
    finally:
        segment.close()


def give_away(name: str) -> None:
    """Drop this process's cleanup responsibility for segment *name*."""
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover — tracker already shut down
        pass


def attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without adopting cleanup responsibility.

    Raises ``FileNotFoundError`` when the segment does not exist (the
    publisher died before creating it).  The caller must ``close()`` the
    returned segment; whoever owns the name unlinks it.
    """
    segment = shared_memory.SharedMemory(name=name)
    _untrack(segment)
    return segment


def unlink(name: str) -> bool:
    """Best-effort removal of segment *name*; True when it existed.

    Used both for the normal end-of-decode release and for the
    crashed-worker sweep, so a missing segment is a non-event.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    try:
        # unlink() also unregisters, balancing the attach's registration
        # — no explicit untrack here or the tracker logs a KeyError.
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover — lost a concurrent race
        return False
    return True
