"""Exception hierarchy for the temporal data exchange library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
The chase-specific errors mirror the paper's failure modes: an egd chase
step that tries to equate two distinct constants makes the whole exchange
fail (Definition 16; Theorem 19, part 2).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TemporalError(ReproError):
    """Invalid temporal value, e.g. an empty or negative interval."""


class SchemaError(ReproError):
    """Schema violation: unknown relation, wrong arity, or name clash."""


class FormulaError(ReproError):
    """Malformed formula or dependency (unsafe variables, bad sorts)."""


class ParseError(ReproError):
    """The textual syntax for atoms/dependencies/queries failed to parse."""

    def __init__(self, message: str, text: str = "", position: int | None = None):
        self.text = text
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position} in {text!r})"
        super().__init__(message)


class InstanceError(ReproError):
    """Invalid instance construction, e.g. a variable used as a fact value."""


class ChaseFailureError(ReproError):
    """An egd chase step equated two distinct constants.

    Per the paper (Definition 16 and Theorem 19, part 2) this means the
    source instance has *no solution* under the given schema mapping.
    The offending values and the dependency are retained for diagnosis.
    """

    def __init__(self, dependency, left, right, context: str = ""):
        self.dependency = dependency
        self.left = left
        self.right = right
        self.context = context
        detail = f"egd chase step failed: cannot equate constants {left!r} and {right!r}"
        if context:
            detail = f"{detail} ({context})"
        super().__init__(detail)

    def __reduce__(self):
        # Exception.__reduce__ would replay only the message string.
        return (
            type(self),
            (self.dependency, self.left, self.right, self.context),
        )


class RemoteShardError(ReproError):
    """An exception raised inside a worker process of the ``processes``
    executor, carried across the process boundary as *(type name,
    message)* when the original exception object does not survive a
    pickle round trip; this stand-in becomes the ``__cause__`` of the
    :class:`ShardExecutionError` the parent raises."""

    def __init__(self, exc_type: str, message: str):
        self.exc_type = exc_type
        self.message = message
        super().__init__(f"{exc_type}: {message}")

    def __reduce__(self):
        return (type(self), (self.exc_type, self.message))


class ShardExecutionError(ReproError):
    """A region chase raised inside the abstract chase's region scheduler.

    Distinct from :class:`ChaseFailureError` (which is a *result* of the
    chase — no solution exists): this wraps an unexpected exception so
    the failing shard index and region interval are surfaced instead of
    the executor's bare first exception.  The original exception is
    chained as ``__cause__``; an exception that crossed a process
    boundary arrives as itself when it survives a pickle round trip and
    as a :class:`RemoteShardError` stand-in otherwise.  *stage* overrides
    the context phrase for failures outside any region chase — the
    process executor uses it when a worker dies before returning a
    result.
    """

    def __init__(
        self,
        shard: int,
        region,
        cause: BaseException,
        stage: str | None = None,
    ):
        self.shard = shard
        self.region = region
        self.stage = stage
        summary = (
            str(cause)
            if isinstance(cause, RemoteShardError)
            else f"{type(cause).__name__}: {cause}"
        )
        if stage is not None:
            detail = f"shard {shard} {stage}: {summary}"
        elif region is not None:
            detail = (
                f"region chase raised in shard {shard}, "
                f"snapshots {region}: {summary}"
            )
        else:
            detail = (
                f"region chase raised in shard {shard}, while advancing "
                f"the region sweep: {summary}"
            )
        super().__init__(detail)
        self.__cause__ = cause

    def __reduce__(self):
        # Exception.__reduce__ would replay our message string as the
        # shard argument; rebuild from the real fields instead, demoting
        # a cause that does not survive a round trip (unpicklable, or an
        # exception whose __init__ rejects its own args on load) to its
        # RemoteShardError stand-in.
        import pickle

        cause = self.__cause__
        try:
            pickle.loads(pickle.dumps(cause))
        except Exception:
            cause = RemoteShardError(type(cause).__name__, str(cause))
        return (type(self), (self.shard, self.region, cause, self.stage))


class NotNormalizedError(ReproError):
    """An operation required a normalized concrete instance but got one
    violating the empty intersection property (Definition 10)."""


class SolutionError(ReproError):
    """A purported solution fails the schema mapping it claims to satisfy."""


class SerializationError(ReproError):
    """JSON/CSV payload cannot be decoded into library objects."""


class DeltaError(ReproError):
    """A source delta is malformed or cannot be strictly applied.

    Raised by :class:`repro.deltas.SourceDelta` when a delta's fact sets
    conflict (a fact both added and removed), when its JSON form cannot
    be decoded, or when a strict :meth:`~repro.deltas.SourceDelta.apply`
    would remove an absent fact or add a duplicate."""


class EventError(ReproError):
    """An event record is malformed.

    Raised by :mod:`repro.events` for unparseable event lines, unknown
    event types, missing required fields, timestamps before the
    mapping's epoch, and non-scalar payload values under mapped
    columns.  History inconsistencies (updating an entity nobody
    created, say) are *not* errors — compilation parks such events as
    pending until the missing history arrives."""
