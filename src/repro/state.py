"""Load/persist lifecycle for a pickled query log.

``repro query --query-log`` persists one :class:`~repro.query.QueryLog`
pickle per chain between CLI invocations; this module owns the
load/validate/save round trip, and turns every failure into a
:class:`StateError`.

Trust boundary: these files are **pickles** — they hold live
fact/query objects, and unpickling runs code.  Only load state files
this software wrote for you; never one from an untrusted source.  The
server applies the same rule by only loading session snapshots from its
own spool directory.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.errors import ReproError
from repro.query import QueryLog

__all__ = [
    "StateError",
    "load_query_log",
    "save_query_log",
]


class StateError(ReproError):
    """A query-log file could not be read, parsed, or written."""


def load_query_log(path: str | Path) -> QueryLog:
    """The previous query log at *path*, or a fresh one when absent.

    A fresh log records this run's state without replaying anything —
    the first run of a chain.
    """
    if not Path(path).exists():
        return QueryLog()
    try:
        with open(path, "rb") as handle:
            log = pickle.load(handle)
    except Exception as exc:  # pickle raises a zoo of types
        raise StateError(f"cannot read query log from {path}: {exc}") from exc
    if not isinstance(log, QueryLog):
        raise StateError(f"{path} does not contain a query log")
    return log


def save_query_log(path: str | Path, log: QueryLog) -> None:
    """Persist *log* for the next run."""
    try:
        with open(path, "wb") as handle:
            pickle.dump(log, handle)
    except OSError as exc:
        raise StateError(f"cannot write query log to {path}: {exc}") from exc
