"""Start the repro daemon with ``perf_counter`` spans around each layer.

Usage (from the repository root)::

    PYTHONPATH=src python perfbench/traced_serve.py --spans OUT.json serve [serve args]

Before handing *serve* and its arguments to ``repro.cli.main``, this
bootstrap rebinds each layer's public function to a wrapper that times
the call.  Nothing under ``src/`` changes.  Spans are kept in memory and
written to *OUT.json* when the daemon shuts down (SIGINT).

A span is ``[op, layer, thread, start, end, attrs]``.  *op* is the
``?op=<tag>`` the benchmark client puts on its timed requests: the
``ReproServer._dispatch`` wrapper reads it on the event-loop thread,
and the wrapper around each ``SessionManager`` method copies it into a
thread-local, because handlers run on executor threads and contextvars
do not follow ``run_in_executor``.  The client sends one request at a
time, so the op being dispatched is the op being handled.  Spans of
untagged requests are not recorded.  Attributes computed from a result
(step counts, entry sizes) are timed as a ``trace`` span of their own,
so the benchmark can keep that cost out of every layer.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable

perf = time.perf_counter


class Recorder:
    """In-memory span store plus the op hand-off between threads."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.absent: list[str] = []
        self.local = threading.local()
        self.dispatching: str | None = None

    def record(self, layer: str, start: float, end: float, attrs: dict | None) -> None:
        op = getattr(self.local, "op", None)
        if op is not None:
            self.spans.append([op, layer, threading.get_ident(), start, end, attrs])

    def timed(self, layer: "str | Callable[[], str]", fn: Callable,
              attrs: Callable[[Any], dict] | None = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer()
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.record(name, start, perf(), None)
                raise
            end = perf()
            if attrs is None:
                recorder.record(name, start, end, None)
            else:
                recorder.record(name, start, end, attrs(result))
                recorder.record("trace", end, perf(), None)
            return result

        return wrapper

    def handler(self, fn: Callable) -> Callable:
        """A ``SessionManager`` method: adopt the op being dispatched."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.local.op = recorder.dispatching
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.record("handler", start, perf(), None)
                recorder.local.op = None

        return wrapper

    def dispatch(self, fn: Callable) -> Callable:
        """``ReproServer._dispatch``: read the op tag off the request."""
        recorder = self

        @functools.wraps(fn)
        async def wrapper(server, request):
            op = request.query.get("op")
            recorder.dispatching = op
            recorder.local.op = op  # protocol decode runs here, in _route
            start = perf()
            try:
                return await fn(server, request)
            finally:
                recorder.record("app.dispatch", start, perf(), None)
                recorder.local.op = None
                recorder.dispatching = None

        return wrapper

    def patch(self, module: str, path: str, layer: str,
              make: Callable[[Callable], Callable]) -> None:
        """Rebind ``module.path`` (``name`` or ``Class.name``) to ``make(fn)``.

        If the name no longer exists, *layer* is listed as absent, so its
        rows read ``absent`` rather than 0.
        """
        try:
            owner: Any = importlib.import_module(module)
            *classes, name = path.split(".")
            for item in classes:
                owner = getattr(owner, item)
            raw = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError):
            self.absent.append(layer)
            return
        if isinstance(raw, property):
            setattr(owner, name, property(make(raw.fget)))
        elif isinstance(raw, classmethod):
            setattr(owner, name, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, name, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))


def _steps(result) -> dict:
    tgd = egd = 0
    for step in result.trace.steps:
        kind = type(step).__name__
        tgd += kind == "TgdStepRecord"
        egd += kind == "EgdStepRecord"
    return {"tgd_steps": tgd, "egd_steps": egd}


def _groups(result) -> dict:
    report = result[1]
    if report is None:
        return {"groups": 0, "replayed": 0}
    return {"groups": report.groups, "replayed": report.groups_replayed}


def _entry(result) -> dict:
    return {"bytes": len(result.payload)}


def _parent(result) -> dict:
    timings = result.parent_timings
    if timings is None:
        return {}
    return {
        "encode": timings.encode_seconds * 1000.0,
        "decode": timings.decode_seconds * 1000.0,
        "merge": timings.merge_seconds * 1000.0,
    }


# (module, name or Class.name, layer, attrs taken from the result)
LAYERS = (
    ("repro.server.protocol", "unwrap_envelope", "protocol.decode", None),
    ("repro.server.protocol", "delta_from_payload", "protocol.decode", None),
    ("repro.serialize.jsonio", "concrete_instance_from_json", "jsonio.source_parse", None),
    ("repro.deltas", "SourceDelta.applied_to", "deltas.apply", None),
    ("repro.deltas", "SourceDelta.between", "deltas.diff", None),
    ("repro.server.sessions", "chase_request_digest", "digest", None),
    ("repro.server.sessions", "instance_digest", "digest", None),
    ("repro.server.cache", "CachedChase.from_result", "cache.put", _entry),
    ("repro.server.cache", "CachedChase.materialize", "cache.materialize", None),
    ("repro.concrete.cchase", "run_tgd_pass", "st_tgd", None),
    ("repro.concrete.cchase", "run_egd_fixpoint", "egd", None),
    ("repro.events.log", "EventLog.ingest", "events.ingest", None),
    ("repro.events.log", "FollowCursor.peek", "events.cursor", None),
    ("repro.events.log", "FollowCursor.advance", "events.cursor", None),
    ("repro.server.sessions", "naive_evaluate_concrete", "query.eval", None),
    ("repro.query.answers", "ConcreteAnswerSet.to_temporal", "query.encode", None),
    ("repro.server.sessions", "_answers_to_json", "query.encode", None),
    ("repro.abstract_view", "abstract_chase", "abstract", _parent),
    ("repro.abstract_view", "semantics", "semantics", None),
)


def install(recorder: Recorder) -> None:
    """Wrap every layer the benchmark reports on."""
    timed = recorder.timed
    local = recorder.local

    def chase(fn):
        inner = timed("cchase", fn, _steps)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.norm_stage = 0
            return inner(*args, **kwargs)

        return wrapper

    def norm_layer() -> str:
        # c_chase normalizes the source first, then the target.
        stage = getattr(local, "norm_stage", 2)
        local.norm_stage = stage + 1
        return ("normalize.source", "normalize.target", "normalize.other")[min(stage, 2)]

    def merge(getter):
        inner = timed("abstract.merge", getter)

        @functools.wraps(getter)
        def wrapper(instance):
            # abstract_chase returns a deferred target: the first read of
            # its template set unions the shard pieces, after the chase.
            if instance._templates_cache is None:
                return inner(instance)
            return getter(instance)

        return wrapper

    for module, path, layer, attrs in LAYERS:
        recorder.patch(module, path, layer,
                       lambda fn, layer=layer, attrs=attrs: timed(layer, fn, attrs))
    for method in ("create", "delta", "events", "query", "abstract", "evict"):
        recorder.patch("repro.server.sessions", f"SessionManager.{method}", "handler",
                       recorder.handler)
    recorder.patch("repro.server.app", "ReproServer._dispatch", "app.dispatch",
                   recorder.dispatch)
    recorder.patch("repro.server.sessions", "c_chase", "cchase", chase)
    recorder.patch("repro.concrete.cchase", "normalize_with_report", "normalize",
                   lambda fn: timed(norm_layer, fn, _groups))
    recorder.patch("repro.abstract_view.abstract_instance", "AbstractInstance._templates",
                   "abstract.merge", merge)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans at shutdown")
    args, rest = parser.parse_known_args(argv)
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(rest)
    finally:
        with open(args.spans, "w") as handle:
            json.dump({"spans": recorder.spans, "absent": recorder.absent}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
