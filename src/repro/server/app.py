"""The asyncio HTTP/JSON front-end of the chase service.

Stdlib-only by constraint: a hand-rolled HTTP/1.1 server on
:func:`asyncio.start_server` (keep-alive connections, Content-Length
bodies, JSON in both directions).  The event loop only parses and
routes; every handler body runs on the default thread-pool executor, so
a long chase never blocks health checks or other sessions — ordering
*within* a session comes from the session's own lock, not from the
loop.

Error discipline: anything wrong with the *request* is a 4xx —
:class:`~repro.server.protocol.ProtocolError` carries its status,
library :class:`~repro.errors.ReproError`\\ s (parse errors, schema
violations) map to 400, an unknown session to 404, a failing chase to
409.  Only a server-side fault produces a 500 — a defect, or a shard
that raised or lost its worker process (a
:class:`~repro.errors.ShardExecutionError`).  Malformed HTTP framing is
a 400 or 431 on a connection that then closes.

Every POST body is read through the versioned request envelope
(``{"v": 1, ...}``; a body without ``"v"`` reads as v1 — see
:func:`~repro.server.protocol.unwrap_envelope`); unknown versions are a
400 before any routing happens.

Endpoints (full reference with examples in ``docs/server.md``)::

    GET    /healthz                      liveness + session count
    GET    /stats                        cache/pool/session statistics
    GET    /sessions                     list sessions
    POST   /sessions                     create {name, setting, source[, replace]}
    GET    /sessions/{name}              session info
    DELETE /sessions/{name}[?snapshot=1] evict (optionally snapshot first)
    GET    /sessions/{name}/target       the maintained target instance
    GET    /sessions/{name}/source       the cumulative source instance
    POST   /sessions/{name}/delta        {delta: {add, remove}} → target diff
    POST   /sessions/{name}/events       {events: [...][, mapping]} → ingest + diff
    POST   /sessions/{name}/query        {query} → certain answers
    POST   /sessions/{name}/abstract     {shards[, executor]} → sharded abstract chase
    POST   /sessions/{name}/snapshot     persist to the spool directory
    POST   /sessions/{name}/load         rebuild from the spool directory
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from typing import Any, Callable

from repro.errors import ReproError, ShardExecutionError
from repro.server.protocol import ProtocolError
from repro.server.sessions import SessionManager

__all__ = ["ReproServer", "ServerThread", "serve"]

#: Refuse request bodies beyond this size (64 MiB) with a 413.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Refuse request heads with more header lines than this with a 431
#: (``http.client``'s own cap).
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}

_SESSION_PATH = re.compile(
    r"^/sessions/(?P<name>[A-Za-z0-9][A-Za-z0-9._-]{0,63})"
    r"(?P<rest>/(?:target|source|delta|events|query|abstract|snapshot|load))?$"
)


class _Request:
    __slots__ = ("method", "path", "query", "payload")

    def __init__(self, method: str, path: str, query: dict, payload: dict):
        self.method = method
        self.path = path
        self.query = query
        self.payload = payload


def _parse_query_string(raw: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for piece in raw.split("&"):
        if not piece:
            continue
        key, _, value = piece.partition("=")
        out[key] = value
    return out


class ReproServer:
    """The daemon: a :class:`SessionManager` behind an HTTP listener."""

    def __init__(
        self,
        manager: SessionManager | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int | None = None,
        snapshot_dir=None,
        cache_entries: int = 64,
    ):
        self.manager = manager or SessionManager(
            cache_entries=cache_entries,
            workers=workers,
            snapshot_dir=snapshot_dir,
        )
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; ``self.port`` holds the real port after."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        self.manager.close()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            # No wait_closed here: the transport closes on the loop's
            # schedule, and awaiting it would leave a cancelled handler
            # pending at shutdown.
            if task is not None:
                self._connections.discard(task)
            writer.close()

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        # readline raises ValueError for a line over the stream's limit
        # (64 KiB); each framing error answers, then closes the connection.
        try:
            request_line = await reader.readline()
        except ValueError:
            await self._respond(writer, 400, {"error": "request line too long"})
            return False
        if not request_line or not request_line.strip():
            return False
        try:
            method, raw_path, _version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            await self._respond(writer, 400, {"error": "malformed request line"})
            return False
        headers: dict[str, str] = {}
        lines = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                await self._respond(writer, 431, {"error": "header line too long"})
                return False
            if not line or line in (b"\r\n", b"\n"):
                break
            lines += 1
            if lines > MAX_HEADER_LINES:
                await self._respond(
                    writer, 431, {"error": f"more than {MAX_HEADER_LINES} header lines"}
                )
                return False
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            await self._respond(writer, 400, {"error": "bad Content-Length"})
            return False
        if length > MAX_BODY_BYTES:
            await self._respond(
                writer, 413, {"error": f"request body over {MAX_BODY_BYTES} bytes"}
            )
            return False
        body = await reader.readexactly(length) if length else b""
        payload: dict = {}
        if body:
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                await self._respond(writer, 400, {"error": f"invalid JSON body: {exc}"})
                return keep_alive
            if not isinstance(payload, dict):
                await self._respond(
                    writer, 400, {"error": "request body must be a JSON object"}
                )
                return keep_alive
        path, _, query_string = raw_path.partition("?")
        request = _Request(
            method.upper(), path, _parse_query_string(query_string), payload
        )
        status, response = await self._dispatch(request)
        await self._respond(writer, status, response)
        return keep_alive

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, request: _Request) -> tuple[int, dict]:
        try:
            handler, kwargs = self._route(request)
        except ProtocolError as exc:
            return exc.status, {"error": str(exc)}
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(None, lambda: handler(**kwargs))
            return 200, result if isinstance(result, dict) else {"result": result}
        except ProtocolError as exc:
            return exc.status, {"error": str(exc)}
        except ShardExecutionError as exc:
            # A shard that raised or lost its worker is not the client's fault.
            return 500, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            return 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}

    def _route(self, request: _Request) -> tuple[Callable[..., Any], dict]:
        manager = self.manager
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                raise ProtocolError("use GET /healthz", status=405)
            return (
                lambda: {"status": "ok", "sessions": len(manager.names())},
                {},
            )
        if path == "/stats":
            if method != "GET":
                raise ProtocolError("use GET /stats", status=405)
            return manager.stats, {}
        if path == "/sessions":
            if method == "GET":
                return lambda: {"sessions": manager.list_sessions()}, {}
            if method == "POST":
                from repro.server.protocol import unwrap_envelope

                payload = unwrap_envelope(request.payload)
                if "setting" not in payload or "source" not in payload:
                    raise ProtocolError(
                        "session creation needs 'name', 'setting' and 'source'"
                    )
                return manager.create, {
                    "name": payload.get("name", ""),
                    "setting_json": payload["setting"],
                    "source_json": payload["source"],
                    "replace": bool(payload.get("replace", False)),
                }
            raise ProtocolError("use GET or POST on /sessions", status=405)
        match = _SESSION_PATH.match(path)
        if match is None:
            raise ProtocolError(f"no such endpoint: {path}", status=404)
        name = match.group("name")
        rest = (match.group("rest") or "").lstrip("/")
        if not rest:
            if method == "GET":
                return manager.info, {"name": name}
            if method == "DELETE":
                snapshot = request.query.get("snapshot", "") in ("1", "true", "yes")
                return manager.evict, {"name": name, "snapshot": snapshot}
            raise ProtocolError(
                "use GET or DELETE on /sessions/{name}", status=405
            )
        if rest in ("target", "source"):
            if method != "GET":
                raise ProtocolError(f"use GET on /sessions/{{name}}/{rest}", status=405)
            handler = manager.target_json if rest == "target" else manager.source_json
            return handler, {"name": name}
        if method != "POST":
            raise ProtocolError(f"use POST on /sessions/{{name}}/{rest}", status=405)
        from repro.server.protocol import unwrap_envelope

        payload = unwrap_envelope(request.payload)
        if rest == "delta":
            from repro.server.protocol import delta_from_payload

            return manager.delta, {
                "name": name,
                "delta": delta_from_payload(payload),
            }
        if rest == "events":
            from repro.server.protocol import require_list

            mapping = payload.get("mapping")
            if mapping is not None and not isinstance(mapping, dict):
                raise ProtocolError("request field 'mapping' must be an object")
            return manager.events, {
                "name": name,
                "events": require_list(payload, "events"),
                "mapping_json": mapping,
            }
        if rest == "query":
            from repro.server.protocol import require_str

            return manager.query, {
                "name": name,
                "query_text": require_str(payload, "query"),
            }
        if rest == "abstract":
            return manager.abstract, {
                "name": name,
                "shards": payload.get("shards", 1),
                "executor": payload.get("executor", "serial"),
            }
        if rest == "snapshot":
            return manager.snapshot, {"name": name}
        if rest == "load":
            return manager.load, {"name": name}
        raise ProtocolError(f"no such endpoint: {path}", status=404)


# ---------------------------------------------------------------------------
# Entry points: blocking serve() for the CLI, ServerThread for tests/benchmarks
# ---------------------------------------------------------------------------


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int | None = None,
    snapshot_dir=None,
    cache_entries: int = 64,
) -> None:
    """Run the daemon in the foreground until interrupted (the CLI path)."""

    async def _run() -> None:
        server = ReproServer(
            host=host,
            port=port,
            workers=workers,
            snapshot_dir=snapshot_dir,
            cache_entries=cache_entries,
        )
        await server.start()
        print(f"repro server listening on http://{host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass


class ServerThread:
    """A daemon running on a background thread, for tests and benchmarks.

    Context-manager usage::

        with ServerThread(snapshot_dir=tmp) as server:
            client = ServerClient(port=server.port)
            ...

    The thread owns its own event loop; ``__exit__`` stops the loop,
    joins the thread, and shuts the manager (worker pool included).
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self.server: ReproServer | None = None
        self.port: int = 0

    @property
    def manager(self) -> SessionManager:
        assert self.server is not None
        return self.server.manager

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start in 30s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to bind") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = ReproServer(**self._kwargs)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self.server = server
        self.port = server.port
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.aclose())
            loop.close()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
