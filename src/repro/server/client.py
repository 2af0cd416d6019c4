"""A thin client for the chase service, on :mod:`http.client`.

One persistent HTTP/1.1 connection (the server speaks keep-alive), JSON
both ways, transparent reconnects where that is safe (see
:meth:`ServerClient.request`).  Every POST body travels in the
versioned request envelope (``{"v": 1, ...}``); deltas use the
canonical :class:`~repro.deltas.SourceDelta` codec.  Any non-2xx
response raises :class:`ClientError` carrying the server's error
message and status — the calling code never parses envelopes.

Used by ``python -m repro client``, the integration tests and the
server benchmark; scripting against a daemon looks like::

    client = ServerClient(port=8765)
    client.create("hr", setting_json, source_json)
    diff = client.delta("hr", add=[fact_json, ...])
    answers = client.query("hr", "answer(N) :- employee(N, D)")
"""

from __future__ import annotations

import http.client
import json
from typing import Any

from repro.server.protocol import PROTOCOL_VERSION

__all__ = ["ClientError", "ServerClient"]


class ClientError(Exception):
    """A non-2xx response from the server."""

    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


class ServerClient:
    """A persistent-connection JSON client for one repro daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8765, timeout: float = 300.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _request_once(self, method: str, path: str, payload: dict | None) -> dict:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ClientError(
                f"server returned non-JSON response: {raw[:200]!r}", response.status
            ) from exc
        if response.status >= 400:
            message = decoded.get("error", raw.decode("utf-8", "replace"))
            raise ClientError(message, response.status)
        return decoded

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One round-trip, with transparent reconnects where safe.

        A failure on a *reused* keep-alive socket gets one reconnect
        for any method — the daemon idles connections out, and a
        request on a dead socket was never processed.  A failure on a
        *fresh* connection (including the reconnect attempt itself) is
        retried only for idempotent GETs: that is the daemon-restart-
        mid-action window, and a non-idempotent request may have been
        applied before the socket died, so replaying it could double-
        apply a delta.
        """
        attempts = 0
        while True:
            reused = self._connection is not None
            try:
                return self._request_once(method, path, payload)
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                attempts += 1
                if attempts > 2 or not (reused or method == "GET"):
                    raise

    def post(self, path: str, fields: dict) -> dict:
        """POST *fields* wrapped in the versioned request envelope."""
        return self.request("POST", path, {"v": PROTOCOL_VERSION, **fields})

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def sessions(self) -> list[dict]:
        return self.request("GET", "/sessions")["sessions"]

    def create(
        self,
        name: str,
        setting: dict,
        source: dict,
        replace: bool = False,
    ) -> dict:
        return self.post(
            "/sessions",
            {"name": name, "setting": setting, "source": source, "replace": replace},
        )

    def info(self, name: str) -> dict:
        return self.request("GET", f"/sessions/{name}")

    def target(self, name: str) -> dict:
        return self.request("GET", f"/sessions/{name}/target")

    def source(self, name: str) -> dict:
        return self.request("GET", f"/sessions/{name}/source")

    def delta(
        self,
        name: str,
        add: list[dict] | None = None,
        remove: list[dict] | None = None,
    ) -> dict:
        """Apply a source delta (canonical ``SourceDelta`` codec)."""
        return self.post(
            f"/sessions/{name}/delta",
            {"delta": {"add": add or [], "remove": remove or []}},
        )

    def events(
        self,
        name: str,
        events: list,
        mapping: dict | None = None,
    ) -> dict:
        """Ingest an event batch (the first batch must carry *mapping*)."""
        fields: dict = {"events": events}
        if mapping is not None:
            fields["mapping"] = mapping
        return self.post(f"/sessions/{name}/events", fields)

    def query(self, name: str, query: str) -> dict:
        return self.post(f"/sessions/{name}/query", {"query": query})

    def abstract(
        self,
        name: str,
        shards: int = 1,
        executor: str = "serial",
    ) -> dict:
        return self.post(
            f"/sessions/{name}/abstract", {"shards": shards, "executor": executor}
        )

    def snapshot(self, name: str) -> dict:
        return self.post(f"/sessions/{name}/snapshot", {})

    def load(self, name: str) -> dict:
        return self.post(f"/sessions/{name}/load", {})

    def evict(self, name: str, snapshot: bool = False) -> dict:
        suffix = "?snapshot=1" if snapshot else ""
        return self.request("DELETE", f"/sessions/{name}{suffix}")


def fact_json(relation: str, data: list[Any], interval: str) -> dict:
    """Convenience for scripting: the wire form of one concrete fact."""
    return {"relation": relation, "data": data, "interval": interval}
