"""Daemon lifecycle, /proc readings and the timed closed-loop client.

The daemon runs as ``python -m repro serve --workers 2 --port 0`` (or,
for the traced run, through ``perfbench/traced_serve.py``) in its own
process group, with stdout and stderr going to a file in the run
directory, never to a pipe: an orphaned daemon holding the benchmark's
stderr open would hang whoever waits on it.  :meth:`Daemon.stop` is the
one exit path: SIGINT for a clean shutdown (the traced bootstrap writes
its spans then), SIGKILL to the whole group if that does not finish,
and a wait until no process of the group is left.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.server import ClientError, ServerClient

_LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


def _cpu_ticks(pid: int) -> int:
    """utime + stime of one process, in clock ticks (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    return int(fields[11]) + int(fields[12])


def _group_members(pgid: int) -> list[int]:
    """Pids of the process group that are still running (zombies excluded)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def _children(pid: int) -> list[int]:
    """Live child pids of *pid* (the daemon's process-pool workers)."""
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found.extend(int(item) for item in task.read_text().split())
        except OSError:
            continue
    return sorted(set(found))


class Daemon:
    """One ``repro serve`` process in its own process group."""

    def __init__(self, root: Path, run_dir: Path, label: str, spans: Path | None):
        self.root = root
        self.log_path = run_dir / f"{label}.log"
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        if self.spans is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [
                sys.executable,
                str(self.root / "perfbench" / "traced_serve.py"),
                "--spans",
                str(self.spans),
            ]
        argv += ["serve", "--workers", "2", "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            "daemon did not start:\n" + self.log_path.read_text(errors="replace")[-2000:]
        )

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        # Whatever is left of the group (a wedged daemon, pool workers
        # whose parent died) is killed and waited for.
        deadline = time.monotonic() + 20
        while _group_members(proc.pid):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            proc.poll()
            if time.monotonic() > deadline:
                raise RuntimeError(f"daemon process group {proc.pid} would not exit")
            time.sleep(0.02)
        proc.wait()

    def cpu_ms(self) -> tuple[float, float]:
        """(daemon, pool workers) CPU time so far, in ms."""
        assert self.proc is not None
        scale = 1000.0 / _TICKS
        workers = sum(_cpu_ticks(pid) for pid in _children(self.proc.pid))
        return _cpu_ticks(self.proc.pid) * scale, workers * scale

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


@dataclass
class Request:
    """One timed request: its kind, tag, round trip and body sizes."""

    kind: str
    tag: int
    ms: float
    sent: int = 0
    received: int = 0


@dataclass
class Loop:
    """The single closed-loop client: one connection, one request at a time.

    Timed requests carry ``?op=<tag>`` in their path, which the server's
    router ignores and the traced bootstrap uses to tie spans to the
    request.  Body sizes are measured (by re-encoding) only when
    *sizes* is set, after the clock has stopped.
    """

    client: ServerClient
    sizes: bool = False
    requests: list[Request] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    untimed_lookups: list[int] = field(default_factory=lambda: [0, 0])

    def timed(self, kind: str, method: str, path: str, fields: dict | None) -> dict | None:
        """One timed round trip; a non-2xx reply is recorded and returns None."""
        tag = len(self.requests) + len(self.errors) + 1
        body = None if fields is None else {"v": 1, **fields}
        started = time.perf_counter()
        try:
            reply = self.client.request(method, f"{path}?op={tag}", body)
        except ClientError as exc:
            self.errors.append(f"{kind} {path}: HTTP {exc.status}: {exc}")
            return None
        request = Request(kind, tag, (time.perf_counter() - started) * 1000.0)
        if self.sizes:
            request.sent = len(json.dumps(body).encode()) if body is not None else 0
            request.received = len(json.dumps(reply).encode())
        self.requests.append(request)
        return reply

    def cache_counts(self) -> tuple[int, int]:
        cache = self.client.stats()["cache"]
        return cache["hits"], cache["misses"]

    def untimed_create(self, name: str, setting: dict, source: dict) -> None:
        """Create a session between timed ops, keeping its cache lookup
        out of the timed ops' hit ratio."""
        hits, misses = self.cache_counts()
        self.client.create(name, setting, source)
        hits_after, misses_after = self.cache_counts()
        self.untimed_lookups[0] += hits_after - hits
        self.untimed_lookups[1] += misses_after - misses
