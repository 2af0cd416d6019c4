"""The service benchmark: a real ``repro serve`` daemon, one closed-loop client.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It boots ``python -m repro serve --workers 2`` as a subprocess and drives
one named workload (see ``workloads.py``) from this single process over
one keep-alive ``ServerClient`` connection: the next request goes only
after the previous reply.  Outputs are checked against cold in-process
chases between requests.  Human-readable lines go to stdout first; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

``--trace 0`` measures the end-to-end metrics.  Set-up (daemon launch to
the first timed request: health check, initial sessions, pool start,
warm-up requests) is done five times, each on a fresh daemon, and
``setup_s`` is the median.  ``--trace 1`` starts the daemon once through
``traced_serve.py`` and reports the per-layer metrics of ``layers.py``
instead.  Metric names and units are those of ``BENCHMARK.json``.  ``report.py`` runs both and prints the tables side by side.

The end-to-end metrics are the same on every workload and describe the
workload's op: a ``/delta`` on delta_churn, an ``/events`` batch on
event_stream, a ``/query`` or ``/delta`` request on query_mix, and a
create [+ ``/abstract``] + ``DELETE`` cycle on cold_exchange.
``throughput_per_s`` counts one-fact deltas, events, requests and
sessions respectively, per second of summed round-trip time.  The
per-request-kind latencies the workloads mix (``delta_p50_ms``,
``recreate_p50_ms``, ...) are printed above the JSON line.

Exit status: 0 when every output check passed and the cache-defeat guard
held, 1 otherwise (the JSON line is still printed), 2 when the repository
is not in the current directory.  Claims of a gain should be confirmed on
seed ``CONFIRM_SEED``, which was not used while tuning.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SETUP_REPEATS = 5
DEADLINE_S = 170
CONFIRM_SEED = 7919

# Per-endpoint metric names, printed for reading.
KIND_NAMES = {
    "delta": "delta",
    "events": "event_batch",
    "query": "query",
    "create": "create",
    "recreate": "recreate",
    "abstract": "abstract",
}


class Deadline(Exception):
    """The run went past ``DEADLINE_S``."""


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Run:
    loop: object
    outcome: object
    setups: list[float]
    cpu_ms: tuple[float, float]
    hits: int
    hit_ratio: float
    peak_rss_mb: float


def measure(workload, seconds: int, trace: bool, run_dir: Path) -> Run:
    from harness import Daemon, Loop
    from repro.server import ServerClient

    repeats = 1 if trace else SETUP_REPEATS
    setups = []
    for repeat in range(repeats):
        spans = run_dir / "spans.json" if trace else None
        daemon = Daemon(ROOT, run_dir, f"daemon{repeat}", spans)
        try:
            started = time.perf_counter()
            daemon.start()
            with ServerClient(port=daemon.port, timeout=120) as client:
                loop = Loop(client)
                client.healthz()
                state = workload.setup(loop)
                setups.append(time.perf_counter() - started)
                if repeat < repeats - 1:
                    continue
                hits, misses = loop.cache_counts()
                cpu = daemon.cpu_ms()
                loop.sizes = trace
                outcome = workload.run(loop, state, time.monotonic() + seconds)
                cpu_end = daemon.cpu_ms()
                hits_end, misses_end = loop.cache_counts()
                rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
    untimed_hits, untimed_misses = loop.untimed_lookups
    hits = hits_end - hits - untimed_hits
    lookups = hits + misses_end - misses - untimed_misses
    return Run(
        loop=loop,
        outcome=outcome,
        setups=setups,
        cpu_ms=(cpu_end[0] - cpu[0], cpu_end[1] - cpu[1]),
        hits=hits,
        hit_ratio=hits / lookups if lookups else 0.0,
        peak_rss_mb=rss,
    )


def end_to_end(run: Run) -> dict[str, float]:
    latencies = run.outcome.latencies
    return {
        "setup_s": statistics.median(run.setups),
        "op_p50_ms": percentile(latencies, 0.5),
        "op_p90_ms": percentile(latencies, 0.9),
        "throughput_per_s": run.outcome.items / (run.outcome.busy_ms / 1000.0),
        "peak_rss_mb": run.peak_rss_mb,
    }


def declared(values: dict[str, float | None], metrics: list[dict]) -> list[tuple]:
    """(name, value, unit) in BENCHMARK.json's order; the names must agree."""
    names = [item["name"] for item in metrics]
    if set(names) != set(values):
        differ = sorted(set(names) ^ set(values))
        raise SystemExit(f"metrics disagree with BENCHMARK.json: {differ}")
    return [(item["name"], values[item["name"]], item["unit"]) for item in metrics]


def describe(run: Run, name: str) -> None:
    """The readable lines above the JSON: per-kind latencies and checks."""
    by_kind: dict[str, list[float]] = {}
    for request in run.loop.requests:
        by_kind.setdefault(request.kind, []).append(request.ms)
    for kind, label in KIND_NAMES.items():
        values = by_kind.get(kind)
        if values:
            print(f"  {label}_p50_ms {percentile(values, 0.5):10.3f} ms   "
                  f"{label}_p90_ms {percentile(values, 0.9):10.3f} ms   n={len(values)}")
    if name == "event_stream":
        print(f"  events_per_s {run.outcome.items / (run.outcome.busy_ms / 1000.0):10.1f} events/s"
              f"   passes={len(run.outcome.passes)}")
    ops = len(run.outcome.latencies)
    print(f"  ops={ops}  output checks={run.outcome.checks}  cache hits={run.hits}"
          f"  hit_ratio={run.hit_ratio:.3f}")
    print(f"  daemon.cpu_ms_per_op {run.cpu_ms[0] / max(1, ops):.2f}"
          f"  workers.cpu_ms_per_op {run.cpu_ms[1] / max(1, ops):.2f}")
    if ops < 100:
        print(f"  warning: {ops} ops leave fewer than 10 samples beyond p90", file=sys.stderr)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="repro service benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from layers import per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: choose from {sorted(WORKLOADS)}")

    def expire(_signum, _frame):
        # Not a TimeoutError: that is an OSError, which the client's
        # reconnect logic would catch and answer by resending the request.
        raise Deadline(f"benchmark exceeded {DEADLINE_S}s")

    def terminate(_signum, _frame):
        raise SystemExit(143)

    signal.signal(signal.SIGALRM, expire)
    # SIGTERM unwinds like an exception, so the daemon still gets stopped.
    signal.signal(signal.SIGTERM, terminate)
    signal.alarm(DEADLINE_S)
    run_dir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        run = measure(workload, args.seconds, bool(args.trace), run_dir)
        print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        if args.trace:
            spans = json.loads((run_dir / "spans.json").read_text())
            rows = declared(per_layer(spans, run), spec["per_layer"])
        else:
            rows = declared(end_to_end(run), spec["end_to_end"])
        for name, value, unit in rows:
            shown = "absent" if value is None else f"{value:.4f}"
            print(f"  {name:26s} {shown:>12s} {unit}")
        metrics = {
            name: {"value": value, "unit": unit} for name, value, unit in rows if value is not None
        }
        describe(run, args.workload)
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    failures = run.loop.errors + run.outcome.mismatches
    for failure in failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    expected_hits = sum(1 for request in run.loop.requests if request.kind == "recreate")
    guard = run.hits == expected_hits
    if not guard:
        print(f"  FAILED: cache-defeat guard: {run.hits} chase-cache hits during timed ops, "
              f"expected {expected_hits} (one per recreate)", file=sys.stderr)
    attempted = len(run.outcome.latencies) + len(run.loop.errors)
    correct = not failures and guard and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
