"""Per-layer metrics from the traced daemon's spans and the client's records.

Every ``_ms`` row is a mean *self* time per op of the workload: a span's
duration minus the part its child spans on the same thread cover, so
the rows do not overlap (``cchase.ms`` alone is the inclusive c-chase
time, and the ``parent_timings`` parts of ``abstract.encode_ms``,
``decode_ms`` and ``merge_ms`` lie inside ``abstract.ms``).
``unattributed_ms`` is the handler time no row covers, and
``trace.coverage_frac`` is one minus its share of handler wall time.
``trace`` spans (the cost of reading counts off a result) are left out
of every row and of the handler wall time.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import mean, median

# Rows that read ``absent`` when a layer they need was not wrapped.  The
# names, units and directions of all rows are those of BENCHMARK.json.
NEEDS = {
    "app.overhead_ms": ("app.dispatch", "handler"),
    "protocol.decode_ms": ("protocol.decode",),
    "jsonio.source_parse_ms": ("jsonio.source_parse",),
    "deltas.apply_ms": ("deltas.apply",),
    "deltas.diff_ms": ("deltas.diff",),
    "digest.ms": ("digest",),
    "cache.put_ms": ("cache.put",),
    "cache.materialize_ms": ("cache.materialize",),
    "cache.entry_kb": ("cache.put",),
    "cchase.ms": ("cchase",),
    "cchase.self_ms": ("cchase",),
    "normalize.source_ms": ("normalize",),
    "normalize.target_ms": ("normalize",),
    "normalize.replayed_frac": ("normalize",),
    "st_tgd.ms": ("st_tgd",),
    "st_tgd.steps": ("cchase",),
    "egd.ms": ("egd",),
    "egd.steps": ("cchase",),
    "events.ingest_ms": ("events.ingest",),
    "events.ingest_growth": ("events.ingest",),
    "events.cursor_ms": ("events.cursor",),
    "query.eval_ms": ("query.eval",),
    "query.encode_ms": ("query.encode",),
    "abstract.ms": ("abstract",),
    "semantics.ms": ("semantics",),
    "abstract.encode_ms": ("abstract",),
    "abstract.decode_ms": ("abstract",),
    "abstract.merge_ms": ("abstract", "abstract.merge"),
    "unattributed_ms": ("handler",),
    "trace.coverage_frac": ("handler",),
}

# Rows that are the summed self time of one layer, per op.
_SELF_TIME = {
    "protocol.decode_ms": "protocol.decode",
    "jsonio.source_parse_ms": "jsonio.source_parse",
    "deltas.apply_ms": "deltas.apply",
    "deltas.diff_ms": "deltas.diff",
    "digest.ms": "digest",
    "cache.put_ms": "cache.put",
    "cache.materialize_ms": "cache.materialize",
    "cchase.self_ms": "cchase",
    "normalize.source_ms": "normalize.source",
    "normalize.target_ms": "normalize.target",
    "st_tgd.ms": "st_tgd",
    "egd.ms": "egd",
    "events.ingest_ms": "events.ingest",
    "events.cursor_ms": "events.cursor",
    "query.eval_ms": "query.eval",
    "query.encode_ms": "query.encode",
    "abstract.ms": "abstract",
    "semantics.ms": "semantics",
    "unattributed_ms": "handler",
}


class _Span:
    __slots__ = ("op", "layer", "start", "end", "attrs", "children")

    def __init__(self, op, layer, start, end, attrs):
        self.op, self.layer, self.start, self.end = int(op), layer, start, end
        self.attrs = attrs or {}
        self.children = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def self_ms(self) -> float:
        return (self.end - self.start - self.children) * 1000.0


def nest(raw: list) -> list[_Span]:
    """Spans with their direct children's time, nested per op and thread."""
    groups: dict[tuple, list[_Span]] = defaultdict(list)
    for op, layer, thread, start, end, attrs in raw:
        groups[(op, thread)].append(_Span(op, layer, start, end, attrs))
    spans = []
    for items in groups.values():
        items.sort(key=lambda span: (span.start, -span.end))
        stack: list[_Span] = []
        for span in items:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            if stack:
                stack[-1].children += span.end - span.start
            stack.append(span)
        spans.extend(items)
    return spans


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(values) -> float:
    values = list(values)
    return mean(values) if values else 0.0


def per_layer(spans_doc: dict, run) -> dict[str, float | None]:
    """Every per-layer row; ``None`` where a wrapped name is absent."""
    spans = nest(spans_doc["spans"])
    absent = set(spans_doc["absent"])
    outcome = run.outcome
    ops = max(1, len(outcome.latencies))
    self_ms: dict[str, float] = defaultdict(float)
    total_ms: dict[str, float] = defaultdict(float)
    for span in spans:
        self_ms[span.layer] += span.self_ms
        total_ms[span.layer] += span.ms

    def attrs(layers: tuple[str, ...], key: str) -> list[float]:
        return [span.attrs[key] for span in spans if span.layer in layers and key in span.attrs]

    requests = run.loop.requests
    rows = {name: self_ms[layer] / ops for name, layer in _SELF_TIME.items()}
    rows["app.overhead_ms"] = (
        sum(item.ms for item in requests) - total_ms["handler"] - self_ms["protocol.decode"]
    ) / ops
    rows["app.request_kb"] = sum(item.sent for item in requests) / 1024.0 / ops
    rows["app.response_kb"] = sum(item.received for item in requests) / 1024.0 / ops
    rows["cache.hit_ratio"] = run.hit_ratio
    rows["cache.entry_kb"] = _mean(attrs(("cache.put",), "bytes")) / 1024.0
    rows["cchase.ms"] = (total_ms["cchase"] - _trace_inside(spans, "cchase")) / ops
    stages = ("normalize.source", "normalize.target")
    rows["normalize.replayed_frac"] = _ratio(
        sum(attrs(stages, "replayed")), sum(attrs(stages, "groups"))
    )
    rows["st_tgd.steps"] = _mean(attrs(("cchase",), "tgd_steps"))
    rows["egd.steps"] = _mean(attrs(("cchase",), "egd_steps"))
    rows["events.ingest_growth"] = _ingest_growth(spans, outcome.passes)
    rows["query.replayed_frac"] = _ratio(
        sum(item["replayed"] for item in outcome.queries),
        sum(item["replayed"] + item["evaluated"] for item in outcome.queries),
    )
    for key in ("encode", "decode"):
        rows[f"abstract.{key}_ms"] = sum(attrs(("abstract",), key)) / ops
    # The parent merges shard results eagerly inside abstract_chase, but
    # the merged template set is built on first read, after it returns.
    rows["abstract.merge_ms"] = (
        sum(attrs(("abstract",), "merge")) + self_ms["abstract.merge"]
    ) / ops
    shard_times = [[shard["ms"] for shard in reply["shards"]] for reply in outcome.abstract]
    rows["abstract.shard_max_ms"] = _mean(max(times) for times in shard_times)
    rows["abstract.shard_skew"] = _mean(_ratio(max(times), mean(times)) for times in shard_times)
    rows["abstract.replayed_frac"] = _ratio(
        sum(reply["replayed_matches"] for reply in outcome.abstract),
        sum(reply["replayed_matches"] + reply["live_matches"] for reply in outcome.abstract),
    )
    rows["daemon.cpu_ms_per_op"] = run.cpu_ms[0] / ops
    rows["workers.cpu_ms_per_op"] = run.cpu_ms[1] / ops
    handler_wall = total_ms["handler"] - total_ms["trace"]
    rows["trace.coverage_frac"] = 1.0 - _ratio(self_ms["handler"], handler_wall)
    rows["trace.op_p50_ms"] = median(outcome.latencies) if outcome.latencies else 0.0
    return {
        name: None if absent.intersection(NEEDS.get(name, ())) else value
        for name, value in rows.items()
    }


def _trace_inside(spans: list[_Span], layer: str) -> float:
    """ms of ``trace`` spans that lie inside *layer* spans of the same op."""
    outer = defaultdict(list)
    for span in spans:
        if span.layer == layer:
            outer[span.op].append(span)
    return sum(
        span.ms
        for span in spans
        if span.layer == "trace"
        and any(item.start <= span.start and span.end <= item.end for item in outer[span.op])
    )


def _ingest_growth(spans: list[_Span], passes: list[list[int]]) -> float:
    """Mean over passes of ingest ms in a pass's last quarter ÷ its first."""
    by_op: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.layer == "events.ingest":
            by_op[span.op] += span.self_ms
    ratios = []
    for tags in passes:
        quarter = max(1, len(tags) // 4)
        first = mean(by_op[tag] for tag in tags[:quarter])
        if first:
            ratios.append(mean(by_op[tag] for tag in tags[-quarter:]) / first)
    return _mean(ratios)
