"""Compact binary wire format for the process-pool region scheduler.

The abstract chase's ``processes`` executor ships each shard's work to a
worker process and the finished results back.  Generic pickle pays a
per-object protocol cost on every term, fact and trace record; this
codec instead writes **one flat message** with interned tables:

* a **string heap** — every relation name, null name, dependency label
  and constant string is stored once and referenced by index;
* an **interval table** — ``[start, end)`` pairs (``-1`` encodes ∞),
  shared by region lists, template stamps and annotated nulls;
* a **term table** — constants / labeled nulls / annotated nulls, each
  encoded once per payload; decoded term objects are therefore *shared*
  across all facts of a payload, so hash and sort-key caches amortize
  exactly as they do in a live chase;
* a **fact table** — flat ``(relation, arity, term…)`` rows referenced
  by index from instances and trace records;
* a **record table** — tgd/egd/failure step records, interned by object
  identity so records shared between traces (the incremental replay
  contract of :mod:`repro.chase.trace`) are encoded once.

All structure lives in a single ``int64`` array (decoded with one
``array('q').frombytes`` call); strings, floats and rare opaque blobs
live in side sections.  Constant values that are not strings, ints,
bools, floats, ``None`` or :class:`Interval` fall back to a pickled blob
— correctness over compactness for exotic values.  Exchange settings are
embedded through the existing JSON codec (:func:`setting_to_json`): they
are tiny, and the textual dependency syntax is the library's canonical
serialized form.

Messages are only meant to cross a pipe — or a shared-memory segment,
see :mod:`repro.serialize.shm` — between processes of one run on one
machine; the header still carries a magic, a version and the byte order
so a stale or foreign payload fails loudly instead of decoding garbage.

Decoding is *lazy by section*: the term, fact and record tables are each
length-prefixed, so constructing a decoder copies the flat ``int64``
stream (one ``frombytes``) and parses nothing else.  The tables
materialize on first access — the parent of a process-pool run merges
pre-annotated templates and never touches the per-region fact tables or
traces, so the dominant decode cost simply never runs on its critical
path.  Payloads may be ``bytes`` or a ``memoryview`` (a mapped
shared-memory segment); either way nothing references the buffer once
the decoder is constructed, so the segment can be unmapped immediately.
"""

from __future__ import annotations

import json
import pickle
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import (
    RemoteShardError,
    SerializationError,
    ShardExecutionError,
)
from repro.abstract_view.abstract_instance import AbstractInstance, TemplateFact
from repro.chase.incremental import RegionReuseStats
from repro.chase.standard import SnapshotChaseResult
from repro.chase.trace import (
    ChaseTrace,
    EgdStepRecord,
    FailureRecord,
    TgdStepRecord,
)
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.fact import Fact
from repro.relational.instance import Instance
from repro.relational.terms import (
    AnnotatedNull,
    Constant,
    GroundTerm,
    LabeledNull,
    Variable,
)
from repro.serialize.jsonio import setting_from_json, setting_to_json
from repro.temporal.interval import Interval
from repro.temporal.timepoint import INFINITY, Infinity

if TYPE_CHECKING:  # pragma: no cover — import cycle: abstract_chase uses us lazily
    from repro.abstract_view.abstract_chase import ShardReport

__all__ = [
    "ShardTask",
    "ShardOutcome",
    "encode_shard_task",
    "decode_shard_task",
    "encode_shard_outcome",
    "decode_shard_outcome",
    "encode_instance",
    "decode_instance",
    "encode_abstract_instance",
    "decode_abstract_instance",
    "encode_setting",
    "decode_setting",
]

# Bumped whenever a message layout changes.
_MAGIC = b"TDX4"
_BYTEORDER = 0 if sys.byteorder == "little" else 1
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Term tags (term-table entries).
_T_CONST_STR = 0
_T_CONST_INT = 1
_T_CONST_TRUE = 2
_T_CONST_FALSE = 3
_T_CONST_NONE = 4
_T_CONST_FLOAT = 5
_T_CONST_BLOB = 6
_T_CONST_INTERVAL = 7
_T_LABELED_NULL = 8
_T_ANNOTATED_NULL = 9

# Record tags (record-table entries).
_R_TGD = 0
_R_EGD = 1
_R_FAILURE = 2

# Message kinds (first int of the body).
_MSG_TASK = 1
_MSG_OUTCOME = 2
_MSG_INSTANCE = 3
_MSG_ABSTRACT = 4
_MSG_SETTING = 5


# ---------------------------------------------------------------------------
# Task / outcome containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker process needs to chase one region block.

    *templates* is the source restricted to the block's span — a
    template is relevant iff its stamp overlaps the block, because block
    regions are drawn from the canonical partition.
    """

    shard: int
    variant: str
    regions: tuple[Interval, ...]
    templates: tuple[TemplateFact, ...]
    setting: DataExchangeSetting


@dataclass(frozen=True)
class ShardOutcome:
    """One worker's finished block, mirroring the in-process outcome.

    *merged_templates* is the shard's pre-merged contribution to the
    final abstract target (computed in the worker), so the parent's
    merge concatenates instead of re-annotating every fact serially.
    """

    results: tuple[tuple[Interval, SnapshotChaseResult], ...]
    region_reuse: dict[Interval, RegionReuseStats]
    error: ShardExecutionError | None
    report: "ShardReport"
    merged_templates: Sequence[TemplateFact] = ()


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


class _Encoder:
    """Accumulates interned tables plus a body int stream, then assembles."""

    def __init__(self) -> None:
        self.body: list[int] = []
        self._strings: list[str] = []
        self._string_ids: dict[str, int] = {}
        self._floats: list[float] = []
        self._blobs: list[bytes] = []
        self._intervals: list[int] = []
        self._interval_ids: dict[Interval, int] = {}
        self._terms: list[int] = []
        self._term_count = 0
        # Keyed on an identity that distinguishes constant value TYPES:
        # Constant(True) == Constant(1) == Constant(1.0) under Python
        # equality, but collapsing them onto one wire entry would make
        # the decoded output render the first-seen representative —
        # breaking byte-identity with the in-process run.
        self._term_ids: dict[object, int] = {}
        self._facts: list[int] = []
        self._fact_count = 0
        # Same type-distinguishing identity as the term table: facts
        # over equal-but-differently-typed constants must not collapse.
        self._fact_ids: dict[object, int] = {}
        self._records: list[int] = []
        self._record_count = 0
        self._record_ids: dict[int, int] = {}

    # -- tables -------------------------------------------------------------
    def string(self, value: str) -> int:
        found = self._string_ids.get(value)
        if found is None:
            found = len(self._strings)
            self._strings.append(value)
            self._string_ids[value] = found
        return found

    def float_ref(self, value: float) -> int:
        self._floats.append(value)
        return len(self._floats) - 1

    def blob(self, value: bytes) -> int:
        self._blobs.append(value)
        return len(self._blobs) - 1

    def interval(self, value: Interval) -> int:
        found = self._interval_ids.get(value)
        if found is None:
            found = len(self._interval_ids)
            self._interval_ids[value] = found
            end = -1 if isinstance(value.end, Infinity) else value.end
            self._intervals.append(value.start)
            self._intervals.append(end)
        return found

    @staticmethod
    def _term_key(value: GroundTerm) -> object:
        if isinstance(value, Constant):
            return (Constant, value.value.__class__, value.value)
        return value

    def term(self, value: GroundTerm) -> int:
        key = self._term_key(value)
        found = self._term_ids.get(key)
        if found is not None:
            return found
        out = self._terms
        if isinstance(value, Constant):
            inner = value.value
            if isinstance(inner, bool):
                out.append(_T_CONST_TRUE if inner else _T_CONST_FALSE)
            elif isinstance(inner, str):
                out.append(_T_CONST_STR)
                out.append(self.string(inner))
            elif (
                isinstance(inner, int)
                and _INT64_MIN <= inner <= _INT64_MAX
            ):
                out.append(_T_CONST_INT)
                out.append(inner)
            elif inner is None:
                out.append(_T_CONST_NONE)
            elif isinstance(inner, float):
                out.append(_T_CONST_FLOAT)
                out.append(self.float_ref(inner))
            elif isinstance(inner, Interval):
                out.append(_T_CONST_INTERVAL)
                out.append(self.interval(inner))
            else:
                out.append(_T_CONST_BLOB)
                out.append(self.blob(pickle.dumps(inner, protocol=4)))
        elif isinstance(value, LabeledNull):
            out.append(_T_LABELED_NULL)
            out.append(self.string(value.name))
        elif isinstance(value, AnnotatedNull):
            out.append(_T_ANNOTATED_NULL)
            out.append(self.string(value.base))
            out.append(self.interval(value.annotation))
        else:
            raise SerializationError(f"cannot encode term {value!r}")
        found = self._term_count
        self._term_count = found + 1
        self._term_ids[key] = found
        return found

    def fact(self, value: Fact) -> int:
        key = (
            value.relation,
            tuple(self._term_key(arg) for arg in value.args),
        )
        found = self._fact_ids.get(key)
        if found is not None:
            return found
        out = self._facts
        out.append(self.string(value.relation))
        out.append(len(value.args))
        for arg in value.args:
            out.append(self.term(arg))
        found = self._fact_count
        self._fact_count = found + 1
        self._fact_ids[key] = found
        return found

    def record(
        self, value: TgdStepRecord | EgdStepRecord | FailureRecord
    ) -> int:
        # Identity interning: records shared between traces (the
        # incremental replay contract) encode once; TgdStepRecord holds
        # a dict and cannot be value-hashed.
        found = self._record_ids.get(id(value))
        if found is not None:
            return found
        out = self._records
        if isinstance(value, TgdStepRecord):
            out.append(_R_TGD)
            out.append(self.string(value.dependency))
            out.append(len(value.assignment))
            for variable, bound in value.assignment.items():
                out.append(self.string(variable.name))
                out.append(self.term(bound))
            out.append(len(value.added_facts))
            for item in value.added_facts:
                out.append(self.fact(item))
            out.append(len(value.fresh_nulls))
            for null in value.fresh_nulls:
                out.append(self.term(null))
        elif isinstance(value, EgdStepRecord):
            out.append(_R_EGD)
            out.append(self.string(value.dependency))
            out.append(self.term(value.replaced))  # type: ignore[arg-type]
            out.append(self.term(value.replacement))  # type: ignore[arg-type]
        elif isinstance(value, FailureRecord):
            out.append(_R_FAILURE)
            out.append(self.string(value.dependency))
            out.append(self.term(value.left))  # type: ignore[arg-type]
            out.append(self.term(value.right))  # type: ignore[arg-type]
        else:
            raise SerializationError(f"cannot encode trace record {value!r}")
        found = self._record_count
        self._record_count = found + 1
        self._record_ids[id(value)] = found
        return found

    # -- assembly -----------------------------------------------------------
    def assemble(self, kind: int) -> bytes:
        ints: list[int] = [kind]
        ints.append(len(self._interval_ids))
        ints.extend(self._intervals)
        # Terms, facts and records are each length-prefixed so the
        # decoder can skip any of them wholesale and materialize it on
        # first access — the parent of a process-pool run merges
        # pre-annotated templates (terms only) and never reads the
        # per-region fact tables or traces.
        ints.append(self._term_count)
        ints.append(len(self._terms))
        ints.extend(self._terms)
        ints.append(self._fact_count)
        ints.append(len(self._facts))
        ints.extend(self._facts)
        ints.append(self._record_count)
        ints.append(len(self._records))
        ints.extend(self._records)
        ints.extend(self.body)

        pieces: list[bytes] = [_MAGIC, bytes([_BYTEORDER])]
        strings_blob = bytearray()
        strings_blob += struct.pack("<I", len(self._strings))
        for value in self._strings:
            raw = value.encode("utf-8")
            strings_blob += struct.pack("<I", len(raw))
            strings_blob += raw
        pieces.append(struct.pack("<Q", len(strings_blob)))
        pieces.append(bytes(strings_blob))

        blobs_blob = bytearray()
        blobs_blob += struct.pack("<I", len(self._blobs))
        for raw in self._blobs:
            blobs_blob += struct.pack("<I", len(raw))
            blobs_blob += raw
        pieces.append(struct.pack("<Q", len(blobs_blob)))
        pieces.append(bytes(blobs_blob))

        floats_raw = array("d", self._floats).tobytes()
        pieces.append(struct.pack("<Q", len(self._floats)))
        pieces.append(floats_raw)

        ints_raw = array("q", ints).tobytes()
        pieces.append(struct.pack("<Q", len(ints)))
        pieces.append(ints_raw)
        return b"".join(pieces)


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


class _Decoder:
    """Copies the payload's flat sections, then decodes tables lazily.

    *payload* may be ``bytes`` or any buffer (e.g. the ``memoryview`` of
    a mapped shared-memory segment): construction copies the side
    sections and the ``int64`` stream out of the buffer and keeps no
    reference to it, so a segment can be closed as soon as the decoder
    exists.  The term, fact and record tables decode on first property
    access; everything the parent's merge reads (intervals, body ints,
    strings) is available without touching them.
    """

    def __init__(
        self, payload: bytes | memoryview, expected_kind: int
    ) -> None:
        if bytes(payload[:4]) != _MAGIC:
            raise SerializationError(
                "not a shard-codec payload (bad magic header)"
            )
        if payload[4] != _BYTEORDER:
            raise SerializationError(
                "shard-codec payload was encoded on a machine with a "
                "different byte order"
            )
        offset = 5
        try:
            (strings_len,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            self.strings = self._parse_strings(payload, offset)
            offset += strings_len
            (blobs_len,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            self.blobs = self._parse_blobs(payload, offset)
            offset += blobs_len
            (float_count,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            floats = array("d")
            floats.frombytes(payload[offset : offset + 8 * float_count])
            self.floats = floats
            offset += 8 * float_count
            (int_count,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            ints = array("q")
            ints.frombytes(payload[offset : offset + 8 * int_count])
        except (struct.error, ValueError) as exc:
            raise SerializationError(
                f"truncated shard-codec payload: {exc}"
            ) from exc
        self.ints = ints
        self.pos = 0
        kind = self.read()
        if kind != expected_kind:
            raise SerializationError(
                f"expected shard-codec message kind {expected_kind}, "
                f"got {kind}"
            )
        self._variables: dict[str, Variable] = {}
        self.intervals = self._decode_intervals()
        # Skip the three length-prefixed table sections; each
        # materializes on first access of its property.
        self._term_table: list[GroundTerm] | None = None
        self._term_header = self.pos
        self.pos += 2 + self.ints[self.pos + 1]
        self._fact_table: list[Fact] | None = None
        self._fact_header = self.pos
        self.pos += 2 + self.ints[self.pos + 1]
        self._record_table: (
            list[TgdStepRecord | EgdStepRecord | FailureRecord] | None
        ) = None
        self._record_header = self.pos
        self.pos += 2 + self.ints[self.pos + 1]

    @staticmethod
    def _parse_strings(payload: bytes | memoryview, offset: int) -> list[str]:
        (count,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        out: list[str] = []
        for _ in range(count):
            (length,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            out.append(str(payload[offset : offset + length], "utf-8"))
            offset += length
        return out

    @staticmethod
    def _parse_blobs(payload: bytes | memoryview, offset: int) -> list[bytes]:
        (count,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        out: list[bytes] = []
        for _ in range(count):
            (length,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            out.append(bytes(payload[offset : offset + length]))
            offset += length
        return out

    def read(self) -> int:
        value = self.ints[self.pos]
        self.pos += 1
        return value

    def read_many(self, count: int) -> array:
        end = self.pos + count
        chunk = self.ints[self.pos : end]
        self.pos = end
        return chunk

    def string(self) -> str:
        return self.strings[self.read()]

    def variable(self, name: str) -> Variable:
        found = self._variables.get(name)
        if found is None:
            found = Variable(name)
            self._variables[name] = found
        return found

    def _decode_intervals(self) -> list[Interval]:
        count = self.read()
        out: list[Interval] = []
        for _ in range(count):
            start = self.read()
            end = self.read()
            out.append(Interval(start, INFINITY if end < 0 else end))
        return out

    @property
    def terms(self) -> list[GroundTerm]:
        found = self._term_table
        if found is None:
            saved = self.pos
            self.pos = self._term_header
            found = self._decode_terms()
            self._term_table = found
            self.pos = saved
        return found

    @property
    def facts(self) -> list[Fact]:
        found = self._fact_table
        if found is None:
            saved = self.pos
            self.pos = self._fact_header
            found = self._decode_facts()
            self._fact_table = found
            self.pos = saved
        return found

    def _decode_terms(self) -> list[GroundTerm]:
        count = self.read()
        self.read()  # section length, used by the lazy skip
        out: list[GroundTerm] = []
        strings = self.strings
        for _ in range(count):
            tag = self.read()
            if tag == _T_CONST_STR:
                out.append(Constant(strings[self.read()]))
            elif tag == _T_CONST_INT:
                out.append(Constant(self.read()))
            elif tag == _T_CONST_TRUE:
                out.append(Constant(True))
            elif tag == _T_CONST_FALSE:
                out.append(Constant(False))
            elif tag == _T_CONST_NONE:
                out.append(Constant(None))
            elif tag == _T_CONST_FLOAT:
                out.append(Constant(self.floats[self.read()]))
            elif tag == _T_CONST_BLOB:
                out.append(Constant(pickle.loads(self.blobs[self.read()])))
            elif tag == _T_CONST_INTERVAL:
                out.append(Constant(self.intervals[self.read()]))
            elif tag == _T_LABELED_NULL:
                out.append(LabeledNull(strings[self.read()]))
            elif tag == _T_ANNOTATED_NULL:
                base = strings[self.read()]
                out.append(AnnotatedNull(base, self.intervals[self.read()]))
            else:
                raise SerializationError(f"unknown term tag {tag}")
        return out

    def _decode_facts(self) -> list[Fact]:
        count = self.read()
        self.read()  # section length, used by the lazy skip
        out: list[Fact] = []
        strings = self.strings
        terms = self.terms
        for _ in range(count):
            relation = strings[self.read()]
            arity = self.read()
            args = tuple(terms[ref] for ref in self.read_many(arity))
            # Trusted: table terms are ground by construction.
            out.append(Fact.make(relation, args))
        return out

    @property
    def records(self) -> list[TgdStepRecord | EgdStepRecord | FailureRecord]:
        found = self._record_table
        if found is None:
            saved = self.pos
            self.pos = self._record_header
            found = self._decode_records()
            self._record_table = found
            self.pos = saved
        return found

    def _decode_records(
        self,
    ) -> list[TgdStepRecord | EgdStepRecord | FailureRecord]:
        count = self.read()
        self.read()  # section length, used by the lazy skip
        out: list[TgdStepRecord | EgdStepRecord | FailureRecord] = []
        strings = self.strings
        terms = self.terms
        facts = self.facts
        for _ in range(count):
            tag = self.read()
            dependency = strings[self.read()]
            if tag == _R_TGD:
                assignment: dict[Variable, GroundTerm] = {}
                for _ in range(self.read()):
                    name = strings[self.read()]
                    assignment[self.variable(name)] = terms[self.read()]
                added = tuple(
                    facts[ref] for ref in self.read_many(self.read())
                )
                fresh = tuple(
                    terms[ref] for ref in self.read_many(self.read())
                )
                out.append(
                    TgdStepRecord(
                        dependency=dependency,
                        assignment=assignment,
                        added_facts=added,
                        fresh_nulls=fresh,
                    )
                )
            elif tag == _R_EGD:
                out.append(
                    EgdStepRecord(
                        dependency, terms[self.read()], terms[self.read()]
                    )
                )
            elif tag == _R_FAILURE:
                out.append(
                    FailureRecord(
                        dependency, terms[self.read()], terms[self.read()]
                    )
                )
            else:
                raise SerializationError(f"unknown record tag {tag}")
        return out


class _WireTrace(ChaseTrace):
    """A :class:`ChaseTrace` whose steps decode from the wire lazily.

    The parent's merge never reads traces, so a decoded shard outcome
    keeps only the step *references* plus a handle on the payload's
    decoder; the records materialize on first access of ``steps`` (CLI
    ``--trace``, tests, debugging).  Holding the decoder pins the
    payload's tables in memory — the price of not paying the dominant
    record-decode cost on every chase.
    """

    def __init__(self, decoder: _Decoder, refs: Sequence[int]) -> None:
        self._decoder = decoder
        self._refs = refs
        self._materialized: list | None = None

    @property
    def steps(self):  # type: ignore[override]
        found = self._materialized
        if found is None:
            records = self._decoder.records
            found = [records[ref] for ref in self._refs]
            self._materialized = found
        return found

    @steps.setter
    def steps(self, value) -> None:
        self._materialized = list(value)

    def __reduce__(self):
        return (ChaseTrace, (list(self.steps),))


class _WireSnapshotResult(SnapshotChaseResult):
    """A region result whose target instance decodes from the wire lazily.

    The parent of a process-pool run merges the worker's pre-annotated
    templates and stores region results purely for inspection, so
    decoding every region's fact table into an :class:`Instance` on the
    critical path is wasted work.  This subclass keeps only the fact
    *references* plus the payload's decoder; the target materializes on
    first ``target`` access (tests, CLI diagnostics, failure analysis).
    """

    def __init__(
        self,
        decoder: _Decoder,
        fact_refs: Sequence[int],
        failed: bool,
        failure: FailureRecord | None,
        trace: ChaseTrace,
    ) -> None:
        self._decoder = decoder
        self._refs = fact_refs
        self._target: Instance | None = None
        self.failed = failed
        self.failure = failure
        self.trace = trace

    @property
    def target(self) -> Instance:  # type: ignore[override]
        found = self._target
        if found is None:
            facts = self._decoder.facts
            found = _rebuild_instance(facts[ref] for ref in self._refs)
            self._target = found
        return found

    @target.setter
    def target(self, value: Instance) -> None:
        self._target = value

    def __reduce__(self):
        return (
            SnapshotChaseResult,
            (self.target, self.failed, self.failure, ChaseTrace(list(self.trace.steps))),
        )


def _rebuild_instance(facts: Iterable[Fact]) -> Instance:
    """An :class:`Instance` from decoded table facts, bypassing ``add``.

    Wire facts are unique by construction (the fact table is interned),
    so the per-fact membership/bookkeeping of ``Instance.add`` is pure
    overhead on the parent's critical path; group and install the
    buckets directly through the pickling restore path.
    """
    groups: dict[str, set[Fact]] = {}
    for item in facts:
        bucket = groups.get(item.relation)
        if bucket is None:
            bucket = set()
            groups[item.relation] = bucket
        bucket.add(item)
    instance = Instance.__new__(Instance)
    instance.__setstate__((None, tuple(groups.items())))
    return instance


# ---------------------------------------------------------------------------
# Shared fragments
# ---------------------------------------------------------------------------


def _encode_setting(enc: _Encoder, setting: DataExchangeSetting) -> int:
    return enc.string(json.dumps(setting_to_json(setting), sort_keys=True))


def _decode_setting(dec: _Decoder) -> DataExchangeSetting:
    try:
        return setting_from_json(json.loads(dec.string()))
    except (json.JSONDecodeError, SerializationError) as exc:
        raise SerializationError(
            f"embedded exchange setting failed to decode: {exc}"
        ) from exc


def _encode_reuse(enc: _Encoder, stats: RegionReuseStats) -> None:
    enc.body.extend(
        (
            stats.replayed_matches,
            stats.live_matches,
            stats.replayed_firings,
            stats.live_firings,
            stats.streams_reused,
            stats.streams_patched,
            stats.streams_rebuilt,
        )
    )


def _decode_reuse(dec: _Decoder) -> RegionReuseStats:
    return RegionReuseStats(
        replayed_matches=dec.read(),
        live_matches=dec.read(),
        replayed_firings=dec.read(),
        live_firings=dec.read(),
        streams_reused=dec.read(),
        streams_patched=dec.read(),
        streams_rebuilt=dec.read(),
    )


def _encode_templates(
    enc: _Encoder, templates: Sequence[TemplateFact]
) -> None:
    enc.body.append(len(templates))
    for template in templates:
        enc.body.append(enc.string(template.relation))
        enc.body.append(enc.interval(template.interval))
        enc.body.append(len(template.args))
        for arg in template.args:
            enc.body.append(enc.term(arg))


def _decode_templates(dec: _Decoder) -> tuple[TemplateFact, ...]:
    ints = dec.ints
    pos = dec.pos
    count = ints[pos]
    pos += 1
    strings = dec.strings
    intervals = dec.intervals
    terms = dec.terms
    make = TemplateFact.make
    out: list[TemplateFact] = []
    append = out.append
    for _ in range(count):
        relation = strings[ints[pos]]
        interval = intervals[ints[pos + 1]]
        arity = ints[pos + 2]
        stop = pos + 3 + arity
        args = tuple(terms[ref] for ref in ints[pos + 3 : stop])
        pos = stop
        # Trusted: encoded from validated templates, so annotated nulls
        # carry the template interval and rigid null names are '@'-free.
        append(make(relation, args, interval))
    dec.pos = pos
    return tuple(out)


class _WireTemplates(Sequence[TemplateFact]):
    """Merged-template section of an outcome, decoded on first access.

    The merged templates are the *last* body section, so deferring them
    is a matter of remembering where the section starts.  The parent's
    merge keeps these around as opaque pieces; a run whose caller never
    touches the final instance's template set (serialization round
    trips, sampling, failure paths) skips the dominant decode cost —
    each shard contributes tens of thousands of templates.
    """

    __slots__ = ("_decoder", "_start", "_cache")

    def __init__(self, decoder: _Decoder, start: int):
        self._decoder = decoder
        self._start = start
        self._cache: tuple[TemplateFact, ...] | None = None

    def _materialize(self) -> tuple[TemplateFact, ...]:
        found = self._cache
        if found is None:
            dec = self._decoder
            saved = dec.pos
            dec.pos = self._start
            try:
                found = _decode_templates(dec)
            finally:
                dec.pos = saved
            self._cache = found
            self._decoder = None
        return found

    def __iter__(self) -> Iterator[TemplateFact]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return self._decoder.ints[self._start] if self._cache is None else len(self._cache)

    def __getitem__(self, index):  # pragma: no cover — Sequence protocol
        return self._materialize()[index]

    def __reduce__(self):
        return (tuple, (self._materialize(),))


# ---------------------------------------------------------------------------
# Public message API
# ---------------------------------------------------------------------------


def encode_shard_task(task: ShardTask) -> bytes:
    enc = _Encoder()
    body = enc.body
    body.append(task.shard)
    body.append(enc.string(task.variant))
    body.append(_encode_setting(enc, task.setting))
    body.append(len(task.regions))
    for region in task.regions:
        body.append(enc.interval(region))
    _encode_templates(enc, task.templates)
    return enc.assemble(_MSG_TASK)


def decode_shard_task(payload: bytes | memoryview) -> ShardTask:
    dec = _Decoder(payload, _MSG_TASK)
    shard = dec.read()
    variant = dec.string()
    setting = _decode_setting(dec)
    regions = tuple(
        dec.intervals[ref] for ref in dec.read_many(dec.read())
    )
    templates = _decode_templates(dec)
    return ShardTask(
        shard=shard,
        variant=variant,
        regions=regions,
        templates=templates,
        setting=setting,
    )


def encode_shard_outcome(outcome: ShardOutcome) -> bytes:
    enc = _Encoder()
    body = enc.body

    error = outcome.error
    if error is None:
        body.append(0)
    else:
        body.append(1)
        body.append(error.shard)
        body.append(
            enc.interval(error.region) if error.region is not None else -1
        )
        cause = error.__cause__
        if isinstance(cause, RemoteShardError):
            body.append(enc.string(cause.exc_type))
            body.append(enc.string(cause.message))
        else:
            body.append(enc.string(type(cause).__name__))
            body.append(enc.string(str(cause)))

    report = outcome.report
    body.append(report.shard)
    body.append(report.regions)
    body.append(enc.float_ref(report.seconds))
    if report.reuse is None:
        body.append(0)
    else:
        body.append(1)
        _encode_reuse(enc, report.reuse)

    body.append(len(outcome.region_reuse))
    for region, stats in outcome.region_reuse.items():
        body.append(enc.interval(region))
        _encode_reuse(enc, stats)

    body.append(len(outcome.results))
    for region, result in outcome.results:
        body.append(enc.interval(region))
        body.append(1 if result.failed else 0)
        if result.failed:
            assert result.failure is not None
            body.append(enc.record(result.failure))
        # Set iteration order: payload bytes are process-local anyway,
        # and sort keys for every target fact are pure overhead.
        target_facts = result.target.facts()
        body.append(len(target_facts))
        for item in target_facts:
            body.append(enc.fact(item))
        body.append(len(result.trace.steps))
        for step in result.trace.steps:
            body.append(enc.record(step))
    _encode_templates(enc, outcome.merged_templates)
    return enc.assemble(_MSG_OUTCOME)


def decode_shard_outcome(payload: bytes | memoryview) -> ShardOutcome:
    from repro.abstract_view.abstract_chase import ShardReport

    dec = _Decoder(payload, _MSG_OUTCOME)

    error: ShardExecutionError | None = None
    if dec.read():
        shard = dec.read()
        region_ref = dec.read()
        region = dec.intervals[region_ref] if region_ref >= 0 else None
        cause = RemoteShardError(dec.string(), dec.string())
        error = ShardExecutionError(shard, region, cause)

    report_shard = dec.read()
    report_regions = dec.read()
    report_seconds = dec.floats[dec.read()]
    report_reuse = _decode_reuse(dec) if dec.read() else None
    report = ShardReport(
        shard=report_shard,
        regions=report_regions,
        seconds=report_seconds,
        reuse=report_reuse,
        remote=True,
    )

    region_reuse: dict[Interval, RegionReuseStats] = {}
    for _ in range(dec.read()):
        region = dec.intervals[dec.read()]
        region_reuse[region] = _decode_reuse(dec)

    results: list[tuple[Interval, SnapshotChaseResult]] = []
    for _ in range(dec.read()):
        region = dec.intervals[dec.read()]
        failed = bool(dec.read())
        failure = None
        if failed:
            failure = dec.records[dec.read()]
            if not isinstance(failure, FailureRecord):
                raise SerializationError(
                    "shard outcome failure record has the wrong type"
                )
        fact_refs = dec.read_many(dec.read())
        trace = _WireTrace(dec, dec.read_many(dec.read()))
        results.append(
            (
                region,
                _WireSnapshotResult(dec, fact_refs, failed, failure, trace),
            )
        )
    return ShardOutcome(
        results=tuple(results),
        region_reuse=region_reuse,
        error=error,
        report=report,
        merged_templates=_WireTemplates(dec, dec.pos),
    )


# -- standalone value messages (tests, tooling) ------------------------------


def encode_instance(instance: Instance) -> bytes:
    """One relational instance as a standalone payload (schema-free)."""
    enc = _Encoder()
    facts = sorted(instance.facts(), key=Fact.sort_key)
    enc.body.append(len(facts))
    for item in facts:
        enc.body.append(enc.fact(item))
    return enc.assemble(_MSG_INSTANCE)


def decode_instance(payload: bytes) -> Instance:
    dec = _Decoder(payload, _MSG_INSTANCE)
    instance = Instance()
    for ref in dec.read_many(dec.read()):
        instance.add(dec.facts[ref])
    return instance


def encode_abstract_instance(instance: AbstractInstance) -> bytes:
    """An abstract instance (region snapshot source) as a payload."""
    enc = _Encoder()
    _encode_templates(
        enc, sorted(instance.templates, key=TemplateFact.sort_key)
    )
    return enc.assemble(_MSG_ABSTRACT)


def decode_abstract_instance(payload: bytes) -> AbstractInstance:
    dec = _Decoder(payload, _MSG_ABSTRACT)
    return AbstractInstance(_decode_templates(dec))


def encode_setting(setting: DataExchangeSetting) -> bytes:
    enc = _Encoder()
    enc.body.append(_encode_setting(enc, setting))
    return enc.assemble(_MSG_SETTING)


def decode_setting(payload: bytes) -> DataExchangeSetting:
    dec = _Decoder(payload, _MSG_SETTING)
    return _decode_setting(dec)
