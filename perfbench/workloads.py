"""The four named workloads: inputs from a seed, set-up, timed loop, oracle.

Every workload runs against ``exchange_setting_org()`` and drives the
daemon from one :class:`~harness.Loop`.  The daemon only ever sees the
generated inputs.  Output checks run between timed requests, never
inside one; a failed check is recorded like a non-2xx reply.

* ``delta_churn``: one-fact ``/delta``s on a people=256 org history,
  alternating "add the next held-out fact" and "remove the next base
  fact", so the cumulative source never repeats.
* ``event_stream``: each pass posts a fresh ``org_event_stream`` to a
  fresh empty session in late-arrival batches of about 64 events.
* ``query_mix``: three queries in a fixed cycle against a delta_churn
  sized session, with one distinct one-fact ``/delta`` every 20 queries.
* ``cold_exchange``: ``POST /sessions`` with fresh sources (every fourth
  a recreate of a recent one), one pooled 2-shard ``/abstract`` per
  fresh session, then ``DELETE``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from harness import Loop
from repro.abstract_view import abstract_chase, semantics
from repro.concrete import c_chase
from repro.concrete.concrete_instance import ConcreteInstance
from repro.deltas import SourceDelta
from repro.events import EventLog
from repro.query import ConjunctiveQuery
from repro.query.naive_eval import naive_evaluate_concrete
from repro.relational.terms import term_sort_key
from repro.serialize import concrete_instance_to_json, setting_to_json
from repro.serialize.jsonio import term_to_json
from repro.workloads import (
    exchange_setting_org,
    late_arrival_batches,
    org_event_mapping,
    org_event_stream,
    random_org_history,
)

SETTING = exchange_setting_org()
SETTING_JSON = setting_to_json(SETTING)

PEOPLE = 256
TIMELINE = 128
HELD_OUT = 64
# Half delta_churn's people: a run then holds about twenty whole passes,
# so its batch-latency mix does not hang on the few streams one seed draws.
EVENT_PEOPLE = 128
EVENT_TIMELINE = 64
# A fixed batch count (about 60 events each, near `repro ingest --follow`'s
# 64) keeps every pass's latency profile the same shape.
EVENT_BATCHES = 12
QUERIES = (
    "answer(e, m) :- Reports(e, m)",
    "answer(e, t) :- Log(e, t, s)",
    "answer(e, f) :- Reports(e, m) & Reports(f, m)",
)
QUERIES_PER_DELTA = 20
# Half delta_churn's people, for more create/abstract cycles per run: about
# 50-60 in 24 s, still short of the 100 a p90 with ten samples beyond it needs.
COLD_PEOPLE = 128
SHARDS = 2
RECREATE_EVERY = 4
RECREATE_WINDOW = 16


def _derive(seed: int, *parts: int) -> int:
    """A generator seed for one part of a workload (stable across runs)."""
    value = seed
    for part in parts:
        value = value * 1_000_003 + part
    return value % (2**31)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _fact_keys(instance_json: dict) -> set[str]:
    return {_canonical(item) for item in instance_json["facts"]}


def answers_json(query_text: str, target: ConcreteInstance) -> list[dict]:
    """In-process certain answers, encoded as the server encodes them."""
    answers = naive_evaluate_concrete(ConjunctiveQuery.parse(query_text), target).to_temporal()
    rows = sorted(answers, key=lambda item: tuple(term_sort_key(v) for v in item[0]))
    return [
        {"row": [term_to_json(value) for value in row], "support": str(support)}
        for row, support in rows
    ]


@dataclass
class Outcome:
    """What a timed loop measured, beyond the per-request records."""

    latencies: list[float] = field(default_factory=list)
    items: int = 0
    busy_ms: float = 0.0
    checks: int = 0
    mismatches: list[str] = field(default_factory=list)
    passes: list[list[int]] = field(default_factory=list)
    abstract: list[dict] = field(default_factory=list)
    queries: list[dict] = field(default_factory=list)

    def add(self, ms: float, items: int = 1) -> None:
        self.latencies.append(ms)
        self.items += items
        self.busy_ms += ms

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.mismatches.append(what)


# ---------------------------------------------------------------------------
# delta_churn and query_mix: churned sessions
# ---------------------------------------------------------------------------


@dataclass
class Churn:
    """One org-history session and its never-repeating one-fact deltas."""

    name: str
    source: ConcreteInstance
    steps: list[SourceDelta]
    source_json: dict
    target_keys: set[str]

    @classmethod
    def generate(cls, name: str, seed: int) -> "Churn":
        facts = list(random_org_history(PEOPLE, TIMELINE, seed=seed).instance)
        rng = random.Random(seed)
        # Where a fact sits in the canonical order sets how many of the
        # target's nulls a change renumbers, so how big the diff is.  One
        # held-out and one removed fact per stratum of that order, the
        # strata visited in bit-reversed order, make every prefix of the
        # deltas spread evenly over it: seeds then differ little in cost.
        stride = len(facts) // HELD_OUT
        bits = HELD_OUT.bit_length() - 1
        held, removals = [], []
        for index in range(HELD_OUT):
            stratum = int(f"{index:0{bits}b}"[::-1], 2) * stride
            first, second = rng.sample(range(stride), 2)
            held.append(facts[stratum + first])
            removals.append(facts[stratum + second])
        steps = []
        for added, removed in zip(held, removals):
            steps.append(SourceDelta(add=(added,)))
            steps.append(SourceDelta(remove=(removed,)))
        kept = set(facts) - set(held)
        source = ConcreteInstance(item for item in facts if item in kept)
        target = concrete_instance_to_json(c_chase(source, SETTING).target)
        return cls(name, source, steps, concrete_instance_to_json(source), _fact_keys(target))


class Churns:
    """Successive churned sessions of one stream; a new one when one runs dry."""

    def __init__(self, prefix: str, seed: int):
        self.prefix = prefix
        self.seed = seed
        self.rounds = [Churn.generate(f"{prefix}0", seed)]

    def round(self, number: int) -> Churn:
        while len(self.rounds) <= number:
            index = len(self.rounds)
            self.rounds.append(
                Churn.generate(f"{self.prefix}{index}", _derive(self.seed, index))
            )
        return self.rounds[number]


class ChurnState:
    """The client's view of one live churned session."""

    def __init__(self, churns: Churns, number: int = 0):
        self.churns = churns
        self.number = number
        self.churn = churns.round(number)
        self.source = self.churn.source.copy()
        self.served = set(self.churn.target_keys)
        self.position = 0

    def delta(self, loop: Loop, outcome: Outcome | None) -> bool:
        """Send the next delta; track the source and the served target."""
        step = self.churn.steps[self.position]
        self.position += 1
        fields = {"delta": step.to_json()}
        path = f"/sessions/{self.churn.name}/delta"
        if outcome is None:
            reply = loop.client.post(path, fields)
        else:
            reply = loop.timed("delta", "POST", path, fields)
            if reply is None:
                return False
            outcome.add(loop.requests[-1].ms)
        step.apply(self.source)
        removed = {_canonical(item) for item in reply["diff"]["remove"]}
        added = {_canonical(item) for item in reply["diff"]["add"]}
        consistent = removed <= self.served and not (added & (self.served - removed))
        self.served = (self.served - removed) | added
        if outcome is not None:
            outcome.check(consistent, f"{self.churn.name} delta {self.position}: "
                                      "diff does not apply to the served target")
        return True

    def verify(self, loop: Loop, outcome: Outcome) -> ConcreteInstance:
        """Served target ≡ accumulated diffs ≡ cold chase of the cumulative source."""
        cold = c_chase(self.source, SETTING).target
        expected = concrete_instance_to_json(cold)
        where = f"{self.churn.name}@{self.position}"
        served = loop.client.target(self.churn.name)
        outcome.check(_canonical(served) == _canonical(expected),
                      f"{where}: served target differs from a cold chase")
        outcome.check(self.served == _fact_keys(expected),
                      f"{where}: accumulated diffs differ from a cold chase")
        return cold

    def next_round(self, loop: Loop, outcome: Outcome) -> "ChurnState":
        """Check, evict, and continue on the next session of the stream."""
        self.verify(loop, outcome)
        loop.client.evict(self.churn.name)
        state = ChurnState(self.churns, self.number + 1)
        loop.untimed_create(state.churn.name, SETTING_JSON, state.churn.source_json)
        return state

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.churn.steps)


class DeltaChurn:
    name = "delta_churn"
    WARMUP = 4
    CHECK_EVERY = 16

    def __init__(self, seed: int):
        self.churns = Churns("churn", _derive(seed, 1))

    def setup(self, loop: Loop) -> ChurnState:
        state = ChurnState(self.churns)
        loop.client.create(state.churn.name, SETTING_JSON, state.churn.source_json)
        for _ in range(self.WARMUP):
            state.delta(loop, None)
        return state

    def run(self, loop: Loop, state: ChurnState, deadline: float) -> Outcome:
        outcome = Outcome()
        while time.monotonic() < deadline:
            if state.exhausted:
                state = state.next_round(loop, outcome)
            if not state.delta(loop, outcome):
                break
            if state.position % self.CHECK_EVERY == 0:
                state.verify(loop, outcome)
        state.verify(loop, outcome)
        return outcome


class QueryMix:
    name = "query_mix"

    def __init__(self, seed: int):
        self.churns = Churns("mix", _derive(seed, 3))

    def setup(self, loop: Loop) -> ChurnState:
        state = ChurnState(self.churns)
        loop.client.create(state.churn.name, SETTING_JSON, state.churn.source_json)
        for text in QUERIES:
            loop.client.query(state.churn.name, text)
        state.delta(loop, None)
        return state

    @staticmethod
    def _expected(state: ChurnState, loop: Loop, outcome: Outcome) -> dict[str, list]:
        cold = state.verify(loop, outcome)
        return {text: answers_json(text, cold) for text in QUERIES}

    def run(self, loop: Loop, state: ChurnState, deadline: float) -> Outcome:
        outcome = Outcome()
        expected = self._expected(state, loop, outcome)
        sent = 0
        while time.monotonic() < deadline:
            text = QUERIES[sent % len(QUERIES)]
            path = f"/sessions/{state.churn.name}/query"
            reply = loop.timed("query", "POST", path, {"query": text})
            if reply is None:
                break
            outcome.add(loop.requests[-1].ms)
            outcome.queries.append({"replayed": reply["replayed"], "evaluated": reply["evaluated"]})
            outcome.check(reply["answers"] == expected[text],
                          f"{state.churn.name} query {sent}: answers differ from in-process")
            sent += 1
            if sent % QUERIES_PER_DELTA == 0:
                if state.exhausted:
                    state = state.next_round(loop, outcome)
                if not state.delta(loop, outcome):
                    break
                expected = self._expected(state, loop, outcome)
        return outcome


# ---------------------------------------------------------------------------
# event_stream
# ---------------------------------------------------------------------------


@dataclass
class EventPass:
    batches: list[list[dict]]
    expected: str

    @classmethod
    def generate(cls, seed: int) -> "EventPass":
        events = org_event_stream(EVENT_PEOPLE, EVENT_TIMELINE, seed=seed)
        batches = late_arrival_batches(events, batches=EVENT_BATCHES, seed=seed)
        log = EventLog(org_event_mapping())
        for batch in batches:
            log.ingest(batch)
        cold = c_chase(log.snapshot_at(None), SETTING).target
        return cls(batches, _canonical(concrete_instance_to_json(cold)))


class EventStream:
    name = "event_stream"
    WARMUP_BATCHES = 4

    def __init__(self, seed: int):
        self.seed = _derive(seed, 2)
        self.mapping = org_event_mapping().to_json()
        self.warmup = EventPass.generate(_derive(self.seed, 0))
        self.passes = [EventPass.generate(_derive(self.seed, 1))]

    def setup(self, loop: Loop) -> None:
        loop.client.create("warmup", SETTING_JSON, {"facts": []})
        for number, batch in enumerate(self.warmup.batches[: self.WARMUP_BATCHES]):
            loop.client.events("warmup", batch, mapping=self.mapping if number == 0 else None)
        loop.client.evict("warmup")

    def run(self, loop: Loop, state: None, deadline: float) -> Outcome:
        outcome = Outcome()
        number = 0
        # Whole passes only: a pass's batches grow costlier as its log
        # grows, so a cut-off pass would skew the latency mix.
        while time.monotonic() < deadline:
            if number == len(self.passes):
                self.passes.append(EventPass.generate(_derive(self.seed, number + 1)))
            current = self.passes[number]
            name = f"events{number}"
            # Every pass's empty create chases the same empty source, so
            # it is a cache hit from the second pass on: it resets the
            # session and is neither an op nor counted in the hit ratio.
            loop.untimed_create(name, SETTING_JSON, {"facts": []})
            tags = []
            reply = None
            for index, batch in enumerate(current.batches):
                fields = {"events": batch}
                if index == 0:
                    fields["mapping"] = self.mapping
                reply = loop.timed("events", "POST", f"/sessions/{name}/events",
                                   fields)
                if reply is None:
                    return outcome
                outcome.add(loop.requests[-1].ms, items=len(batch))
                tags.append(loop.requests[-1].tag)
            outcome.passes.append(tags)
            pending = reply["ingest"]["pending"]
            outcome.check(pending == 0, f"pass {number}: {pending} events still pending")
            outcome.check(_canonical(loop.client.target(name)) == current.expected,
                          f"pass {number}: served target differs from a cold chase of the log")
            loop.client.evict(name)
            number += 1
        return outcome


# ---------------------------------------------------------------------------
# cold_exchange
# ---------------------------------------------------------------------------


class ColdExchange:
    name = "cold_exchange"

    def __init__(self, seed: int):
        self.seed = _derive(seed, 4)
        self.warmup = self._source(0)

    def _source(self, index: int) -> tuple[ConcreteInstance, dict]:
        history = random_org_history(COLD_PEOPLE, TIMELINE, seed=_derive(self.seed, index))
        return history.instance, concrete_instance_to_json(history.instance)

    def setup(self, loop: Loop) -> None:
        loop.client.create("warmup", SETTING_JSON, self.warmup[1])
        loop.client.abstract("warmup", shards=SHARDS, executor="processes")
        loop.client.evict("warmup")

    def run(self, loop: Loop, state: None, deadline: float) -> Outcome:
        outcome = Outcome()
        rng = random.Random(self.seed)
        recent: list[tuple[int, tuple[ConcreteInstance, dict]]] = []
        created = fresh = 0
        while time.monotonic() < deadline:
            created += 1
            window = [item for number, item in recent if created - number < RECREATE_WINDOW]
            recreate = created % RECREATE_EVERY == 0 and bool(window)
            if recreate:
                source = rng.choice(window)
            else:
                fresh += 1
                source = self._source(fresh)
                recent.append((created, source))
            name = f"cold{created}"
            first = len(loop.requests)
            fields = {"name": name, "setting": SETTING_JSON, "source": source[1]}
            if loop.timed("recreate" if recreate else "create", "POST", "/sessions",
                          fields) is None:
                break
            reply = None
            if not recreate:
                reply = loop.timed("abstract", "POST", f"/sessions/{name}/abstract",
                                   {"shards": SHARDS, "executor": "processes"})
                if reply is None:
                    break
                outcome.abstract.append(reply)
            if loop.timed("evict", "DELETE", f"/sessions/{name}", None) is None:
                break
            outcome.add(sum(item.ms for item in loop.requests[first:]))
            if reply is not None:
                expected = abstract_chase(semantics(source[0]), SETTING,
                                          shards=SHARDS, executor="serial")
                totals = expected.reuse_totals()
                counts = (len(expected.region_results), len(expected.unwrap().templates),
                          totals.replayed_matches, totals.live_matches)
                served = (reply["regions"], reply["templates"],
                          reply["replayed_matches"], reply["live_matches"])
                outcome.check(served == counts,
                              f"{name}: /abstract counts {served} != in-process {counts}")
        return outcome


WORKLOADS = {
    cls.name: cls for cls in (DeltaChurn, EventStream, QueryMix, ColdExchange)
}
