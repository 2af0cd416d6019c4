"""Indexed evaluation of (unions of) conjunctive queries.

A literal transcription of Section 5 re-enumerates full instances on
every call: the abstract route materializes a fresh snapshot per region,
and the concrete four-step route copies the whole solution twice per
disjunct (normalization and null-freezing) before a dict-per-match
homomorphism walk.  This module gives query answering the machinery the
chase already has:

* **plan probing** — disjunct bodies compile to the flat written-order
  join plans of :mod:`repro.relational.homomorphism`
  (:func:`_flat_join_plan` / :func:`_iter_flat_join_rows`), so head
  tuples project straight off the matched facts via the plan's
  ``slot_of`` map, with no assignment dicts; shapes the flat join cannot
  handle (constants, repeated variables within an atom) fall back to the
  cardinality-driven index search with the live-dict ``copy=False`` mode;
* **one live swept instance** for abstract evaluation — templates enter
  and leave a single :class:`~repro.relational.instance.Instance` whose
  ``(position, value)`` indexes stay warm across regions, and per-region
  answers are maintained by *counting* matches touched by the region's
  fact delta (the semi-naive anchor decomposition of
  :func:`iter_egd_equations_delta`) instead of re-evaluating from
  scratch;
* **no freezing** on the concrete route — interval-annotated nulls
  already join as themselves (equality is base + annotation), so step 2
  of the paper's procedure only exists to make step 4's "drop rows with
  fresh constants" a type check; the indexed path skips the two full
  instance copies and checks ``isinstance(value, AnnotatedNull)`` at
  head-projection time, and skips normalization entirely for single-atom
  bodies (a one-atom decoupled form matches single facts whose stamp set
  is trivially equal — Algorithm 1 never fragments anything);
* **recorded replay** — :class:`QueryLog` keeps per-disjunct answers in a
  :class:`~repro.chase.incremental.ReplayLedger` keyed by the disjunct
  and signed by the target facts of the disjunct's body relations, so
  repeated certain-answer computation against an unchanged (or
  delta-patched-elsewhere) target replays instead of re-running.

Everything here is answer-set equivalent (byte-identical) to that
transcription, which survives as the test oracle ``tests/oracles/query.py``;
the property suite in ``tests/property`` sweeps the equivalence over
colliding-endpoint and null-heavy instances.

**Per-region null renaming.**  The abstract sweep needs region-constant
facts, but a template carrying an interval-annotated null projects to a
*different* labeled null at every snapshot (``N@ℓ``).  Two projections
at one snapshot are equal iff their bases coincide, so replacing each
annotated null by the base-keyed placeholder ``N@?`` (the ``@`` keeps it
disjoint from rigid null names, which may not contain ``@``) preserves
the join structure of every snapshot exactly — and naive evaluation
drops null-carrying answer rows either way, so the answer sets are
unchanged while the projected facts become region-stable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator
from weakref import WeakKeyDictionary

from repro.abstract_view.abstract_instance import AbstractInstance
from repro.chase.incremental import ReplayLedger
from repro.concrete.concrete_instance import ConcreteInstance
from repro.concrete.normalization import (
    _lift_atoms,
    interval_of,
    normalize,
)
from repro.query.answers import (
    AnswerTuple,
    ConcreteAnswerSet,
    TemporalAnswerSet,
)
from repro.query.query import ConjunctiveQuery, UnionQuery
from repro.relational.fact import Fact
from repro.relational.formulas import Atom
from repro.relational.homomorphism import (
    _flat_join_plan,
    _iter_join_rows,
    find_homomorphisms_with_images,
    match_atom_against_fact,
)
from repro.relational.instance import Instance
from repro.relational.terms import (
    AnnotatedNull,
    LabeledNull,
    Variable,
)
from repro.temporal.interval import Interval
from repro.temporal.interval_set import IntervalSet
from repro.temporal.timepoint import INFINITY

__all__ = [
    "QueryLog",
    "evaluate_snapshot_indexed",
    "evaluate_abstract_indexed",
    "evaluate_concrete_indexed",
]

def _as_union(query: ConjunctiveQuery | UnionQuery) -> UnionQuery:
    if isinstance(query, ConjunctiveQuery):
        return UnionQuery((query,))
    return query


# ---------------------------------------------------------------------------
# Head-row enumeration: flat-plan projection with a generic fallback
# ---------------------------------------------------------------------------


def _iter_head_rows(
    head: tuple[Variable, ...], atoms: tuple[Atom, ...], instance: Instance
) -> Iterator[AnswerTuple]:
    """Every head projection of a match of *atoms*, one per homomorphism.

    All-variable bodies take the flat written-order join and read the
    head values straight off the image facts; other shapes run the
    cardinality-driven backtracking search in live-dict mode.
    """
    plan = _flat_join_plan(atoms)
    if plan is not None:
        slots = tuple(plan.slot_of[var] for var in head)
        for row in _iter_join_rows(plan, instance):
            yield tuple(row[index].args[position] for index, position in slots)
        return
    for assignment, _images in find_homomorphisms_with_images(
        atoms, instance, copy=False
    ):
        yield tuple(assignment[var] for var in head)


def _iter_delta_head_rows(
    head: tuple[Variable, ...],
    atoms: tuple[Atom, ...],
    instance: Instance,
    delta: list[Fact],
) -> Iterator[AnswerTuple]:
    """Head projections of matches touching at least one *delta* fact.

    The semi-naive anchor decomposition of
    :func:`~repro.relational.homomorphism.iter_egd_equations_delta`: atom
    ``i`` is pinned to a delta fact, atoms before ``i`` may not map to
    delta facts, atoms after ``i`` are unrestricted — every qualifying
    match is produced exactly once (at its first delta position).
    """
    delta_set = set(delta)
    for anchor, atom in enumerate(atoms):
        rest = atoms[:anchor] + atoms[anchor + 1 :]
        for item in delta:
            initial = match_atom_against_fact(atom, item)
            if initial is None:
                continue
            if not rest:
                yield tuple(initial[var] for var in head)
                continue
            for assignment, images in find_homomorphisms_with_images(
                rest, instance, initial=initial, copy=False, atom_order="written"
            ):
                if any(image in delta_set for image in images[:anchor]):
                    continue
                yield tuple(assignment[var] for var in head)


def evaluate_snapshot_indexed(
    query: ConjunctiveQuery | UnionQuery, snapshot: Instance
) -> frozenset[AnswerTuple]:
    """Plain evaluation on one snapshot (nulls kept), via the flat plans."""
    results: set[AnswerTuple] = set()
    for disjunct in _as_union(query):
        results.update(
            _iter_head_rows(disjunct.head, disjunct.body.atoms, snapshot)
        )
    return frozenset(results)


# ---------------------------------------------------------------------------
# Abstract route: one live swept instance + counting-based maintenance
# ---------------------------------------------------------------------------


def _evaluation_fact(template) -> Fact:
    """The region-stable projection of a template (see module docstring)."""
    args = template.args
    if not any(isinstance(value, AnnotatedNull) for value in args):
        # Point-independent: `at` caches this projection on the template.
        return template.at(template.interval.start)
    return Fact(
        template.relation,
        tuple(
            LabeledNull(f"{value.base}@?")
            if isinstance(value, AnnotatedNull)
            else value
            for value in args
        ),
    )


def _null_free(row: AnswerTuple) -> bool:
    return not any(
        isinstance(value, (LabeledNull, AnnotatedNull)) for value in row
    )


def evaluate_abstract_indexed(
    query: ConjunctiveQuery | UnionQuery, instance: AbstractInstance
) -> TemporalAnswerSet:
    """``q(Ja)↓`` by incremental counting over the region sweep.

    One :class:`Instance` is maintained across the region partition —
    region-stable template projections enter at their stamp's start and
    leave at its end — and per answer tuple a count of supporting matches
    is maintained from the matches touching each region's fact delta.
    A tuple's support opens when its count leaves zero and closes when it
    returns, so the per-region work is proportional to the *churn*, not
    to the instance, and the warm indexes serve both the join probes and
    the anchored delta enumeration.
    """
    union = _as_union(query)
    disjuncts = tuple(
        (disjunct.head, disjunct.body.atoms) for disjunct in union
    )
    regions = instance.regions()
    if not instance:
        return TemporalAnswerSet({})

    # Template projections sorted by stamp start; ends feed an expiry heap.
    starts = [
        (template.interval.start, template.interval.end, _evaluation_fact(template))
        for template in instance  # sorted by TemplateFact.sort_key
    ]
    starts.sort(key=lambda entry: entry[0])

    live = Instance()
    fact_counts: dict[Fact, int] = {}
    match_counts: dict[AnswerTuple, int] = {}
    open_at: dict[AnswerTuple, int] = {}
    support: dict[AnswerTuple, list[Interval]] = {}
    heap: list[tuple[object, int, Fact]] = []
    sequence = 0
    start_index = 0
    first_region = True

    for region in regions:
        point = region.start
        removed: list[Fact] = []
        while heap and heap[0][0] <= point:
            _end, _seq, item = heapq.heappop(heap)
            fact_counts[item] -= 1
            if fact_counts[item] == 0:
                removed.append(item)
        added: list[Fact] = []
        while start_index < len(starts) and starts[start_index][0] <= point:
            _start, end, item = starts[start_index]
            start_index += 1
            heapq.heappush(heap, (end, sequence, item))
            sequence += 1
            count = fact_counts.get(item, 0)
            fact_counts[item] = count + 1
            if count == 0:
                added.append(item)
        if removed and added:
            # A fact leaving one template's coverage and entering
            # another's at the same boundary nets out.
            both = set(removed) & set(added)
            if both:
                removed = [item for item in removed if item not in both]
                added = [item for item in added if item not in both]

        touched: set[AnswerTuple] = set()
        if first_region:
            first_region = False
            for item in added:
                live.add(item)
            for head, atoms in disjuncts:
                for row in _iter_head_rows(head, atoms, live):
                    if _null_free(row):
                        match_counts[row] = match_counts.get(row, 0) + 1
                        touched.add(row)
        else:
            if removed:
                # Enumerate lost matches against the *pre-delta* live
                # instance (removed facts still present, added not yet).
                for head, atoms in disjuncts:
                    for row in _iter_delta_head_rows(head, atoms, live, removed):
                        if _null_free(row):
                            match_counts[row] -= 1
                            touched.add(row)
                for item in removed:
                    live.discard(item)
            if added:
                for item in added:
                    live.add(item)
                for head, atoms in disjuncts:
                    for row in _iter_delta_head_rows(head, atoms, live, added):
                        if _null_free(row):
                            match_counts[row] = match_counts.get(row, 0) + 1
                            touched.add(row)

        for row in touched:
            alive = match_counts.get(row, 0) > 0
            since = open_at.get(row)
            if alive and since is None:
                open_at[row] = point
            elif not alive and since is not None:
                del open_at[row]
                support.setdefault(row, []).append(Interval(since, point))

    # The last region is the unbounded tail: whatever is still open
    # holds forever.
    for row, since in open_at.items():
        support.setdefault(row, []).append(Interval(since, INFINITY))
    return TemporalAnswerSet(
        {
            row: IntervalSet._from_canonical(pieces)
            for row, pieces in support.items()
        }
    )


# ---------------------------------------------------------------------------
# Concrete route: direct projection off the lifted view, no freezing
# ---------------------------------------------------------------------------


@dataclass
class QueryLog:
    """Recorded query-evaluation state for cross-run replay.

    ``answers`` is a :class:`ReplayLedger` keyed per concrete disjunct
    (signature: the frozenset of target facts of the disjunct's body
    relations; payload: the disjunct's answer rows) and per abstract
    query (key ``("abstract", query)``, signature: the universal
    solution's templates of the query's body relations, payload: the
    :class:`TemporalAnswerSet`).  A re-evaluation whose relevant facts
    are unchanged — including delta-patched targets where the delta
    missed the query's relations — returns the recorded answers.

    The log pickles (the CLI persists it via ``--query-log``): only load
    files this tool wrote.
    """

    answers: ReplayLedger = field(default_factory=ReplayLedger)

    @property
    def hits(self) -> int:
        return self.answers.hits

    @property
    def misses(self) -> int:
        return self.answers.misses


def _disjunct_signature(
    disjunct: ConjunctiveQuery, solution: ConcreteInstance
) -> frozenset:
    relations = {atom.relation for atom in disjunct.body.atoms}
    return frozenset(
        item
        for relation in relations
        for item in solution.iter_facts_of(relation)
    )


#: Per-target normalization memo: for each live solution, a ledger of
#: fragmented instances keyed by disjunct and signed by the facts of the
#: disjunct's body relations — the same signature-checked replay contract
#: as :class:`QueryLog`, but ambient (re-evaluating any disjunct against
#: an unchanged target reuses the fragmented instance and its warm lifted
#: view, log or no log).  Weak keying means a dropped solution drops its
#: memo; a mutated solution misses the signature and re-normalizes.
_NORMALIZATION_MEMO: "WeakKeyDictionary[ConcreteInstance, ReplayLedger]" = (
    WeakKeyDictionary()
)


def abstract_query_signature(
    query: ConjunctiveQuery | UnionQuery, universal: AbstractInstance
) -> frozenset:
    """The templates an abstract evaluation of *query* can possibly read."""
    relations = {
        atom.relation
        for disjunct in _as_union(query)
        for atom in disjunct.body.atoms
    }
    return frozenset(
        template
        for template in universal.templates
        if template.relation in relations
    )


def _concrete_disjunct_rows(
    disjunct: ConjunctiveQuery,
    solution: ConcreteInstance,
    signature: frozenset,
) -> set[tuple[AnswerTuple, Interval]]:
    """The four-step procedure for one disjunct, indexed.

    Single-atom bodies skip normalization: the decoupled one-atom form
    matches single facts, whose stamp sets are trivially all-equal, so
    Algorithm 1 finds no overlapping Δ sets and fragments nothing — the
    output instance would equal the input.  Multi-atom bodies first
    consult the ambient normalization memo (signature hit: the body
    relations' facts are unchanged since the recorded fragmentation),
    and normalize on a miss.
    Step 2 (freezing) is skipped entirely: annotated nulls join as
    themselves already, and step 4's row drop becomes an ``isinstance``
    check at projection time.
    """
    lifted_conjunction = disjunct.lift()
    if len(disjunct.body.atoms) == 1:
        normalized = solution
    else:
        memo = _NORMALIZATION_MEMO.get(solution)
        if memo is None:
            memo = _NORMALIZATION_MEMO[solution] = ReplayLedger()
        normalized = memo.recall(disjunct, signature)
        if normalized is None:
            normalized = normalize(solution, [lifted_conjunction])
            memo.record(disjunct, signature, normalized)
    lifted_atoms = _lift_atoms(lifted_conjunction)
    lifted_view = normalized.lifted()
    head = disjunct.head
    rows: set[tuple[AnswerTuple, Interval]] = set()
    plan = _flat_join_plan(lifted_atoms)
    if plan is not None:
        head_slots = tuple(plan.slot_of[var] for var in head)
        t_index, t_position = plan.slot_of[lifted_conjunction.shared_variable]
        for row in _iter_join_rows(plan, lifted_view):
            item = tuple(
                row[index].args[position] for index, position in head_slots
            )
            if any(isinstance(value, AnnotatedNull) for value in item):
                continue
            rows.add((item, row[t_index].args[t_position].value))
        return rows
    tvar = lifted_conjunction.shared_variable
    for assignment, _images in find_homomorphisms_with_images(
        lifted_atoms, lifted_view, copy=False
    ):
        item = tuple(assignment[var] for var in head)
        if any(isinstance(value, AnnotatedNull) for value in item):
            continue
        rows.add((item, interval_of(assignment, tvar)))
    return rows


def evaluate_concrete_indexed(
    query: ConjunctiveQuery | UnionQuery,
    solution: ConcreteInstance,
    log: QueryLog | None = None,
) -> ConcreteAnswerSet:
    """``q+(Jc)↓`` via the indexed per-disjunct procedure.

    With *log*, each disjunct first consults the answers ledger: a hit
    (its body relations' facts unchanged since the recorded run) returns
    the recorded rows; a miss evaluates and records.
    """
    rows: set[tuple[AnswerTuple, Interval]] = set()
    for disjunct in _as_union(query):
        signature = _disjunct_signature(disjunct, solution)
        if log is not None:
            cached = log.answers.recall(disjunct, signature)
            if cached is not None:
                rows.update(cached)
                continue
        disjunct_rows = _concrete_disjunct_rows(disjunct, solution, signature)
        if log is not None:
            log.answers.record(disjunct, signature, frozenset(disjunct_rows))
        rows.update(disjunct_rows)
    return ConcreteAnswerSet(rows)
