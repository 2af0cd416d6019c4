"""Query oracle: the scan transcription of Section 5's procedures.

A literal transcription of the paper, kept as the reference the indexed
evaluator of :mod:`repro.query.eval` is swept against (the former
``engine="scan"``): snapshot evaluation walks every homomorphism, the
abstract route re-evaluates a fresh snapshot per region, and the
concrete route runs the four-step ``q+(Jc)↓`` with an explicit freeze
copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abstract_view.abstract_instance import AbstractInstance
from repro.concrete.concrete_instance import ConcreteInstance
from repro.concrete.normalization import (
    find_temporal_homomorphisms,
    interval_of,
    normalize,
)
from repro.query.answers import AnswerTuple, ConcreteAnswerSet, TemporalAnswerSet
from repro.query.query import ConjunctiveQuery, UnionQuery
from repro.relational.homomorphism import find_homomorphisms
from repro.relational.instance import Instance
from repro.relational.terms import AnnotatedNull, Constant, GroundTerm, LabeledNull
from repro.temporal.interval_set import IntervalSet

__all__ = [
    "certain_contained_in_solution",
    "evaluate_snapshot",
    "naive_evaluate_abstract",
    "naive_evaluate_concrete",
    "naive_evaluate_snapshot",
]


def _as_union(query: ConjunctiveQuery | UnionQuery) -> UnionQuery:
    if isinstance(query, ConjunctiveQuery):
        return UnionQuery((query,))
    return query


def evaluate_snapshot(
    query: ConjunctiveQuery | UnionQuery, snapshot: Instance
) -> frozenset[AnswerTuple]:
    """Plain evaluation: nulls behave as constants and *are* returned."""
    results: set[AnswerTuple] = set()
    for disjunct in _as_union(query):
        for assignment in find_homomorphisms(disjunct.body, snapshot):
            results.add(tuple(assignment[var] for var in disjunct.head))
    return frozenset(results)


def naive_evaluate_snapshot(
    query: ConjunctiveQuery | UnionQuery, snapshot: Instance
) -> frozenset[AnswerTuple]:
    """``q(db)↓``: evaluate, then drop tuples containing any null."""
    return frozenset(
        item
        for item in evaluate_snapshot(query, snapshot)
        if not any(isinstance(v, (LabeledNull, AnnotatedNull)) for v in item)
    )


def naive_evaluate_abstract(
    query: ConjunctiveQuery | UnionQuery, instance: AbstractInstance
) -> TemporalAnswerSet:
    """``q(Ja)↓``: a fresh snapshot evaluated per region."""
    grouped: dict[AnswerTuple, IntervalSet] = {}
    for region in instance.regions():
        snapshot = instance.snapshot(region.start)
        for item in naive_evaluate_snapshot(query, snapshot):
            existing = grouped.get(item, IntervalSet.empty())
            grouped[item] = existing.union(region)
    return TemporalAnswerSet(grouped)


@dataclass(frozen=True)
class _FrozenNull:
    """The payload of a fresh constant standing in for an annotated null.

    Step 2 of the paper's procedure replaces each interval-annotated null
    with a fresh constant ``cn^[s,e)``; wrapping the null in this marker
    type makes step 4's "drop rows with fresh constants" a type check.
    """

    base: str
    annotation_repr: str

    def __str__(self) -> str:
        return f"c⟨{self.base}^{self.annotation_repr}⟩"


def _freeze_nulls(instance: ConcreteInstance) -> ConcreteInstance:
    """Step 2: each annotated null becomes a fresh marker constant."""
    mapping = {
        null: Constant(_FrozenNull(null.base, str(null.annotation)))
        for null in instance.nulls()
    }
    return instance.substitute(mapping)


def _is_frozen(value: GroundTerm) -> bool:
    return isinstance(value, Constant) and isinstance(value.value, _FrozenNull)


def naive_evaluate_concrete(
    query: ConjunctiveQuery | UnionQuery, solution: ConcreteInstance
) -> ConcreteAnswerSet:
    """``q+(Jc)↓``: the union over disjuncts of the four-step procedure."""
    rows: set[tuple[AnswerTuple, object]] = set()
    for disjunct in _as_union(query):
        lifted = disjunct.lift()
        tvar = lifted.shared_variable
        # Step 1: normalize the solution w.r.t. this disjunct's body.
        normalized = normalize(solution, [lifted])
        # Step 2: freeze annotated nulls into fresh constants.
        frozen = _freeze_nulls(normalized)
        # Step 3: evaluate; t maps to a single stamp per match.
        for assignment, _images in find_temporal_homomorphisms(lifted, frozen):
            item = tuple(assignment[var] for var in disjunct.head)
            # Step 4: drop rows that still mention a fresh constant.
            if any(_is_frozen(value) for value in item):
                continue
            rows.add((item, interval_of(assignment, tvar)))
    return ConcreteAnswerSet(rows)  # type: ignore[arg-type]


def certain_contained_in_solution(
    certain: TemporalAnswerSet,
    query: ConjunctiveQuery | UnionQuery,
    solution: AbstractInstance,
) -> bool:
    """Soundness probe: certain answers must hold in *solution* too."""
    witness: dict = {}
    for region in solution.regions():
        snapshot = solution.snapshot(region.start)
        for item in evaluate_snapshot(query, snapshot):
            if any(isinstance(v, (LabeledNull, AnnotatedNull)) for v in item):
                continue
            existing = witness.get(item, IntervalSet.empty())
            witness[item] = existing.union(region)
    return certain.is_subset_of(TemporalAnswerSet(witness))
