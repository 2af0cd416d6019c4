"""Naïve evaluation of (unions of) conjunctive queries — Section 5.

Three evaluation modes are provided:

* **snapshot level** — classical evaluation on one relational instance,
  with the naive variant treating labeled nulls as fresh constants and
  dropping tuples that still contain them (``q(db)↓``);
* **abstract level** — evaluate region-wise on an abstract instance,
  producing a :class:`~repro.query.answers.TemporalAnswerSet`
  (``q(Ja)↓`` as a finite object);
* **concrete level** — the paper's four-step procedure ``q+(Jc)↓``:
  normalize the solution w.r.t. the disjunct, replace interval-annotated
  nulls by fresh constants, evaluate with ``t`` ranging over stamps,
  and drop rows mentioning a fresh constant.

Every mode runs on the plan-probing evaluator of :mod:`repro.query.eval`:
flat join plans over the warm ``(position, value)`` indexes, one live
swept instance with counting-based maintenance on the abstract route,
and a freeze-free concrete route with optional
:class:`~repro.query.eval.QueryLog` replay.

Theorem 21 states ``⟦q+(Jc)↓⟧ = q(⟦Jc⟧)↓``;
:func:`verify_evaluation_correspondence` checks it on concrete inputs.
"""

from __future__ import annotations

from repro.abstract_view.abstract_instance import AbstractInstance
from repro.abstract_view.semantics import semantics
from repro.concrete.concrete_instance import ConcreteInstance
from repro.query.answers import (
    AnswerTuple,
    ConcreteAnswerSet,
    TemporalAnswerSet,
)
from repro.query.eval import (
    QueryLog,
    evaluate_abstract_indexed,
    evaluate_concrete_indexed,
    evaluate_snapshot_indexed,
)
from repro.query.query import ConjunctiveQuery, UnionQuery
from repro.relational.instance import Instance
from repro.relational.terms import AnnotatedNull, LabeledNull

__all__ = [
    "evaluate_snapshot",
    "naive_evaluate_snapshot",
    "naive_evaluate_abstract",
    "naive_evaluate_concrete",
    "verify_evaluation_correspondence",
]


def evaluate_snapshot(
    query: ConjunctiveQuery | UnionQuery, snapshot: Instance
) -> frozenset[AnswerTuple]:
    """Plain evaluation: nulls behave as constants and *are* returned."""
    return evaluate_snapshot_indexed(query, snapshot)


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
    """``q(Ja)↓`` computed region-wise.

    Inside a region the snapshot is constant up to per-snapshot null
    renaming; since naive evaluation only keeps null-free tuples, the
    answer set at one representative point is the answer set everywhere
    in the region.  One live instance and per-answer match counts are
    maintained across the region sweep.
    """
    return evaluate_abstract_indexed(query, instance)


def naive_evaluate_concrete(
    query: ConjunctiveQuery | UnionQuery,
    solution: ConcreteInstance,
    log: QueryLog | None = None,
) -> ConcreteAnswerSet:
    """``q+(Jc)↓``: the union over disjuncts of the four-step procedure.

    The freeze copy is skipped (annotated nulls already join as
    themselves; step 4 becomes a type check at projection time), and a
    :class:`QueryLog` enables recorded replay.
    """
    return evaluate_concrete_indexed(query, solution, log=log)


def verify_evaluation_correspondence(
    query: ConjunctiveQuery | UnionQuery, solution: ConcreteInstance
) -> bool:
    """Theorem 21: ``⟦q+(Jc)↓⟧ = q(⟦Jc⟧)↓`` on this input."""
    concrete = naive_evaluate_concrete(query, solution)
    abstract = naive_evaluate_abstract(query, semantics(solution))
    return concrete.to_temporal() == abstract
