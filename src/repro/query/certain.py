"""Certain answers in temporal data exchange (Section 5).

``certain(q, Ia, M)`` is, snapshot by snapshot, the intersection of
``q(db')`` over every solution ``db'`` — and by the classical result
(Fagin et al., inherited through Proposition 4), it equals the naive
evaluation of ``q`` on any universal solution.  Corollary 22 transfers
this to the concrete view: ``certain(q, ⟦Ic⟧, M) = ⟦q+(Jc)↓⟧`` where
``Jc`` is the c-chase result.

Both routes are implemented, plus a falsification helper used by tests:
certain answers must be contained in the (plain) answers of every witness
solution.

Both routes accept a :class:`~repro.query.eval.QueryLog` and keep
per-query answers in its ledger, so a repeat call against an unchanged
source replays the answers instead of re-evaluating them.
"""

from __future__ import annotations

from repro.abstract_view.abstract_chase import abstract_chase
from repro.abstract_view.abstract_instance import AbstractInstance
from repro.concrete.cchase import c_chase
from repro.concrete.concrete_instance import ConcreteInstance
from repro.dependencies.mapping import DataExchangeSetting
from repro.query.answers import TemporalAnswerSet
from repro.query.eval import QueryLog, abstract_query_signature
from repro.query.naive_eval import naive_evaluate_abstract, naive_evaluate_concrete
from repro.query.query import ConjunctiveQuery, UnionQuery

__all__ = [
    "certain_answers_abstract",
    "certain_answers_concrete",
    "certain_contained_in_solution",
]


def certain_answers_abstract(
    query: ConjunctiveQuery | UnionQuery,
    source: AbstractInstance,
    setting: DataExchangeSetting,
    log: QueryLog | None = None,
) -> TemporalAnswerSet:
    """``certain(q, Ia, M)`` via the abstract chase's universal solution.

    Raises :class:`~repro.errors.ChaseFailureError` when no solution
    exists (certain answers are then vacuously everything; following the
    data exchange literature we surface the failure instead).

    With *log*, the computed answer set is kept in the log's ledger
    keyed by the query and signed by the universal solution's templates
    of the query's body relations, so a repeat call whose relevant
    templates are unchanged replays the recorded answers.  (The abstract
    chase keeps no cross-run state of its own — its incremental engine
    works region-to-region within one run.)
    """
    result = abstract_chase(source, setting)
    universal = result.unwrap()
    if log is not None:
        signature = abstract_query_signature(query, universal)
        key = ("abstract", query)
        cached = log.answers.recall(key, signature)
        if cached is not None:
            return cached  # type: ignore[return-value]
        answers = naive_evaluate_abstract(query, universal)
        log.answers.record(key, signature, answers)
        return answers
    return naive_evaluate_abstract(query, universal)


def certain_answers_concrete(
    query: ConjunctiveQuery | UnionQuery,
    source: ConcreteInstance,
    setting: DataExchangeSetting,
    log: QueryLog | None = None,
) -> TemporalAnswerSet:
    """``certain(q, ⟦Ic⟧, M)`` computed wholly on the concrete side.

    Runs the c-chase and naive-evaluates ``q+`` on the concrete solution
    (Corollary 22).  Agreement with :func:`certain_answers_abstract` is a
    theorem — and a test in this repository.

    With *log*, evaluation replays per-disjunct answers against the
    chased target, so a repeat call on an unchanged source does no join
    work after the chase.
    """
    solution = c_chase(source, setting).unwrap()
    return naive_evaluate_concrete(query, solution, log=log).to_temporal()


def certain_contained_in_solution(
    certain: TemporalAnswerSet,
    query: ConjunctiveQuery | UnionQuery,
    solution: AbstractInstance,
) -> bool:
    """Soundness probe: certain answers must hold in *solution* too.

    Evaluates ``q`` naively (null-carrying rows dropped) region-wise on
    the witness solution and checks pointwise containment of the certain
    answers.  Used by tests to falsify the certain-answer computation
    against hand-built alternative solutions.
    """
    # Naive abstract evaluation is exactly region-wise plain evaluation
    # with null rows dropped.
    return certain.is_subset_of(naive_evaluate_abstract(query, solution))
