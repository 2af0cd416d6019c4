"""Query answering over exchanged temporal data (Section 5)."""

from repro.query.answers import AnswerTuple, ConcreteAnswerSet, TemporalAnswerSet
from repro.query.builder import (
    QueryBuilder,
    nonsequenced_join,
    select,
    sequenced_join,
    val,
)
from repro.query.certain import (
    certain_answers_abstract,
    certain_answers_concrete,
    certain_contained_in_solution,
)
from repro.query.containment import (
    are_equivalent,
    canonical_instance,
    is_contained_in,
    minimize,
    union_contained_in,
)
from repro.query.eval import QueryLog
from repro.query.naive_eval import (
    evaluate_snapshot,
    naive_evaluate_abstract,
    naive_evaluate_concrete,
    naive_evaluate_snapshot,
    verify_evaluation_correspondence,
)
from repro.query.query import ConjunctiveQuery, UnionQuery

__all__ = [
    "AnswerTuple",
    "ConcreteAnswerSet",
    "TemporalAnswerSet",
    "QueryBuilder",
    "select",
    "val",
    "sequenced_join",
    "nonsequenced_join",
    "certain_answers_abstract",
    "certain_answers_concrete",
    "certain_contained_in_solution",
    "are_equivalent",
    "canonical_instance",
    "is_contained_in",
    "minimize",
    "union_contained_in",
    "QueryLog",
    "evaluate_snapshot",
    "naive_evaluate_abstract",
    "naive_evaluate_concrete",
    "naive_evaluate_snapshot",
    "verify_evaluation_correspondence",
    "ConjunctiveQuery",
    "UnionQuery",
]
