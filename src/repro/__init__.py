"""repro — temporal data exchange (Golshanara & Chomicki).

A complete implementation of the paper's framework:

* the **temporal substrate**: intervals ``[s, e)`` over ``N0 ∪ {∞}``,
  interval sets, coalescing (:mod:`repro.temporal`);
* the **relational substrate**: naive-table instances, conjunctive
  formulas, homomorphism search (:mod:`repro.relational`);
* **schema mappings**: s-t tgds, egds, exchange settings
  (:mod:`repro.dependencies`);
* the **classical chase** per snapshot, with core computation
  (:mod:`repro.chase`);
* the **abstract view** — snapshot-sequence semantics, snapshot-wise
  chase, abstract homomorphisms (:mod:`repro.abstract_view`);
* the **concrete view** — interval-annotated nulls, normalization
  (Algorithm 1 and the naïve baseline), the c-chase
  (:mod:`repro.concrete`);
* **query answering** — naive evaluation, certain answers
  (:mod:`repro.query`);
* **change feeds** — the canonical :class:`~repro.deltas.SourceDelta`
  and the event-sourced ingestion layer that compiles live event logs
  into it (:mod:`repro.deltas`, :mod:`repro.events`);
* the Figure 10 **correspondence** checks (:mod:`repro.correspondence`);
* workloads, serialization and the Section 7 extension
  (:mod:`repro.workloads`, :mod:`repro.serialize`,
  :mod:`repro.extensions`).

Quickstart::

    from repro import *

    setting = employment_setting()          # Example 1/6
    source = employment_source_concrete()   # Figure 4
    result = c_chase(source, setting)       # Figure 9
    answers = certain_answers_concrete(
        ConjunctiveQuery.parse("q(n, s) :- Emp(n, c, s)"), source, setting
    )
"""

from repro.errors import (
    ChaseFailureError,
    DeltaError,
    EventError,
    FormulaError,
    InstanceError,
    NotNormalizedError,
    ParseError,
    ReproError,
    SchemaError,
    SerializationError,
    SolutionError,
    TemporalError,
)
from repro.temporal import (
    INFINITY,
    Interval,
    IntervalSet,
    interval,
)
from repro.relational import (
    AnnotatedNull,
    Atom,
    Conjunction,
    Constant,
    Fact,
    Instance,
    LabeledNull,
    RelationSchema,
    Schema,
    TemporalConjunction,
    Variable,
    fact,
    parse_atom,
    parse_conjunction,
)
from repro.dependencies import EGD, DataExchangeSetting, SourceToTargetTGD
from repro.chase import chase_snapshot, core_of, snapshot_satisfies
from repro.abstract_view import (
    AbstractInstance,
    TemplateFact,
    abstract_chase,
    find_abstract_homomorphism,
    has_abstract_homomorphism,
    homomorphically_equivalent,
    is_solution,
    is_universal_solution,
    semantics,
)
from repro.concrete import (
    ConcreteFact,
    ConcreteInstance,
    c_chase,
    concrete_fact,
    is_normalized,
    naive_normalize,
    normalize,
)
from repro.deltas import SourceDelta
from repro.events import (
    EntityRule,
    Event,
    EventLog,
    EventMapping,
    FollowCursor,
    RelationshipRule,
    TimeScale,
)
from repro.correspondence import (
    concrete_is_solution,
    verify_correspondence,
)
from repro.query import (
    ConjunctiveQuery,
    TemporalAnswerSet,
    UnionQuery,
    certain_answers_abstract,
    certain_answers_concrete,
    naive_evaluate_abstract,
    naive_evaluate_concrete,
    verify_evaluation_correspondence,
)
from repro.workloads import (
    employment_setting,
    employment_source_abstract,
    employment_source_concrete,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ChaseFailureError",
    "DeltaError",
    "EventError",
    "FormulaError",
    "InstanceError",
    "NotNormalizedError",
    "ParseError",
    "ReproError",
    "SchemaError",
    "SerializationError",
    "SolutionError",
    "TemporalError",
    # temporal
    "INFINITY",
    "Interval",
    "IntervalSet",
    "interval",
    # relational
    "AnnotatedNull",
    "Atom",
    "Conjunction",
    "Constant",
    "Fact",
    "Instance",
    "LabeledNull",
    "RelationSchema",
    "Schema",
    "TemporalConjunction",
    "Variable",
    "fact",
    "parse_atom",
    "parse_conjunction",
    # dependencies
    "EGD",
    "DataExchangeSetting",
    "SourceToTargetTGD",
    # chase
    "chase_snapshot",
    "core_of",
    "snapshot_satisfies",
    # abstract view
    "AbstractInstance",
    "TemplateFact",
    "abstract_chase",
    "find_abstract_homomorphism",
    "has_abstract_homomorphism",
    "homomorphically_equivalent",
    "is_solution",
    "is_universal_solution",
    "semantics",
    # concrete view
    "ConcreteFact",
    "ConcreteInstance",
    "c_chase",
    "concrete_fact",
    "is_normalized",
    "naive_normalize",
    "normalize",
    # deltas + events
    "SourceDelta",
    "EntityRule",
    "Event",
    "EventLog",
    "EventMapping",
    "FollowCursor",
    "RelationshipRule",
    "TimeScale",
    # correspondence
    "concrete_is_solution",
    "verify_correspondence",
    # queries
    "ConjunctiveQuery",
    "TemporalAnswerSet",
    "UnionQuery",
    "certain_answers_abstract",
    "certain_answers_concrete",
    "naive_evaluate_abstract",
    "naive_evaluate_concrete",
    "verify_evaluation_correspondence",
    # workloads
    "employment_setting",
    "employment_source_abstract",
    "employment_source_concrete",
    "__version__",
]
