"""The concrete view: interval-stamped instances, normalization, c-chase."""

from repro.concrete.cchase import CChaseResult, c_chase
from repro.concrete.concrete_fact import ConcreteFact, concrete_fact
from repro.concrete.concrete_instance import ConcreteInstance
from repro.concrete.normalization import (
    NormalizationReport,
    NormalizationViolation,
    find_temporal_assignments,
    find_temporal_homomorphisms,
    find_violation,
    has_empty_intersection_property,
    interval_of,
    is_normalized,
    naive_normalize,
    normalize,
    normalize_with_report,
)

__all__ = [
    "CChaseResult",
    "c_chase",
    "ConcreteFact",
    "concrete_fact",
    "ConcreteInstance",
    "NormalizationReport",
    "NormalizationViolation",
    "find_temporal_assignments",
    "find_temporal_homomorphisms",
    "find_violation",
    "has_empty_intersection_property",
    "interval_of",
    "is_normalized",
    "naive_normalize",
    "normalize",
    "normalize_with_report",
]
