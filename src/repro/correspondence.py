"""Cross-view utilities: the commuting square of Figure 10.

The paper's central correctness statement relates the two views::

        Ic ────⟦·⟧────▶ ⟦Ic⟧
        │                 │
      c-chase           chase          (Figure 10)
        │                 │
        ▼                 ▼
        Jc ────⟦·⟧────▶ ⟦Jc⟧  ∼  Ja

Corollary 20: the semantics of the concrete chase result is
homomorphically equivalent to the abstract chase result.  This module
checks that square on concrete inputs, and provides concrete-level
solution checking by delegating to the abstract semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abstract_view.abstract_chase import AbstractChaseResult, abstract_chase
from repro.abstract_view.abstract_instance import AbstractInstance
from repro.abstract_view.hom import (
    homomorphically_equivalent,
)
from repro.abstract_view.semantics import semantics
from repro.abstract_view.solution import is_solution
from repro.concrete.cchase import CChaseResult, c_chase
from repro.concrete.concrete_instance import ConcreteInstance
from repro.dependencies.mapping import DataExchangeSetting

__all__ = [
    "concrete_is_solution",
    "CorrespondenceReport",
    "verify_correspondence",
]


def concrete_is_solution(
    source: ConcreteInstance,
    target: ConcreteInstance,
    setting: DataExchangeSetting,
) -> bool:
    """``(Ic, Jc) |= Σ+st ∪ Σ+eg`` decided through the semantics.

    A concrete pair satisfies the lifted dependencies exactly when the
    abstract pair ``(⟦Ic⟧, ⟦Jc⟧)`` satisfies the non-temporal ones on
    every snapshot — which is what the abstract view decides exactly.
    """
    return is_solution(semantics(source), semantics(target), setting)


@dataclass
class CorrespondenceReport:
    """Everything produced while checking the Figure 10 square once."""

    concrete_result: CChaseResult
    abstract_result: AbstractChaseResult
    both_failed: bool
    equivalent: bool
    concrete_semantics: AbstractInstance | None = None

    @property
    def holds(self) -> bool:
        """The square commutes: both chases fail together, or both succeed
        with homomorphically equivalent results."""
        return self.both_failed or self.equivalent


def verify_correspondence(
    source: ConcreteInstance,
    setting: DataExchangeSetting,
    normalization: str = "conjunction",
    shards: int = 1,
    executor: str = "serial",
    workers: int | None = None,
) -> CorrespondenceReport:
    """Run both chases on one source and check Corollary 20.

    * both fail → the square commutes (no solution exists, Theorem 19(2));
    * both succeed → check ``⟦Jc⟧ ∼ chase(⟦Ic⟧)``;
    * one fails and the other does not → the square is broken (this would
      falsify the implementation, and the report says so).

    *shards*/*executor*/*workers* configure the abstract chase's region
    scheduler.  Sharded runs are byte-identical to the unsharded one
    (null names are Skolem terms of their firings), so they never affect
    the verdict.
    """
    concrete_result = c_chase(
        source,
        setting,
        normalization=normalization,  # type: ignore[arg-type]
    )
    abstract_result = abstract_chase(
        semantics(source),
        setting,
        shards=shards,
        executor=executor,
        workers=workers,
    )
    if abstract_result.error is not None:
        # A shard *raised* (as opposed to the chase failing): that is not
        # a correspondence verdict — surface it instead of misreporting
        # a violation or a joint failure.
        raise abstract_result.error

    if concrete_result.failed or abstract_result.failed:
        both = concrete_result.failed and abstract_result.failed
        return CorrespondenceReport(
            concrete_result=concrete_result,
            abstract_result=abstract_result,
            both_failed=both,
            equivalent=False,
        )

    concrete_semantics = semantics(concrete_result.target)
    equivalent = homomorphically_equivalent(
        concrete_semantics, abstract_result.target
    )
    return CorrespondenceReport(
        concrete_result=concrete_result,
        abstract_result=abstract_result,
        both_failed=False,
        equivalent=equivalent,
        concrete_semantics=concrete_semantics,
    )
