"""Chase oracles: full-rescan egd rounds and the per-region abstract chase."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import repro.chase.engine as engine_module
from repro.abstract_view.abstract_chase import AbstractChaseResult
from repro.abstract_view.abstract_instance import AbstractInstance, TemplateFact
from repro.chase.standard import ChaseVariant, chase_snapshot
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.homomorphism import iter_egd_equations
from repro.relational.terms import AnnotatedNull, LabeledNull

from tests.oracles import patched

__all__ = ["per_region_chase", "rescan_egd_rounds"]


@contextmanager
def rescan_egd_rounds() -> Iterator[None]:
    """Every egd round after the first re-enumerates the whole instance.

    The semi-naive engine enumerates round ``k+1`` only against the facts
    round ``k``'s substitution added; this oracle ignores that delta and
    hands back every lhs match, as the former ``engine="rescan"`` did.
    """

    def full_scan(atoms, left_variable, right_variable, view, _delta):
        return iter_egd_equations(atoms, left_variable, right_variable, view)

    with patched(engine_module, "iter_egd_equations_delta", full_scan):
        yield


def per_region_chase(
    source: AbstractInstance,
    setting: DataExchangeSetting,
    variant: ChaseVariant = "standard",
) -> AbstractChaseResult:
    """``chase(Ia, M)`` with every region chased from scratch.

    Chases the snapshot at each region's start, in timeline order, and
    stops at the first failure — the schedule ``abstract_chase`` ran
    under ``incremental=False``.  Each region's fresh nulls become
    per-snapshot nulls annotated with the region.
    """
    region_results = {}
    templates: list[TemplateFact] = []
    for region in source.regions():
        result = chase_snapshot(source.snapshot(region.start), setting, variant=variant)
        region_results[region] = result
        if result.failed:
            return AbstractChaseResult(
                target=AbstractInstance(templates),
                failed=True,
                failure=result.failure,
                failed_region=region,
                region_results=region_results,
            )
        for item in result.target.facts():
            args = tuple(
                AnnotatedNull(value.name, region) if isinstance(value, LabeledNull) else value
                for value in item.args
            )
            templates.append(TemplateFact(item.relation, args, region))
    return AbstractChaseResult(
        target=AbstractInstance(templates), region_results=region_results
    )
