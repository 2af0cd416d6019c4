"""Delta oracle: the target diff by sorted iteration.

:meth:`repro.deltas.SourceDelta.between` diffs two instances by walking
their unsorted relation buckets and sorting only the difference.
:func:`sorted_between` is the historical implementation it replaced:
walk both whole instances in content-sorted order and keep what the
other side lacks.
"""

from __future__ import annotations

from repro.concrete.concrete_instance import ConcreteInstance
from repro.deltas import SourceDelta

__all__ = ["sorted_between"]


def sorted_between(old: ConcreteInstance, new: ConcreteInstance) -> SourceDelta:
    """The delta taking *old* to *new*, via sorted whole-instance walks."""
    add = tuple(item for item in new if item not in old)
    remove = tuple(item for item in old if item not in new)
    return SourceDelta(add=add, remove=remove)
