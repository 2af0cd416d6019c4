"""Normalization oracle: Algorithm 1's overlap discovery, pair by pair.

The product discovers two-atom overlap sets with an endpoint sweep per
value-equivalence group.  :func:`pairwise_overlaps` swaps that sweep for
the historical per-pair enumeration below (the former
``engine="pairwise"``), which reports the per-match count in both
``matched_sets`` and ``matched_pairs``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import repro.concrete.normalization as normalization_module
from repro.concrete.concrete_fact import ConcreteFact
from repro.concrete.concrete_instance import ConcreteInstance
from repro.concrete.normalization import NormalizationReport, _FactUnionFind
from repro.relational.formulas import Atom

from tests.oracles import patched

__all__ = ["pairwise_overlaps"]


@contextmanager
def pairwise_overlaps() -> Iterator[None]:
    """Run two-atom overlap discovery through :func:`_pairwise_two_atom`."""
    with patched(normalization_module, "_sweep_two_atom", _pairwise_two_atom):
        yield


def _pairwise_two_atom(
    instance: ConcreteInstance,
    lifted_atoms: tuple[Atom, ...],
    plan,
    union_find: _FactUnionFind,
    report: NormalizationReport,
) -> None:
    """Reference mode: the historical inline per-pair enumeration.

    These loops (minus the never-read matchable bookkeeping) find the
    same matches, Δ sets and counts as the generic homomorphism path,
    with the per-match interval test collapsed to two endpoint
    comparisons.  The equivalence suites sweep
    the sweep engine against this; it reports the historical per-match
    count in both ``matched_sets`` and ``matched_pairs``.
    """
    lifted = instance.lifted()
    resolve = instance.resolve_lifted
    find = union_find.find
    # Registration of a (possibly fresh) member is just "ensure a
    # parent entry exists" — no path to compress yet.
    register = union_find._parent.setdefault
    union = union_find.union
    matched = 0
    first_atom, second_atom = lifted_atoms
    key_positions = plan.key_positions[1]
    grouped: dict[tuple, list[ConcreteFact]] = {}
    for item in lifted.lookup_ordered(second_atom.relation, {}):
        if item.arity != second_atom.arity:
            continue
        key = tuple(item.args[position] for position in key_positions)
        grouped.setdefault(key, []).append(resolve(item))
    sources = tuple(position for _atom, position in plan.key_sources[1])
    if (
        first_atom.relation == second_atom.relation
        and first_atom.arity == second_atom.arity
        and sources == key_positions
    ):
        # Symmetric shape: each group joins with itself, so walk group²
        # directly.  Every member self-matches, so the whole group is
        # matchable up front and the inner loop only pays for the
        # interval test and real merges.
        for members in grouped.values():
            matched += len(members)  # the self-pairs
            for item in members:
                register(item, item)
            if len(members) == 1:
                continue
            enriched = [
                (item, item.interval.start, item.interval.end)
                for item in members
            ]
            for first, start, end in enriched:
                for other, other_start, other_end in enriched:
                    if (
                        first is not other
                        and other_start < end
                        and start < other_end
                    ):
                        matched += 1
                        union(first, other)
        report.matched_sets += matched
        report.matched_pairs += matched
        return
    for item in lifted.lookup_ordered(first_atom.relation, {}):
        if item.arity != first_atom.arity:
            continue
        args = item.args
        key = tuple(args[position] for position in sources)
        partners = grouped.get(key)
        if not partners:
            continue
        first = resolve(item)
        stamp = first.interval
        start, end = stamp.start, stamp.end
        for other in partners:
            if first is other or first == other:
                matched += 1
                find(first)
                continue
            second_stamp = other.interval
            if second_stamp.start < end and start < second_stamp.end:
                matched += 1
                union(first, other)
    report.matched_sets += matched
    report.matched_pairs += matched


