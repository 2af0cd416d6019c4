"""``SourceDelta`` — the one canonical "the source changed" value.

Before this module, the repository had three incompatible private ways
to say a source instance changed: the server's strict add/remove JSON
dicts, the incremental chase's snapshot diffs, and ad-hoc fact lists in
tests and examples.  :class:`SourceDelta` is the shared seam: a frozen
add/remove pair of concrete facts with a canonical JSON codec, strict
application semantics, and the set algebra the event-sourced ingestion
layer composes deltas with.

Canonical form
--------------

Both sides are stored sorted by :meth:`ConcreteFact.sort_key` and
duplicate-free, and a fact may not appear on both sides — so two equal
deltas always serialize to byte-identical JSON::

    {"add":    [{"relation": …, "data": […], "interval": "[2, 5)"}, …],
     "remove": […]}

Strictness
----------

:meth:`SourceDelta.apply` refuses to remove an absent fact or add a
present one (:class:`~repro.errors.DeltaError`).  Silently absorbing
either would let the producer's view of the cumulative source drift
from the consumer's — and every byte-identity guarantee downstream of a
delta (server target ≡ from-scratch chase of the cumulative source) is
only meaningful while both sides agree on what that source is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.concrete.concrete_fact import ConcreteFact
from repro.concrete.concrete_instance import ConcreteInstance
from repro.errors import DeltaError
from repro.serialize.jsonio import concrete_fact_from_json, concrete_fact_to_json

__all__ = ["SourceDelta"]


def _canonical_side(facts: Iterable[ConcreteFact], side: str) -> tuple[ConcreteFact, ...]:
    """Sort, validate and freeze one side of a delta."""
    items = list(facts)
    for item in items:
        if not isinstance(item, ConcreteFact):
            raise DeltaError(
                f"delta {side!r} entries must be concrete facts, got {item!r}"
            )
    ordered = sorted(set(items), key=ConcreteFact.sort_key)
    if len(ordered) != len(items):
        raise DeltaError(f"delta {side!r} side lists a fact twice")
    return tuple(ordered)


def _missing_from(
    instance: ConcreteInstance, other: ConcreteInstance
) -> tuple[ConcreteFact, ...]:
    """The facts of *instance* that *other* lacks, in bucket order."""
    return tuple(
        item
        for relation in instance.relation_names()
        for item in instance.iter_facts_of(relation)
        if item not in other
    )


@dataclass(frozen=True)
class SourceDelta:
    """A strict add/remove change to a concrete source instance."""

    add: tuple[ConcreteFact, ...] = ()
    remove: tuple[ConcreteFact, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "add", _canonical_side(self.add, "add"))
        object.__setattr__(self, "remove", _canonical_side(self.remove, "remove"))
        overlap = set(self.add) & set(self.remove)
        if overlap:
            sample = min(overlap, key=ConcreteFact.sort_key)
            raise DeltaError(
                f"delta adds and removes the same fact {sample} "
                f"({len(overlap)} overlapping)"
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "SourceDelta":
        return cls()

    @classmethod
    def between(
        cls, old: ConcreteInstance, new: ConcreteInstance
    ) -> "SourceDelta":
        """The delta taking *old* to *new*; empty iff the two are equal.

        Each side is a set difference over the unsorted relation
        buckets; only the difference is sorted (by the constructor), so
        the result is canonical regardless of how either instance was
        built and a small change to a large instance costs no sort of
        the whole instance.
        """
        return cls(add=_missing_from(new, old), remove=_missing_from(old, new))

    # -- codec -------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """The canonical JSON form (both sides in canonical fact order)."""
        return {
            "add": [concrete_fact_to_json(item) for item in self.add],
            "remove": [concrete_fact_to_json(item) for item in self.remove],
        }

    @classmethod
    def from_json(cls, payload: Any) -> "SourceDelta":
        """Decode the canonical form, reporting the offending entry."""
        if not isinstance(payload, dict):
            raise DeltaError(
                f"a source delta is a JSON object with 'add'/'remove' "
                f"fact lists, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"add", "remove"}
        if unknown:
            raise DeltaError(
                f"unknown source-delta field(s) {sorted(unknown)!r} "
                "(expected only 'add' and 'remove')"
            )
        sides: dict[str, list[ConcreteFact]] = {}
        for side in ("add", "remove"):
            entries = payload.get(side, [])
            if not isinstance(entries, list):
                raise DeltaError(f"delta field {side!r} must be a list of facts")
            facts = []
            for index, entry in enumerate(entries):
                if not isinstance(entry, dict):
                    raise DeltaError(f"{side}[{index}] must be a fact object")
                try:
                    facts.append(concrete_fact_from_json(entry))
                except Exception as exc:  # parse errors come in several types
                    raise DeltaError(
                        f"{side}[{index}] is not a valid fact: {exc}"
                    ) from exc
            sides[side] = facts
        return cls(add=tuple(sides["add"]), remove=tuple(sides["remove"]))

    # -- predicates --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.add and not self.remove

    def __bool__(self) -> bool:
        return not self.is_empty

    def __len__(self) -> int:
        """Total number of changed facts."""
        return len(self.add) + len(self.remove)

    # -- application -------------------------------------------------------

    def apply(self, instance: ConcreteInstance) -> ConcreteInstance:
        """Apply the delta to *instance* in place (strict); returns it.

        Removals run first so an interval revision (remove the stale
        fragment, add its replacements) never trips the duplicate check.
        Raises :class:`DeltaError` naming the first offending fact; the
        instance is left partially modified only if that happens — use
        :meth:`applied_to` when the input must survive a failed apply.
        """
        for item in self.remove:
            if not instance.discard(item):
                raise DeltaError(f"cannot remove absent source fact {item}")
        for item in self.add:
            if not instance.add(item):
                raise DeltaError(f"source fact {item} is already present")
        return instance

    def applied_to(self, instance: ConcreteInstance) -> ConcreteInstance:
        """A copy of *instance* with the delta applied (strict)."""
        return self.apply(instance.copy())

    # -- algebra -----------------------------------------------------------

    def inverse(self) -> "SourceDelta":
        """The delta undoing this one."""
        return SourceDelta(add=self.remove, remove=self.add)

    def then(self, other: "SourceDelta") -> "SourceDelta":
        """The net delta of applying *self* and then *other*.

        A fact added then removed (or removed then re-added) cancels
        out, so following a delta chain and applying its composition
        reach the same instance — the event log's follow cursor relies
        on this to batch consecutive deltas.
        """
        add1, rem1 = set(self.add), set(self.remove)
        add2, rem2 = set(other.add), set(other.remove)
        net_add = (add1 - rem2) | (add2 - rem1)
        net_remove = (rem1 - add2) | (rem2 - add1)
        return SourceDelta(add=tuple(net_add), remove=tuple(net_remove))

    def __str__(self) -> str:
        return f"SourceDelta(+{len(self.add)}, -{len(self.remove)})"
