"""Finite representations of abstract temporal instances (Section 2).

An abstract instance is conceptually an *infinite* sequence of snapshots
``⟨db0, db1, …⟩`` obeying the finite change condition.  We represent it
finitely as a set of **template facts** — interval-stamped facts whose
terms are:

* constants — the same value in every covered snapshot;
* *rigid* labeled nulls — the same unknown in every covered snapshot
  (instance ``J1`` of Figure 2);
* interval-annotated nulls — a *fresh* unknown per covered snapshot
  (instance ``J2`` of Figure 2): at snapshot ℓ the null materializes as
  ``Π_ℓ(N^[s,e)) = N@ℓ``.

``snapshot(ℓ)`` materializes the relational instance at any time point,
and the representation makes the finite change condition hold by
construction: beyond the largest finite endpoint all snapshots are
"the same up to the index ℓ".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import InstanceError, TemporalError
from repro.relational.fact import Fact
from repro.relational.instance import Instance
from repro.relational.terms import (
    AnnotatedNull,
    Constant,
    GroundTerm,
    LabeledNull,
    term_sort_key,
)
from repro.temporal.interval import Interval
from repro.temporal.interval_set import IntervalSet
from repro.temporal.timepoint import INFINITY, Infinity, TimePoint

__all__ = ["TemplateFact", "AbstractInstance"]


@dataclass(frozen=True, slots=True)
class TemplateFact:
    """One interval-stamped fact template of an abstract instance."""

    relation: str
    args: tuple[GroundTerm, ...]
    interval: Interval
    # Cache for at(): templates without annotated nulls project to the
    # same snapshot fact at every covered point.
    _pointless: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.relation:
            raise InstanceError("template fact relation name must be non-empty")
        for value in self.args:
            if isinstance(value, AnnotatedNull):
                if value.annotation != self.interval:
                    raise InstanceError(
                        f"per-snapshot null {value} must be annotated with the "
                        f"template's interval {self.interval}"
                    )
            elif isinstance(value, LabeledNull):
                # '@' is reserved for projected per-snapshot nulls; a rigid
                # null named like a projection would defeat the finite
                # region-probing used by snapshot comparison and hom search.
                if "@" in value.name:
                    raise InstanceError(
                        f"rigid null names must not contain '@': {value.name!r}"
                    )
            elif not isinstance(value, Constant):
                raise InstanceError(
                    f"template arguments must be constants, rigid nulls or "
                    f"annotated nulls, got {value!r}"
                )

    @classmethod
    def make(
        cls, relation: str, args: tuple[GroundTerm, ...], interval: Interval
    ) -> "TemplateFact":
        """Trusted constructor: the caller guarantees the construction
        invariants (annotated nulls carry *interval*, rigid null names
        are '@'-free).  The chase-result merge builds thousands of
        templates from values that satisfy them by construction."""
        self = object.__new__(cls)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "_pointless", None)
        return self

    def at(self, point: int) -> Fact:
        """The snapshot-level fact at time ℓ."""
        if point not in self.interval:
            raise TemporalError(f"{point} outside {self.interval} in {self}")
        cached = self._pointless
        if cached is not None:
            return cached  # type: ignore[return-value]
        args = tuple(
            v.project(point) if isinstance(v, AnnotatedNull) else v
            for v in self.args
        )
        result = Fact(self.relation, args)
        if not any(isinstance(v, AnnotatedNull) for v in self.args):
            # Point-independent: constants and rigid nulls project to
            # themselves, so every covered point yields this same fact.
            object.__setattr__(self, "_pointless", result)
        return result

    def __getstate__(self) -> tuple:
        # Identity only: the at() cache holds a Fact whose cached hash
        # is salted per process and must not cross a pickle boundary.
        return (self.relation, self.args, self.interval)

    def __setstate__(self, state: tuple) -> None:
        relation, args, interval = state
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "_pointless", None)

    def rigid_nulls(self) -> tuple[LabeledNull, ...]:
        return tuple(v for v in self.args if isinstance(v, LabeledNull))

    def per_snapshot_nulls(self) -> tuple[AnnotatedNull, ...]:
        return tuple(v for v in self.args if isinstance(v, AnnotatedNull))

    def sort_key(self) -> tuple:
        return (
            self.relation,
            tuple(term_sort_key(v) for v in self.args),
            self.interval.sort_key(),
        )

    def __str__(self) -> str:
        rendered = ", ".join(str(v) for v in self.args)
        return f"{self.relation}({rendered}) @ {self.interval}"


class AbstractInstance:
    """An abstract temporal instance as a finite set of template facts."""

    __slots__ = ("_templates_source", "_templates_cache")

    def __init__(self, templates: Iterable[TemplateFact] = ()):
        self._templates_source: tuple[Iterable[TemplateFact], ...] | None = None
        self._templates_cache: frozenset[TemplateFact] = frozenset(templates)

    @property
    def _templates(self) -> frozenset[TemplateFact]:
        found = self._templates_cache
        if found is None:
            pieces = self._templates_source
            self._templates_source = None
            found = frozenset(
                template for piece in pieces for template in piece
            )
            self._templates_cache = found
        return found

    def __getstate__(self) -> frozenset[TemplateFact]:
        return self._templates

    def __setstate__(self, state: frozenset[TemplateFact]) -> None:
        self._templates_source = None
        self._templates_cache = state

    # -- constructors -----------------------------------------------------------
    @classmethod
    def deferred(
        cls, pieces: tuple[Iterable[TemplateFact], ...]
    ) -> "AbstractInstance":
        """Build an instance whose template set materializes on first use.

        *pieces* are iterated (once, lazily) and unioned when any
        structural operation first needs the set.  The parallel
        scheduler hands wire-mapped shard sections here so a caller
        that only serializes or samples the result never pays for
        decoding every merged template.
        """
        found = cls.__new__(cls)
        found._templates_source = pieces
        found._templates_cache = None
        return found

    @classmethod
    def from_snapshot_runs(
        cls, runs: Iterable[tuple[Instance, Interval]]
    ) -> "AbstractInstance":
        """Build from (snapshot, interval) runs with *rigid* semantics.

        Every fact of the snapshot holds — with the same constants and the
        same (rigid) nulls — at every time point of the interval.  This is
        how instances like ``J1`` of Figure 2 are written down.
        """
        templates: list[TemplateFact] = []
        for snapshot, stamp in runs:
            for item in snapshot.facts():
                templates.append(TemplateFact(item.relation, item.args, stamp))
        return cls(templates)

    @classmethod
    def empty(cls) -> "AbstractInstance":
        return cls(())

    # -- structure ---------------------------------------------------------------
    @property
    def templates(self) -> frozenset[TemplateFact]:
        return self._templates

    def __iter__(self) -> Iterator[TemplateFact]:
        return iter(sorted(self._templates, key=TemplateFact.sort_key))

    def __len__(self) -> int:
        return len(self._templates)

    def __bool__(self) -> bool:
        return bool(self._templates)

    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted({t.relation for t in self._templates}))

    def rigid_nulls(self) -> frozenset[LabeledNull]:
        found: set[LabeledNull] = set()
        for template in self._templates:
            found.update(template.rigid_nulls())
        return frozenset(found)

    def per_snapshot_nulls(self) -> frozenset[AnnotatedNull]:
        found: set[AnnotatedNull] = set()
        for template in self._templates:
            found.update(template.per_snapshot_nulls())
        return frozenset(found)

    @property
    def is_complete(self) -> bool:
        """``True`` iff no nulls of either kind occur."""
        return not self.rigid_nulls() and not self.per_snapshot_nulls()

    # -- timeline ------------------------------------------------------------------
    def breakpoints(self) -> tuple[int, ...]:
        """All distinct finite interval endpoints, ascending, always
        including 0 so that the region partition covers the whole line."""
        points: set[int] = {0}
        for template in self._templates:
            points.add(template.interval.start)
            if not isinstance(template.interval.end, Infinity):
                points.add(template.interval.end)
        return tuple(sorted(points))

    def horizon(self) -> int:
        """The largest finite endpoint; snapshots at ℓ ≥ horizon are all
        alike (finite change condition)."""
        return self.breakpoints()[-1]

    def regions(self) -> tuple[Interval, ...]:
        """The canonical partition of ``[0, ∞)`` into maximal intervals on
        which the set of covering templates is constant.

        The last region is always the unbounded tail ``[horizon, ∞)``.
        """
        points = self.breakpoints()
        pieces: list[Interval] = []
        for left, right in zip(points, points[1:], strict=False):
            pieces.append(Interval(left, right))
        pieces.append(Interval(points[-1], INFINITY))
        return tuple(pieces)

    def representative_points(self) -> tuple[int, ...]:
        """One probe point per region (each region's start)."""
        return tuple(region.start for region in self.regions())

    def rigid_null_span(self, null: LabeledNull) -> IntervalSet:
        """The set of time points at which a rigid null occurs."""
        stamps = [
            template.interval
            for template in self._templates
            if null in template.rigid_nulls()
        ]
        return IntervalSet(stamps)

    # -- semantics --------------------------------------------------------------------
    def snapshot(self, point: int) -> Instance:
        """The materialized snapshot ``db_ℓ``."""
        result = Instance()
        for template in self._templates:
            if point in template.interval:
                result.add(template.at(point))
        return result

    def snapshots(self, limit: int) -> list[Instance]:
        """The materialized prefix ``db_0 … db_{limit-1}`` (tests, figures)."""
        return [self.snapshot(point) for point in range(limit)]

    def iter_region_deltas(
        self, regions: Iterable[Interval] | None = None
    ) -> Iterator[tuple[Interval, Instance, tuple[Fact, ...], tuple[Fact, ...]]]:
        """Yield ``(region, snapshot at region.start, added, removed)``.

        Equivalent to ``(r, self.snapshot(r.start))`` per region, but the
        snapshot is ONE instance maintained incrementally by an interval
        sweep: templates enter when their stamp starts covering the probe
        point and leave when it ends, so the cost is proportional to the
        number of template transitions, not regions × templates — and the
        instance's lazily-built homomorphism indexes stay warm across
        regions.  The yielded instance is reused and mutated between
        yields: consume it before advancing, never store it.

        *added* and *removed* are the **net** fact-level changes against
        the previous yielded region's snapshot, each sorted by
        ``Fact.sort_key``.  A fact that leaves one template's coverage
        and enters another's at the same breakpoint cancels out of both
        sides — adjacent regions with identical snapshots report empty
        diffs, which is what lets the incremental cross-region chase
        replay such regions without firing a single live rule.  The first
        region reports every fact as added (against the empty instance).

        *regions* must be an ascending subsequence of :meth:`regions`
        (defaults to all of them) — this is what a shard of the region
        scheduler holds.  Templates with per-snapshot (annotated) nulls,
        whose projection differs at every point, force fresh per-region
        snapshots, with diffs computed by set comparison.
        """
        from heapq import heappop, heappush

        region_list = tuple(self.regions() if regions is None else regions)
        if any(
            isinstance(value, AnnotatedNull)
            for template in self._templates
            for value in template.args
        ):
            previous_facts: frozenset[Fact] = frozenset()
            for region in region_list:
                snapshot = self.snapshot(region.start)
                current = snapshot.facts()
                added = sorted(current - previous_facts, key=Fact.sort_key)
                removed = sorted(previous_facts - current, key=Fact.sort_key)
                previous_facts = current
                yield region, snapshot, tuple(added), tuple(removed)
            return
        by_start = sorted(
            self._templates, key=lambda item: item.interval.start
        )
        total = len(by_start)
        live = Instance()
        counts: dict[Fact, int] = {}
        expiring: list[tuple[TimePoint, int, Fact]] = []
        index = 0
        sequence = 0
        for region in region_list:
            point = region.start
            removed_set: set[Fact] = set()
            added_set: set[Fact] = set()
            while expiring and expiring[0][0] <= point:
                _end, _seq, item = heappop(expiring)
                remaining = counts[item] - 1
                if remaining:
                    counts[item] = remaining
                else:
                    del counts[item]
                    live.discard(item)
                    removed_set.add(item)
            while index < total:
                template = by_start[index]
                if template.interval.start > point:
                    break
                index += 1
                if point in template.interval:
                    item = template.at(point)
                    counts[item] = counts.get(item, 0) + 1
                    if counts[item] == 1:
                        live.add(item)
                        added_set.add(item)
                    heappush(
                        expiring, (template.interval.end, sequence, item)
                    )
                    sequence += 1
            # A fact that left one template's coverage and entered
            # another's at this breakpoint was discarded and re-added
            # above; the snapshots agree on it, so it is no net change.
            cancelled = added_set & removed_set
            if cancelled:
                added_set -= cancelled
                removed_set -= cancelled
            yield (
                region,
                live,
                tuple(sorted(added_set, key=Fact.sort_key)),
                tuple(sorted(removed_set, key=Fact.sort_key)),
            )

    def templates_at(self, point: int) -> tuple[TemplateFact, ...]:
        return tuple(
            template
            for template in sorted(self._templates, key=TemplateFact.sort_key)
            if point in template.interval
        )

    # -- combination --------------------------------------------------------------------
    def union(self, other: "AbstractInstance") -> "AbstractInstance":
        return AbstractInstance(self._templates | other._templates)

    def restrict_to(self, relations: Iterable[str]) -> "AbstractInstance":
        wanted = set(relations)
        return AbstractInstance(
            t for t in self._templates if t.relation in wanted
        )

    # -- comparison ----------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Representation equality (same template sets).

        Semantic comparisons (same snapshots / homomorphic equivalence)
        live in :mod:`repro.abstract_view.hom`.
        """
        if not isinstance(other, AbstractInstance):
            return NotImplemented
        return self._templates == other._templates

    def __hash__(self) -> int:
        return hash(self._templates)

    def same_snapshots_as(self, other: "AbstractInstance") -> bool:
        """Pointwise snapshot equality (exact, including null names).

        Checked at the representatives of the *combined* region partition,
        which is sound because both instances are homogeneous inside each
        combined region.
        """
        points = sorted(set(self.breakpoints()) | set(other.breakpoints()))
        probes = [*points, points[-1] + 1 if points else 1]
        return all(
            self.snapshot(point) == other.snapshot(point) for point in probes
        )

    def __str__(self) -> str:
        if not self._templates:
            return "⟨⟩"
        return "⟨" + "; ".join(str(t) for t in self) + "⟩"

    def __repr__(self) -> str:
        return f"AbstractInstance({len(self._templates)} templates)"
