"""Normalization of concrete instances (Section 4.2 of the paper).

Chase steps need homomorphisms from a dependency's left-hand side — whose
atoms share one temporal variable ``t`` — to the concrete instance.  For
``t`` to map to a *single* interval, the facts jointly matched by the lhs
must carry equal stamps.  An instance where this always works is
*normalized* (Definition 7), which Theorem 11 characterizes as the
**empty intersection property** (Definition 10): whenever the
temporally-decoupled form ``φ* ∈ N(Φ+)`` maps onto facts ``f1 … fn``,
their stamps are pairwise disjoint or all equal.

Two normalization algorithms are implemented, exactly as the paper
describes:

* :func:`normalize` — **Algorithm 1** ``norm(Ic, Φ+)``: find the fact
  sets jointly matched by some ``φ*`` with temporally-overlapping stamps,
  merge overlapping sets into components, and fragment each component's
  facts at the component's distinct endpoints.  Output size is ``O(n²)``
  in the worst case (Theorem 13); output is normalized (Theorem 15).
* :func:`naive_normalize` — the ``O(n log n)`` baseline that ignores
  ``Φ+`` and fragments every fact at *all* endpoints of the instance.
  Sound but over-fragments (Figure 6 vs Figure 5).

Match enumeration over the decoupled forms runs on the general flat
written-order join of :mod:`repro.relational.homomorphism`
(:func:`~repro.relational.homomorphism._iter_flat_join_rows`), which
handles any number of all-variable atoms via per-atom join-key groups —
the former two-atom-only fast-path shape detection is gone.

For the dominant two-atom decoupled forms, Algorithm 1's overlap
discovery runs as an **endpoint sweep** per value-equivalence group
(:func:`repro.temporal.interval_set.sweep_overlap_clusters` /
:func:`~repro.temporal.interval_set.sweep_bipartite_clusters`): the
group's intervals are sorted once by their cached sort keys and swept in
``O(g log g)``, producing the same union-find components, the same
matchable facts and the same fragment partition the historical per-pair
enumeration derived in ``O(g²)``.  ``NormalizationReport.matched_sets``
counts **overlap sets** (the transitively-overlapping clusters, which is
what the paper's ``S`` collects) while ``matched_pairs`` reconstructs
the historical per-match count exactly — see the report's docstring.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import FormulaError
from repro.concrete.concrete_fact import ConcreteFact
from repro.concrete.concrete_instance import ConcreteInstance
from repro.relational.formulas import Atom, TemporalConjunction
from repro.relational.homomorphism import (
    _flat_join_plan,
    _iter_join_rows,
    find_homomorphisms_with_images,
)
from repro.relational.terms import Constant, GroundTerm, Variable
from repro.temporal.interval import Interval
from repro.temporal.interval_set import (
    sweep_bipartite_clusters,
    sweep_overlap_clusters,
)
from repro.temporal.timepoint import Infinity

__all__ = [
    "find_temporal_homomorphisms",
    "find_temporal_assignments",
    "interval_of",
    "NormalizationViolation",
    "find_violation",
    "has_empty_intersection_property",
    "is_normalized",
    "NormalizationReport",
    "normalize_with_report",
    "normalize",
    "naive_normalize",
]

# ---------------------------------------------------------------------------
# Temporal homomorphisms via the lifted relational view
# ---------------------------------------------------------------------------


def _lift_atoms(conjunction: TemporalConjunction) -> tuple[Atom, ...]:
    """Append each atom's temporal variable as an ordinary last argument.

    Cached on the conjunction: the chase lifts the same Φ+ members on
    every phase and every round, and stable atom objects keep the search's
    per-atom plan cache warm.
    """
    cached = conjunction._lifted_atoms
    if cached is None:
        cached = tuple(
            Atom(atom.relation, atom.args + (tvar,))
            for atom, tvar in conjunction
        )
        object.__setattr__(conjunction, "_lifted_atoms", cached)
    return cached  # type: ignore[return-value]


def find_temporal_homomorphisms(
    conjunction: TemporalConjunction,
    instance: ConcreteInstance,
    initial: Mapping[Variable, GroundTerm] | None = None,
    copy: bool = True,
) -> Iterator[tuple[dict[Variable, GroundTerm], tuple[ConcreteFact, ...]]]:
    """Homomorphisms from a temporal conjunction into a concrete instance.

    Works uniformly for the shared form ``φ+`` (all atoms must match facts
    with one common stamp) and the decoupled form ``φ*`` (stamps are
    independent): temporal variables are ordinary variables of the lifted
    relational view and bind to ``Constant(interval)`` values.

    Yields the assignment (temporal variables included) and the matched
    concrete facts in atom order.  ``copy=False`` yields the live search
    dict (see :func:`~repro.relational.homomorphism
    .find_homomorphisms_with_images`).
    """
    lifted = _lift_atoms(conjunction)
    resolve = instance.resolve_lifted
    for assignment, images in find_homomorphisms_with_images(
        lifted, instance.lifted(), initial=initial, copy=copy
    ):
        yield assignment, tuple(resolve(item) for item in images)


def find_temporal_assignments(
    conjunction: TemporalConjunction,
    instance: ConcreteInstance,
    initial: Mapping[Variable, GroundTerm] | None = None,
    copy: bool = True,
) -> Iterator[dict[Variable, GroundTerm]]:
    """Like :func:`find_temporal_homomorphisms` but without the images.

    The c-chase phases only need the variable assignment (the matched
    facts are irrelevant once the stamp is known), so they skip the
    per-match resolution of lifted facts back to concrete ones.
    """
    lifted = _lift_atoms(conjunction)
    for assignment, _images in find_homomorphisms_with_images(
        lifted, instance.lifted(), initial=initial, copy=copy
    ):
        yield assignment


def interval_of(
    assignment: Mapping[Variable, GroundTerm], variable: Variable
) -> Interval:
    """Unwrap a temporal variable's binding into an interval."""
    value = assignment[variable]
    if not (isinstance(value, Constant) and isinstance(value.value, Interval)):
        raise FormulaError(
            f"variable {variable} is bound to {value!r}, not a time interval"
        )
    return value.value


def _iter_decoupled_images(
    decoupled: TemporalConjunction, instance: ConcreteInstance
) -> Iterator[tuple[ConcreteFact, ...]]:
    """The image tuples of all ``φ*`` homomorphisms into *instance*.

    Normalization only consumes the matched facts (the Δ sets feed a
    union-find whose outcome is order-independent), so enumeration runs
    as a flat written-order join over the lifted view, uniformly for any
    number of atoms: each atom's candidates come from the pairwise
    intersection of the index buckets of its already-bound positions.
    Every homomorphism produces exactly one image tuple, so the match
    *count* (``NormalizationReport.matched_sets``) is preserved.
    """
    lifted_atoms = _lift_atoms(decoupled)
    lifted = instance.lifted()
    resolve = instance.resolve_lifted
    plan = _flat_join_plan(lifted_atoms)
    if plan is None:
        for _assignment, images in find_homomorphisms_with_images(
            lifted_atoms, lifted, copy=False, atom_order="written"
        ):
            yield tuple(resolve(item) for item in images)
        return
    for row in _iter_join_rows(plan, lifted):
        yield tuple(resolve(item) for item in row)


# ---------------------------------------------------------------------------
# Empty intersection property (Definition 10) and normalizedness checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationViolation:
    """A witness that the empty intersection property fails.

    The matched facts' stamps intersect without all being equal, so the
    temporal variable of the corresponding shared conjunction cannot be
    mapped to a single interval covering the whole match.
    """

    conjunction: TemporalConjunction
    facts: tuple[ConcreteFact, ...]

    def __str__(self) -> str:
        listed = "; ".join(str(item) for item in self.facts)
        return f"empty intersection property violated by {{{listed}}}"


def _common_interval(stamps: Sequence[Interval]) -> Interval | None:
    """The intersection of all stamps, or ``None`` when empty."""
    common: Interval | None = stamps[0]
    for stamp in stamps[1:]:
        if common is None:
            return None
        common = common.intersect(stamp)
    return common


def find_violation(
    instance: ConcreteInstance,
    conjunctions: Iterable[TemporalConjunction],
) -> NormalizationViolation | None:
    """The first violation of the empty intersection property, or ``None``."""
    for conjunction in conjunctions:
        decoupled = conjunction.normalized()
        for images in _iter_decoupled_images(decoupled, instance):
            distinct = tuple(dict.fromkeys(images))
            stamps = [item.interval for item in distinct]
            common = _common_interval(stamps)
            if common is None:
                continue
            if any(stamp != stamps[0] for stamp in stamps[1:]):
                return NormalizationViolation(conjunction, distinct)
    return None


def has_empty_intersection_property(
    instance: ConcreteInstance,
    conjunctions: Iterable[TemporalConjunction],
) -> bool:
    """Definition 10, decided by exhaustive homomorphism enumeration."""
    return find_violation(instance, list(conjunctions)) is None


def is_normalized(
    instance: ConcreteInstance,
    conjunctions: Iterable[TemporalConjunction],
) -> bool:
    """Normalizedness w.r.t. Φ+ — by Theorem 11, the empty intersection
    property is an exact characterization, and it is what we decide."""
    return has_empty_intersection_property(instance, conjunctions)


# ---------------------------------------------------------------------------
# Algorithm 1: norm(Ic, Φ+)
# ---------------------------------------------------------------------------


class _FactUnionFind:
    """Union-find over concrete facts for the set-merging stage."""

    def __init__(self) -> None:
        self._parent: dict[ConcreteFact, ConcreteFact] = {}

    def find(self, item: ConcreteFact) -> ConcreteFact:
        # Path-halving: one loop, no second compression pass.
        parent = self._parent
        if item not in parent:
            parent[item] = item
            return item
        above = parent[item]
        while above != item:
            grand = parent[above]
            parent[item] = grand
            item = grand
            above = parent[item]
        return item

    def union(self, left: ConcreteFact, right: ConcreteFact) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left != root_right:
            # Deterministic winner keeps components reproducible.
            if root_left.sort_key() <= root_right.sort_key():
                self._parent[root_right] = root_left
            else:
                self._parent[root_left] = root_right

    def components(self) -> list[set[ConcreteFact]]:
        grouped: dict[ConcreteFact, set[ConcreteFact]] = {}
        for item in self._parent:
            grouped.setdefault(self.find(item), set()).add(item)
        return list(grouped.values())


@dataclass
class NormalizationReport:
    """What Algorithm 1 did: inputs, groups and the fragment arithmetic.

    ``matched_sets`` carries **overlap-set semantics**: per two-atom
    value-equivalence group it counts the
    transitively-overlapping clusters the sweep discovers (the members
    of the paper's ``S`` after merging within one group), and on the
    generic multi-atom path it counts matched ``Δ`` sets as before.
    ``matched_pairs`` reconstructs the historical count exactly — one
    per ``φ*`` homomorphism whose stamps intersect, self-matches
    included — without enumerating pairs (the sweep counts them in
    ``O(g log g)``).

    ``groups`` counts the two-atom value-equivalence groups swept.
    ``groups_replayed`` is always 0: every run sweeps every group, and
    the field stays for report readers that show a replayed share.
    """

    input_size: int
    output_size: int
    matched_sets: int = 0
    matched_pairs: int = 0
    components: int = 0
    facts_fragmented: int = 0
    fragments_created: int = 0
    groups: int = 0
    groups_replayed: int = 0

    @property
    def blowup(self) -> float:
        """Output-to-input size ratio (the Theorem 13 quantity)."""
        if self.input_size == 0:
            return 1.0
        return self.output_size / self.input_size


def _build_pair_groups(
    instance: ConcreteInstance,
    lifted_atoms: tuple[Atom, ...],
    plan,
) -> tuple[bool, dict]:
    """The two-atom value-equivalence groups of a decoupled conjunction.

    Returns ``(symmetric, groups)``.  *Symmetric* shapes (one relation,
    join key in the same positions on both atoms) group every candidate
    fact once: ``key → members``.  Asymmetric shapes keep the sides
    apart — ``key → (firsts, seconds)`` — because only cross-side matches
    exist; keys no first-atom fact joins are left with an empty first
    list and skipped by the caller.

    Grouping goes through :meth:`ConcreteInstance.group_index`: the
    decoupled form's join keys never involve the temporal variable, so
    every key position indexes the fact's *data* tuple, and — unlike the
    reference enumeration — no lifted view, sorted bucket or
    lifted→concrete resolution is needed (the sweep sorts by interval
    itself and its outcome is order-independent).  The index is
    maintained incrementally across mutations, so a chained ``c_chase``
    run re-grouping the same shape pays only for the facts that changed
    since the last sweep.
    """
    first_atom, second_atom = lifted_atoms
    key_positions = plan.key_positions[1]
    sources = tuple(position for _atom, position in plan.key_sources[1])
    symmetric = (
        first_atom.relation == second_atom.relation
        and first_atom.arity == second_atom.arity
        and sources == key_positions
    )
    second_arity = second_atom.arity - 1  # data arity: lifted minus interval
    seconds_by_key = instance.group_index(
        second_atom.relation, second_arity, key_positions
    )
    if symmetric:
        return True, seconds_by_key
    firsts_by_key = instance.group_index(
        first_atom.relation, first_atom.arity - 1, sources
    )
    # Only keys with facts on *both* sides can produce a cross-side
    # match; the empty-firsts entries the bucket scan used to carry were
    # skipped by the caller anyway.
    sides_by_key: dict[tuple, tuple[list[ConcreteFact], list[ConcreteFact]]] = {}
    for key, seconds in seconds_by_key.items():
        firsts = firsts_by_key.get(key)
        if firsts is not None:
            sides_by_key[key] = (firsts, seconds)
    return False, sides_by_key


def _sweep_two_atom(
    instance: ConcreteInstance,
    lifted_atoms: tuple[Atom, ...],
    plan,
    union_find: _FactUnionFind,
    report: NormalizationReport,
) -> None:
    """Endpoint-sweep overlap discovery for a two-atom decoupled form.

    Per group, one ``O(g log g)`` sweep yields the overlap clusters
    (chained into the union-find — the same components the per-pair
    enumeration merges) and both report counts.
    """
    register = union_find._parent.setdefault
    union = union_find.union
    symmetric, groups = _build_pair_groups(instance, lifted_atoms, plan)
    if symmetric:
        for members in groups.values():
            report.groups += 1
            count = len(members)
            if count == 1:
                # A lone member only self-matches: one overlap set.
                chains, sets, pairs = (), 1, 0
            elif count == 2:
                first, second = members
                if first.interval.overlaps(second.interval):
                    chains, sets, pairs = ((first, second),), 1, 1
                else:
                    chains, sets, pairs = (), 2, 0
            else:
                clusters, pairs = sweep_overlap_clusters(
                    [item.interval for item in members]
                )
                chains = tuple(
                    tuple(members[index] for index in cluster)
                    for cluster in clusters
                    if len(cluster) > 1
                )
                sets = len(clusters)
            # Every member self-matches (both atoms onto one fact), so
            # the whole group registers up front.
            for item in members:
                register(item, item)
            for chain in chains:
                base = chain[0]
                for item in chain[1:]:
                    union(base, item)
            report.matched_sets += sets
            report.matched_pairs += count + 2 * pairs
        return
    for firsts, seconds in groups.values():
        if not firsts:
            continue
        report.groups += 1
        if len(firsts) == 1 or len(seconds) == 1:
            # Star shape: the lone fact is every edge's endpoint, so
            # all its overlap partners form one component with it.
            if len(firsts) == 1:
                center, others = firsts[0], seconds
            else:
                center, others = seconds[0], firsts
            stamp = center.interval
            start, end = stamp.start, stamp.end
            chain = [center]
            for item in others:
                other_stamp = item.interval
                if other_stamp.start < end and start < other_stamp.end:
                    chain.append(item)
            pairs = len(chain) - 1
            chains = (tuple(chain),) if pairs else ()
            sets = 1 if pairs else 0
        elif len(firsts) * len(seconds) <= 16:
            # Tiny group: enumerate the few cross edges and merge
            # component lists directly — same components as the
            # sweep, without its event machinery (chain order is
            # irrelevant to the union-find and the counts).
            comp_of: dict[ConcreteFact, list[ConcreteFact]] = {}
            comps: list[list[ConcreteFact]] = []
            pairs = 0
            for first in firsts:
                stamp = first.interval
                start, end = stamp.start, stamp.end
                for second in seconds:
                    other_stamp = second.interval
                    if not (other_stamp.start < end and start < other_stamp.end):
                        continue
                    pairs += 1
                    first_comp = comp_of.get(first)
                    second_comp = comp_of.get(second)
                    if first_comp is None and second_comp is None:
                        comp = [first] if first is second else [first, second]
                        comps.append(comp)
                        comp_of[first] = comp_of[second] = comp
                    elif first_comp is None:
                        second_comp.append(first)
                        comp_of[first] = second_comp
                    elif second_comp is None:
                        first_comp.append(second)
                        comp_of[second] = first_comp
                    elif first_comp is not second_comp:
                        first_comp.extend(second_comp)
                        for member in second_comp:
                            comp_of[member] = first_comp
                        second_comp.clear()
            chains = tuple(tuple(comp) for comp in comps if comp)
            sets = len(chains)
        else:
            clusters, pairs = sweep_bipartite_clusters(
                [item.interval for item in firsts],
                [item.interval for item in seconds],
            )
            chains = tuple(
                tuple(firsts[index] for index in left_ids)
                + tuple(seconds[index] for index in right_ids)
                for left_ids, right_ids in clusters
            )
            sets = len(clusters)
        # Only facts witnessing a cross-side overlap match (a component
        # with one member has no edge): register exactly those.
        for chain in chains:
            base = chain[0]
            register(base, base)
            for item in chain[1:]:
                union(base, item)
        report.matched_sets += sets
        report.matched_pairs += pairs


def _interior_cuts(
    cuts: list[int], stamp: Interval
) -> "list[int]":
    """The slice of sorted *cuts* strictly inside ``(start, end)``.

    One bisection per bound; shared by Algorithm 1's fragment planner
    and :func:`naive_normalize` so the two stay in lockstep (the
    sweep≡naive equivalence suites rely on identical cut selection).
    """
    low = bisect_right(cuts, stamp.start)
    end = stamp.end
    high = len(cuts) if isinstance(end, Infinity) else bisect_left(cuts, end)
    return cuts[low:high]


def _plan_fragments(
    union_find: _FactUnionFind, report: NormalizationReport
) -> list[tuple[ConcreteFact, tuple[ConcreteFact, ...]]]:
    """Stage 3: fragment every component at its interior endpoints.

    The component's distinct finite endpoints are sorted once; each
    member takes the sub-range strictly inside its own stamp by binary
    search and fragments through the trusted
    :meth:`~repro.concrete.concrete_fact.ConcreteFact.fragment_sorted`
    path — ``O(m log m)`` per component instead of the historical
    every-point-against-every-fact filter.
    """
    planned: list[tuple[ConcreteFact, tuple[ConcreteFact, ...]]] = []
    for members in union_find.components():
        report.components += 1
        finite: set[int] = set()
        unbounded = False
        for item in members:
            stamp = item.interval
            finite.add(stamp.start)
            end = stamp.end
            if isinstance(end, Infinity):
                unbounded = True
            else:
                finite.add(end)
        if len(finite) + (1 if unbounded else 0) == 2:
            # Every member carries the same stamp (two endpoints
            # total): no point can fall strictly inside.
            continue
        cuts = sorted(finite)
        for item in members:
            interior = _interior_cuts(cuts, item.interval)
            if not interior:
                continue
            fragments = item.fragment_sorted(interior)
            report.facts_fragmented += 1
            report.fragments_created += len(fragments)
            planned.append((item, fragments))
    return planned


def normalize_with_report(
    instance: ConcreteInstance,
    conjunctions: Iterable[TemporalConjunction],
) -> tuple[ConcreteInstance, NormalizationReport]:
    """Algorithm 1 ``norm(Ic, Φ+)`` with an execution report.

    Stages, mirroring the paper's pseudocode:

    1. build ``N(Φ+)`` and the set ``S`` of fact sets ``∆`` jointly
       matched by some ``φ*`` whose stamps have a non-empty common
       intersection — per two-atom conjunction, an endpoint sweep per
       value-equivalence group;
    2. merge the ``∆``s that share facts until a fixpoint (connected
       components of the share-a-fact graph);
    3. fragment every fact of every component at the component's distinct
       endpoints falling strictly inside the fact's stamp.
    """
    report = NormalizationReport(
        input_size=len(instance), output_size=len(instance)
    )

    union_find = _FactUnionFind()
    for conjunction in conjunctions:
        decoupled = conjunction.normalized()
        lifted_atoms = _lift_atoms(decoupled)
        plan = _flat_join_plan(lifted_atoms)
        if plan is not None and len(lifted_atoms) == 2:
            _sweep_two_atom(instance, lifted_atoms, plan, union_find, report)
            continue
        # Generic shapes (single atom, three-plus atoms, constants):
        # enumerate Δ sets through the flat join.
        for images in _iter_decoupled_images(decoupled, instance):
            delta = tuple(dict.fromkeys(images))
            stamps = [item.interval for item in delta]
            if _common_interval(stamps) is None:
                continue
            report.matched_sets += 1
            report.matched_pairs += 1
            first = delta[0]
            union_find.find(first)
            for other in delta[1:]:
                union_find.union(first, other)

    planned = _plan_fragments(union_find, report)
    # The joins above probed the instance's lifted view, so it is warm.
    # When nothing fragments (the common case for chase targets) the
    # copy carries that warm view to its consumer; when fragments will
    # be replaced, a cold copy is cheaper than paying incremental index
    # maintenance on every replace.
    result = instance.copy(preserve_caches=not planned)
    result.apply_fragments(planned)
    report.output_size = len(result)
    return result, report


def normalize(
    instance: ConcreteInstance,
    conjunctions: Iterable[TemporalConjunction],
) -> ConcreteInstance:
    """Algorithm 1 ``norm(Ic, Φ+)`` (see :func:`normalize_with_report`)."""
    result, _report = normalize_with_report(instance, conjunctions)
    return result


def naive_normalize(instance: ConcreteInstance) -> ConcreteInstance:
    """The naïve ``O(n log n)`` normalization (Φ+ ignored).

    Every fact is fragmented at every distinct endpoint of the whole
    instance falling inside its stamp.  The result is normalized w.r.t.
    *any* set of temporal conjunctions, at the price of unnecessary
    fragments (Figure 6); the ablation benchmark quantifies the excess.
    The endpoints are sorted once and each fact takes its interior
    sub-range by binary search, so the bound in the name actually holds
    (the historical filter re-scanned every endpoint per fact).
    """
    finite: set[int] = set()
    for item in instance.facts():
        stamp = item.interval
        finite.add(stamp.start)
        end = stamp.end
        if not isinstance(end, Infinity):
            finite.add(end)
    cuts = sorted(finite)
    result = instance.copy()
    for item in instance.facts():
        interior = _interior_cuts(cuts, item.interval)
        if interior:
            result.replace(item, item.fragment_sorted(interior))
    return result
