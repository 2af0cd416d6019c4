"""Homomorphism search: formulas into instances, instances into instances.

Two flavors, both central to the paper:

* **formula → instance** (:func:`find_homomorphisms`): assignments of the
  variables of a conjunction to ground terms of an instance such that every
  atom's image is a fact.  This drives chase steps, dependency-satisfaction
  checks and query evaluation.
* **instance → instance** (:func:`find_instance_homomorphism`): a map on
  terms that is the identity on constants and sends every fact to a fact.
  This is the homomorphism of Section 2 used to define universal solutions,
  and it also powers the core computation.

The search is plain backtracking, engineered for the chase hot path:

* candidate facts come from the instance's incrementally-maintained
  ``(position, value)`` hash index via
  :meth:`~repro.relational.instance.Instance.lookup_ordered`, whose
  buckets are pre-sorted — enumeration is deterministic without any
  per-node sorting;
* the variable assignment is a single dict extended by **bind/undo**
  rather than copied at every node;
* the next atom is the one with the smallest index-candidate cardinality
  (ties broken by input order), so the tightest relation drives the join
  instead of a purely structural unbound-variable count.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.relational.fact import Fact
from repro.relational.formulas import Atom, Conjunction
from repro.relational.instance import Instance
from repro.relational.terms import (
    Constant,
    GroundTerm,
    Term,
    Variable,
    term_sort_key,
)

__all__ = [
    "find_homomorphisms",
    "find_homomorphism",
    "has_homomorphism",
    "find_homomorphisms_with_images",
    "iter_egd_equations",
    "iter_egd_equations_delta",
    "match_atom_against_fact",
    "find_instance_homomorphism",
    "has_instance_homomorphism",
    "is_homomorphism",
]


class _AtomPlan:
    """Pre-analyzed atom: constant positions split from variable positions.

    Candidates fetched through :meth:`Instance.lookup_ordered` already
    satisfy every *bound* position (constants and assigned variables are
    part of the index probe), so extending the assignment only has to
    visit the unbound variable positions of the chosen atom.
    """

    __slots__ = ("atom", "relation", "arity", "constants", "var_positions")

    def __init__(self, atom: Atom) -> None:
        self.atom = atom
        self.relation = atom.relation
        self.arity = atom.arity
        self.constants: dict[int, GroundTerm] = {}
        self.var_positions: list[tuple[int, Term]] = []
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                self.constants[position] = arg
            else:
                self.var_positions.append((position, arg))

    def bindings(
        self, assignment: Mapping[Variable, GroundTerm]
    ) -> dict[int, GroundTerm]:
        """Positions whose value is already forced under *assignment*."""
        bound = dict(self.constants)
        for position, variable in self.var_positions:
            value = assignment.get(variable)
            if value is not None:
                bound[position] = value
        return bound


def _plan_for(atom: Atom) -> _AtomPlan:
    """The cached search plan of *atom* (atoms are immutable)."""
    plan = atom._search_plan
    if plan is None:
        plan = _AtomPlan(atom)
        object.__setattr__(atom, "_search_plan", plan)
    return plan  # type: ignore[return-value]


def find_homomorphisms_with_images(
    atoms: Sequence[Atom] | Conjunction,
    instance: Instance,
    initial: Mapping[Variable, GroundTerm] | None = None,
    copy: bool = True,
    atom_order: str = "cardinality",
) -> Iterator[tuple[dict[Variable, GroundTerm], tuple[Fact, ...]]]:
    """Yield every homomorphism together with the per-atom image facts.

    The image tuple is aligned with the input atom order — Algorithm 1
    needs to know *which* fact each atom mapped to, not just the variable
    assignment.  Enumeration order is deterministic: candidates arrive in
    ``Fact.sort_key`` order from the pre-sorted index buckets, and atom
    selection is by smallest candidate cardinality with ties keeping the
    written atom order.

    ``atom_order="written"`` skips the cardinality-driven selection and
    joins the atoms strictly left to right — the flat enumeration the egd
    and normalization enumerators rely on for their documented order
    (and to avoid per-node cardinality probes on shapes where the written
    order is already the right one).

    With ``copy=False`` the yielded assignment is the search's *live*
    dict: read it before resuming the iterator and never store it.  The
    chase phases use this to skip one dict allocation per match.
    """
    atom_list: tuple[Atom, ...] = (
        atoms.atoms if isinstance(atoms, Conjunction) else tuple(atoms)
    )
    assignment: dict[Variable, GroundTerm] = dict(initial or {})
    plans = [_plan_for(atom) for atom in atom_list]
    images: list[Fact | None] = [None] * len(atom_list)
    lookup_ordered = instance.lookup_ordered
    candidate_count = instance.candidate_count
    written_order = atom_order == "written"

    def search(
        remaining: list[int],
    ) -> Iterator[tuple[dict[Variable, GroundTerm], tuple[Fact, ...]]]:
        # Pick the remaining atom with the fewest index candidates (a
        # cardinality-driven greedy join order; ties keep input order),
        # or simply the leftmost one in written-order mode.
        if len(remaining) == 1 or written_order:
            chosen = remaining[0]
            bindings = plans[chosen].bindings(assignment)
        else:
            chosen = remaining[0]
            bindings = plans[chosen].bindings(assignment)
            best_count = candidate_count(plans[chosen].relation, bindings)
            for index in remaining[1:]:
                if best_count == 0:
                    break
                other = plans[index].bindings(assignment)
                count = candidate_count(plans[index].relation, other)
                if count < best_count:
                    chosen, bindings, best_count = index, other, count
        plan = plans[chosen]
        unbound = [
            entry for entry in plan.var_positions if entry[0] not in bindings
        ]
        last = len(remaining) == 1
        rest = [index for index in remaining if index != chosen] if not last else []
        arity = plan.arity
        for candidate in lookup_ordered(plan.relation, bindings):
            if candidate.arity != arity:
                continue
            args = candidate.args
            newly_bound: list[Term] = []
            clash = False
            for position, variable in unbound:
                value = args[position]
                current = assignment.get(variable)
                if current is None:
                    assignment[variable] = value
                    newly_bound.append(variable)
                elif current != value:
                    clash = True
                    break
            if clash:
                for variable in newly_bound:
                    del assignment[variable]
                continue
            images[chosen] = candidate
            if last:
                yield (
                    dict(assignment) if copy else assignment
                ), tuple(images)  # type: ignore[misc]
            else:
                yield from search(rest)
            for variable in newly_bound:
                del assignment[variable]
        images[chosen] = None

    if not atom_list:
        yield dict(assignment), ()
        return
    if len(atom_list) == 1:
        # Flat fast path: no recursion, no per-call closure machinery.
        # Single-atom conjunctions are the chase's most common shape
        # (tgd rhs extension checks, copy tgd lhs, decoupled singletons).
        yield from _search_single(plans[0], instance, assignment, copy)
        return
    if not assignment and len(atom_list) == 2:
        # Flat pair join for unconstrained two-atom conjunctions (the
        # dominant tgd-lhs shape).  With no initial bindings and all-
        # variable atoms, the cardinality rule reduces to "outer = the
        # smaller relation, ties keep written order; inner = its join
        # partners" — so a group join enumerates in exactly the generic
        # search's order, without per-node candidate counts or bindings
        # dicts.
        plan = _flat_join_plan(atom_list)
        if plan is not None:
            if written_order:
                outer_index = 0
            else:
                counts = [
                    candidate_count(atom.relation, _EMPTY_BINDINGS)
                    for atom in atom_list
                ]
                outer_index = 1 if counts[1] < counts[0] else 0
            yield from _iter_pair_matches(atom_list, outer_index, instance, copy)
            return
    if not assignment and len(atom_list) > 2:
        plan = _flat_join_plan(atom_list)
        if plan is not None and _wcoj_selected(plan, instance):
            # Large cyclic ≥3-atom bodies: per-variable intersection
            # beats any atom-at-a-time order here, and its enumeration
            # order is content-determined (written-order lexicographic)
            # rather than cardinality-driven — the same rows for every
            # engine, index state, and mutation history.
            slots = tuple(plan.slot_of.items())
            live: dict[Variable, GroundTerm] = {}
            for row in _iter_wcoj_rows(plan, instance):
                for variable, (index, position) in slots:
                    live[variable] = row[index].args[position]
                yield (dict(live) if copy else live), row
            return
    yield from search(list(range(len(atom_list))))


_EMPTY_BINDINGS: dict[int, GroundTerm] = {}


def _iter_pair_matches(
    atom_list: tuple[Atom, ...],
    outer_index: int,
    instance: Instance,
    copy: bool = True,
) -> Iterator[tuple[dict[Variable, GroundTerm], tuple[Fact, ...]]]:
    """Group join for an unconstrained all-variable two-atom conjunction.

    *outer_index* selects which atom drives the outer loop (the caller
    replicates the generic search's cardinality rule); the inner atom's
    facts are grouped once on the positions of the shared variables.
    Enumeration order equals the generic search's: outer facts in
    ``sort_key`` order, partners in ``sort_key`` order within the join
    group, images aligned with the written atom order.
    """
    inner_index = 1 - outer_index
    outer_atom = atom_list[outer_index]
    inner_atom = atom_list[inner_index]
    outer_positions = {arg: pos for pos, arg in enumerate(outer_atom.args)}
    inner_key_positions: list[int] = []
    outer_key_positions: list[int] = []
    inner_new_slots: list[tuple[Term, int]] = []
    for position, arg in enumerate(inner_atom.args):
        outer_position = outer_positions.get(arg)
        if outer_position is None:
            inner_new_slots.append((arg, position))
        else:
            inner_key_positions.append(position)
            outer_key_positions.append(outer_position)
    outer_slots = tuple(enumerate(outer_atom.args))
    outer_first = outer_index == 0
    inner_arity = inner_atom.arity
    live: dict[Variable, GroundTerm] = {}
    if len(inner_key_positions) == 1:
        # One shared variable: the inner candidates are exactly one
        # `(position, value)` index bucket — probe it instead of building
        # a group map.  The index is maintained incrementally on
        # mutation, so a long-lived instance (the abstract chase's
        # region-sweep source) amortizes it across every probe.
        inner_position = inner_key_positions[0]
        outer_position = outer_key_positions[0]
        inner_lookup = instance.lookup_ordered
        inner_relation = inner_atom.relation
        for outer_fact in instance.lookup_ordered(
            outer_atom.relation, _EMPTY_BINDINGS
        ):
            if outer_fact.arity != outer_atom.arity:
                continue
            args = outer_fact.args
            partners = inner_lookup(
                inner_relation, {inner_position: args[outer_position]}
            )
            if not partners:
                continue
            for position, variable in outer_slots:
                live[variable] = args[position]  # type: ignore[index]
            for inner_fact in partners:
                if inner_fact.arity != inner_arity:
                    continue
                inner_args = inner_fact.args
                for variable, position in inner_new_slots:
                    live[variable] = inner_args[position]  # type: ignore[index]
                images = (
                    (outer_fact, inner_fact)
                    if outer_first
                    else (inner_fact, outer_fact)
                )
                yield (dict(live) if copy else live), images
        return
    grouped: dict[tuple, list[Fact]] = {}
    for item in instance.lookup_ordered(inner_atom.relation, _EMPTY_BINDINGS):
        if item.arity != inner_atom.arity:
            continue
        key = tuple(item.args[p] for p in inner_key_positions)
        grouped.setdefault(key, []).append(item)
    for outer_fact in instance.lookup_ordered(
        outer_atom.relation, _EMPTY_BINDINGS
    ):
        if outer_fact.arity != outer_atom.arity:
            continue
        args = outer_fact.args
        partners = grouped.get(tuple(args[p] for p in outer_key_positions))
        if not partners:
            continue
        for position, variable in outer_slots:
            live[variable] = args[position]  # type: ignore[index]
        for inner_fact in partners:
            inner_args = inner_fact.args
            for variable, position in inner_new_slots:
                live[variable] = inner_args[position]  # type: ignore[index]
            images = (
                (outer_fact, inner_fact)
                if outer_first
                else (inner_fact, outer_fact)
            )
            yield (dict(live) if copy else live), images


def _search_single(
    plan: _AtomPlan,
    instance: Instance,
    assignment: dict[Variable, GroundTerm],
    copy: bool = True,
) -> Iterator[tuple[dict[Variable, GroundTerm], tuple[Fact, ...]]]:
    """Enumerate the matches of one atom (flat loop, no recursion).

    Deliberately mirrors the candidate bind/undo loop of ``search`` in
    :func:`find_homomorphisms_with_images` — keep the two in sync.  The
    duplication buys the hottest call shape (single-atom conjunctions)
    a run without the recursive generator machinery.  An unconstrained
    all-distinct-variable atom (the copy-tgd lhs) additionally skips the
    bind/undo bookkeeping: every candidate matches, so the loop just
    overwrites one live assignment dict per fact.
    """
    if not assignment and not plan.constants:
        var_positions = plan.var_positions
        if len({variable for _p, variable in var_positions}) == len(
            var_positions
        ):
            arity = plan.arity
            live: dict[Variable, GroundTerm] = {}
            for candidate in instance.lookup_ordered(
                plan.relation, _EMPTY_BINDINGS
            ):
                if candidate.arity != arity:
                    continue
                args = candidate.args
                for position, variable in var_positions:
                    live[variable] = args[position]  # type: ignore[index]
                yield (dict(live) if copy else live), (candidate,)
            return
    bindings = plan.bindings(assignment)
    unbound = [
        entry for entry in plan.var_positions if entry[0] not in bindings
    ]
    arity = plan.arity
    for candidate in instance.lookup_ordered(plan.relation, bindings):
        if candidate.arity != arity:
            continue
        args = candidate.args
        newly_bound: list[Term] = []
        clash = False
        for position, variable in unbound:
            value = args[position]
            current = assignment.get(variable)
            if current is None:
                assignment[variable] = value
                newly_bound.append(variable)
            elif current != value:
                clash = True
                break
        if clash:
            for variable in newly_bound:
                del assignment[variable]
            continue
        yield (dict(assignment) if copy else assignment), (candidate,)
        for variable in newly_bound:
            del assignment[variable]


def find_homomorphisms(
    atoms: Sequence[Atom] | Conjunction,
    instance: Instance,
    initial: Mapping[Variable, GroundTerm] | None = None,
    copy: bool = True,
) -> Iterator[dict[Variable, GroundTerm]]:
    """Yield every assignment mapping the conjunction into the instance.

    ``copy=False`` yields the live search dict (see
    :func:`find_homomorphisms_with_images`).
    """
    for assignment, _images in find_homomorphisms_with_images(
        atoms, instance, initial, copy
    ):
        yield assignment


def find_homomorphism(
    atoms: Sequence[Atom] | Conjunction,
    instance: Instance,
    initial: Mapping[Variable, GroundTerm] | None = None,
) -> dict[Variable, GroundTerm] | None:
    """The first homomorphism, or ``None`` when none exists."""
    for assignment, _images in find_homomorphisms_with_images(
        atoms, instance, initial
    ):
        return assignment
    return None


def has_homomorphism(
    atoms: Sequence[Atom] | Conjunction,
    instance: Instance,
    initial: Mapping[Variable, GroundTerm] | None = None,
) -> bool:
    """``True`` iff some homomorphism exists."""
    return find_homomorphism(atoms, instance, initial) is not None


# ---------------------------------------------------------------------------
# Flat written-order joins and egd match enumeration (full and semi-naive)
# ---------------------------------------------------------------------------


class _FlatJoinPlan:
    """A written-order join plan over an all-variable conjunction.

    Covers any number of atoms whose arguments are variables, distinct
    within each atom (repeats *across* atoms are the join conditions).
    ``slot_of`` maps each variable to the ``(atom, position)`` that binds
    it first; ``key_positions[i]`` lists atom *i*'s positions carrying an
    earlier-bound variable, and ``key_sources[i]`` the matching source
    slots — so atom *i*'s join key is read straight off the already
    chosen facts, with no assignment dict in sight.
    """

    __slots__ = (
        "atoms",
        "slot_of",
        "key_positions",
        "key_sources",
        "cyclic",
        "wcoj_plan",
    )

    def __init__(self, atoms: tuple[Atom, ...]) -> None:
        self.atoms = atoms
        self.slot_of: dict[Term, tuple[int, int]] = {}
        self.key_positions: list[tuple[int, ...]] = []
        self.key_sources: list[tuple[tuple[int, int], ...]] = []
        # Both lazily computed on the first join-selection probe.
        self.cyclic: bool | None = None
        self.wcoj_plan: _WcojPlan | None = None
        for index, atom in enumerate(atoms):
            positions: list[int] = []
            sources: list[tuple[int, int]] = []
            for position, arg in enumerate(atom.args):
                slot = self.slot_of.get(arg)
                if slot is None:
                    self.slot_of[arg] = (index, position)
                else:
                    positions.append(position)
                    sources.append(slot)
            self.key_positions.append(tuple(positions))
            self.key_sources.append(tuple(sources))


# Capped like _INTERVAL_CONSTANTS: distinct dependency shapes are few in
# any one workload, but a long-running process generating many settings
# must not grow this without bound (clearing only re-plans, never breaks).
_flat_join_plans: dict[tuple[Atom, ...], _FlatJoinPlan | None] = {}
_FLAT_JOIN_PLAN_CAP = 4096


def _flat_join_plan(atoms: tuple[Atom, ...]) -> _FlatJoinPlan | None:
    """The cached flat-join plan of *atoms*, or ``None`` for shapes
    (constants, repeated variables within an atom) that need the generic
    backtracking search."""
    try:
        return _flat_join_plans[atoms]
    except KeyError:
        pass
    if len(_flat_join_plans) >= _FLAT_JOIN_PLAN_CAP:
        _flat_join_plans.clear()
    plan: _FlatJoinPlan | None = _FlatJoinPlan(atoms)
    for atom in atoms:
        if not all(isinstance(arg, Variable) for arg in atom.args):
            plan = None
            break
        if len(set(atom.args)) != len(atom.args):
            plan = None
            break
    _flat_join_plans[atoms] = plan
    return plan


def _iter_flat_join_rows(
    plan: _FlatJoinPlan, instance: Instance
) -> Iterator[tuple[Fact, ...]]:
    """All image tuples of the plan's conjunction, in written-atom order.

    Atom 0 ranges over its sorted relation list; each later atom's
    partners come from a group map keyed on its join-key values — one
    linear pass per atom to build, dict lookups to enumerate.  The
    resulting order is exactly the written-order backtracking search's
    (outer facts in ``sort_key`` order, partners in ``sort_key`` order
    within each group).
    """
    atoms = plan.atoms
    count = len(atoms)
    first = atoms[0]
    outer = [
        item
        for item in instance.lookup_ordered(first.relation, {})
        if item.arity == first.arity
    ]
    if count == 1:
        for item in outer:
            yield (item,)
        return
    groups: list[dict[tuple, list[Fact]]] = []
    for index in range(1, count):
        atom = atoms[index]
        key_positions = plan.key_positions[index]
        grouped: dict[tuple, list[Fact]] = {}
        for item in instance.lookup_ordered(atom.relation, {}):
            if item.arity != atom.arity:
                continue
            key = tuple(item.args[position] for position in key_positions)
            grouped.setdefault(key, []).append(item)
        groups.append(grouped)
    if count == 2:
        # Flat loop for the by-far-most-common shape (key egds, decoupled
        # pairs) — same plan, no recursion.
        sources = plan.key_sources[1]
        partner_groups = groups[0]
        for item in outer:
            args = item.args
            key = tuple(args[position] for _atom, position in sources)
            for partner in partner_groups.get(key, ()):
                yield item, partner
        return
    row: list[Fact] = [None] * count  # type: ignore[list-item]

    def descend(index: int) -> Iterator[tuple[Fact, ...]]:
        key = tuple(
            row[atom_index].args[position]
            for atom_index, position in plan.key_sources[index]
        )
        for item in groups[index - 1].get(key, ()):
            row[index] = item
            if index + 1 == count:
                yield tuple(row)
            else:
                yield from descend(index + 1)

    for item in outer:
        row[0] = item
        yield from descend(1)


# ---------------------------------------------------------------------------
# Worst-case-optimal (generic) join over the same plans
# ---------------------------------------------------------------------------
#
# The flat join binds one *atom* at a time, so a cyclic body enumerates
# every binding of a prefix of its atoms before the closing atom gets to
# prune — Θ(paths) intermediate work for Θ(triangles) output on the
# canonical skew shapes.  The generic join binds one *variable* at a
# time instead: the candidate values for each variable come from the
# smallest index bucket among the atoms containing it, and every other
# such atom filters the value by an exact index probe (a leapfrog over
# the existing ``(position, value)`` buckets — no new index structures).
#
# Order contract: the variable order is the plan's first-occurrence
# order (``slot_of`` insertion order), and candidate values enumerate in
# ``term_sort_key`` order.  Because ``Fact.sort_key`` compares arguments
# componentwise in position order, the flat join's row sequence is
# exactly the lexicographic order in those same variable values — so
# :func:`_iter_wcoj_rows` yields byte-identical rows in the identical
# sequence to :func:`_iter_flat_join_rows`, for *any* plan shape.  The
# property suite sweeps this equality; everything downstream (traces,
# egd step order, goldens) is therefore unchanged by the join selection.


def _plan_is_cyclic(plan: _FlatJoinPlan) -> bool:
    """GYO ear reduction on the body's variable hypergraph.

    Repeatedly drop variables occurring in a single atom and atoms whose
    variable set is contained in another's; the body is *cyclic* iff a
    non-empty irreducible core remains.  Acyclic bodies (paths, stars,
    hierarchical shapes) keep the flat join: atom-at-a-time
    with group maps is cheaper there than per-variable intersection.
    """
    edges = [set(atom.args) for atom in plan.atoms]
    changed = True
    while changed and edges:
        changed = False
        counts = Counter(var for edge in edges for var in edge)
        for edge in edges:
            ears = [var for var in edge if counts[var] == 1]
            if ears:
                edge.difference_update(ears)
                for var in ears:
                    del counts[var]
                changed = True
        kept: list[set] = []
        for index, edge in enumerate(edges):
            if not edge:
                changed = True
                continue
            absorbed = False
            for other_index, other in enumerate(edges):
                if other_index == index or not other:
                    continue
                if edge <= other and (
                    len(edge) < len(other) or index > other_index
                ):
                    absorbed = True
                    break
            if absorbed:
                changed = True
                continue
            kept.append(edge)
        edges = kept
    return bool(edges)


# Below this many facts in every body relation, the flat join stays
# selected even for cyclic bodies: the generic join's per-variable
# candidate probes are a constant-factor overhead, and the flat join's
# quadratic intermediate is bounded by the input size anyway.  Measured
# crossover on the hub-skewed triangle workload sits between 144 and
# 432 facts per relation; either engine enumerates byte-identical rows,
# so the cutoff can never change results.
_WCOJ_MIN_FACTS = 256


def _wcoj_selected(plan: _FlatJoinPlan, instance: Instance | None = None) -> bool:
    """Whether *plan* runs on the generic (worst-case-optimal) join.

    Two-atom plans always stay flat (the pair paths are already optimal);
    ≥3-atom cyclic bodies take the generic join once their input is big
    enough to matter (some body relation holds at least
    ``_WCOJ_MIN_FACTS`` facts — skipped when no *instance* is supplied).
    Both joins enumerate the identical row sequence, so the choice never
    changes a result or its order.
    """
    if len(plan.atoms) < 3:
        return False
    cyclic = plan.cyclic
    if cyclic is None:
        cyclic = plan.cyclic = _plan_is_cyclic(plan)
    if not cyclic:
        return False
    if instance is None:
        return True
    return any(
        instance.candidate_count(atom.relation, _EMPTY_BINDINGS)
        >= _WCOJ_MIN_FACTS
        for atom in plan.atoms
    )


class _WcojPlan:
    """Static per-variable schedule for the generic join of one plan.

    ``steps[k]`` lists the occurrences of the k-th variable (in
    first-occurrence order) as ``(atom, position, completes, sorted)``
    tuples: *completes* marks the occurrence whose binding fixes the
    atom's last open position (the exact probe there also fetches the
    image fact), and *sorted* marks positions where the driving atom's
    candidate projection is already in ``term_sort_key`` order (the
    position is the atom's first still-open one, so the pre-sorted
    bucket order projects monotonically — no per-node sort needed).
    """

    __slots__ = ("var_order", "steps", "relations", "arities")

    def __init__(self, plan: _FlatJoinPlan) -> None:
        atoms = plan.atoms
        var_order = tuple(plan.slot_of)
        index_of = {var: index for index, var in enumerate(var_order)}
        completes_at = [
            max(index_of[arg] for arg in atom.args) for atom in atoms
        ]
        steps: list[tuple[tuple[int, int, bool, bool], ...]] = []
        for rank, var in enumerate(var_order):
            entries: list[tuple[int, int, bool, bool]] = []
            for atom_index, atom in enumerate(atoms):
                for position, arg in enumerate(atom.args):
                    if arg != var:
                        continue
                    first_open = min(
                        open_position
                        for open_position, open_arg in enumerate(atom.args)
                        if index_of[open_arg] >= rank
                    )
                    entries.append(
                        (
                            atom_index,
                            position,
                            completes_at[atom_index] == rank,
                            position == first_open,
                        )
                    )
            steps.append(tuple(entries))
        self.var_order = var_order
        self.steps = tuple(steps)
        self.relations = tuple(atom.relation for atom in atoms)
        self.arities = tuple(atom.arity for atom in atoms)


def _iter_wcoj_rows(
    plan: _FlatJoinPlan, instance: Instance
) -> Iterator[tuple[Fact, ...]]:
    """Generic-join enumeration of the plan's image tuples.

    Byte-identical rows in the identical sequence to
    :func:`_iter_flat_join_rows` (see the order contract above); only
    the work to produce them differs — per-variable candidate
    intersection instead of atom-at-a-time enumeration.
    """
    wplan = plan.wcoj_plan
    if wplan is None:
        wplan = plan.wcoj_plan = _WcojPlan(plan)
    steps = wplan.steps
    relations = wplan.relations
    arities = wplan.arities
    last_rank = len(steps) - 1
    lookup = instance.lookup_ordered
    candidate_count = instance.candidate_count
    atom_count = len(relations)
    bindings: list[dict[int, GroundTerm]] = [{} for _ in range(atom_count)]
    images: list[Fact | None] = [None] * atom_count

    def descend(rank: int) -> Iterator[tuple[Fact, ...]]:
        entries = steps[rank]
        driver = entries[0]
        best = candidate_count(relations[driver[0]], bindings[driver[0]])
        for entry in entries[1:]:
            if best == 0:
                return
            count = candidate_count(relations[entry[0]], bindings[entry[0]])
            if count < best:
                driver, best = entry, count
        if best == 0:
            return
        driver_atom, driver_position, _completes, projection_sorted = driver
        driver_arity = arities[driver_atom]
        candidates = lookup(relations[driver_atom], bindings[driver_atom])
        values: list[GroundTerm] = []
        if projection_sorted:
            for item in candidates:
                if item.arity != driver_arity:
                    continue
                value = item.args[driver_position]
                if not values or values[-1] != value:
                    values.append(value)
        else:
            seen: set[GroundTerm] = set()
            for item in candidates:
                if item.arity != driver_arity:
                    continue
                value = item.args[driver_position]
                if value not in seen:
                    seen.add(value)
                    values.append(value)
            values.sort(key=term_sort_key)
        last = rank == last_rank
        for value in values:
            for atom_index, position, _c, _s in entries:
                bindings[atom_index][position] = value
            supported = True
            for atom_index, _position, completes, _s in entries:
                hits = lookup(relations[atom_index], bindings[atom_index])
                if completes:
                    arity = arities[atom_index]
                    image = None
                    for item in hits:
                        if item.arity == arity:
                            image = item
                            break
                    if image is None:
                        supported = False
                        break
                    images[atom_index] = image
                elif not hits:
                    supported = False
                    break
            if supported:
                if last:
                    yield tuple(images)  # type: ignore[misc]
                else:
                    yield from descend(rank + 1)
            for atom_index, position, _c, _s in entries:
                del bindings[atom_index][position]

    if steps:
        yield from descend(0)


def _iter_join_rows(
    plan: _FlatJoinPlan, instance: Instance
) -> Iterator[tuple[Fact, ...]]:
    """The plan's image tuples via whichever join :func:`_wcoj_selected` picks.

    The single dispatch point shared by the chase engine's match
    enumeration, egd equation enumeration, normalization's decoupled
    matching, and the query evaluator — one selection rule covers them
    all, and the two joins' row sequences are identical.
    """
    if _wcoj_selected(plan, instance):
        return _iter_wcoj_rows(plan, instance)
    return _iter_flat_join_rows(plan, instance)


def iter_egd_equations(
    atoms: Sequence[Atom],
    left_var: Variable,
    right_var: Variable,
    instance: Instance,
) -> Iterator[tuple[GroundTerm, GroundTerm]]:
    """Yield ``(h(left_var), h(right_var))`` for every lhs homomorphism.

    The egd phases only consume the equated pair, so any all-variable lhs
    — two atoms or ten — takes the flat written-order group join of
    :func:`_iter_flat_join_rows` and reads the equated values straight
    off the matched facts.  For the canonical key-egd shape
    ``R(x̄,y) ∧ R(x̄,y′) → y = y′`` this reproduces the historical
    specialized enumeration order exactly (outer facts in ``sort_key``
    order, join partners in ``sort_key`` order within the join group) —
    the order the golden traces were captured under.  Shapes with
    constants or repeated variables fall back to the written-order
    backtracking search.
    """
    atom_list = tuple(atoms)
    plan = _flat_join_plan(atom_list)
    if plan is None:
        for assignment, _images in find_homomorphisms_with_images(
            atom_list, instance, copy=False, atom_order="written"
        ):
            yield assignment[left_var], assignment[right_var]
        return
    left_atom, left_position = plan.slot_of[left_var]
    right_atom, right_position = plan.slot_of[right_var]
    if len(atom_list) == 2:
        # Flat loop for the key-egd shape: pairs come straight off the
        # group join, values straight off the matched facts.
        first, second = atom_list
        key_positions = plan.key_positions[1]
        grouped: dict[tuple, list[Fact]] = {}
        for item in instance.lookup_ordered(second.relation, _EMPTY_BINDINGS):
            if item.arity != second.arity:
                continue
            grouped.setdefault(
                tuple([item.args[p] for p in key_positions]), []
            ).append(item)
        sources = tuple(position for _atom, position in plan.key_sources[1])
        for item in instance.lookup_ordered(first.relation, _EMPTY_BINDINGS):
            if item.arity != first.arity:
                continue
            args = item.args
            partners = grouped.get(tuple([args[p] for p in sources]))
            if not partners:
                continue
            if left_atom == 0 and right_atom == 0:
                pair = (args[left_position], args[right_position])
                for _partner in partners:
                    yield pair
            elif left_atom == 0:
                left_value = args[left_position]
                for partner in partners:
                    yield left_value, partner.args[right_position]
            elif right_atom == 0:
                right_value = args[right_position]
                for partner in partners:
                    yield partner.args[left_position], right_value
            else:
                for partner in partners:
                    partner_args = partner.args
                    yield (
                        partner_args[left_position],
                        partner_args[right_position],
                    )
        return
    for row in _iter_join_rows(plan, instance):
        yield row[left_atom].args[left_position], row[right_atom].args[
            right_position
        ]


def match_atom_against_fact(
    atom: Atom, item: Fact
) -> dict[Variable, GroundTerm] | None:
    """The assignment binding *atom* to exactly *item*, or ``None``.

    Respects constants and repeated variables; this is the anchor step of
    the semi-naive enumeration (one atom pinned to one delta fact).
    """
    if atom.relation != item.relation or atom.arity != item.arity:
        return None
    assignment: dict[Variable, GroundTerm] = {}
    for arg, value in zip(atom.args, item.args, strict=True):
        if isinstance(arg, Constant):
            if arg != value:
                return None
        else:
            bound = assignment.get(arg)
            if bound is None:
                assignment[arg] = value  # type: ignore[index]
            elif bound != value:
                return None
    return assignment


def iter_egd_equations_delta(
    atoms: Sequence[Atom],
    left_var: Variable,
    right_var: Variable,
    instance: Instance,
    delta: Sequence[Fact],
) -> Iterator[tuple[GroundTerm, GroundTerm]]:
    """Equations from lhs matches that touch at least one *delta* fact.

    The classic semi-naive decomposition: for each anchor position ``i``,
    atom ``i`` ranges over the delta facts, atoms before ``i`` over old
    (non-delta) facts only, atoms after ``i`` over the whole instance —
    so every match involving a delta fact is produced exactly once.
    Matches among old facts only cannot yield a *new* non-trivial
    equation (their equation was already resolved in the round that left
    those facts untouched), which is what makes the delta rounds of the
    engine exhaustive.
    """
    atom_list = tuple(atoms)
    delta_set = set(delta)
    for anchor, atom in enumerate(atom_list):
        rest = atom_list[:anchor] + atom_list[anchor + 1 :]
        for item in delta:
            initial = match_atom_against_fact(atom, item)
            if initial is None:
                continue
            for assignment, images in find_homomorphisms_with_images(
                rest, instance, initial=initial, copy=False, atom_order="written"
            ):
                if any(image in delta_set for image in images[:anchor]):
                    continue
                yield assignment[left_var], assignment[right_var]


# ---------------------------------------------------------------------------
# Instance-to-instance homomorphisms (Section 2)
# ---------------------------------------------------------------------------


def find_instance_homomorphism(
    source: Instance,
    target: Instance,
    fixed: Mapping[Term, GroundTerm] | None = None,
    frozen_nulls: Iterable[Term] = (),
) -> dict[Term, GroundTerm] | None:
    """A homomorphism ``h : source → target``, or ``None``.

    * constants map to themselves,
    * nulls map to arbitrary ground terms of the target,
    * every source fact's image must be a target fact.

    *fixed* pre-binds some nulls (used by the abstract-view search to keep
    a global assignment of rigid nulls consistent across snapshots);
    *frozen_nulls* lists nulls that must map to themselves (used by the
    core computation to test foldings that fix a sub-instance).
    """
    mapping: dict[Term, GroundTerm] = dict(fixed or {})
    for null in frozen_nulls:
        mapping.setdefault(null, null)  # type: ignore[arg-type]

    source_facts = sorted(source.facts(), key=Fact.sort_key)

    def fact_bindings(item: Fact) -> dict[int, GroundTerm]:
        bound: dict[int, GroundTerm] = {}
        for position, arg in enumerate(item.args):
            if isinstance(arg, Constant):
                bound[position] = arg
            elif arg in mapping:
                bound[position] = mapping[arg]
        return bound

    def extend(item: Fact, image: Fact) -> list[Term] | None:
        """Bind unbound nulls of *item* to the values in *image*."""
        newly_bound: list[Term] = []
        for arg, value in zip(item.args, image.args, strict=True):
            if isinstance(arg, Constant):
                if arg != value:
                    return None
            else:
                current = mapping.get(arg)
                if current is None:
                    mapping[arg] = value
                    newly_bound.append(arg)
                elif current != value:
                    for bound_arg in newly_bound:
                        del mapping[bound_arg]
                    return None
        return newly_bound

    def search(position: int) -> bool:
        if position == len(source_facts):
            return True
        item = source_facts[position]
        candidates = target.lookup_ordered(item.relation, fact_bindings(item))
        for candidate in candidates:
            newly_bound = extend(item, candidate)
            if newly_bound is None:
                continue
            if search(position + 1):
                return True
            for bound_arg in newly_bound:
                del mapping[bound_arg]
        return False

    if search(0):
        return mapping
    return None


def has_instance_homomorphism(source: Instance, target: Instance) -> bool:
    """``True`` iff some homomorphism ``source → target`` exists."""
    return find_instance_homomorphism(source, target) is not None


def is_homomorphism(
    mapping: Mapping[Term, Term], source: Instance, target: Instance
) -> bool:
    """Verify that *mapping* is a homomorphism ``source → target``.

    Checks the two defining conditions: identity on constants (constants
    may simply be absent from the mapping) and fact preservation.
    """
    for term, image in mapping.items():
        if isinstance(term, Constant) and image != term:
            return False
    lookup = dict(mapping)
    for item in source.facts():
        mapped = item.substitute(lookup)
        if mapped not in target:
            return False
    return True
