"""The delta-driven chase engine core shared by both chase procedures.

The snapshot chase (Section 3) and the c-chase (Section 4) are the same
fixpoint computation over different instance kinds.  This module owns
that computation once; :mod:`repro.chase.standard` and
:mod:`repro.concrete.cchase` supply a *domain* adapter each and keep
only their phase wiring.

Structure:

* a **tgd pass** — s-t tgds are source-to-target, so a single pass over
  all lhs matches suffices (new target facts never enable new lhs
  matches); the domain decides how matches are found and how a firing
  instantiates the rhs.
* an **egd fixpoint** in *semi-naive rounds*.  Round 0 enumerates every
  egd match of the instance (seeding the worklist with the full
  instance); each substitution pass then mutates the instance **in
  place** — only the facts mentioning a replaced term are discarded and
  re-added — and returns the facts that are genuinely new, the **delta**.
  Round ``k+1`` enumerates only the matches touching the delta: a match
  among untouched facts existed in round ``k`` and was already resolved
  there, so it can only yield a trivial or already-merged equation (see
  :func:`repro.relational.homomorphism.iter_egd_equations_delta`).  The
  fixpoint confirmation is therefore "the delta is empty" — the historic
  full re-scan round is gone, along with the fresh instance allocated
  per round.

Within each round, equations feed one
:class:`~repro.chase.union_find.TermUnionFind` and one substitution pass
applies the whole round, exactly as before this engine existed; round 0
enumerates in the same order as the historic full scans, so chase
traces are byte-identical on every scenario whose merges resolve in one
round (all goldens do).  Later delta rounds enumerate anchor-by-anchor
rather than full-scan order — the recorded *merges* are the same set,
but their order within such a round may differ from the pre-engine
implementation (trace format v2; see docs/architecture.md).
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

from repro.chase.trace import ChaseTrace, EgdStepRecord, FailureRecord, TgdStepRecord
from repro.chase.union_find import ConstantClashError, TermUnionFind
from repro.relational.fact import Fact
from repro.relational.formulas import Atom
from repro.relational.homomorphism import (
    iter_egd_equations,
    iter_egd_equations_delta,
)
from repro.relational.instance import Instance
from repro.relational.terms import Term, Variable

__all__ = [
    "EgdTask",
    "ChaseDomain",
    "RhsProbe",
    "build_rhs_probe",
    "run_tgd_pass",
    "run_egd_fixpoint",
]

class RhsProbe:
    """Precomputed single-atom rhs extension check as a projection set.

    For a tgd whose rhs is one atom with pairwise-distinct unbound
    (existential) variables, "does ``h`` extend to the rhs over the
    target" only depends on the target's *projection* onto the atom's
    bound positions.  The probe keeps that projection as a hash set,
    maintained by the tgd pass on every fact it adds — so a check is one
    tuple build and one set lookup, no index, no backtracking search, no
    per-match ``initial`` dict.  A pleasant side effect: because nothing
    probes the target's ``(position, value)`` index during the tgd pass,
    that index is first built *after* the pass, in one sorted batch,
    instead of being maintained insert-by-insert.

    :func:`build_rhs_probe` returns ``None`` for shapes that still need
    the generic search (multi-atom rhs, repeated existentials).
    """

    __slots__ = ("relation", "arity", "slots", "positions", "projection")

    def __init__(
        self,
        relation: str,
        arity: int,
        slots: tuple[tuple[int, object, Variable | None], ...],
    ) -> None:
        self.relation = relation
        self.arity = arity
        # (position, constant, None) or (position, None, variable) —
        # ordered by position; these are the atom's bound positions.
        self.slots = slots
        self.positions = tuple(slot[0] for slot in slots)
        self.projection: set[tuple] = set()

    def seed(self, facts: Iterable[Fact]) -> None:
        """Load the projection from facts already in the target."""
        for item in facts:
            self.observe(item)

    def observe(self, item: Fact) -> None:
        """Record a fact the tgd pass just added to the target."""
        if item.relation == self.relation and len(item.args) == self.arity:
            args = item.args
            self.projection.add(
                tuple([args[position] for position in self.positions])
            )

    def check(self, assignment) -> bool:
        """``True`` iff the rhs extension exists under *assignment*
        (which must bind every non-existential variable)."""
        return (
            tuple(
                [
                    value if variable is None else assignment[variable]
                    for _position, value, variable in self.slots
                ]
            )
            in self.projection
        )


# Capped so a process generating unboundedly many distinct tgd shapes
# cannot grow the cache forever (clearing only re-analyzes, never breaks).
_probe_specs: dict[tuple, tuple | None] = {}
_PROBE_SPEC_CAP = 4096


def build_rhs_probe(
    atoms: Sequence[Atom], unbound: Iterable[Variable]
) -> RhsProbe | None:
    """A fresh :class:`RhsProbe` for a single-atom rhs, or ``None``.

    *unbound* lists the variables the lhs match does not bind (the tgd's
    existentials).  A repeated unbound variable within the atom needs the
    generic search (the probe cannot express the equality), as does a
    multi-atom rhs.  The shape analysis is cached per (atoms, unbound);
    the returned probe's projection state is always fresh — it belongs to
    one chase run.
    """
    key = (tuple(atoms), tuple(unbound))
    try:
        spec = _probe_specs[key]
    except KeyError:
        if len(_probe_specs) >= _PROBE_SPEC_CAP:
            _probe_specs.clear()
        spec = _analyze_rhs_probe(key[0], key[1])
        _probe_specs[key] = spec
    if spec is None:
        return None
    return RhsProbe(*spec)


def _analyze_rhs_probe(
    atoms: tuple[Atom, ...], unbound: tuple[Variable, ...]
) -> tuple | None:
    if len(atoms) != 1:
        return None
    atom = atoms[0]
    unbound_set = set(unbound)
    slots: list[tuple[int, object, Variable | None]] = []
    seen: set[Variable] = set()
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Variable):
            if arg in unbound_set:
                if arg in seen:
                    return None
                seen.add(arg)
            else:
                slots.append((position, None, arg))
        else:
            slots.append((position, arg, None))
    return (atom.relation, atom.arity, tuple(slots))


class EgdTask:
    """One egd prepared for the engine: label, match-view atoms, equated pair."""

    __slots__ = ("label", "atoms", "left_variable", "right_variable")

    def __init__(
        self,
        label: str,
        atoms: Sequence[Atom],
        left_variable: Variable,
        right_variable: Variable,
    ) -> None:
        self.label = label
        self.atoms = tuple(atoms)
        self.left_variable = left_variable
        self.right_variable = right_variable


class ChaseDomain(Protocol):
    """What the engine needs to know about an instance kind.

    Implemented by ``standard._SnapshotDomain`` (plain relational target)
    and ``cchase._ConcreteDomain`` (concrete target matched through its
    lifted view).  ``match_view`` is the relational instance egd matches
    are enumerated on; ``apply_substitution`` rewrites the underlying
    target in place and returns the *match-view* facts that are new — the
    delta of the next round.
    """

    check_annotations: bool

    def match_view(self) -> Instance: ...

    def apply_substitution(self, mapping: dict[Term, Term]) -> list[Fact]: ...

    def iter_tgd_matches(self, task: object) -> Iterable[dict]: ...

    def fire_tgd(self, task: object, assignment: dict) -> TgdStepRecord | None: ...


def run_tgd_pass(domain: ChaseDomain, tasks: Iterable[object], trace: ChaseTrace) -> None:
    """One pass of s-t tgd steps (no rounds needed: tgds are source-to-target).

    The domain enumerates matches and decides per match whether the step
    fires (``fire_tgd`` returns ``None`` for matches whose rhs extension
    already exists — the *standard* variant's check); fired steps are
    recorded in match order.  Fresh-null names are Skolem terms of their
    firings (:mod:`repro.chase.nulls`), so they do not depend on it.
    """
    for task in tasks:
        for assignment in domain.iter_tgd_matches(task):
            record = domain.fire_tgd(task, assignment)
            if record is not None:
                trace.record(record)


def run_egd_fixpoint(
    domain: ChaseDomain,
    tasks: Sequence[EgdTask],
    trace: ChaseTrace,
) -> FailureRecord | None:
    """Chase the egds to fixpoint in batched semi-naive rounds.

    Returns ``None`` on success, the recorded :class:`FailureRecord` when
    two distinct constants were equated (no solution exists).  The
    domain's target is mutated in place either way; on failure it holds
    every merge recorded before the clash, exactly as the historic
    per-equation loop left it.
    """
    delta: list[Fact] | None = None  # None = seed round over the full instance
    while True:
        union_find = TermUnionFind(check_annotations=domain.check_annotations)
        find = union_find.find
        record = trace.record
        merged = False
        view = domain.match_view()
        for task in tasks:
            if delta is None:
                equations = iter_egd_equations(
                    task.atoms, task.left_variable, task.right_variable, view
                )
            else:
                equations = iter_egd_equations_delta(
                    task.atoms,
                    task.left_variable,
                    task.right_variable,
                    view,
                    delta,
                )
            for left, right in equations:
                if left == right:
                    continue
                root_left = find(left)
                root_right = find(right)
                if root_left == root_right:
                    continue
                try:
                    winner = union_find.union(root_left, root_right)
                except ConstantClashError as clash:
                    failure = FailureRecord(task.label, clash.left, clash.right)
                    trace.record(failure)
                    # Apply every merge recorded before the clash, exactly
                    # as the per-equation loop left the instance.
                    pending = union_find.substitution()
                    if pending:
                        domain.apply_substitution(pending)
                    return failure
                replaced = root_right if winner == root_left else root_left
                record(EgdStepRecord(task.label, replaced, winner))
                merged = True
        if not merged:
            return None
        added = domain.apply_substitution(union_find.substitution())
        if not added:
            # Nothing new entered the instance (every image merged into
            # an existing fact): no new matches are possible, so the
            # fixpoint is confirmed without another enumeration round.
            return None
        delta = added
