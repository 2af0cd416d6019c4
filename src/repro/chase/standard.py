"""The classical snapshot chase (Fagin et al.), used per snapshot.

Given a relational source instance and a setting ``M = (RS, RT, Σst,
Σeg)``, the chase materializes a target instance in two phases, both run
on the shared delta-driven engine of :mod:`repro.chase.engine`:

1. **s-t tgd phase** — for every tgd ``φ(x) → ∃y ψ(x, y)`` and every
   homomorphism ``h : φ → I`` that has no extension to ``φ ∧ ψ`` over
   ``(I, J)``, add ``ψ(h(x), N)`` with fresh labeled nulls ``N``.  Because
   tgds are source-to-target, a single pass over all homomorphisms
   suffices (new target facts never enable new lhs matches).  The
   *oblivious* variant skips the extension check and always fires — an
   ablation knob that produces a non-core universal solution.
2. **egd phase** — while some egd ``φ(x) → x1 = x2`` has a homomorphism
   with ``h(x1) ≠ h(x2)``: equate them.  Equations are resolved in
   *batched semi-naive rounds*: every egd match of the round's worklist
   is merged into a fresh :class:`~repro.chase.union_find.TermUnionFind`
   (matched terms are resolved through ``find`` because earlier merges of
   the same round are not yet reflected in the instance), each real merge
   is recorded at representative level, and one in-place substitution
   pass applies the whole round — only the facts mentioning a replaced
   term are rewritten.  Round 0's worklist is the full instance; each
   later round enumerates only the matches touching the facts the
   previous substitution actually added, and the fixpoint is confirmed
   when a round's delta is empty (see the engine module docstring).
   Equating two distinct constants fails the chase, which by Theorem 3.3
   of Fagin et al. (and Proposition 4 here) means *no solution exists*.

   Because the union-find elects the class minimum (constants first) as
   representative, the fixpoint instance — and each recorded
   ``replaced ↦ replacement`` step — is identical to what the classical
   one-equation-at-a-time loop produced; only the re-enumerations are
   gone.

A successful chase returns a universal solution for the snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.errors import ChaseFailureError
from repro.chase.engine import (
    EgdTask,
    build_rhs_probe,
    run_egd_fixpoint,
    run_tgd_pass,
)
from repro.chase.nulls import skolem_arguments, skolem_names
from repro.chase.trace import (
    ChaseTrace,
    FailureRecord,
    TgdStepRecord,
)
from repro.dependencies.dependency import EGD, SourceToTargetTGD
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.fact import Fact
from repro.relational.homomorphism import (
    find_homomorphisms,
    has_homomorphism,
)
from repro.relational.instance import Instance
from repro.relational.terms import GroundTerm, LabeledNull, Variable

__all__ = ["SnapshotChaseResult", "chase_snapshot", "snapshot_satisfies"]

ChaseVariant = Literal["standard", "oblivious"]


@dataclass
class SnapshotChaseResult:
    """Outcome of chasing one snapshot.

    ``failed`` distinguishes chase *failure* (no solution exists) from
    success; on failure ``target`` holds the instance as of the failing
    step, which is useful for diagnosis but is *not* a solution.
    """

    target: Instance
    failed: bool = False
    failure: FailureRecord | None = None
    trace: ChaseTrace = field(default_factory=ChaseTrace)

    @property
    def succeeded(self) -> bool:
        return not self.failed

    def unwrap(self) -> Instance:
        """The universal solution, raising on a failed chase."""
        if self.failed:
            assert self.failure is not None
            raise ChaseFailureError(
                self.failure.dependency, self.failure.left, self.failure.right
            )
        return self.target


def _tgd_label(tgd: SourceToTargetTGD, index: int) -> str:
    return tgd.name or f"σ{index}"


def _egd_label(egd: EGD, index: int) -> str:
    return egd.name or f"ε{index}"


class _SnapshotTgdTask:
    """One s-t tgd prepared for the engine's tgd pass.

    *function* and *key_variables* make up its nulls' Skolem terms.
    """

    __slots__ = ("label", "tgd", "rhs_probe", "function", "key_variables")

    def __init__(
        self,
        label: str,
        tgd: SourceToTargetTGD,
        index: int,
        variant: ChaseVariant,
    ) -> None:
        self.label = label
        self.tgd = tgd
        self.rhs_probe = build_rhs_probe(
            tgd.rhs.atoms, tgd.existential_variables
        )
        self.function = f"{label}#{index}"
        self.key_variables = skolem_arguments(tgd, variant)


class _SnapshotDomain:
    """:class:`~repro.chase.engine.ChaseDomain` over a plain relational target."""

    check_annotations = False

    def __init__(
        self,
        target: Instance,
        source: Instance | None = None,
        variant: ChaseVariant = "standard",
        null_names: dict[str, tuple] | None = None,
    ) -> None:
        self.target = target
        self.source = source
        self.variant = variant
        # This run's name → Skolem term registry (see repro.chase.nulls).
        self.null_names = {} if null_names is None else null_names
        self.probes_for: dict[str, list] = {}

    def attach_probes(self, tasks) -> None:
        """Register and seed the tasks' rhs projection probes."""
        for task in tasks:
            probe = task.rhs_probe
            if probe is not None:
                self.probes_for.setdefault(probe.relation, []).append(probe)
                probe.seed(self.target.facts_of(probe.relation))

    # -- egd side ----------------------------------------------------------
    def match_view(self) -> Instance:
        return self.target

    def apply_substitution(self, mapping) -> list[Fact]:
        return self.target.substitute_in_place(mapping)

    # -- tgd side ----------------------------------------------------------
    def iter_tgd_matches(self, task: _SnapshotTgdTask):
        # copy=False: the live assignment is only read before the iterator
        # resumes; fire_tgd takes the copies it needs.
        assert self.source is not None
        return find_homomorphisms(task.tgd.lhs, self.source, copy=False)

    def fire_tgd(
        self, task: _SnapshotTgdTask, assignment
    ) -> TgdStepRecord | None:
        tgd = task.tgd
        if self.variant == "standard":
            # Skip when h extends to φ ∧ ψ over (I, J): the rhs is
            # target-only, so the extension is a hom of ψ into J that
            # agrees with h on the exported variables.
            if task.rhs_probe is not None:
                if task.rhs_probe.check(assignment):
                    return None
            elif has_homomorphism(tgd.rhs, self.target, initial=assignment):
                return None
        record_assignment: dict[Variable, GroundTerm] = dict(assignment)
        fresh = _skolem_nulls(task, record_assignment, self.null_names)
        extension = record_assignment
        if fresh:
            extension = dict(record_assignment)
            extension.update(zip(tgd.existential_variables, fresh, strict=True))
        new_facts: list[Fact] = []
        for atom in tgd.rhs.atoms:
            item = Fact.make(
                atom.relation,
                tuple([extension.get(arg, arg) for arg in atom.args]),
            )
            if self.target.add(item):
                new_facts.append(item)
                for probe in self.probes_for.get(item.relation, ()):
                    probe.observe(item)
        return TgdStepRecord(
            dependency=task.label,
            assignment=record_assignment,
            added_facts=tuple(new_facts),
            fresh_nulls=fresh,
        )


def _skolem_nulls(
    task: _SnapshotTgdTask,
    assignment: dict[Variable, GroundTerm],
    null_names: dict[str, tuple],
) -> tuple[LabeledNull, ...]:
    """The Skolem-named nulls one firing of *task* gives its existentials."""
    existentials = task.tgd.existential_variables
    if not existentials:
        return ()
    binding = tuple([assignment[variable] for variable in task.key_variables])
    return tuple(
        LabeledNull(name)
        for name in skolem_names(null_names, task.function, existentials, binding)
    )


def _egd_tasks(setting: DataExchangeSetting) -> tuple[EgdTask, ...]:
    # Cached on the setting: tasks are immutable and shared across runs —
    # the abstract chase calls chase_snapshot once per region.
    cached = getattr(setting, "_snapshot_egd_tasks", None)
    if cached is None:
        cached = tuple(
            EgdTask(
                _egd_label(egd, index),
                egd.lhs.atoms,
                egd.left_variable,
                egd.right_variable,
            )
            for index, egd in enumerate(setting.egds, start=1)
        )
        try:
            object.__setattr__(setting, "_snapshot_egd_tasks", cached)
        except AttributeError:
            # The setting grew __slots__: just rebuild per call.
            pass
    return cached


def _snapshot_tgd_tasks(
    setting: DataExchangeSetting, variant: ChaseVariant
) -> list[_SnapshotTgdTask]:
    """The setting's s-t tgds prepared for the engine's tgd pass.

    Each call returns *fresh* tasks: the rhs projection probes they carry
    are per-run mutable state, so tasks are never shared between
    concurrent chases (the sharded abstract chase runs one
    :class:`~repro.chase.incremental.IncrementalRegionChaser` — and
    therefore one task list — per shard).
    """
    return [
        _SnapshotTgdTask(_tgd_label(tgd, index), tgd, index, variant)
        for index, tgd in enumerate(setting.st_tgds, start=1)
    ]


def _run_tgd_phase(
    source: Instance,
    target: Instance,
    setting: DataExchangeSetting,
    variant: ChaseVariant,
    trace: ChaseTrace,
) -> None:
    domain = _SnapshotDomain(target, source=source, variant=variant)
    tasks = _snapshot_tgd_tasks(setting, variant)
    domain.attach_probes(tasks)
    run_tgd_pass(domain, tasks, trace)


def _run_egd_phase(
    target: Instance,
    setting: DataExchangeSetting,
    trace: ChaseTrace,
) -> tuple[Instance, FailureRecord | None]:
    """Chase the egds to fixpoint; returns (instance, failure-or-None).

    A thin wrapper over :func:`repro.chase.engine.run_egd_fixpoint` with
    the snapshot domain; the instance is mutated in place and returned.
    """
    domain = _SnapshotDomain(target)
    failure = run_egd_fixpoint(domain, _egd_tasks(setting), trace)
    return target, failure


def chase_snapshot(
    source: Instance,
    setting: DataExchangeSetting,
    variant: ChaseVariant = "standard",
) -> SnapshotChaseResult:
    """Chase one snapshot, producing a universal solution or a failure.

    *variant* selects the s-t tgd firing policy (``"standard"`` checks for
    an existing extension before firing; ``"oblivious"`` always fires).
    The egd fixpoint enumerates each round against the previous round's
    delta only.  Fresh nulls carry Skolem names (:mod:`repro.chase.nulls`).
    """
    trace = ChaseTrace()
    # Target instances are kept schema-free internally; arity validation
    # already happened at the dependency level where attributes are known.
    target = Instance()
    _run_tgd_phase(source, target, setting, variant, trace)
    result_instance, failure = _run_egd_phase(target, setting, trace)
    if failure is not None:
        return SnapshotChaseResult(
            target=result_instance, failed=True, failure=failure, trace=trace
        )
    return SnapshotChaseResult(target=result_instance, trace=trace)


# ---------------------------------------------------------------------------
# Dependency satisfaction (solution checking at the snapshot level)
# ---------------------------------------------------------------------------


def _tgd_satisfied(source: Instance, target: Instance, tgd: SourceToTargetTGD) -> bool:
    for assignment in find_homomorphisms(tgd.lhs, source):
        if not has_homomorphism(tgd.rhs, target, initial=assignment):
            return False
    return True


def _egd_satisfied(target: Instance, egd: EGD) -> bool:
    for assignment in find_homomorphisms(egd.lhs, target):
        if assignment[egd.left_variable] != assignment[egd.right_variable]:
            return False
    return True


def snapshot_satisfies(
    source: Instance, target: Instance, setting: DataExchangeSetting
) -> bool:
    """``(db, db') |= Σst ∪ Σeg`` — is *target* a solution for *source*?

    Nulls are treated as ordinary domain elements (naive-table semantics),
    exactly as in the definition of solutions over instances with nulls.
    """
    return all(
        _tgd_satisfied(source, target, tgd) for tgd in setting.st_tgds
    ) and all(_egd_satisfied(target, egd) for egd in setting.egds)
