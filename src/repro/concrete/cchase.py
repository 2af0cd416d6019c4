"""The concrete chase — *c-chase* — of Definition 16.

Pipeline (Section 4.3), with both chase phases running on the shared
delta-driven engine of :mod:`repro.chase.engine`:

1. normalize the concrete source instance w.r.t. the lhs of ``Σ+st``;
2. apply all s-t tgd c-chase steps: a step fires for a homomorphism ``h``
   from the lifted lhs (shared temporal variable ``t``) that does not
   extend to the rhs over the current target; each existential variable
   receives a **fresh null annotated with h(t)**, named by its Skolem
   term over the frontier and h(t) (:mod:`repro.chase.nulls`);
3. normalize the target w.r.t. the lhs of ``Σ+eg``;
4. apply egd c-chase steps to a fixpoint: equating two constants fails
   the whole chase (no solution exists — Theorem 19(2)); otherwise an
   interval-annotated null is replaced everywhere by the other term.
   Normalization guarantees both equated nulls carry the same annotation.

   Like the snapshot chase, the egd fixpoint runs in *batched semi-naive
   rounds*: all matches of the round's worklist are merged into one
   :class:`~repro.chase.union_find.TermUnionFind` (constructed with
   annotation checking, so a merge of two differently-annotated nulls —
   impossible after normalization — raises instead of corrupting the
   instance), then a single in-place substitution pass applies the round
   by rewriting only the facts that mention a replaced term.  Round 0's
   worklist is the full target; every later round enumerates only the
   matches touching the previous round's delta, and the fixpoint is
   confirmed when that delta is empty.  Matched terms are resolved
   through ``find`` first because earlier merges of the round are not yet
   visible in the instance; every recorded step equates class
   representatives, and constant/constant clashes are detected at
   representative level — both exactly as the per-equation loop behaved
   after its eager substitutions.

A successful run returns a *concrete solution* ``Jc`` whose semantics
``⟦Jc⟧`` is a universal solution for ``⟦Ic⟧`` (Theorem 19(1),
Corollary 20 — verified end-to-end in this repository's tests).
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
from repro.concrete.concrete_fact import ConcreteFact
from repro.concrete.concrete_instance import ConcreteInstance
from repro.concrete.normalization import (
    NormalizationReport,
    _lift_atoms,
    find_temporal_assignments,
    interval_of,
    naive_normalize,
    normalize_with_report,
)
from repro.dependencies.dependency import SourceToTargetTGD
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.fact import Fact
from repro.relational.formulas import Atom
from repro.relational.homomorphism import has_homomorphism
from repro.relational.terms import AnnotatedNull, GroundTerm, Variable

__all__ = ["CChaseResult", "c_chase", "NormalizationMode"]

NormalizationMode = Literal["conjunction", "naive"]
TgdVariant = Literal["standard", "oblivious"]


@dataclass
class CChaseResult:
    """The outcome of one c-chase run, with intermediate stages retained.

    ``normalized_source`` is the source after stage 1; ``pre_egd_target``
    is the target after stages 2–3 (normalized w.r.t. Σ+eg but before any
    egd step) — both are pedagogically useful and feed the figure
    benchmarks.
    """

    target: ConcreteInstance
    failed: bool = False
    failure: FailureRecord | None = None
    trace: ChaseTrace = field(default_factory=ChaseTrace)
    normalized_source: ConcreteInstance = field(default_factory=ConcreteInstance)
    pre_egd_target: ConcreteInstance = field(default_factory=ConcreteInstance)
    # Populated for normalization="conjunction": the two stages' reports
    # (source w.r.t. Σ+st, target w.r.t. Σ+eg).
    normalization_reports: tuple[NormalizationReport, NormalizationReport] | None = None

    @property
    def succeeded(self) -> bool:
        return not self.failed

    def unwrap(self) -> ConcreteInstance:
        """The concrete solution, raising on a failed chase."""
        if self.failed:
            assert self.failure is not None
            raise ChaseFailureError(
                self.failure.dependency, self.failure.left, self.failure.right
            )
        return self.target


def _normalize(
    instance: ConcreteInstance,
    conjunctions,
    mode: NormalizationMode,
) -> tuple[ConcreteInstance, NormalizationReport | None]:
    if mode == "naive":
        return naive_normalize(instance), None
    return normalize_with_report(instance, conjunctions)


def _lift_rhs(tgd: SourceToTargetTGD, tvar: Variable) -> tuple[Atom, ...]:
    # Cached on the tgd: with lift_lhs cached, tvar is stable across runs,
    # and stable atoms keep the homomorphism search's plan cache warm.
    cached = tgd._lifted_rhs
    if cached is not None and cached[0] == tvar:
        return cached[1]
    lifted = tuple(
        Atom(atom.relation, atom.args + (tvar,)) for atom in tgd.rhs.atoms
    )
    object.__setattr__(tgd, "_lifted_rhs", (tvar, lifted))
    return lifted


class _ConcreteTgdTask:
    """One lifted s-t tgd prepared for the engine's tgd pass.

    *function* and *key_variables* make up its nulls' Skolem terms;
    the stamp h(t) completes each term.
    """

    __slots__ = (
        "label",
        "tgd",
        "lifted_lhs",
        "tvar",
        "lifted_rhs",
        "exported",
        "rhs_probe",
        "function",
        "key_variables",
    )

    def __init__(
        self,
        label: str,
        tgd: SourceToTargetTGD,
        index: int,
        variant: TgdVariant,
    ) -> None:
        self.label = label
        self.tgd = tgd
        self.lifted_lhs = tgd.lift_lhs()
        self.tvar = self.lifted_lhs.shared_variable
        self.lifted_rhs = _lift_rhs(tgd, self.tvar)
        self.exported = set(tgd.exported_variables)
        # The lifted rhs atoms bind the temporal variable like any other
        # exported variable, so only the existentials stay unbound.
        self.rhs_probe = build_rhs_probe(
            self.lifted_rhs, tgd.existential_variables
        )
        self.function = f"{label}#{index}"
        self.key_variables = skolem_arguments(tgd, variant)


class _ConcreteDomain:
    """:class:`~repro.chase.engine.ChaseDomain` over a concrete target.

    Egd matches are enumerated on the target's lifted relational view;
    the substitution delta is translated back into lifted facts so the
    engine's semi-naive rounds see the view they enumerate on.
    """

    check_annotations = True

    def __init__(
        self,
        target: ConcreteInstance,
        source: ConcreteInstance | None = None,
        variant: TgdVariant = "standard",
    ) -> None:
        self.target = target
        self.source = source
        self.variant = variant
        # This run's name → Skolem term registry (see repro.chase.nulls).
        self.null_names: dict[str, tuple] = {}
        self.probes_for: dict[str, list] = {}

    def attach_probes(self, tasks) -> None:
        """Register and seed the tasks' rhs projection probes.

        Probes watch the *lifted* form of the target's facts (the lifted
        rhs atoms carry the temporal variable as their last argument).
        """
        for task in tasks:
            probe = task.rhs_probe
            if probe is not None:
                self.probes_for.setdefault(probe.relation, []).append(probe)
                probe.seed(
                    item.lifted()
                    for item in self.target.facts_of(probe.relation)
                )

    # -- egd side ----------------------------------------------------------
    def match_view(self):
        return self.target.lifted()

    def apply_substitution(self, mapping) -> list[Fact]:
        added = self.target.substitute_in_place(mapping)
        return [item.lifted() for item in added]

    # -- tgd side ----------------------------------------------------------
    def iter_tgd_matches(self, task: _ConcreteTgdTask):
        # copy=False: the live assignment is read (and copied into the
        # extension/trace record) before the iterator resumes.
        assert self.source is not None
        return find_temporal_assignments(task.lifted_lhs, self.source, copy=False)

    def fire_tgd(
        self, task: _ConcreteTgdTask, assignment
    ) -> TgdStepRecord | None:
        tgd = task.tgd
        stamp = interval_of(assignment, task.tvar)
        if self.variant == "standard":
            if task.rhs_probe is not None:
                if task.rhs_probe.check(assignment):
                    return None
            else:
                initial = {
                    var: value
                    for var, value in assignment.items()
                    if var in task.exported or var == task.tvar
                }
                if has_homomorphism(
                    task.lifted_rhs, self.target.lifted(), initial=initial
                ):
                    return None
        record_assignment: dict[Variable, GroundTerm] = dict(assignment)
        existentials = tgd.existential_variables
        fresh: tuple[AnnotatedNull, ...] = ()
        extension = record_assignment
        if existentials:
            binding = tuple(
                [record_assignment[variable] for variable in task.key_variables]
            )
            fresh = tuple(
                AnnotatedNull(name, stamp)
                for name in skolem_names(
                    self.null_names, task.function, existentials, binding, stamp
                )
            )
            extension = dict(record_assignment)
            extension.update(zip(existentials, fresh, strict=True))
        added: list[ConcreteFact] = []
        for atom in tgd.rhs.atoms:
            new_fact = ConcreteFact.make(
                atom.relation,
                tuple([extension.get(arg, arg) for arg in atom.args]),
                stamp,
            )
            if self.target.add(new_fact):
                added.append(new_fact)
                watchers = self.probes_for.get(new_fact.relation)
                if watchers:
                    lifted_fact = new_fact.lifted()
                    for probe in watchers:
                        probe.observe(lifted_fact)
        return TgdStepRecord(
            dependency=task.label,
            assignment=record_assignment,
            added_facts=tuple(item.lifted() for item in added),
            fresh_nulls=fresh,
        )


def _run_st_phase(
    source: ConcreteInstance,
    target: ConcreteInstance,
    setting: DataExchangeSetting,
    variant: TgdVariant,
    trace: ChaseTrace,
) -> None:
    domain = _ConcreteDomain(target, source=source, variant=variant)
    tasks = [
        _ConcreteTgdTask(tgd.name or f"σ{index}+", tgd, index, variant)
        for index, tgd in enumerate(setting.st_tgds, start=1)
    ]
    domain.attach_probes(tasks)
    run_tgd_pass(domain, tasks, trace)


def _egd_tasks(setting: DataExchangeSetting) -> tuple[EgdTask, ...]:
    # Cached on the setting: tasks are immutable and shared across runs.
    cached = getattr(setting, "_concrete_egd_tasks", None)
    if cached is None:
        cached = tuple(
            EgdTask(
                egd.name or f"ε{index}+",
                _lift_atoms(egd.lift_lhs()),
                egd.left_variable,
                egd.right_variable,
            )
            for index, egd in enumerate(setting.egds, start=1)
        )
        try:
            object.__setattr__(setting, "_concrete_egd_tasks", cached)
        except AttributeError:
            # The setting grew __slots__: just rebuild per call.
            pass
    return cached


def _run_egd_phase(
    target: ConcreteInstance,
    setting: DataExchangeSetting,
    trace: ChaseTrace,
) -> tuple[ConcreteInstance, FailureRecord | None]:
    """Resolve the egds in batched semi-naive rounds (module docstring).

    A thin wrapper over :func:`repro.chase.engine.run_egd_fixpoint` with
    the concrete domain; the instance is mutated in place and returned.
    """
    domain = _ConcreteDomain(target)
    failure = run_egd_fixpoint(domain, _egd_tasks(setting), trace)
    return target, failure


def c_chase(
    source: ConcreteInstance,
    setting: DataExchangeSetting,
    normalization: NormalizationMode = "conjunction",
    variant: TgdVariant = "standard",
    coalesce_result: bool = False,
) -> CChaseResult:
    """Run the c-chase of Definition 16 on a concrete source instance.

    Parameters
    ----------
    source:
        The concrete source instance (assumed coalesced, per the paper).
    setting:
        The data exchange setting ``M``; its lifting ``M+`` is derived.
    normalization:
        ``"conjunction"`` uses Algorithm 1 w.r.t. the dependency lhs sets;
        ``"naive"`` uses the endpoint-based baseline (ablation knob).
    variant:
        ``"standard"`` checks for an existing rhs extension before firing
        a tgd; ``"oblivious"`` always fires.
    coalesce_result:
        When ``True``, value-equivalent adjacent fragments of the solution
        are merged before returning (the semantics is unchanged).
    """
    trace = ChaseTrace()
    normalized_source, source_report = _normalize(
        source, setting.lifted_st_lhs_conjunctions(), normalization
    )
    target = ConcreteInstance()
    _run_st_phase(normalized_source, target, setting, variant, trace)
    pre_egd_target, target_report = _normalize(
        target, setting.lifted_egd_lhs_conjunctions(), normalization
    )
    reports = (
        (source_report, target_report)
        if source_report is not None and target_report is not None
        else None
    )
    final, failure = _run_egd_phase(
        pre_egd_target.copy(preserve_caches=True), setting, trace
    )
    if failure is not None:
        return CChaseResult(
            target=final,
            failed=True,
            failure=failure,
            trace=trace,
            normalized_source=normalized_source,
            pre_egd_target=pre_egd_target,
            normalization_reports=reports,
        )
    if coalesce_result:
        final = final.coalesce()
    return CChaseResult(
        target=final,
        trace=trace,
        normalized_source=normalized_source,
        pre_egd_target=pre_egd_target,
        normalization_reports=reports,
    )
