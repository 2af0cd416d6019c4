"""Beyond the paper: s-t tgds with temporal modal operators (Section 7).

The paper's conclusion sketches richer schema mappings with modalities,
e.g. *every PhD graduate was sometime earlier a PhD candidate with an
adviser and a topic*::

    ∀n, t  PhDgrad(n, t) → ∃adv, top, t'  PhDCan(n, adv, top, t') ∧ t' < t

and explicitly leaves open how a chase should pick the witnessing past
snapshot.  This module implements that future-work direction for the
**sometime-in-the-past (♦⁻)** operator:

* :class:`PastTGD` — an s-t tgd whose right-hand side must hold at *some
  strictly earlier* snapshot;
* :func:`satisfies_past_tgd` — the satisfaction check on abstract
  instances;
* :func:`past_chase` — a chase policy that answers the paper's open
  question pragmatically: one witness is materialized at the snapshot
  *immediately before the earliest firing* of each left-hand-side match.
  A single witness placed there serves every later firing of the same
  match, which keeps the result small; a match already firing at time 0
  has no past to put a witness in, so the chase fails (no solution).

An always-in-the-past (■⁻) *checker* is included for symmetry; chasing ■⁻
rhs would require witnesses in every earlier snapshot and is out of scope,
exactly the kind of design question the paper defers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FormulaError
from repro.abstract_view.abstract_instance import AbstractInstance, TemplateFact
from repro.chase.nulls import skolem_names
from repro.dependencies.dependency import SourceToTargetTGD
from repro.relational.formulas import Conjunction
from repro.relational.homomorphism import find_homomorphisms, has_homomorphism
from repro.relational.parser import parse_implication
from repro.relational.terms import AnnotatedNull, GroundTerm, Variable
from repro.temporal.interval import Interval

__all__ = [
    "PastTGD",
    "satisfies_past_tgd",
    "satisfies_always_past",
    "PastChaseResult",
    "past_chase",
]


@dataclass(frozen=True)
class PastTGD:
    """``φ(x) → ♦⁻ ∃y ψ(x, y)``: the rhs held at some earlier snapshot."""

    lhs: Conjunction
    rhs: Conjunction
    existential_variables: tuple[Variable, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        # Reuse the classical tgd's safety validation wholesale.
        SourceToTargetTGD(
            self.lhs, self.rhs, self.existential_variables, self.name
        )

    @property
    def exported_variables(self) -> tuple[Variable, ...]:
        rhs_vars = self.rhs.variable_set()
        return tuple(var for var in self.lhs.variables() if var in rhs_vars)

    @classmethod
    def parse(cls, text: str, name: str = "") -> "PastTGD":
        """Parse the same surface syntax as ordinary tgds."""
        skeleton = parse_implication(text)
        if skeleton.is_equality or skeleton.rhs is None:
            raise FormulaError(f"not a tgd shape: {text!r}")
        return cls(
            lhs=skeleton.lhs,
            rhs=skeleton.rhs,
            existential_variables=skeleton.existential_variables,
            name=name,
        )

    def __str__(self) -> str:
        return f"{self.lhs} → ♦⁻ {self.rhs}"


def _probe_points(source: AbstractInstance, target: AbstractInstance) -> list[int]:
    """All region representatives of both instances plus one tail point."""
    points = sorted(set(source.breakpoints()) | set(target.breakpoints()))
    return [*points, points[-1] + 1]


def satisfies_past_tgd(
    source: AbstractInstance,
    target: AbstractInstance,
    dependency: PastTGD,
) -> bool:
    """Does every lhs match have an rhs witness strictly in its past?

    Checked at every probe point ℓ; for each homomorphism of the lhs into
    ``source.snapshot(ℓ)`` some snapshot ``i < ℓ`` of the target must
    extend it to the rhs.  Probing earlier snapshots only needs the
    breakpoint representatives of the past (homogeneity).
    """
    probes = _probe_points(source, target)
    for point in probes:
        snapshot = source.snapshot(point)
        for assignment in find_homomorphisms(dependency.lhs, snapshot):
            exported = {
                var: assignment[var] for var in dependency.exported_variables
            }
            past_points = sorted({p for p in probes if p < point} | set(range(max(0, point - 1), point)))
            if not any(
                has_homomorphism(
                    dependency.rhs, target.snapshot(past), initial=exported
                )
                for past in past_points
            ):
                return False
    return True


def satisfies_always_past(
    source: AbstractInstance,
    target: AbstractInstance,
    dependency: PastTGD,
) -> bool:
    """The ■⁻ reading: the rhs must hold at *every* earlier snapshot."""
    probes = _probe_points(source, target)
    for point in probes:
        snapshot = source.snapshot(point)
        for assignment in find_homomorphisms(dependency.lhs, snapshot):
            exported = {
                var: assignment[var] for var in dependency.exported_variables
            }
            past_points = {p for p in probes if p < point} | set(
                range(max(0, point - 1), point)
            )
            for past in sorted(past_points):
                if not has_homomorphism(
                    dependency.rhs, target.snapshot(past), initial=exported
                ):
                    return False
    return True


@dataclass
class PastChaseResult:
    """Outcome of the ♦⁻ chase."""

    target: AbstractInstance
    failed: bool = False
    unsatisfiable_at_zero: tuple[str, ...] = ()
    witnesses_placed: int = 0

    @property
    def succeeded(self) -> bool:
        return not self.failed


def past_chase(
    source: AbstractInstance,
    dependencies: tuple[PastTGD, ...] | list[PastTGD],
) -> PastChaseResult:
    """Materialize ♦⁻ witnesses: one per lhs match, placed just before the
    match's earliest firing.

    For each dependency and each distinct exported-variable binding, find
    the earliest time ℓ0 at which the lhs fires; place the rhs (with fresh
    per-snapshot nulls for existential variables) at ``[ℓ0 − 1, ℓ0)``.
    Firing at ℓ0 = 0 has an empty past: the chase fails.  Witness nulls
    are Skolem-named by the binding and the witness stamp.
    """
    null_names: dict[str, tuple] = {}
    templates: list[TemplateFact] = []
    failures: list[str] = []
    witnesses = 0

    for dep_index, dependency in enumerate(dependencies, start=1):
        label = dependency.name or f"♦{dep_index}"
        earliest: dict[tuple, int] = {}
        for region in source.regions():
            snapshot = source.snapshot(region.start)
            for assignment in find_homomorphisms(dependency.lhs, snapshot):
                key = tuple(
                    assignment[var] for var in dependency.exported_variables
                )
                if key not in earliest or region.start < earliest[key]:
                    earliest[key] = region.start
        for key, first_fire in sorted(earliest.items(), key=lambda kv: str(kv[0])):
            if first_fire == 0:
                failures.append(label)
                continue
            stamp = Interval(first_fire - 1, first_fire)
            extension: dict[Variable, GroundTerm] = dict(
                zip(dependency.exported_variables, key, strict=True)
            )
            existentials = dependency.existential_variables
            names = skolem_names(
                null_names, f"{label}#{dep_index}", existentials, key, stamp
            )
            for variable, name in zip(existentials, names, strict=True):
                extension[variable] = AnnotatedNull(name, stamp)
            for atom in dependency.rhs.atoms:
                witness = atom.instantiate(extension)
                templates.append(
                    TemplateFact(witness.relation, witness.args, stamp)
                )
            witnesses += 1

    return PastChaseResult(
        target=AbstractInstance(templates),
        failed=bool(failures),
        unsatisfiable_at_zero=tuple(failures),
        witnesses_placed=witnesses,
    )
