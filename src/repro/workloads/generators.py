"""Seeded synthetic workload generators for benchmarks and stress tests.

The paper quantifies its algorithms asymptotically (Theorem 13's ``O(n²)``
fragment bound, the ``O(n log n)`` naïve normalization) rather than on a
measured corpus, so the benchmarks need synthetic workloads with
controllable size and overlap structure.  Everything here is deterministic
given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.concrete.concrete_instance import ConcreteInstance
from repro.concrete.concrete_fact import concrete_fact
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.formulas import TemporalConjunction
from repro.relational.parser import parse_conjunction
from repro.relational.schema import Schema
from repro.temporal.interval import Interval, interval

__all__ = [
    "EmploymentWorkload",
    "random_employment_history",
    "random_org_history",
    "melting_org_history",
    "nested_overlap_instance",
    "overlapping_salary_history",
    "nested_overlap_conjunctions",
    "staircase_instance",
    "random_concrete_instance",
    "triangle_graph_instance",
    "exchange_setting_copy",
    "exchange_setting_join",
    "exchange_setting_org",
    "exchange_setting_decompose",
    "exchange_setting_triangle",
]


# ---------------------------------------------------------------------------
# Employment-style histories (the paper's motivating domain, scaled up)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmploymentWorkload:
    """A generated employment history plus its generation parameters."""

    instance: ConcreteInstance
    people: int
    timeline: int
    seed: int

    @property
    def size(self) -> int:
        return len(self.instance)


def random_employment_history(
    people: int,
    timeline: int = 40,
    companies: int = 8,
    salary_levels: int = 12,
    seed: int = 0,
) -> EmploymentWorkload:
    """A coalesced E+/S+ history: job switches and salary raises.

    Each person holds a chain of jobs over ``[0, timeline)`` (the last one
    open-ended with probability 1/2) and a chain of salary periods that
    changes value on each switch, so the instance is coalesced by
    construction.
    """
    rng = random.Random(seed)
    facts = []
    for person_id in range(people):
        name = f"p{person_id}"
        # employment chain
        cursor = rng.randrange(0, max(1, timeline // 4))
        previous_company: int | None = None
        while cursor < timeline:
            duration = rng.randint(2, max(3, timeline // 3))
            end = cursor + duration
            choices = [c for c in range(companies) if c != previous_company]
            company = rng.choice(choices)
            open_ended = end >= timeline and rng.random() < 0.5
            stamp = interval(cursor) if open_ended else interval(
                cursor, min(end, timeline)
            )
            facts.append(
                concrete_fact("E", name, f"co{company}", interval=stamp)
            )
            previous_company = company
            if stamp.is_unbounded:
                break
            cursor = stamp.end + rng.randint(0, 2)  # type: ignore[operator]
        # salary chain (independent periods, value changes each period)
        cursor = rng.randrange(0, max(1, timeline // 3))
        previous_level: int | None = None
        while cursor < timeline:
            duration = rng.randint(3, max(4, timeline // 2))
            end = cursor + duration
            choices = [s for s in range(salary_levels) if s != previous_level]
            level = rng.choice(choices)
            open_ended = end >= timeline and rng.random() < 0.5
            stamp = interval(cursor) if open_ended else interval(
                cursor, min(end, timeline)
            )
            facts.append(
                concrete_fact("S", name, f"{10 + level}k", interval=stamp)
            )
            previous_level = level
            if stamp.is_unbounded:
                break
            cursor = stamp.end + rng.randint(1, 3)  # type: ignore[operator]
    return EmploymentWorkload(
        instance=ConcreteInstance(facts),
        people=people,
        timeline=timeline,
        seed=seed,
    )


def random_org_history(
    people: int,
    timeline: int = 256,
    departments: int | None = None,
    tasks_per_person: int = 3,
    seed: int = 0,
) -> EmploymentWorkload:
    """An org chart with slow reference data and fast task churn.

    ``Dept(d, mgr)`` and ``Emp(e, d)`` are long-lived (departments exist
    from time 0, people join once and stay), while each person works
    through a chain of short ``Task(e, t)`` assignments — so almost every
    region boundary of the abstract view comes from a task starting or
    ending, and adjacent region snapshots differ by one or two ``Task``
    facts while the large ``Dept ⋈ Emp`` join is unchanged.  This is the
    regime the incremental cross-region chase targets (see
    :func:`exchange_setting_org` for the matching mapping): the heavy
    join tgd replays verbatim between almost all adjacent regions.
    """
    rng = random.Random(seed)
    departments = departments or max(4, people // 8)
    facts = []
    for department in range(departments):
        facts.append(
            concrete_fact(
                "Dept",
                f"d{department}",
                f"mgr{department}",
                interval=interval(0),
            )
        )
    for person_id in range(people):
        name = f"p{person_id}"
        joined = rng.randrange(0, max(1, timeline // 4))
        facts.append(
            concrete_fact(
                "Emp",
                name,
                f"d{rng.randrange(departments)}",
                interval=interval(joined),
            )
        )
        cursor = rng.randrange(0, timeline)
        for _ in range(tasks_per_person):
            if cursor >= timeline:
                break
            duration = rng.randint(2, 10)
            facts.append(
                concrete_fact(
                    "Task",
                    name,
                    f"t{rng.randrange(1000)}",
                    interval=interval(cursor, min(timeline, cursor + duration)),
                )
            )
            cursor += duration + rng.randint(1, max(2, timeline // 4))
    return EmploymentWorkload(
        instance=ConcreteInstance(facts),
        people=people,
        timeline=timeline,
        seed=seed,
    )


def melting_org_history(
    people: int,
    tasks_per_person: int = 2,
    departments: int | None = None,
) -> EmploymentWorkload:
    """An org chart that only *melts*: every fact starts at 0, ends apart.

    ``Dept`` reference facts are unbounded; each person's ``Emp`` fact and
    ``tasks_per_person`` ``Task`` facts all start at time 0 and end at
    pairwise-distinct points, so every region boundary of the abstract
    view is a *removal-only* delta — the regime where the incremental
    cross-region chase replays ≈100% of the previous region's firing log
    (nothing new ever appears, so no live matches and no deviations).
    Task names are unique per ``(person, slot)``, so the key egd of
    :func:`exchange_setting_org` never fires — fully-replayed regions are
    also egd-free, which is what the copy-on-write region results exploit.
    Fully deterministic: no RNG is involved.
    """
    departments = departments or max(4, people // 8)
    width = tasks_per_person + 1
    facts = []
    for department in range(departments):
        facts.append(
            concrete_fact(
                "Dept",
                f"d{department}",
                f"mgr{department}",
                interval=interval(0),
            )
        )
    for person_id in range(people):
        name = f"p{person_id}"
        base = 4 + width * person_id
        facts.append(
            concrete_fact(
                "Emp",
                name,
                f"d{person_id % departments}",
                interval=interval(0, base),
            )
        )
        for slot in range(tasks_per_person):
            facts.append(
                concrete_fact(
                    "Task",
                    name,
                    f"t{person_id}_{slot}",
                    interval=interval(0, base + 1 + slot),
                )
            )
    return EmploymentWorkload(
        instance=ConcreteInstance(facts),
        people=people,
        timeline=4 + width * people,
        seed=0,
    )


def overlapping_salary_history(
    people: int,
    spans: int,
    companies: int = 8,
    salary_levels: int = 12,
    step: int = 3,
    overlap: int = 2,
) -> EmploymentWorkload:
    """Dense E+/S+ careers driving the salary join's overlap structure.

    Per person, ``spans`` employment facts form a staircase with *overlap*
    points of slack between consecutive jobs (``E_i = [i·step,
    i·step+step+overlap)``, companies cycling so the chain stays
    coalesced), while ``spans`` salary periods tile the same timeline
    without overlapping each other (``S_i = [i·step+1, (i+1)·step+1)``) —
    so at most one salary holds at any snapshot and the c-chase never has
    to equate two constants.  Every ``E_i`` overlaps two or three salary
    periods, which chains the per-person ``E ⋈ S`` value-equivalence
    group into one long component: the group is as large as the person's
    whole history, but each fact only fragments at the handful of
    endpoints falling inside its own stamp, keeping the normalized output
    *linear* in the input.  That shape — big overlap groups, small
    fragment fan-out — is exactly where per-pair overlap enumeration is
    quadratically slower than an endpoint sweep.
    """
    facts = []
    for person_id in range(people):
        name = f"p{person_id}"
        for index in range(spans):
            base = index * step
            facts.append(
                concrete_fact(
                    "E",
                    name,
                    f"co{index % companies}",
                    interval=Interval(base, base + step + overlap),
                )
            )
            facts.append(
                concrete_fact(
                    "S",
                    name,
                    f"{10 + index % salary_levels}k",
                    interval=Interval(base + 1, base + step + 1),
                )
            )
    return EmploymentWorkload(
        instance=ConcreteInstance(facts),
        people=people,
        timeline=spans * step + overlap,
        seed=0,  # fully deterministic: no RNG is involved
    )


# ---------------------------------------------------------------------------
# Adversarial overlap structures (Theorem 13's worst case)
# ---------------------------------------------------------------------------


def nested_overlap_instance(n: int, relation: str = "R") -> ConcreteInstance:
    """``n`` facts with pairwise-overlapping *nested* stamps.

    Fact ``i`` is ``R+(a_i, [i, 2n−i))``: every pair of stamps overlaps
    and all ``2n`` endpoints are distinct, so normalizing w.r.t.
    ``R+(x,t1) ∧ R+(y,t2)`` fragments every fact at (almost) every
    endpoint — the Theorem 13 worst case with ``Θ(n²)`` output facts.
    """
    return ConcreteInstance(
        concrete_fact(relation, f"a{i}", interval=interval(i, 2 * n - i))
        for i in range(n)
    )


def nested_overlap_conjunctions(relation: str = "R") -> tuple[TemporalConjunction, ...]:
    """The pair conjunction driving the worst case: ``R(x) ∧ R(y)``."""
    return (
        TemporalConjunction.from_conjunction(
            parse_conjunction(f"{relation}(x) & {relation}(y)")
        ),
    )


def staircase_instance(
    n: int, overlap: int = 1, relation: str = "R"
) -> ConcreteInstance:
    """``n`` facts whose stamps overlap only with their neighbours.

    Fact ``i`` spans ``[i·step, i·step + step + overlap)``: each stamp
    intersects the next one by *overlap* points.  With the pair
    conjunction this fragments each fact into at most 3 pieces — a linear
    regime contrasting the nested worst case.
    """
    step = overlap + 1
    return ConcreteInstance(
        concrete_fact(
            relation,
            f"a{i}",
            interval=interval(i * step, i * step + step + overlap),
        )
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# Cyclic join structures (worst-case-optimal join territory)
# ---------------------------------------------------------------------------


def triangle_graph_instance(
    spokes: int,
    closures: int | None = None,
    relation: str = "R",
) -> ConcreteInstance:
    """A hub-and-spoke digraph whose triangles all pass through the hub.

    ``spokes`` in-edges ``R(u_i, hub)`` and ``spokes`` out-edges
    ``R(hub, w_j)`` meet at one high-degree vertex; ``closures`` back
    edges ``R(w_j, u_j)`` (default ``spokes // 4``) close that many
    triangles ``u_j → hub → w_j → u_j``.  The triangle body
    ``R(x,y) ∧ R(y,z) ∧ R(z,x)`` then has ``Θ(spokes²)`` length-2 paths
    through the hub but only ``Θ(closures)`` closing edges — the
    canonical skew shape where a pairwise (flat) join enumerates a
    quadratic intermediate while a worst-case-optimal join stays near
    the output size.  All edges share one unbounded stamp, so the
    temporal machinery adds a single region and the join cost dominates.
    Fully deterministic: no RNG is involved.
    """
    closures = spokes // 4 if closures is None else closures
    stamp = interval(0)
    facts = []
    for index in range(spokes):
        facts.append(
            concrete_fact(relation, f"u{index}", "hub", interval=stamp)
        )
        facts.append(
            concrete_fact(relation, "hub", f"w{index}", interval=stamp)
        )
    for index in range(closures):
        facts.append(
            concrete_fact(relation, f"w{index}", f"u{index}", interval=stamp)
        )
    return ConcreteInstance(facts)


# ---------------------------------------------------------------------------
# Generic random instances
# ---------------------------------------------------------------------------


def random_concrete_instance(
    n_facts: int,
    relations: Sequence[tuple[str, int]] = (("R", 2),),
    domain_size: int = 20,
    timeline: int = 50,
    max_duration: int = 10,
    open_ended_probability: float = 0.1,
    seed: int = 0,
) -> ConcreteInstance:
    """Uniformly random facts over the given ``(name, data-arity)`` specs.

    The result is *not* necessarily coalesced — call ``.coalesce()`` when
    the paper's source assumption is needed.
    """
    rng = random.Random(seed)
    result = ConcreteInstance()
    while len(result) < n_facts:
        relation, arity = relations[rng.randrange(len(relations))]
        values = [f"v{rng.randrange(domain_size)}" for _ in range(arity)]
        start = rng.randrange(timeline)
        if rng.random() < open_ended_probability:
            stamp: Interval = interval(start)
        else:
            stamp = interval(start, start + rng.randint(1, max_duration))
        result.add(concrete_fact(relation, *values, interval=stamp))
    return result


# ---------------------------------------------------------------------------
# Mapping families
# ---------------------------------------------------------------------------


def exchange_setting_copy() -> DataExchangeSetting:
    """Plain copy: ``R(x, y) → T(x, y)``."""
    return DataExchangeSetting.create(
        Schema.of(R=("A", "B")),
        Schema.of(T=("A", "B")),
        st_tgds=["R(x, y) -> T(x, y)"],
    )


def exchange_setting_join() -> DataExchangeSetting:
    """The employment shape: copy with an unknown, join, key egd."""
    return DataExchangeSetting.create(
        Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
        Schema.of(Emp=("Name", "Company", "Salary")),
        st_tgds=[
            "E(n, c) -> EXISTS s . Emp(n, c, s)",
            "E(n, c) & S(n, s) -> Emp(n, c, s)",
        ],
        egds=["Emp(n, c, s) & Emp(n, c, s2) -> s = s2"],
    )


def exchange_setting_org() -> DataExchangeSetting:
    """The org-chart shape for :func:`random_org_history`.

    A heavy reporting join over the slow-changing relations, a
    null-minting tgd over the churny one, and a key egd on the minted
    sessions:

    * ``σ1 : Dept(d, m) ∧ Emp(e, d) → Reports(e, m)``
    * ``σ2 : Task(e, t) → ∃s Log(e, t, s)``
    * ``ε1 : Log(e, t, s) ∧ Log(e, t, s2) → s = s2``
    """
    return DataExchangeSetting.create(
        Schema.of(
            Dept=("Dept", "Manager"),
            Emp=("Name", "Dept"),
            Task=("Name", "Task"),
        ),
        Schema.of(
            Reports=("Name", "Manager"),
            Log=("Name", "Task", "Session"),
        ),
        st_tgds=[
            "Dept(d, m) & Emp(e, d) -> Reports(e, m)",
            "Task(e, t) -> EXISTS s . Log(e, t, s)",
        ],
        egds=["Log(e, t, s) & Log(e, t, s2) -> s = s2"],
    )


def exchange_setting_triangle() -> DataExchangeSetting:
    """Triangle listing as an exchange: a 3-atom *cyclic* tgd lhs.

    ``R(x, y) ∧ R(y, z) ∧ R(z, x) → Tri(x, y, z)`` — the smallest body
    the flat written-order join handles quadratically on skewed inputs
    (see :func:`triangle_graph_instance`) and the target shape for the
    worst-case-optimal join.  No egds: the benchmark isolates join cost.
    """
    return DataExchangeSetting.create(
        Schema.of(R=("From", "To")),
        Schema.of(Tri=("A", "B", "C")),
        st_tgds=["R(x, y) & R(y, z) & R(z, x) -> Tri(x, y, z)"],
    )


def exchange_setting_decompose() -> DataExchangeSetting:
    """Vertical decomposition with an invented key:
    ``F(n, c, s) → ∃k (Works(k, n, c) ∧ Earns(k, s))`` plus a key egd."""
    return DataExchangeSetting.create(
        Schema.of(F=("Name", "Company", "Salary")),
        Schema.of(Works=("Key", "Name", "Company"), Earns=("Key", "Salary")),
        st_tgds=["F(n, c, s) -> EXISTS k . Works(k, n, c) & Earns(k, s)"],
        egds=["Works(k, n, c) & Works(k2, n, c) -> k = k2"],
    )
