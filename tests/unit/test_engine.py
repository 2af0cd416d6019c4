"""Unit tests for the delta-driven engine core and the region scheduler.

Covers the pieces the chase procedures compose: in-place substitution
with delta reporting (both instance kinds), semi-naive equation
enumeration, and the scheduler's deterministic merge — byte-identical to
the unsharded run — including per-shard reports.
"""

from __future__ import annotations

import pytest

from repro.abstract_view import abstract_chase, semantics
from repro.concrete import ConcreteInstance, concrete_fact
from repro.relational import Constant, Instance, LabeledNull, fact
from repro.relational.formulas import Atom
from repro.relational.homomorphism import (
    iter_egd_equations,
    iter_egd_equations_delta,
    match_atom_against_fact,
)
from repro.relational.terms import AnnotatedNull, Variable
from repro.temporal import Interval
from repro.workloads import exchange_setting_join, random_employment_history


class TestSubstituteInPlace:
    def test_rewrites_only_affected_facts_and_returns_delta(self):
        n1, n2 = LabeledNull("N1"), LabeledNull("N2")
        instance = Instance(
            [fact("R", "a", n1), fact("R", "b", n2), fact("R", "c", "k")]
        )
        # Build the index first so the targeted path is exercised.
        instance.lookup_ordered("R", {1: n1})
        added = instance.substitute_in_place({n1: Constant("v")})
        assert added == [fact("R", "a", "v")]
        assert instance == Instance(
            [fact("R", "a", "v"), fact("R", "b", n2), fact("R", "c", "k")]
        )

    def test_merging_images_report_empty_delta(self):
        n1 = LabeledNull("N1")
        instance = Instance([fact("R", "a", n1), fact("R", "a", "v")])
        added = instance.substitute_in_place({n1: Constant("v")})
        assert added == []
        assert instance == Instance([fact("R", "a", "v")])

    def test_equivalent_to_functional_substitute(self):
        n1, n2 = LabeledNull("N1"), LabeledNull("N2")
        instance = Instance(
            [fact("R", n1, n2), fact("S", n2, "x"), fact("T", "y", "z")]
        )
        mapping = {n1: Constant("a"), n2: Constant("b")}
        expected = instance.substitute(mapping)
        instance.substitute_in_place(mapping)
        assert instance == expected

    def test_index_stays_consistent_after_in_place_substitution(self):
        n1 = LabeledNull("N1")
        instance = Instance([fact("R", "a", n1), fact("R", "b", n1)])
        instance.lookup_ordered("R", {1: n1})  # force the index
        instance.substitute_in_place({n1: Constant("v")})
        assert list(instance.lookup_ordered("R", {1: Constant("v")})) == [
            fact("R", "a", "v"),
            fact("R", "b", "v"),
        ]
        assert instance.lookup_ordered("R", {1: n1}) == ()

    def test_concrete_in_place_substitution_keeps_lifted_view(self):
        stamp = Interval(0, 5)
        null = AnnotatedNull("N1", stamp)
        instance = ConcreteInstance(
            [
                concrete_fact("R", "a", null, interval=stamp),
                concrete_fact("R", "b", "k", interval=stamp),
            ]
        )
        instance.lifted()
        added = instance.substitute_in_place({null: Constant("v")})
        assert [str(item) for item in added] == ["R+(a, v, [0, 5))"]
        assert instance == ConcreteInstance(
            [
                concrete_fact("R", "a", "v", interval=stamp),
                concrete_fact("R", "b", "k", interval=stamp),
            ]
        )
        # The lifted view was maintained, not rebuilt: probing it agrees.
        assert len(instance.lifted().facts_of("R")) == 2


class TestDeltaEnumeration:
    ATOMS = (
        Atom("R", (Variable("x"), Variable("y"))),
        Atom("R", (Variable("x"), Variable("y2"))),
    )

    def test_match_atom_against_fact_respects_repeats(self):
        atom = Atom("R", (Variable("x"), Variable("x")))
        assert match_atom_against_fact(atom, fact("R", "a", "a")) is not None
        assert match_atom_against_fact(atom, fact("R", "a", "b")) is None

    def test_delta_equations_cover_exactly_matches_touching_delta(self):
        n1, n2, n3 = (LabeledNull(f"N{i}") for i in range(1, 4))
        old = [fact("R", "a", n1), fact("R", "b", n2)]
        instance = Instance(old)
        new_fact = fact("R", "a", n3)
        instance.add(new_fact)
        x, y, y2 = Variable("x"), Variable("y"), Variable("y2")
        full = set(iter_egd_equations(self.ATOMS, y, y2, instance))
        delta = set(
            iter_egd_equations_delta(self.ATOMS, y, y2, instance, [new_fact])
        )
        # Delta equations = full equations minus the ones among old facts.
        old_only = set(iter_egd_equations(self.ATOMS, y, y2, Instance(old)))
        assert delta == full - old_only
        assert (n1, n3) in delta and (n3, n1) in delta
        assert (n1, n1) not in delta


class TestRegionScheduler:
    SETTING = exchange_setting_join()

    def _abstract(self):
        workload = random_employment_history(people=3, timeline=20, seed=5)
        return semantics(workload.instance)

    @staticmethod
    def _assert_matches_unsharded(sharded, unsharded):
        assert sharded.succeeded
        assert len(sharded.shard_reports) > 1
        assert sharded.target.templates == unsharded.target.templates
        assert list(sharded.region_results) == list(unsharded.region_results)
        for region, expected in unsharded.region_results.items():
            actual = sharded.region_results[region]
            assert actual.target == expected.target, region
            assert [repr(step) for step in actual.trace.steps] == [
                repr(step) for step in expected.trace.steps
            ], region

    def test_sharded_result_equivalent_to_serial(self):
        abstract = self._abstract()
        serial = abstract_chase(abstract, self.SETTING)
        assert serial.target.per_snapshot_nulls()
        for shards in (2, 3, 16):
            sharded = abstract_chase(abstract, self.SETTING, shards=shards)
            self._assert_matches_unsharded(sharded, serial)

    def test_threads_executor_matches_serial_executor(self):
        abstract = self._abstract()
        serial = abstract_chase(abstract, self.SETTING)
        threaded = abstract_chase(
            abstract, self.SETTING, shards=3, executor="threads"
        )
        self._assert_matches_unsharded(threaded, serial)
        assert len(threaded.shard_reports) == 3

    def test_shard_reports_account_for_all_regions(self):
        abstract = self._abstract()
        result = abstract_chase(abstract, self.SETTING, shards=4)
        assert sum(r.regions for r in result.shard_reports) == len(
            abstract.regions()
        )
        assert all(r.seconds >= 0 for r in result.shard_reports)

    def test_shards_one_is_byte_identical_to_legacy(self):
        abstract = self._abstract()
        one = abstract_chase(abstract, self.SETTING, shards=1)
        # Skolem null names: "N" plus 16 hex digits, no shard tag.
        names = {null.base for null in one.target.per_snapshot_nulls()}
        assert all(name.startswith("N") and "_" not in name for name in names)

    def test_invalid_shards_and_executor_rejected(self):
        from repro.errors import InstanceError

        abstract = self._abstract()
        with pytest.raises(InstanceError):
            abstract_chase(abstract, self.SETTING, shards=0)
        with pytest.raises(InstanceError):
            abstract_chase(
                abstract, self.SETTING, shards=2, executor="bogus"
            )
