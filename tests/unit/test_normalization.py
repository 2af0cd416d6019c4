"""Unit tests for normalization: Definition 10, Theorem 11, Algorithm 1."""

import pytest

from repro.concrete import (
    ConcreteInstance,
    concrete_fact,
    find_temporal_homomorphisms,
    find_violation,
    has_empty_intersection_property,
    interval_of,
    is_normalized,
    naive_normalize,
    normalize,
    normalize_with_report,
)
from repro.errors import FormulaError
from repro.relational import Constant, TemporalConjunction, Variable, parse_conjunction
from repro.temporal import Interval
from repro.workloads import (
    algorithm1_example_conjunctions,
    algorithm1_example_instance,
    salary_conjunction,
)
from tests.oracles.normalization import pairwise_overlaps


def tc(text: str) -> TemporalConjunction:
    return TemporalConjunction.from_conjunction(parse_conjunction(text))


class TestTemporalHomomorphisms:
    def test_shared_variable_requires_equal_stamps(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 5)),
                concrete_fact("S", "a", interval=Interval(1, 5)),
                concrete_fact("S", "b", interval=Interval(2, 5)),
            ]
        )
        matches = list(find_temporal_homomorphisms(tc("R(x) & S(y)"), inst))
        # Only the S-fact with the SAME stamp joins under shared t.
        assert len(matches) == 1
        assignment, images = matches[0]
        assert assignment[Variable("y")] == Constant("a")

    def test_decoupled_variables_allow_different_stamps(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 5)),
                concrete_fact("S", "b", interval=Interval(7, 9)),
            ]
        )
        decoupled = tc("R(x) & S(y)").normalized()
        matches = list(find_temporal_homomorphisms(decoupled, inst))
        assert len(matches) == 1

    def test_no_match_on_unsatisfied_join(self):
        inst = ConcreteInstance(
            [concrete_fact("R", "a", interval=Interval(1, 5))]
        )
        assert list(find_temporal_homomorphisms(tc("R(x) & S(x)"), inst)) == []

    def test_interval_of_unwraps(self):
        inst = ConcreteInstance(
            [concrete_fact("R", "a", interval=Interval(1, 5))]
        )
        conj = tc("R(x)")
        ((assignment, _images),) = list(find_temporal_homomorphisms(conj, inst))
        assert interval_of(assignment, conj.shared_variable) == Interval(1, 5)

    def test_interval_of_rejects_data_binding(self):
        inst = ConcreteInstance(
            [concrete_fact("R", "a", interval=Interval(1, 5))]
        )
        conj = tc("R(x)")
        ((assignment, _images),) = list(find_temporal_homomorphisms(conj, inst))
        with pytest.raises(FormulaError):
            interval_of(assignment, Variable("x"))


class TestEmptyIntersectionProperty:
    def test_overlapping_joinable_facts_violate(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 5)),
                concrete_fact("S", "a", interval=Interval(3, 9)),
            ]
        )
        assert not has_empty_intersection_property(inst, [tc("R(x) & S(y)")])
        violation = find_violation(inst, [tc("R(x) & S(y)")])
        assert violation is not None
        assert len(violation.facts) == 2

    def test_equal_stamps_satisfy(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 5)),
                concrete_fact("S", "a", interval=Interval(1, 5)),
            ]
        )
        assert has_empty_intersection_property(inst, [tc("R(x) & S(y)")])

    def test_disjoint_stamps_satisfy(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 3)),
                concrete_fact("S", "a", interval=Interval(5, 9)),
            ]
        )
        assert has_empty_intersection_property(inst, [tc("R(x) & S(y)")])

    def test_unrelated_overlap_is_fine(self):
        # The facts overlap but no conjunction matches them jointly.
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 5)),
                concrete_fact("S", "b", interval=Interval(3, 9)),
            ]
        )
        assert has_empty_intersection_property(inst, [tc("R(x) & S(x)")])

    def test_self_join_overlap_detected(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 5)),
                concrete_fact("R", "b", interval=Interval(3, 9)),
            ]
        )
        assert not has_empty_intersection_property(inst, [tc("R(x) & R(y)")])

    def test_figure4_not_normalized_wrt_salary_join(self, source):
        assert not is_normalized(source, [salary_conjunction()])

    def test_figure5_is_normalized(self, source):
        normalized = normalize(source, [salary_conjunction()])
        assert is_normalized(normalized, [salary_conjunction()])


class TestAlgorithm1:
    def test_theorem15_output_is_normalized(self, source):
        conjs = [salary_conjunction()]
        assert is_normalized(normalize(source, conjs), conjs)

    def test_example14_output_normalized(self):
        inst = algorithm1_example_instance()
        conjs = algorithm1_example_conjunctions()
        assert is_normalized(normalize(inst, conjs), conjs)

    def test_example14_report_counts(self):
        inst = algorithm1_example_instance()
        out, report = normalize_with_report(inst, algorithm1_example_conjunctions())
        # Example 14: S = {{f1,f2},{f2,f3},{f4,f5}} then two components.
        assert report.matched_sets == 3
        assert report.components == 2
        assert report.input_size == 5
        assert report.output_size == 13
        assert len(out) == 13

    def test_untouched_facts_survive(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 5)),
                concrete_fact("S", "a", interval=Interval(3, 9)),
                concrete_fact("Z", "solo", interval=Interval(0, 100)),
            ]
        )
        out = normalize(inst, [tc("R(x) & S(y)")])
        assert concrete_fact("Z", "solo", interval=Interval(0, 100)) in out

    def test_no_conjunctions_no_change(self, source):
        assert normalize(source, []) == source

    def test_semantics_preserved(self, source):
        from repro.abstract_view import semantics

        normalized = normalize(source, [salary_conjunction()])
        assert semantics(normalized).same_snapshots_as(semantics(source))

    def test_normalize_smaller_or_equal_than_naive(self, source):
        smart = normalize(source, [salary_conjunction()])
        naive = naive_normalize(source)
        assert len(smart) <= len(naive)

    def test_null_annotations_follow_fragments(self):
        from repro.relational.terms import AnnotatedNull
        from repro.concrete import ConcreteFact

        inst = ConcreteInstance(
            [
                ConcreteFact(
                    "R", (AnnotatedNull("N", Interval(1, 9)),), Interval(1, 9)
                ),
                concrete_fact("S", "a", interval=Interval(4, 6)),
            ]
        )
        out = normalize(inst, [tc("R(x) & S(y)")])
        for item in out.facts_of("R"):
            for null in item.nulls():
                assert null.annotation == item.interval


class TestNaiveNormalization:
    def test_fragments_at_all_endpoints(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(0, 10)),
                concrete_fact("S", "b", interval=Interval(4, 6)),
            ]
        )
        out = naive_normalize(inst)
        assert len(out.facts_of("R")) == 3  # [0,4) [4,6) [6,10)
        assert len(out.facts_of("S")) == 1

    def test_normalized_wrt_any_conjunctions(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 7)),
                concrete_fact("S", "a", interval=Interval(3, 9)),
                concrete_fact("P", "a", interval=Interval(6, 12)),
            ]
        )
        out = naive_normalize(inst)
        for phi in [tc("R(x) & S(y)"), tc("S(x) & P(y)"), tc("R(x) & P(y)")]:
            assert is_normalized(out, [phi])

    def test_idempotent(self, source):
        once = naive_normalize(source)
        assert naive_normalize(once) == once

    def test_semantics_preserved(self, source):
        from repro.abstract_view import semantics

        assert semantics(naive_normalize(source)).same_snapshots_as(
            semantics(source)
        )

    def test_empty_instance(self):
        assert naive_normalize(ConcreteInstance()) == ConcreteInstance()


class TestSweepEngineAndLog:
    def test_pairwise_reference_matches_sweep(self):
        inst = algorithm1_example_instance()
        conjs = algorithm1_example_conjunctions()
        swept, sweep_report = normalize_with_report(inst, conjs)
        with pairwise_overlaps():
            paired, pair_report = normalize_with_report(inst, conjs)
        assert swept == paired
        assert sweep_report.matched_pairs == pair_report.matched_pairs == 3
        # Example 14's three matched sets are three overlap sets too.
        assert sweep_report.matched_sets == 3
        # The pairwise reference reports the historical count in both.
        assert pair_report.matched_sets == pair_report.matched_pairs

    def test_symmetric_pairs_count_self_matches_and_orders(self):
        # Two overlapping R facts: 2 self-matches + both ordered pairs.
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 5)),
                concrete_fact("R", "b", interval=Interval(3, 9)),
            ]
        )
        _, report = normalize_with_report(inst, [tc("R(x) & R(y)")])
        assert report.matched_pairs == 4
        assert report.matched_sets == 1  # one overlap set {f, g}
