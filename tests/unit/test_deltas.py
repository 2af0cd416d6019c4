"""Unit tests for the canonical ``SourceDelta`` change-feed codec."""

import pytest

from repro.concrete import ConcreteInstance, concrete_fact
from repro.deltas import SourceDelta
from repro.errors import DeltaError
from repro.temporal import interval
from tests.oracles.deltas import sorted_between


def f(name, *values, start=0, end=None):
    span = interval(start) if end is None else interval(start, end)
    return concrete_fact(name, *values, interval=span)


def inst(*facts):
    instance = ConcreteInstance()
    for item in facts:
        instance.add(item)
    return instance


class TestConstruction:
    def test_canonical_order(self):
        a, b = f("R", "x"), f("S", "y")
        assert SourceDelta(add=(a, b)) == SourceDelta(add=(b, a))
        assert SourceDelta(add=(b, a)).add == tuple(
            sorted((a, b), key=type(a).sort_key)
        )

    def test_duplicate_on_one_side_rejected(self):
        fact = f("R", "x")
        with pytest.raises(DeltaError):
            SourceDelta(add=(fact, fact))

    def test_add_remove_overlap_rejected(self):
        fact = f("R", "x")
        with pytest.raises(DeltaError):
            SourceDelta(add=(fact,), remove=(fact,))

    def test_empty(self):
        delta = SourceDelta.empty()
        assert delta.is_empty and not delta and len(delta) == 0


class TestBetween:
    def test_diff(self):
        old = inst(f("R", "x"), f("S", "y"))
        new = inst(f("S", "y"), f("T", "z"))
        delta = SourceDelta.between(old, new)
        assert delta.add == (f("T", "z"),)
        assert delta.remove == (f("R", "x"),)

    def test_identity(self):
        instance = inst(f("R", "x"))
        assert SourceDelta.between(instance, instance).is_empty

    def test_relation_in_one_instance_only(self):
        old = inst(f("R", "x"), f("R", "y"))
        new = inst(f("R", "x"), f("T", "z", "w", start=2, end=5))
        delta = SourceDelta.between(old, new)
        assert delta.add == (f("T", "z", "w", start=2, end=5),)
        assert delta.remove == (f("R", "y"),)
        assert delta == sorted_between(old, new)

    def test_empty_side(self):
        full = inst(f("R", "x"), f("S", "y", start=1, end=3))
        grow = SourceDelta.between(ConcreteInstance(), full)
        assert grow.add == tuple(full) and grow.remove == ()
        shrink = SourceDelta.between(full, ConcreteInstance())
        assert shrink.remove == tuple(full) and shrink.add == ()
        assert SourceDelta.between(ConcreteInstance(), ConcreteInstance()).is_empty

    def test_several_relations(self):
        old = inst(
            f("R", "b"), f("R", "a"), f("S", "y", start=4, end=6),
            f("S", "y", start=0, end=2), f("U", "q"),
        )
        new = inst(
            f("R", "c"), f("R", "a"), f("S", "y", start=0, end=2),
            f("S", "y", start=2, end=4), f("T", "z"), f("U", "q"),
        )
        delta = SourceDelta.between(old, new)
        assert delta.add == (
            f("R", "c"), f("S", "y", start=2, end=4), f("T", "z"),
        )
        assert delta.remove == (f("R", "b"), f("S", "y", start=4, end=6))
        assert delta == sorted_between(old, new)
        assert delta.applied_to(old) == new


class TestApply:
    def test_strict_apply(self):
        delta = SourceDelta(add=(f("T", "z"),), remove=(f("R", "x"),))
        result = delta.applied_to(inst(f("R", "x")))
        assert set(result.facts()) == {f("T", "z")}

    def test_remove_absent_rejected(self):
        delta = SourceDelta(add=(), remove=(f("R", "x"),))
        with pytest.raises(DeltaError):
            delta.applied_to(ConcreteInstance())

    def test_add_present_rejected(self):
        delta = SourceDelta(add=(f("R", "x"),), remove=())
        with pytest.raises(DeltaError):
            delta.applied_to(inst(f("R", "x")))

    def test_applied_to_leaves_input_alone(self):
        base = inst(f("R", "x"))
        SourceDelta(add=(f("S", "y"),), remove=()).applied_to(base)
        assert set(base.facts()) == {f("R", "x")}


class TestAlgebra:
    def test_inverse(self):
        delta = SourceDelta(add=(f("T", "z"),), remove=(f("R", "x"),))
        base = inst(f("R", "x"))
        assert set(delta.inverse().applied_to(delta.applied_to(base)).facts()) == set(
            base.facts()
        )

    def test_then_nets_out(self):
        fact = f("T", "z")
        there = SourceDelta(add=(fact,), remove=())
        back = SourceDelta(add=(), remove=(fact,))
        assert there.then(back).is_empty

    def test_then_composes(self):
        first = SourceDelta(add=(f("A", "1"),), remove=())
        second = SourceDelta(add=(f("B", "2"),), remove=())
        combined = first.then(second)
        assert combined.add == (f("A", "1"), f("B", "2"))


class TestCodec:
    def test_round_trip(self):
        delta = SourceDelta(
            add=(f("T", "z"), f("A", "1", start=3, end=9)),
            remove=(f("R", "x"),),
        )
        assert SourceDelta.from_json(delta.to_json()) == delta

    def test_bad_payload(self):
        with pytest.raises(DeltaError):
            SourceDelta.from_json({"add": "nope"})
        with pytest.raises(DeltaError):
            SourceDelta.from_json([])
        with pytest.raises(DeltaError):
            SourceDelta.from_json({"add": [], "remove": [], "extra": 1})
