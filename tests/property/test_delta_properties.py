"""Property tests: ``SourceDelta.between`` against the sorted-walk oracle."""

from hypothesis import given, settings

from repro.deltas import SourceDelta
from tests.oracles.deltas import sorted_between

from .strategies import concrete_instances

# Three relations of two arities, so draws often leave a relation on
# one side only, or a side empty.
RELATIONS = (("R", 1), ("S", 1), ("T", 2))


class TestBetween:
    @settings(max_examples=150, deadline=None)
    @given(
        concrete_instances(relations=RELATIONS, max_facts=10),
        concrete_instances(relations=RELATIONS, max_facts=10),
    )
    def test_matches_the_oracle_and_applies(self, old, new):
        delta = SourceDelta.between(old, new)
        assert delta == sorted_between(old, new)
        assert delta.applied_to(old) == new
        assert delta.is_empty == (old == new)
