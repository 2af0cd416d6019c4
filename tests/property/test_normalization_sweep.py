"""Property suite for the sweep normalization engine.

Two equivalences, over adversarial interval structure (a small
endpoint grid forces duplicated endpoints; width-1 and horizon-touching
intervals, bounded and unbounded, are all generated):

* **sweep ≡ pairwise** — the endpoint-sweep engine produces the same
  fragments, in the same instance order, with the same report counts as
  the historical per-pair enumeration (the
  :func:`~tests.oracles.normalization.pairwise_overlaps` oracle);
* **primitives ≡ brute force** — the overlap/bipartite cluster sweeps
  agree with quadratic pairwise enumeration on clusters and pair counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concrete import ConcreteInstance, concrete_fact, normalize_with_report
from repro.relational import TemporalConjunction, parse_conjunction
from repro.temporal import (
    INFINITY,
    Interval,
    sweep_bipartite_clusters,
    sweep_overlap_clusters,
)
from tests.oracles.normalization import pairwise_overlaps


def tc(text: str) -> TemporalConjunction:
    return TemporalConjunction.from_conjunction(parse_conjunction(text))


PAIR = tc("R(x) & S(y)")
SELF_JOIN = tc("R(x) & R(y)")
JOINED = tc("R(x) & S(x)")
SINGLE = tc("R(x)")
TWISTED = tc("R(x, y) & R(y, x)")
CONJUNCTION_SETS = [
    [PAIR],
    [SELF_JOIN],
    [JOINED],
    [TWISTED],
    [PAIR, SELF_JOIN],
    [SINGLE, PAIR],
]

# The horizon of the endpoint grid: drawing every endpoint from
# 0..GRID guarantees duplicated endpoints, horizon-touching stamps
# (ending exactly at GRID) and width-1 intervals at high probability.
GRID = 8


@st.composite
def grid_intervals(draw):
    start = draw(st.integers(min_value=0, max_value=GRID - 1))
    if draw(st.booleans()) and draw(st.booleans()):
        return Interval(start, INFINITY)
    end = draw(st.integers(min_value=start + 1, max_value=GRID))
    return Interval(start, end)


@st.composite
def dense_instances(draw, max_facts: int = 10):
    """Instances whose stamps collide on a tiny endpoint grid."""
    count = draw(st.integers(min_value=0, max_value=max_facts))
    instance = ConcreteInstance()
    for _ in range(count):
        relation, arity = draw(
            st.sampled_from((("R", 1), ("S", 1), ("R", 2)))
        )
        values = [draw(st.sampled_from(("a", "b"))) for _ in range(arity)]
        instance.add(
            concrete_fact(relation, *values, interval=draw(grid_intervals()))
        )
    return instance


class TestSweepEqualsPairwise:
    @settings(max_examples=120, deadline=None)
    @given(dense_instances(), st.sampled_from(CONJUNCTION_SETS))
    def test_fragments_counts_and_order(self, instance, conjunctions):
        swept, sweep_report = normalize_with_report(instance, conjunctions)
        with pairwise_overlaps():
            paired, pair_report = normalize_with_report(instance, conjunctions)
        assert swept.facts() == paired.facts()
        # Instance iteration is the deterministic fact order consumers
        # see; the engines must agree on it, not just on the set.
        assert tuple(swept) == tuple(paired)
        assert sweep_report.matched_pairs == pair_report.matched_pairs
        assert sweep_report.components == pair_report.components
        assert sweep_report.facts_fragmented == pair_report.facts_fragmented
        assert sweep_report.fragments_created == pair_report.fragments_created
        assert sweep_report.output_size == pair_report.output_size

    @settings(max_examples=60, deadline=None)
    @given(dense_instances(), st.sampled_from(CONJUNCTION_SETS))
    def test_overlap_sets_never_exceed_pairs(self, instance, conjunctions):
        # Every overlap set witnesses at least one match, so the relaxed
        # count is bounded by the historical one.
        _, report = normalize_with_report(instance, conjunctions)
        assert report.matched_sets <= report.matched_pairs


def _brute_overlap(intervals):
    n = len(intervals)
    pairs = sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if intervals[i].overlaps(intervals[j])
    )
    parent = list(range(n))

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for i in range(n):
        for j in range(i + 1, n):
            if intervals[i].overlaps(intervals[j]):
                parent[find(i)] = find(j)
    components: dict[int, set[int]] = {}
    for i in range(n):
        components.setdefault(find(i), set()).add(i)
    return frozenset(frozenset(c) for c in components.values()), pairs


class TestPrimitivesAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(grid_intervals(), max_size=10))
    def test_overlap_clusters(self, intervals):
        clusters, pairs = sweep_overlap_clusters(intervals)
        expected_components, expected_pairs = _brute_overlap(intervals)
        assert pairs == expected_pairs
        assert frozenset(frozenset(c) for c in clusters) == expected_components
        # Every index appears in exactly one cluster.
        flat = [i for cluster in clusters for i in cluster]
        assert sorted(flat) == list(range(len(intervals)))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(grid_intervals(), max_size=7),
        st.lists(grid_intervals(), max_size=7),
    )
    def test_bipartite_clusters(self, left, right):
        clusters, pairs = sweep_bipartite_clusters(left, right)
        expected_pairs = sum(
            1 for a in left for b in right if a.overlaps(b)
        )
        assert pairs == expected_pairs
        # Brute-force the bipartite components (edges cross sides only).
        total = len(left) + len(right)
        parent = list(range(total))

        def find(node):
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for i, a in enumerate(left):
            for j, b in enumerate(right):
                if a.overlaps(b):
                    parent[find(i)] = find(len(left) + j)
        components: dict[int, set[int]] = {}
        for node in range(total):
            components.setdefault(find(node), set()).add(node)
        expected = frozenset(
            frozenset(c) for c in components.values() if len(c) > 1
        )
        got = frozenset(
            frozenset(list(ls) + [len(left) + r for r in rs])
            for ls, rs in clusters
        )
        assert got == expected
