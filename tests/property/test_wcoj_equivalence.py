"""Worst-case-optimal join ≡ flat join ≡ scan, swept by Hypothesis.

The generic (wcoj) join of :mod:`repro.relational.homomorphism` promises
more than answer equality: its row sequence is **byte-identical** to the
flat written-order join's for *any* plan shape (the order contract
documented next to :func:`_iter_wcoj_rows`), which is what lets the
chase, normalization and the query evaluator switch engines without
perturbing traces, null numbering or goldens.  This suite sweeps that
contract over the shapes the two joins actually disagree on how to
compute:

* cyclic bodies — the triangle and the 4-cycle, where ``auto`` picks
  the generic join;
* skew-heavy hub graphs — many length-2 paths, few closing edges, the
  worst case for the flat join's intermediate results;
* acyclic paths/stars with the join *pinned* to ``wcoj``, where the
  product's selection would keep the flat join but the order contract
  must still hold.

Three layers are checked: the raw plan rows (byte-identical sequence),
tgd-style homomorphism matching (same match set under every join, plus
a brute-force nested-loop scan reference), and query answering (indexed
evaluator under every join vs the scan transcription).  The
:func:`~tests.oracles.joins.pinned_join` oracle pins a join; ``"auto"``
is the product's own selection.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.relational.homomorphism as homomorphism
from repro.concrete import ConcreteInstance, c_chase, concrete_fact
from repro.query import ConjunctiveQuery, naive_evaluate_concrete
from repro.relational import Instance, fact, parse_conjunction
from repro.relational.homomorphism import (
    _flat_join_plan,
    _iter_flat_join_rows,
    _iter_wcoj_rows,
    _plan_is_cyclic,
    find_homomorphisms_with_images,
)
from repro.temporal import Interval
from repro.workloads import exchange_setting_triangle
from tests.oracles import query as scan_oracle
from tests.oracles.joins import JOINS, pinned_join

# One parsed body per shape class.  All-variable, no repeats — the shapes
# the flat-join planner accepts (anything else falls back to the generic
# backtracking search under every join, so there is nothing to compare).
TRIANGLE = parse_conjunction("T(x, y) & T(y, z) & T(z, x)").atoms
FOUR_CYCLE = parse_conjunction(
    "T(x, y) & T(y, z) & T(z, w) & T(w, x)"
).atoms
MIXED_CYCLE = parse_conjunction("A(x, y) & B(y, z) & C(z, x)").atoms
PATH = parse_conjunction("T(x, y) & T(y, z) & T(z, w)").atoms
STAR = parse_conjunction("A(h, x) & B(h, y) & C(h, z)").atoms

CYCLIC_BODIES = (TRIANGLE, FOUR_CYCLE, MIXED_CYCLE)
ACYCLIC_BODIES = (PATH, STAR)


@st.composite
def edge_instances(draw, relations=("T",), max_edges: int = 14):
    """Random digraphs over a tiny, hub-skewed vertex domain.

    Half the draws force an endpoint onto the hub vertex ``h``, so the
    generated graphs are dense around one vertex — lots of length-2
    paths, comparatively few closed cycles, exactly the skew the two
    join algorithms process differently.
    """
    vertices = ("h", "a", "b", "c", "d")
    count = draw(st.integers(min_value=0, max_value=max_edges))
    instance = Instance()
    for _ in range(count):
        relation = draw(st.sampled_from(relations))
        source = draw(st.sampled_from(vertices))
        target = draw(st.sampled_from(vertices))
        if draw(st.booleans()):
            source = "h"
        instance.add(fact(relation, source, target))
    return instance


def _scan_rows(atoms, instance):
    """Brute-force written-order nested-loop join: the scan reference.

    Outer-to-inner loops follow the written atom order over each
    relation's ``sort_key``-ordered facts, checking variable consistency
    positionally — no indexes, no plans.  By the order contract this is
    also the flat join's (and hence the wcoj's) exact row sequence.
    """
    rows = []
    candidates = [
        [
            item
            for item in instance.lookup_ordered(atom.relation, {})
            if item.arity == atom.arity
        ]
        for atom in atoms
    ]

    def descend(index, binding, row):
        if index == len(atoms):
            rows.append(tuple(row))
            return
        atom = atoms[index]
        for item in candidates[index]:
            extended = dict(binding)
            ok = True
            for variable, value in zip(atom.args, item.args, strict=True):
                if extended.setdefault(variable, value) != value:
                    ok = False
                    break
            if ok:
                descend(index + 1, extended, [*row, item])

    descend(0, {}, [])
    return rows


class TestRowSequenceByteIdentical:
    """The plan-level order contract: wcoj rows ≡ flat rows, in sequence."""

    @settings(max_examples=60, deadline=None)
    @given(instance=edge_instances())
    def test_cyclic_bodies(self, instance):
        for atoms in (TRIANGLE, FOUR_CYCLE, PATH):
            plan = _flat_join_plan(atoms)
            assert plan is not None
            flat = list(_iter_flat_join_rows(plan, instance))
            wcoj = list(_iter_wcoj_rows(plan, instance))
            assert flat == wcoj  # same rows, same order, same fact objects

    @settings(max_examples=60, deadline=None)
    @given(instance=edge_instances(relations=("A", "B", "C")))
    def test_mixed_relation_bodies(self, instance):
        for atoms in (MIXED_CYCLE, STAR):
            plan = _flat_join_plan(atoms)
            assert plan is not None
            assert list(_iter_flat_join_rows(plan, instance)) == list(
                _iter_wcoj_rows(plan, instance)
            )

    @settings(max_examples=60, deadline=None)
    @given(instance=edge_instances())
    def test_scan_reference(self, instance):
        for atoms in (TRIANGLE, FOUR_CYCLE, PATH):
            plan = _flat_join_plan(atoms)
            assert list(_iter_flat_join_rows(plan, instance)) == _scan_rows(
                atoms, instance
            )

    def test_plan_cyclicity_classification(self):
        # The selection rule: generic join exactly on the cyclic cores.
        for atoms in CYCLIC_BODIES:
            assert _plan_is_cyclic(_flat_join_plan(atoms))
        for atoms in ACYCLIC_BODIES:
            assert not _plan_is_cyclic(_flat_join_plan(atoms))

    def test_auto_mode_size_cutoff(self):
        # The product only pays the generic join's constant factor once
        # some body relation is big enough for the asymptotics to matter;
        # a pinned flat/wcoj join ignores the cutoff.
        small = Instance([fact("T", f"a{i}", f"b{i}") for i in range(10)])
        big = Instance(
            [
                fact("T", f"a{i}", f"b{i}")
                for i in range(homomorphism._WCOJ_MIN_FACTS)
            ]
        )
        plan = _flat_join_plan(TRIANGLE)
        assert not homomorphism._wcoj_selected(plan, small)
        assert homomorphism._wcoj_selected(plan, big)
        assert homomorphism._wcoj_selected(plan)  # no instance: cyclicity decides
        with pinned_join("wcoj"):
            assert homomorphism._wcoj_selected(plan, small)
        with pinned_join("flat"):
            assert not homomorphism._wcoj_selected(plan, big)


class TestTgdMatchingModeEquivalence:
    """Homomorphism search — the chase's tgd matcher — under every join.

    The match *set* (assignment plus per-atom images) must be identical
    across joins; the enumeration order may legitimately differ because
    the flat ≥3-atom search is cardinality-driven while the generic
    join is written-variable-ordered, so the comparison sorts.
    """

    @staticmethod
    def _matches(atoms, instance):
        # The per-atom image row fully determines the assignment (every
        # variable occurs in some atom), so the image rows are a faithful
        # fingerprint of the match set; repr gives them a sort order.
        found = []
        for assignment, images in find_homomorphisms_with_images(
            atoms, instance
        ):
            for atom, image in zip(atoms, images, strict=True):
                assert {
                    variable: image.args[position]
                    for position, variable in enumerate(atom.args)
                }.items() <= assignment.items()
            found.append(images)
        return sorted(found, key=repr)

    @settings(max_examples=50, deadline=None)
    @given(instance=edge_instances())
    def test_single_relation_bodies(self, instance):
        for atoms in (TRIANGLE, FOUR_CYCLE, PATH):
            reference = None
            for join in JOINS:
                with pinned_join(join):
                    found = self._matches(atoms, instance)
                if reference is None:
                    reference = found
                else:
                    assert found == reference
            assert reference == sorted(_scan_rows(atoms, instance), key=repr)

    @settings(max_examples=50, deadline=None)
    @given(instance=edge_instances(relations=("A", "B", "C")))
    def test_mixed_relation_bodies(self, instance):
        for atoms in (MIXED_CYCLE, STAR):
            results = []
            for join in JOINS:
                with pinned_join(join):
                    results.append(self._matches(atoms, instance))
            assert results[0] == results[1] == results[2]


@st.composite
def temporal_edge_instances(draw, relation: str = "T", max_edges: int = 10):
    """Hub-skewed digraphs with small colliding-endpoint stamps."""
    vertices = ("h", "a", "b", "c")
    count = draw(st.integers(min_value=0, max_value=max_edges))
    instance = ConcreteInstance()
    for _ in range(count):
        source = draw(st.sampled_from(vertices))
        target = draw(st.sampled_from(vertices))
        if draw(st.booleans()):
            source = "h"
        start = draw(st.integers(min_value=0, max_value=6))
        length = draw(st.integers(min_value=1, max_value=4))
        instance.add(
            concrete_fact(
                relation,
                source,
                target,
                interval=Interval(start, start + length),
            )
        )
    return instance


TRIANGLE_QUERY = ConjunctiveQuery.parse(
    "q(x, y, z) :- T(x, y) & T(y, z) & T(z, x)"
)
FOUR_CYCLE_QUERY = ConjunctiveQuery.parse(
    "q(x, z) :- T(x, y) & T(y, z) & T(z, w) & T(w, x)"
)


class TestQueryAnsweringModeEquivalence:
    """The indexed evaluator routes cyclic bodies through the same plan
    layer; every join must agree with the scan transcription — answers,
    interval annotations, and (sorted) tuple order alike."""

    @settings(max_examples=40, deadline=None)
    @given(source=temporal_edge_instances())
    def test_cyclic_queries_all_modes(self, source):
        for query in (TRIANGLE_QUERY, FOUR_CYCLE_QUERY):
            with pinned_join("flat"):
                scan = scan_oracle.naive_evaluate_concrete(query, source)
            for join in JOINS:
                with pinned_join(join):
                    indexed = naive_evaluate_concrete(query, source)
                assert indexed.rows == scan.rows
                assert list(indexed) == list(scan)


class TestChaseModeEquivalence:
    """End to end: the triangle exchange chased under flat and wcoj must
    produce the identical target *and* the identical trace — nulls,
    firing order and all — because the tgd matcher's row order is the
    same content-determined sequence in both engines."""

    @settings(max_examples=30, deadline=None)
    @given(source=temporal_edge_instances(relation="R", max_edges=8))
    def test_triangle_exchange_byte_identical(self, source):
        setting = exchange_setting_triangle()
        runs = {}
        for join in ("flat", "wcoj"):
            with pinned_join(join):
                result = c_chase(source, setting)
            assert result.succeeded
            runs[join] = result
        assert runs["flat"].target == runs["wcoj"].target
        assert repr(runs["flat"].trace.steps) == repr(runs["wcoj"].trace.steps)
