"""Indexed query evaluation ≡ scan reference, swept by Hypothesis.

The indexed evaluator (plan probing, counting-based region sweep,
freeze-free concrete route, QueryLog replay) must be answer-equivalent to
the scan transcription of the paper's procedures (the
:mod:`tests.oracles.query` oracle) — answer sets, interval annotations
and (sorted) tuple order alike.  The sweep drives colliding-
endpoint instances (small integer timelines, so template stamps share
endpoints constantly) and null-heavy chased targets (E facts without a
matching S draw existential nulls), plus the Theorem 21 correspondence on
the new paths.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.abstract_view import semantics
from repro.concrete import c_chase
from repro.dependencies import DataExchangeSetting
from repro.query import (
    ConjunctiveQuery,
    QueryLog,
    UnionQuery,
    evaluate_snapshot,
    naive_evaluate_abstract,
    naive_evaluate_concrete,
    verify_evaluation_correspondence,
)
from repro.relational import Schema
from tests.oracles import query as scan_oracle

from .strategies import concrete_instances, employment_instances

JOIN_SETTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
    Schema.of(Emp=("Name", "Company", "Salary")),
    st_tgds=[
        "E(n, c) -> EXISTS s . Emp(n, c, s)",
        "E(n, c) & S(n, s) -> Emp(n, c, s)",
    ],
    egds=["Emp(n, c, s) & Emp(n, c, s2) -> s = s2"],
)

# One query per evaluator shape: single atom (normalization-free path),
# a self-join (flat plan + fragmentation), constants (generic fallback),
# a repeated variable within an atom (generic fallback), and a union
# mixing the shapes.
QUERIES = (
    ConjunctiveQuery.parse("q(n, s) :- Emp(n, c, s)"),
    ConjunctiveQuery.parse("q(n, m) :- Emp(n, c, s) & Emp(m, c, s)"),
    ConjunctiveQuery.parse("q(n) :- Emp(n, 'ibm', s)"),
    ConjunctiveQuery.parse("q(n) :- Emp(n, c, c)"),
    UnionQuery.of(
        "q(n) :- Emp(n, 'ibm', s)",
        "q(n) :- Emp(n, c, s) & Emp(n, c2, s)",
    ),
)

# Direct (unchased) instances exercise the snapshot/abstract evaluators
# over arbitrary colliding-endpoint timelines without chase constraints.
DIRECT_QUERIES = (
    ConjunctiveQuery.parse("q(x) :- R(x)"),
    ConjunctiveQuery.parse("q(x) :- R(x) & S(x)"),
    UnionQuery.of("q(x) :- R(x)", "q(x) :- S(x)"),
)


def _chased(source):
    result = c_chase(source, JOIN_SETTING)
    return None if result.failed else result.target


class TestIndexedEqualsScan:
    @settings(max_examples=40, deadline=None)
    @given(source=employment_instances(max_facts=8))
    def test_concrete_rows_byte_identical(self, source):
        solution = _chased(source)
        if solution is None:
            return
        for query in QUERIES:
            indexed = naive_evaluate_concrete(query, solution)
            scan = scan_oracle.naive_evaluate_concrete(query, solution)
            # Same rows, same interval annotations, same sorted order.
            assert indexed.rows == scan.rows
            assert list(indexed) == list(scan)

    @settings(max_examples=40, deadline=None)
    @given(source=employment_instances(max_facts=8))
    def test_abstract_answers_byte_identical(self, source):
        solution = _chased(source)
        if solution is None:
            return
        abstract = semantics(solution)
        for query in QUERIES:
            indexed = naive_evaluate_abstract(query, abstract)
            scan = scan_oracle.naive_evaluate_abstract(query, abstract)
            assert indexed == scan
            # Canonical interval sets piece by piece, and sorted order.
            assert list(indexed) == list(scan)
            for (_, lhs), (_, rhs) in zip(indexed, scan, strict=True):
                assert lhs.intervals == rhs.intervals

    @settings(max_examples=40, deadline=None)
    @given(
        source=concrete_instances(
            relations=(("R", 1), ("S", 1)), max_facts=10, max_start=10,
            max_length=5,
        )
    )
    def test_direct_instances_colliding_endpoints(self, source):
        abstract = semantics(source)
        for query in DIRECT_QUERIES:
            indexed = naive_evaluate_abstract(query, abstract)
            scan = scan_oracle.naive_evaluate_abstract(query, abstract)
            assert indexed == scan
            concrete_indexed = naive_evaluate_concrete(query, source)
            concrete_scan = scan_oracle.naive_evaluate_concrete(query, source)
            assert concrete_indexed.rows == concrete_scan.rows

    @settings(max_examples=30, deadline=None)
    @given(source=employment_instances(max_facts=6))
    def test_snapshot_engines_agree(self, source):
        solution = _chased(source)
        if solution is None:
            return
        abstract = semantics(solution)
        for region in abstract.regions():
            snapshot = abstract.snapshot(region.start)
            for query in QUERIES:
                assert evaluate_snapshot(query, snapshot) == (
                    scan_oracle.evaluate_snapshot(query, snapshot)
                )

    @settings(max_examples=25, deadline=None)
    @given(source=employment_instances(max_facts=8))
    def test_theorem_21_on_new_paths(self, source):
        solution = _chased(source)
        if solution is None:
            return
        for query in QUERIES:
            assert verify_evaluation_correspondence(query, solution)

    @settings(max_examples=25, deadline=None)
    @given(source=employment_instances(max_facts=8))
    def test_query_log_replay_is_invisible(self, source):
        solution = _chased(source)
        if solution is None:
            return
        log = QueryLog()
        for query in QUERIES:
            fresh = naive_evaluate_concrete(query, solution)
            first = naive_evaluate_concrete(query, solution, log=log)
            replayed = naive_evaluate_concrete(query, solution, log=log)
            assert fresh.rows == first.rows == replayed.rows
        assert log.hits > 0

