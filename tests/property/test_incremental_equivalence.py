"""Incremental cross-region chase ≡ from-scratch chase, byte-for-byte.

The abstract chase replays the previous region's recorded firing
sequence against the patched snapshot; the hard requirement is that
everything observable is identical to chasing every region from scratch
(the :func:`~tests.oracles.chase.per_region_chase` oracle) — the
abstract solution, the per-region targets, the full traces (null
*names* included: replayed firings keep their Skolem-named nulls),
failures and their regions.  Hypothesis drives the comparison
over generated employment histories, a failure-heavy key-clash mapping,
and the sharded scheduler (each shard is its own incremental chain).
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.abstract_view import abstract_chase, semantics
from repro.dependencies import DataExchangeSetting
from repro.relational import Schema

from tests.oracles.chase import per_region_chase

from .strategies import employment_instances

JOIN_SETTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
    Schema.of(Emp=("Name", "Company", "Salary")),
    st_tgds=[
        "E(n, c) -> EXISTS s . Emp(n, c, s)",
        "E(n, c) & S(n, s) -> Emp(n, c, s)",
    ],
    egds=["Emp(n, c, s) & Emp(n, c, s2) -> s = s2"],
)

# Clash-prone: equating salaries across companies fails as soon as one
# person draws two distinct salaries anywhere on the timeline.
CLASH_SETTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
    Schema.of(Emp=("Name", "Company", "Salary")),
    st_tgds=[
        "E(n, c) -> EXISTS s . Emp(n, c, s)",
        "E(n, c) & S(n, s) -> Emp(n, c, s)",
    ],
    egds=["Emp(n, c, s) & Emp(n2, c, s2) -> s = s2"],
)


def _trace_lines(result):
    return {
        region: [repr(step) for step in regional.trace.steps]
        for region, regional in result.region_results.items()
    }


def _assert_byte_identical(incremental, full):
    assert incremental.failed == full.failed
    assert incremental.failed_region == full.failed_region
    assert str(incremental.failure) == str(full.failure)
    assert sorted(map(str, incremental.target.templates)) == sorted(
        map(str, full.target.templates)
    )
    assert list(incremental.region_results) == list(full.region_results)
    for region in full.region_results:
        lhs = incremental.region_results[region]
        rhs = full.region_results[region]
        assert sorted(map(str, lhs.target.facts())) == sorted(
            map(str, rhs.target.facts())
        ), region
    assert _trace_lines(incremental) == _trace_lines(full)


class TestIncrementalEqualsFull:
    @settings(max_examples=60, deadline=None)
    @given(source=employment_instances(max_facts=8))
    def test_join_setting(self, source):
        abstract = semantics(source)
        incremental = abstract_chase(abstract, JOIN_SETTING)
        full = per_region_chase(abstract, JOIN_SETTING)
        _assert_byte_identical(incremental, full)

    @settings(max_examples=60, deadline=None)
    @given(source=employment_instances(max_facts=8))
    def test_failure_heavy_setting(self, source):
        abstract = semantics(source)
        incremental = abstract_chase(abstract, CLASH_SETTING)
        full = per_region_chase(abstract, CLASH_SETTING)
        _assert_byte_identical(incremental, full)

    @settings(max_examples=30, deadline=None)
    @given(source=employment_instances(max_facts=8))
    def test_sharded_chains(self, source):
        abstract = semantics(source)
        incremental = abstract_chase(abstract, JOIN_SETTING, shards=3)
        full = per_region_chase(abstract, JOIN_SETTING)
        _assert_byte_identical(incremental, full)
