"""A one-fact source change is a one-fact target change.

Null names are Skolem terms of their firings (:mod:`repro.chase.nulls`),
so re-chasing a source with one ``Task`` fact removed drops exactly the
``Log`` fact that ``Task`` derived — no later null is renamed, wherever
the fact sits in the source's canonical order.
"""

import pytest

from repro.concrete import c_chase
from repro.concrete.concrete_fact import ConcreteFact
from repro.deltas import SourceDelta
from repro.workloads import exchange_setting_org, random_org_history


@pytest.fixture(scope="module")
def cold_chase():
    source = random_org_history(256, 128, seed=1).instance
    setting = exchange_setting_org()
    return source, setting, c_chase(source, setting)


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_removing_one_task_fact_removes_one_target_fact(cold_chase, fraction):
    source, setting, before = cold_chase
    tasks = sorted(
        (item for item in source if item.relation == "Task"),
        key=ConcreteFact.sort_key,
    )
    victim = tasks[int(fraction * len(tasks))]
    after = c_chase(SourceDelta(remove=(victim,)).applied_to(source), setting)
    assert after.succeeded
    diff = SourceDelta.between(before.target, after.target)
    assert diff.add == ()
    (removed,) = diff.remove
    assert removed.relation == "Log"
    assert removed.data[:2] == victim.data
    assert removed.interval == victim.interval
