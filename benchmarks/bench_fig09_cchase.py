"""FIG-9: the c-chase of Ic (Example 17), regenerated and timed.

The exact five rows of Figure 9, with both unknowns carrying the right
interval annotations; the benchmark times the full Definition 16 pipeline
(normalize → s-t steps → normalize → egd steps).  The ``scaled`` variant
runs the same pipeline on dense salary histories
(:func:`repro.workloads.overlapping_salary_history`), where both
normalization stages carry most of the cost.
"""

import pytest

from repro.concrete import c_chase
from repro.relational import Constant
from repro.relational.terms import AnnotatedNull
from repro.serialize import render_concrete_instance
from repro.temporal import Interval
from repro.workloads import employment_setting, overlapping_salary_history

from conftest import emit

SCALED_SPANS = (32, 256, 1024, 2048)


def test_fig09_cchase(benchmark, source, setting):
    result = benchmark(lambda: c_chase(source, setting))
    assert result.succeeded
    target = result.target
    assert len(target) == 5

    rows = {
        (str(f.data[0]), str(f.data[1]), str(f.interval)): f.data[2]
        for f in target.facts_of("Emp")
    }
    # The three known-salary rows.
    assert rows[("Ada", "IBM", "[2013, 2014)")] == Constant("18k")
    assert rows[("Ada", "Google", "[2014, inf)")] == Constant("18k")
    assert rows[("Bob", "IBM", "[2015, 2018)")] == Constant("13k")
    # The two interval-annotated unknowns.
    ada_unknown = rows[("Ada", "IBM", "[2012, 2013)")]
    bob_unknown = rows[("Bob", "IBM", "[2013, 2015)")]
    assert isinstance(ada_unknown, AnnotatedNull)
    assert ada_unknown.annotation == Interval(2012, 2013)
    assert isinstance(bob_unknown, AnnotatedNull)
    assert bob_unknown.annotation == Interval(2013, 2015)
    assert ada_unknown.base != bob_unknown.base

    emit(
        "FIG-9 (paper Figure 9): c-chase(Ic, M+) — the concrete solution",
        render_concrete_instance(target, setting.lifted_target_schema()),
    )


@pytest.mark.parametrize("spans", SCALED_SPANS)
def test_fig09_cchase_scaled(benchmark, spans):
    """The full c-chase pipeline on dense salary histories.

    The largest size concentrates the whole history on one person — the
    per-person value-equivalence group is the entire instance, which is
    the regime where overlap discovery used to dominate the pipeline.
    """
    scaled_setting = employment_setting()
    people = 1 if spans >= 1024 else 2
    workload = overlapping_salary_history(people=people, spans=spans)
    result = benchmark(lambda: c_chase(workload.instance, scaled_setting))
    assert result.succeeded
    # One Emp row per normalized E fragment survives, so the solution
    # stays linear in the source despite the dense overlap groups.
    assert len(result.target) <= 6 * len(workload.instance)
