"""FIG-5 and FIG-6: conjunction-aware vs naïve normalization of Ic.

Regenerates both figures exactly (9 facts vs 14 facts) and times the two
algorithms — the paper's size-vs-speed trade-off (end of Section 4.2)
made measurable.  The ``scaled`` variants run the same two algorithms on
:func:`repro.workloads.overlapping_salary_history` — dense per-person
``E ⋈ S`` overlap groups with linear fragment output, the shape where
overlap discovery (not fragmentation) dominates — at growing sizes.
"""

import pytest

from repro.concrete import (
    concrete_fact,
    is_normalized,
    naive_normalize,
    normalize,
)
from repro.serialize import render_concrete_instance
from repro.temporal import Interval, interval
from repro.workloads import overlapping_salary_history, salary_conjunction

from conftest import emit

SCALED_SPANS = (64, 256, 512)

FIGURE_5 = {
    concrete_fact("E", "Ada", "IBM", interval=Interval(2012, 2013)),
    concrete_fact("E", "Ada", "IBM", interval=Interval(2013, 2014)),
    concrete_fact("E", "Ada", "Google", interval=interval(2014)),
    concrete_fact("E", "Bob", "IBM", interval=Interval(2013, 2015)),
    concrete_fact("E", "Bob", "IBM", interval=Interval(2015, 2018)),
    concrete_fact("S", "Ada", "18k", interval=Interval(2013, 2014)),
    concrete_fact("S", "Ada", "18k", interval=interval(2014)),
    concrete_fact("S", "Bob", "13k", interval=Interval(2015, 2018)),
    concrete_fact("S", "Bob", "13k", interval=interval(2018)),
}

FIGURE_6 = {
    concrete_fact("E", "Ada", "IBM", interval=Interval(2012, 2013)),
    concrete_fact("E", "Ada", "IBM", interval=Interval(2013, 2014)),
    concrete_fact("E", "Ada", "Google", interval=Interval(2014, 2015)),
    concrete_fact("E", "Ada", "Google", interval=Interval(2015, 2018)),
    concrete_fact("E", "Ada", "Google", interval=interval(2018)),
    concrete_fact("E", "Bob", "IBM", interval=Interval(2013, 2014)),
    concrete_fact("E", "Bob", "IBM", interval=Interval(2014, 2015)),
    concrete_fact("E", "Bob", "IBM", interval=Interval(2015, 2018)),
    concrete_fact("S", "Ada", "18k", interval=Interval(2013, 2014)),
    concrete_fact("S", "Ada", "18k", interval=Interval(2014, 2015)),
    concrete_fact("S", "Ada", "18k", interval=Interval(2015, 2018)),
    concrete_fact("S", "Ada", "18k", interval=interval(2018)),
    concrete_fact("S", "Bob", "13k", interval=Interval(2015, 2018)),
    concrete_fact("S", "Bob", "13k", interval=interval(2018)),
}


def test_fig05_algorithm1(benchmark, source, setting):
    """Figure 5: norm(Ic, {E+(n,c,t) ∧ S+(n,s,t)}) — 9 facts."""
    conjunctions = [salary_conjunction()]
    normalized = benchmark(lambda: normalize(source, conjunctions))
    assert normalized.facts() == FIGURE_5
    emit(
        "FIG-5 (paper Figure 5): Algorithm 1 normalization (9 facts)",
        render_concrete_instance(normalized, setting.lifted_source_schema()),
    )


def test_fig06_naive_normalization(benchmark, source, setting):
    """Figure 6: the naïve endpoint-based normalization — 14 facts."""
    normalized = benchmark(lambda: naive_normalize(source))
    assert normalized.facts() == FIGURE_6
    assert len(normalized) > len(FIGURE_5)  # the paper's comparison
    emit(
        "FIG-6 (paper Figure 6): naïve normalization (14 facts)",
        render_concrete_instance(normalized, setting.lifted_source_schema()),
    )


@pytest.mark.parametrize("spans", SCALED_SPANS)
def test_fig05_scaled_algorithm1(benchmark, spans):
    """Figure 5's algorithm on dense salary histories (big overlap groups)."""
    workload = overlapping_salary_history(people=2, spans=spans)
    conjunctions = [salary_conjunction()]
    normalized = benchmark(lambda: normalize(workload.instance, conjunctions))
    # The workload's fragment fan-out is bounded: linear output, so the
    # timing isolates overlap discovery rather than fragment churn.
    assert len(workload.instance) < len(normalized) <= 6 * len(workload.instance)
    if spans == SCALED_SPANS[0]:
        assert is_normalized(normalized, conjunctions)


@pytest.mark.parametrize("spans", SCALED_SPANS)
def test_fig06_scaled_naive(benchmark, spans):
    """Figure 6's naïve algorithm on the same dense salary histories."""
    workload = overlapping_salary_history(people=2, spans=spans)
    normalized = benchmark(lambda: naive_normalize(workload.instance))
    assert len(normalized) >= len(workload.instance)
