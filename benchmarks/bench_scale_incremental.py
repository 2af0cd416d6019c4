"""SCALE-2: the incremental cross-region abstract chase.

The abstract chase visits one snapshot per constancy region; adjacent
region snapshots typically differ by a handful of facts.  It replays the
previous region's recorded firing sequence wherever the snapshot diff
left it intact, byte-identical to chasing every region from scratch.

Two regimes:

* the org-chart workload (``random_org_history``) is the replay's
  target: region churn comes from short ``Task`` facts, while the heavy
  ``Dept ⋈ Emp`` reporting join is unchanged between almost all adjacent
  regions and replays in the tight zero-allocation loop;
* the employment workload (``random_employment_history``) churns every
  relation at every breakpoint (job switches remove *and* add facts), so
  most recorded decisions must be re-probed.

The summary benchmark prints reuse percentages for the sweep.
"""

import pytest

from repro.abstract_view import abstract_chase, semantics
from repro.workloads import (
    exchange_setting_join,
    exchange_setting_org,
    melting_org_history,
    random_employment_history,
    random_org_history,
)

from conftest import emit

ORG_SETTING = exchange_setting_org()
JOIN_SETTING = exchange_setting_join()


def _org_abstract(people):
    workload = random_org_history(
        people=people, timeline=people * 4, seed=17
    )
    return semantics(workload.instance)


@pytest.mark.parametrize("people", [32, 64, 128])
def test_incremental_org_chase(benchmark, people):
    abstract = _org_abstract(people)
    result = benchmark(lambda: abstract_chase(abstract, ORG_SETTING))
    assert result.succeeded


def test_incremental_employment_chase(benchmark):
    workload = random_employment_history(people=16, timeline=160, seed=17)
    abstract = semantics(workload.instance)
    result = benchmark(lambda: abstract_chase(abstract, JOIN_SETTING))
    assert result.succeeded


@pytest.mark.parametrize("people", [48, 96])
def test_replay_melting_org_chase(benchmark, people):
    """The ≥90%-replay regime: every region boundary is removal-only.

    ``melting_org_history`` never adds a fact after time 0, so every
    region past the first replays the previous region's firing log with
    no live matches — the workload where a fully-replayed region's cost
    is dominated by the *output* floor (target build, trace) that
    copy-on-write region results eliminate.
    """
    abstract = semantics(melting_org_history(people).instance)
    result = benchmark(lambda: abstract_chase(abstract, ORG_SETTING))
    assert result.succeeded
    totals = result.reuse_totals()
    matches = totals.replayed_matches + totals.live_matches
    assert totals.replayed_matches >= 0.9 * matches


def test_incremental_reuse_summary(benchmark):
    rows = []
    for people in (32, 64, 128):
        abstract = _org_abstract(people)
        result = abstract_chase(abstract, ORG_SETTING)
        assert result.succeeded
        totals = result.reuse_totals()
        matches = totals.replayed_matches + totals.live_matches
        rows.append(
            f"  people={people:>4}  regions={len(result.region_results):>4}  "
            f"matches={matches:>7}  "
            f"replayed={100.0 * totals.replayed_matches / matches:5.1f}%  "
            f"reused streams={totals.streams_reused:>4}  "
            f"patched={totals.streams_patched:>4}"
        )
    emit(
        "SCALE-2: cross-region reuse of the incremental abstract chase",
        "\n".join(rows),
    )
    abstract = _org_abstract(32)
    benchmark(lambda: abstract_chase(abstract, ORG_SETTING))
