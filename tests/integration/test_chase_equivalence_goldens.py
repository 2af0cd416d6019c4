"""Pre/post-overhaul equivalence: the chase output is byte-identical.

The chase hot path was overhauled (incremental indexes, cardinality-
driven homomorphism search, batched union-find egd rounds).  These
goldens were captured from the pre-overhaul per-equation implementation
on the paper's employment example and the domain scenarios; the current
implementation must reproduce them *exactly* — same solutions, same
failure records, same trace step counts, same deterministic egd step
sequence (Skolem null names included).
"""

from repro.chase import chase_snapshot
from repro.concrete import c_chase
from repro.workloads import (
    employment_setting,
    employment_source_concrete,
    medical_conflicting_scenario,
    medical_scenario,
    ride_share_scenario,
    scheduling_scenario,
)

# Captured from the pre-overhaul implementation (seed commit), then
# migrated to Skolem null names: each case equals its counter-named
# original under one bijection of null names, applied alike to the
# target, the egd steps (in order) and the failure record.
CCHASE_GOLDENS = {
    "employment": {
        "failed": False,
        "target": [
            "Emp+(Ada, Google, 18k, [2014, inf))",
            "Emp+(Ada, IBM, 18k, [2013, 2014))",
            "Emp+(Ada, IBM, N09c4c86ff21d19e7^[2012, 2013), [2012, 2013))",
            "Emp+(Bob, IBM, 13k, [2015, 2018))",
            "Emp+(Bob, IBM, N159fc0d2055ddea9^[2013, 2015), [2013, 2015))",
        ],
        "tgd_steps": 8,
        "egd_steps": [
            ("ε1+", "N66929303c47d7b86^[2014, inf)", "18k"),
            ("ε1+", "Nd30dc164923fe57f^[2013, 2014)", "18k"),
            ("ε1+", "N6c9631bb0ff0c4a6^[2015, 2018)", "13k"),
        ],
        "trace_len": 11,
        "failure": None,
        "normalized_source_size": 9,
        "pre_egd_size": 8,
    },
    "medical": {
        "failed": False,
        "target": [
            "Attending+(alice, dr_wu, [1, 10))",
            "Attending+(bob, dr_kaur, [9, inf))",
            "Attending+(bob, dr_silva, [6, 9))",
            "Case+(alice, cardio, Ne2f85098389f25a9^[1, 4), [1, 4))",
            "Case+(alice, cardio, arrhythmia, [4, 10))",
            "Case+(bob, neuro, N4ed7a168e4c460cd^[6, 8), [6, 8))",
            "Case+(bob, neuro, N940dd7979a248c66^[12, inf), [12, inf))",
            "Case+(bob, neuro, migraine, [8, 12))",
        ],
        "tgd_steps": 10,
        "egd_steps": [
            ("ε1+", "N63a478812bff49d3^[4, 10)", "arrhythmia"),
            ("ε1+", "Nc1fab707b63c6662^[8, 12)", "migraine"),
        ],
        "trace_len": 12,
        "failure": None,
        "normalized_source_size": 10,
        "pre_egd_size": 10,
    },
    "scheduling": {
        "failed": False,
        "target": [
            "Active+(apollo, build, [6, 14))",
            "Active+(apollo, design, [0, 6))",
            "Active+(apollo, test, [14, 18))",
            "Active+(hermes, build, [9, inf))",
            "Active+(hermes, design, [4, 9))",
            "Staff+(mira, apollo, 120, [0, 10))",
            "Staff+(mira, apollo, 140, [10, 14))",
            "Staff+(mira, hermes, 140, [14, inf))",
            "Staff+(noor, apollo, Nc6d2a2f9129760ae^[2, 18), [2, 18))",
            "Staff+(ravi, hermes, 95, [6, inf))",
            "Staff+(ravi, hermes, Ncfebce02d2f46675^[4, 6), [4, 6))",
        ],
        "tgd_steps": 15,
        "egd_steps": [
            ("ε1+", "Naa8a02f4a17a263c^[0, 10)", "120"),
            ("ε1+", "Nfa6ea808c9506b10^[10, 14)", "140"),
            ("ε1+", "Nad84e02286fa047c^[14, inf)", "140"),
            ("ε1+", "N789220bdcc95a7b9^[6, inf)", "95"),
        ],
        "trace_len": 19,
        "failure": None,
        "normalized_source_size": 15,
        "pre_egd_size": 15,
    },
    "ride-share": {
        "failed": False,
        "target": [
            "Fleet+(bike3, riverside, N59a8933ce9d66a92^[2, 20), [2, 20))",
            "Fleet+(cab7, airport, 3.10, [12, inf))",
            "Fleet+(cab7, downtown, 2.40, [0, 8))",
            "Fleet+(cab7, downtown, 3.10, [8, 12))",
            "Operates+(cab7, dana, [0, 9))",
            "Operates+(cab7, errol, [9, inf))",
        ],
        "tgd_steps": 9,
        "egd_steps": [
            ("ε1+", "Nfbccbd585eae6171^[12, inf)", "3.10"),
            ("ε1+", "N78e5e66805f89671^[0, 8)", "2.40"),
            ("ε1+", "N94b2c08e090ccb88^[8, 12)", "3.10"),
        ],
        "trace_len": 12,
        "failure": None,
        "normalized_source_size": 9,
        "pre_egd_size": 9,
    },
    "medical-conflict": {
        "failed": True,
        "target": [
            "Attending+(alice, dr_wu, [1, 10))",
            "Attending+(bob, dr_kaur, [9, inf))",
            "Attending+(bob, dr_silva, [6, 9))",
            "Case+(alice, cardio, N965a353957a936c8^[5, 8), [5, 8))",
            "Case+(alice, cardio, Nae17a90325b93018^[8, 10), [8, 10))",
            "Case+(alice, cardio, Ne2f85098389f25a9^[1, 4), [1, 4))",
            "Case+(alice, cardio, arrhythmia, [4, 5))",
            "Case+(alice, cardio, arrhythmia, [5, 8))",
            "Case+(alice, cardio, arrhythmia, [8, 10))",
            "Case+(alice, cardio, flutter, [5, 8))",
            "Case+(bob, neuro, N4ed7a168e4c460cd^[6, 8), [6, 8))",
            "Case+(bob, neuro, N940dd7979a248c66^[12, inf), [12, inf))",
            "Case+(bob, neuro, Nc1fab707b63c6662^[8, 12), [8, 12))",
            "Case+(bob, neuro, migraine, [8, 12))",
        ],
        "tgd_steps": 15,
        "egd_steps": [("ε1+", "Nd9856c79179973dc^[4, 5)", "arrhythmia")],
        "trace_len": 17,
        "failure": ("ε1+", "arrhythmia", "flutter"),
        "normalized_source_size": 15,
        "pre_egd_size": 15,
    },
}

SNAPSHOT_GOLDENS = {
    2012: {
        "target": ["Emp(Ada, IBM, N22dd943e473137a7)"],
        "tgd_steps": 1,
        "egd_steps": [],
    },
    2013: {
        "target": ["Emp(Ada, IBM, 18k)", "Emp(Bob, IBM, N17a1aca8213c3cdf)"],
        "tgd_steps": 3,
        "egd_steps": [("ε1", "N22dd943e473137a7", "18k")],
    },
    2014: {
        "target": ["Emp(Ada, Google, 18k)", "Emp(Bob, IBM, N17a1aca8213c3cdf)"],
        "tgd_steps": 3,
        "egd_steps": [("ε1", "Nb17dcd9031a3b27d", "18k")],
    },
    2015: {
        "target": ["Emp(Ada, Google, 18k)", "Emp(Bob, IBM, 13k)"],
        "tgd_steps": 4,
        "egd_steps": [
            ("ε1", "Nb17dcd9031a3b27d", "18k"),
            ("ε1", "N17a1aca8213c3cdf", "13k"),
        ],
    },
    2016: {
        "target": ["Emp(Ada, Google, 18k)", "Emp(Bob, IBM, 13k)"],
        "tgd_steps": 4,
        "egd_steps": [
            ("ε1", "Nb17dcd9031a3b27d", "18k"),
            ("ε1", "N17a1aca8213c3cdf", "13k"),
        ],
    },
    2018: {
        "target": ["Emp(Ada, Google, 18k)"],
        "tgd_steps": 2,
        "egd_steps": [("ε1", "Nb17dcd9031a3b27d", "18k")],
    },
}


def _scenarios():
    employment = employment_setting(), employment_source_concrete()
    yield "employment", employment[0], employment[1]
    for scenario in (
        medical_scenario(),
        scheduling_scenario(),
        ride_share_scenario(),
        medical_conflicting_scenario(),
    ):
        yield scenario.name, scenario.setting, scenario.source


class TestCChaseGoldens:
    def test_all_scenarios_match_pre_overhaul_behaviour(self):
        for name, setting, source in _scenarios():
            golden = CCHASE_GOLDENS[name]
            result = c_chase(source, setting)
            assert result.failed == golden["failed"], name
            assert sorted(str(f) for f in result.target.facts()) == golden[
                "target"
            ], name
            assert len(result.trace.tgd_steps) == golden["tgd_steps"], name
            assert [
                (s.dependency, str(s.replaced), str(s.replacement))
                for s in result.trace.egd_steps
            ] == golden["egd_steps"], name
            assert len(result.trace) == golden["trace_len"], name
            failure = result.failure
            if golden["failure"] is None:
                assert failure is None, name
            else:
                assert failure is not None, name
                assert (
                    failure.dependency,
                    str(failure.left),
                    str(failure.right),
                ) == golden["failure"], name
            assert (
                len(result.normalized_source)
                == golden["normalized_source_size"]
            ), name
            assert len(result.pre_egd_target) == golden["pre_egd_size"], name


class TestSnapshotChaseGoldens:
    def test_employment_snapshots_match_pre_overhaul_behaviour(self):
        setting = employment_setting()
        source = employment_source_concrete()
        for point, golden in SNAPSHOT_GOLDENS.items():
            result = chase_snapshot(source.snapshot(point), setting)
            assert result.succeeded, point
            assert (
                sorted(str(f) for f in result.target.facts())
                == golden["target"]
            ), point
            assert len(result.trace.tgd_steps) == golden["tgd_steps"], point
            assert [
                (s.dependency, str(s.replaced), str(s.replacement))
                for s in result.trace.egd_steps
            ] == golden["egd_steps"], point
