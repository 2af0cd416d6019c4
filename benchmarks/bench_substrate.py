"""Substrate benchmarks: coalescing, serialization, homomorphism search.

Not tied to a figure — these time the building blocks whose constants
determine every number above them, on generated workloads large enough
to be meaningful.
"""

from repro.relational import Instance, fact, parse_conjunction
from repro.relational.homomorphism import find_homomorphisms
from repro.serialize import (
    concrete_instance_from_json,
    concrete_instance_to_json,
    instance_from_csv_dict,
    instance_to_csv_dict,
)
from repro.workloads import random_concrete_instance, random_employment_history
from tests.oracles.algebra import evaluate_conjunction


def uncoalesced_instance():
    # Deliberately fragmented: many value-equal facts over adjacent stamps.
    base = random_concrete_instance(
        200, relations=(("R", 2),), domain_size=10, timeline=60, seed=21
    )
    return base


def test_bench_coalesce(benchmark):
    instance = uncoalesced_instance()
    merged = benchmark(lambda: instance.coalesce())
    assert merged.is_coalesced()
    assert len(merged) <= len(instance)


def test_bench_json_roundtrip(benchmark):
    instance = random_employment_history(people=10, timeline=40, seed=3).instance

    def roundtrip():
        return concrete_instance_from_json(concrete_instance_to_json(instance))

    restored = benchmark(roundtrip)
    assert restored == instance


def test_bench_csv_roundtrip(benchmark):
    instance = random_employment_history(people=10, timeline=40, seed=3).instance

    def roundtrip():
        return instance_from_csv_dict(instance_to_csv_dict(instance))

    restored = benchmark(roundtrip)
    assert restored == instance


def _join_snapshot(size: int) -> Instance:
    return Instance(
        [fact("E", f"p{i}", f"c{i % 7}") for i in range(size)]
        + [fact("S", f"p{i}", f"{i % 5}k") for i in range(size)]
    )


def test_bench_homomorphism_join(benchmark):
    snapshot = _join_snapshot(300)
    conjunction = parse_conjunction("E(n, c) & S(n, s)")
    results = benchmark(lambda: list(find_homomorphisms(conjunction, snapshot)))
    assert len(results) == 300


def test_bench_algebra_join(benchmark):
    snapshot = _join_snapshot(300)
    conjunction = parse_conjunction("E(n, c) & S(n, s)")
    result = benchmark(lambda: evaluate_conjunction(conjunction, snapshot))
    assert len(result) == 300
