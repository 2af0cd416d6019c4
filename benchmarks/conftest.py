"""Shared fixtures and reporting helpers for the benchmark harness.

Every ``bench_figXX_*`` module regenerates one figure of the paper:
it first asserts the regenerated artifact equals the paper's rows
*exactly*, then times the operation that produces it.  Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the regenerated figures printed next to the timings.
"""

from __future__ import annotations

import pytest

from repro.workloads import (
    employment_setting,
    employment_source_abstract,
    employment_source_concrete,
)


@pytest.fixture(scope="session")
def setting():
    return employment_setting()


@pytest.fixture
def source():
    return employment_source_concrete()


@pytest.fixture
def abstract_source():
    return employment_source_abstract()


@pytest.hookimpl(optionalhook=True)
def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Write statistics only: drop each benchmark's per-round timings.

    ``stats.data`` is the raw list of every round's duration — about
    97% of a ``--benchmark-json`` file — and ``compare_bench.py`` reads
    only ``stats.min``, so the committed ``BENCH_*.json`` trail keeps
    the summary statistics and nothing else.
    """
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)


def emit(title: str, body: str) -> None:
    """Print a regenerated artifact in a recognizable block."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}")
