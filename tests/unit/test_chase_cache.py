"""Unit tests for the content-addressed chase cache (repro.server.cache)."""

import pickle

from repro.concrete import ConcreteInstance, c_chase
from repro.serialize import chase_request_digest
from repro.server.cache import CachedChase, ChaseCache
from repro.workloads import employment_setting, employment_source_concrete

import pytest


@pytest.fixture(scope="module")
def entry() -> CachedChase:
    setting = employment_setting()
    source = employment_source_concrete()
    digest = chase_request_digest(setting, source)
    result = c_chase(source, setting)
    return CachedChase.from_result(digest, result)


class TestCachedChase:
    def test_records_outcome(self, entry):
        assert not entry.failed
        assert entry.failure is None
        assert entry.facts == 5  # Figure 9
        assert entry.steps > 0

    def test_materialize_is_independent(self, entry):
        target_one = entry.materialize()
        target_two = entry.materialize()
        assert isinstance(target_one, ConcreteInstance)
        assert target_one is not target_two
        assert list(target_one) == list(target_two)
        # mutating one consumer's copy must not leak into the next
        target_one.discard(next(iter(target_one)))
        assert len(entry.materialize()) == entry.facts

    def test_entry_pickles_the_target_only(self, entry):
        target = c_chase(employment_source_concrete(), employment_setting()).target
        assert entry.payload == pickle.dumps(target)


class TestChaseCache:
    def test_miss_then_hit(self, entry):
        cache = ChaseCache(max_entries=4)
        assert cache.get(entry.digest) is None
        cache.put(entry)
        assert cache.get(entry.digest) is entry
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self, entry):
        cache = ChaseCache(max_entries=2)
        first = CachedChase(
            digest="a" * 64,
            payload=entry.payload,
            facts=entry.facts,
            steps=entry.steps,
            failed=False,
            failure=None,
        )
        second = CachedChase(
            digest="b" * 64,
            payload=entry.payload,
            facts=entry.facts,
            steps=entry.steps,
            failed=False,
            failure=None,
        )
        cache.put(first)
        cache.put(second)
        assert cache.get(first.digest) is first  # refresh: first is now MRU
        cache.put(entry)  # evicts second, the LRU
        assert cache.get(second.digest) is None
        assert cache.get(first.digest) is first
        assert cache.get(entry.digest) is entry
        assert cache.stats()["evictions"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ChaseCache(max_entries=0)

    def test_len_tracks_entries(self, entry):
        cache = ChaseCache(max_entries=4)
        assert len(cache) == 0
        cache.put(entry)
        assert len(cache) == 1
        cache.put(entry)  # same digest: replaces, not grows
        assert len(cache) == 1
