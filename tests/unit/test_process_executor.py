"""The process-pool region scheduler: parity, crashes, pickling."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.abstract_view import AbstractInstance, TemplateFact, abstract_chase, semantics
from repro.chase.union_find import AnnotationMismatchError, ConstantClashError
from repro.concrete import ConcreteInstance, concrete_fact
from repro.dependencies import DataExchangeSetting
from repro.errors import (
    ChaseFailureError,
    InstanceError,
    RemoteShardError,
    ShardExecutionError,
)
from repro.relational import Constant, Instance, Schema, fact
from repro.relational.terms import AnnotatedNull
from repro.temporal import Interval
from repro.workloads import exchange_setting_org, random_org_history
from tests.oracles.chase import per_region_chase


ORG_SETTING = exchange_setting_org()


class _RejectsItsArgs(Exception):
    """Pickles, but its ``__init__`` rejects the args pickle replays."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")

CLASH_SETTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Dept")),
    Schema.of(T=("Name", "Dept")),
    st_tgds=["E(x, y) -> T(x, y)"],
    egds=["T(x, y) & T(x, z) -> y = z"],
)


def _org_abstract(people=8, timeline=32, seed=3):
    return semantics(
        random_org_history(people=people, timeline=timeline, seed=seed).instance
    )


def _assert_identical(lhs, rhs):
    """Everything observable matches, null names and traces included.

    *rhs* is the unsharded serial run: Skolem null names make a region's
    output independent of which shard, executor or process chased it.
    """
    assert lhs.failed == rhs.failed
    assert lhs.failed_region == rhs.failed_region
    assert str(lhs.failure) == str(rhs.failure)
    assert lhs.target.templates == rhs.target.templates
    assert list(lhs.region_results) == list(rhs.region_results)
    for region in rhs.region_results:
        assert (
            lhs.region_results[region].target
            == rhs.region_results[region].target
        ), region
        assert [str(s) for s in lhs.region_results[region].trace.steps] == [
            str(s) for s in rhs.region_results[region].trace.steps
        ], region


def _assert_same_reuse(lhs, rhs):
    """Same shard layout, same per-region replay accounting."""
    assert {r: vars(v) for r, v in lhs.region_reuse.items()} == {
        r: vars(v) for r, v in rhs.region_reuse.items()
    }


class TestProcessExecutorParity:
    def test_identical_to_serial_sharded(self):
        abstract = _org_abstract()
        unsharded = abstract_chase(abstract, ORG_SETTING)
        serial = abstract_chase(abstract, ORG_SETTING, shards=3)
        procs = abstract_chase(
            abstract, ORG_SETTING, shards=3, executor="processes"
        )
        _assert_identical(procs, unsharded)
        _assert_identical(serial, unsharded)
        _assert_same_reuse(procs, serial)
        assert all(report.remote for report in procs.shard_reports)
        assert not any(report.remote for report in serial.shard_reports)

    def test_identical_on_from_scratch_schedule(self):
        abstract = _org_abstract()
        from_scratch = per_region_chase(abstract, ORG_SETTING)
        procs = abstract_chase(
            abstract, ORG_SETTING, shards=2, executor="processes"
        )
        _assert_identical(procs, from_scratch)

    def test_failure_parity(self):
        source = AbstractInstance(
            [
                TemplateFact("E", (Constant("a"), Constant("b")), Interval(0, 4)),
                TemplateFact("E", (Constant("a"), Constant("c")), Interval(2, 6)),
            ]
        )
        unsharded = abstract_chase(source, CLASH_SETTING)
        serial = abstract_chase(source, CLASH_SETTING, shards=2)
        procs = abstract_chase(
            source, CLASH_SETTING, shards=2, executor="processes"
        )
        _assert_identical(procs, unsharded)
        _assert_identical(serial, unsharded)
        _assert_same_reuse(procs, serial)
        assert procs.failed and procs.failed_shard == serial.failed_shard
        with pytest.raises(ChaseFailureError, match="shard 0"):
            procs.unwrap()

    def test_pool_instance_is_reused(self):
        abstract = _org_abstract()
        unsharded = abstract_chase(abstract, ORG_SETTING)
        serial = abstract_chase(abstract, ORG_SETTING, shards=2)
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = abstract_chase(abstract, ORG_SETTING, shards=2, executor=pool)
            second = abstract_chase(abstract, ORG_SETTING, shards=2, executor=pool)
        _assert_identical(first, unsharded)
        _assert_identical(second, unsharded)
        _assert_same_reuse(first, serial)
        _assert_same_reuse(second, serial)

    def test_workers_validation(self):
        abstract = _org_abstract()
        with pytest.raises(InstanceError, match="workers"):
            abstract_chase(
                abstract, ORG_SETTING, executor="processes", workers=0
            )

    def test_unknown_executor_names_processes(self):
        abstract = _org_abstract()
        with pytest.raises(InstanceError, match="processes"):
            abstract_chase(abstract, ORG_SETTING, executor="fibers")


class TestWorkerCrash:
    def test_crash_surfaces_shard_index(self, monkeypatch):
        # workers=1 serializes the two shards, so shard 0 completes
        # before the crash hook kills shard 1's worker — the error must
        # name shard 1 and keep shard 0's report.
        monkeypatch.setenv("REPRO_SHARD_CRASH", "1")
        abstract = _org_abstract()
        result = abstract_chase(
            abstract, ORG_SETTING, shards=2, executor="processes", workers=1
        )
        assert result.failed
        assert result.error is not None
        assert result.error.shard == 1
        assert result.failed_shard == 1
        assert "worker process died" in str(result.error)
        assert result.shard_reports[0].regions > 0
        assert result.shard_reports[1].remote
        with pytest.raises(ShardExecutionError, match="shard 1"):
            result.unwrap()
        # The first shard's regions merged; the dead shard's are absent.
        assert len(result.region_results) > 0

    def test_crashed_run_error_pickles(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_CRASH", "0")
        abstract = _org_abstract()
        result = abstract_chase(
            abstract, ORG_SETTING, shards=1, executor="processes"
        )
        error = pickle.loads(pickle.dumps(result.error))
        assert isinstance(error, ShardExecutionError)
        assert error.shard == 0


class TestPickleSupport:
    def test_instance_roundtrip_drops_and_rebuilds_caches(self):
        instance = Instance([fact("E", "ada", "ibm"), fact("E", "bob", "hp")])
        # Force the lazy index so the pickle has something to drop.
        assert instance.lookup("E", {0: Constant("ada")})
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance
        assert clone.lookup("E", {0: Constant("ada")}) == instance.lookup(
            "E", {0: Constant("ada")}
        )

    def test_concrete_instance_roundtrip(self):
        instance = ConcreteInstance(
            [
                concrete_fact("E", "ada", "ibm", interval=Interval(0, 5)),
                concrete_fact("S", "ada", "10k", interval=Interval(2, 7)),
            ]
        )
        assert instance.lifted()  # warm the cached view
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance
        assert clone.lifted() == instance.lifted()

    def test_fact_state_excludes_caches(self):
        item = fact("E", "ada", "ibm")
        hash(item)
        item.sort_key()
        state = item.__getstate__()
        assert state == ("E", item.args)
        clone = pickle.loads(pickle.dumps(item))
        assert clone == item and hash(clone) == hash(item)
        assert clone.sort_key() == item.sort_key()

    def test_remote_shard_error_pickles(self):
        error = pickle.loads(
            pickle.dumps(RemoteShardError("ValueError", "boom"))
        )
        assert error.exc_type == "ValueError"
        assert error.message == "boom"

    def test_shard_execution_error_with_unpicklable_cause(self):
        class Local(Exception):
            pass

        error = ShardExecutionError(2, Interval(0, 3), Local("nope"))
        clone = pickle.loads(pickle.dumps(error))
        assert clone.shard == 2
        assert clone.region == Interval(0, 3)
        assert isinstance(clone.__cause__, RemoteShardError)
        assert clone.__cause__.exc_type == "Local"

    def test_shard_execution_error_with_cause_that_fails_to_load(self):
        # The cause pickles, but its __init__ rejects the args pickle
        # replays on load; the stand-in must take its place.
        cause = _RejectsItsArgs("E42", "disk on fire")
        error = ShardExecutionError(1, Interval(0, 3), cause)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone.__cause__, RemoteShardError)
        assert clone.__cause__.exc_type == "_RejectsItsArgs"
        assert str(clone) == str(error)
        # A chase failure error survives the trip, so it arrives as itself.
        cause = ChaseFailureError("ε1", Constant("a"), Constant("b"))
        clone = pickle.loads(pickle.dumps(ShardExecutionError(1, None, cause)))
        assert isinstance(clone.__cause__, ChaseFailureError)
        assert str(clone.__cause__) == str(cause)

    def test_chase_failure_error_round_trips(self):
        error = ChaseFailureError(
            "ε1", Constant("a"), Constant("b"), context="shard 0"
        )
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.dependency, clone.left, clone.right, clone.context) == (
            "ε1",
            Constant("a"),
            Constant("b"),
            "shard 0",
        )
        assert str(clone) == str(error)

    def test_constant_clash_error_round_trips(self):
        error = ConstantClashError(Constant("a"), Constant("b"))
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.left, clone.right) == (Constant("a"), Constant("b"))
        assert str(clone) == str(error)

    def test_annotation_mismatch_error_round_trips(self):
        left = AnnotatedNull("N1", Interval(0, 3))
        right = AnnotatedNull("N1", Interval(3, 5))
        error = AnnotationMismatchError(left, right)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.left, clone.right) == (left, right)
        assert str(clone) == str(error)
