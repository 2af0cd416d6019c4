"""Regression tests: cached-state classes pickle identity fields only.

A cached salted ``Interval`` hash once crossed a process boundary inside
a pickle and silently turned every cross-process replay into a miss;
these tests pin the fix pattern for every class the invariant linter
(TDX001) flags as caching derived state: warming the caches must not
change the pickled bytes, and the unpickled object must come back with
its caches unset.  :class:`TestInterval` replays the original failure
across two ``PYTHONHASHSEED`` values.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.abstract_view.abstract_instance import TemplateFact
from repro.dependencies.dependency import EGD, SourceToTargetTGD
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.formulas import Atom, TemporalConjunction
from repro.relational.schema import Schema
from repro.relational.terms import Constant, Variable
from repro.temporal.interval import Interval
from repro.temporal.timepoint import INFINITY


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestTemplateFact:
    def make(self) -> TemplateFact:
        return TemplateFact("Emp", (Constant("ada"),), Interval(3, 7))

    def test_warm_cache_not_pickled(self):
        fresh = self.make()
        warmed = self.make()
        warmed.at(5)  # populates the point-independent _pointless cache
        assert warmed._pointless is not None
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_roundtrip_resets_cache_and_preserves_identity(self):
        warmed = self.make()
        warmed.at(5)
        clone = roundtrip(warmed)
        assert clone._pointless is None
        assert clone == warmed
        assert clone.at(5) == warmed.at(5)


class TestAtom:
    def make(self) -> Atom:
        return Atom("R", (Variable("x"), Constant(1)))

    def test_warm_cache_not_pickled(self):
        fresh = self.make()
        warmed = self.make()
        object.__setattr__(warmed, "_search_plan", ("plan",))
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_roundtrip_resets_cache(self):
        warmed = self.make()
        object.__setattr__(warmed, "_search_plan", ("plan",))
        clone = roundtrip(warmed)
        assert clone._search_plan is None
        assert clone == warmed


class TestTemporalConjunction:
    def make(self) -> TemporalConjunction:
        return TemporalConjunction.shared(
            (Atom("R", (Variable("x"),)), Atom("S", (Variable("x"),)))
        )

    def test_warm_cache_not_pickled(self):
        fresh = self.make()
        warmed = self.make()
        warmed.normalized()  # populates _normalized
        assert warmed._normalized is not None
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_roundtrip_resets_cache(self):
        warmed = self.make()
        warmed.normalized()
        clone = roundtrip(warmed)
        assert clone._normalized is None
        assert clone._lifted_atoms is None
        assert clone == warmed
        assert clone.normalized() == warmed.normalized()


class TestDependencies:
    def tgd(self) -> SourceToTargetTGD:
        return SourceToTargetTGD.parse("E(n,c) -> Emp(n,c,s)", name="st1")

    def egd(self) -> EGD:
        return EGD.parse("Emp(n,c,s) & Emp(n,c,s2) -> s = s2", name="e1")

    def test_tgd_warm_cache_not_pickled(self):
        fresh, warmed = self.tgd(), self.tgd()
        warmed.lift_lhs()  # populates _lifted_lhs
        assert warmed._lifted_lhs is not None
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_tgd_roundtrip_resets_caches(self):
        warmed = self.tgd()
        warmed.lift_lhs()
        clone = roundtrip(warmed)
        assert clone._lifted_lhs is None
        assert clone._lifted_rhs is None
        assert clone == warmed
        assert str(clone.lift_lhs()) == str(warmed.lift_lhs())

    def test_egd_warm_cache_not_pickled(self):
        fresh, warmed = self.egd(), self.egd()
        warmed.lift_lhs()
        assert warmed._lifted_lhs is not None
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_egd_roundtrip_resets_cache(self):
        warmed = self.egd()
        warmed.lift_lhs()
        clone = roundtrip(warmed)
        assert clone._lifted_lhs is None
        assert clone == warmed


class TestDataExchangeSetting:
    def make(self) -> DataExchangeSetting:
        return DataExchangeSetting.create(
            Schema.of(E=("n", "c")),
            Schema.of(Emp=("n", "c", "s")),
            st_tgds=["E(n,c) -> Emp(n,c,s)"],
            egds=["Emp(n,c,s) & Emp(n,c,s2) -> s = s2"],
        )

    def test_injected_engine_caches_not_pickled(self):
        fresh = self.make()
        warmed = self.make()
        # The chase engines stash compiled task lists in the setting's
        # __dict__ (see chase/standard.py and concrete/cchase.py).
        object.__setattr__(warmed, "_snapshot_egd_tasks", ("compiled",))
        object.__setattr__(warmed, "_concrete_egd_tasks", ("compiled",))
        assert pickle.dumps(warmed) == pickle.dumps(fresh)
        clone = roundtrip(warmed)
        assert "_snapshot_egd_tasks" not in clone.__dict__
        assert "_concrete_egd_tasks" not in clone.__dict__
        assert clone == warmed


class TestInterval:
    def make(self) -> Interval:
        # Unbounded: Infinity hashes through a salted string hash.
        return Interval(3, INFINITY)

    def test_warm_hash_not_pickled(self):
        fresh = self.make()
        warmed = self.make()
        hash(warmed)
        assert warmed.__dict__.get("_hash")
        assert pickle.dumps(warmed) == pickle.dumps(fresh)
        assert "_hash" not in roundtrip(warmed).__dict__

    def test_pickled_facts_match_under_another_hash_seed(self, tmp_path):
        # Pickle a set of warm-hashed facts under one seed and probe it
        # under another: a stale cached hash would file the loaded facts
        # in the wrong buckets, and the probe would miss.
        script = textwrap.dedent(
            """
            import pickle, sys
            from repro.concrete import concrete_fact
            from repro.temporal import interval

            path, mode = sys.argv[1], sys.argv[2]
            facts = frozenset(
                [
                    concrete_fact("E", "ada", "co1", interval=interval(3)),
                    concrete_fact("S", "bob", "13k", interval=interval(2, 6)),
                ]
            )
            if mode == "record":
                for item in facts:
                    hash(item)
                with open(path, "wb") as handle:
                    pickle.dump(facts, handle)
            else:
                with open(path, "rb") as handle:
                    loaded = pickle.load(handle)
                assert loaded == facts
                assert all(item in loaded for item in facts)
            """
        )
        path = tmp_path / "facts.pkl"
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for seed, mode in (("101", "record"), ("202", "probe")):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-c", script, str(path), mode],
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
            )
            assert proc.returncode == 0, (mode, proc.stderr)
