"""The classical chase machinery used snapshot-wise by both views.

:mod:`repro.chase.engine` hosts the shared delta-driven fixpoint core
(semi-naive egd rounds over in-place substitution deltas) that both
:func:`chase_snapshot` and :func:`repro.concrete.c_chase` run on; see
``docs/architecture.md`` for the layering.
"""

from repro.chase.core import core_of, find_proper_endomorphism, is_core
from repro.chase.engine import EgdTask, run_egd_fixpoint, run_tgd_pass
from repro.chase.incremental import IncrementalRegionChaser, RegionReuseStats
from repro.chase.nulls import NullNameCollisionError, skolem_names
from repro.chase.standard import (
    SnapshotChaseResult,
    chase_snapshot,
    snapshot_satisfies,
)
from repro.chase.trace import (
    ChaseTrace,
    EgdStepRecord,
    FailureRecord,
    TgdStepRecord,
)
from repro.chase.union_find import (
    AnnotationMismatchError,
    ConstantClashError,
    TermUnionFind,
)

__all__ = [
    "core_of",
    "find_proper_endomorphism",
    "is_core",
    "EgdTask",
    "run_egd_fixpoint",
    "run_tgd_pass",
    "IncrementalRegionChaser",
    "RegionReuseStats",
    "NullNameCollisionError",
    "skolem_names",
    "SnapshotChaseResult",
    "chase_snapshot",
    "snapshot_satisfies",
    "ChaseTrace",
    "EgdStepRecord",
    "FailureRecord",
    "TgdStepRecord",
    "AnnotationMismatchError",
    "ConstantClashError",
    "TermUnionFind",
]
