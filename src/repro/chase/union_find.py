"""Union-find over ground terms with constants as forced representatives.

The egd phases of both chases resolve whole *batches* of equations
through this structure: every egd match on the current instance is merged
here first, and only then is a single substitution pass applied (one per
round instead of one per equation).  Each equivalence class tracks
whether it contains a constant, in which case the constant is the class
representative (nulls are always replaced *by* constants, never the
other way around — Definition 16).  Attempting to merge two classes with
distinct constants raises :class:`ConstantClashError`, which the chase
translates into a failure result.

For the c-chase, construct with ``check_annotations=True``: merging two
interval-annotated nulls whose annotations differ then raises
:class:`AnnotationMismatchError` — on an instance normalized w.r.t.
``Σ+eg`` both sides of an egd equation always carry the stamp of the
match, so a mismatch means the caller skipped normalization.
"""

from __future__ import annotations

from typing import Dict, Hashable, TypeVar

from repro.errors import ReproError
from repro.relational.terms import (
    AnnotatedNull,
    Constant,
    GroundTerm,
    term_sort_key,
)

__all__ = ["AnnotationMismatchError", "ConstantClashError", "TermUnionFind"]

T = TypeVar("T", bound=Hashable)


class ConstantClashError(ReproError):
    """Two distinct constants were equated — the chase must fail."""

    def __init__(self, left: Constant, right: Constant):
        self.left = left
        self.right = right
        super().__init__(f"cannot equate distinct constants {left} and {right}")

    def __reduce__(self):
        # Exception.__reduce__ would replay only the message string.
        return (type(self), (self.left, self.right))


class AnnotationMismatchError(ReproError):
    """Two annotated nulls with different annotations were equated.

    Normalization w.r.t. ``Σ+eg`` guarantees both equated nulls carry the
    stamp of the match, so this signals an egd c-chase step on an
    un-normalized instance — a caller bug, not a chase failure.
    """

    def __init__(self, left: AnnotatedNull, right: AnnotatedNull):
        self.left = left
        self.right = right
        super().__init__(
            "egd c-chase step on un-normalized instance: "
            f"{left} vs {right} carry different annotations"
        )

    def __reduce__(self):
        return (type(self), (self.left, self.right))


class TermUnionFind:
    """Union-find over :class:`~repro.relational.terms.GroundTerm` values."""

    def __init__(self, check_annotations: bool = False) -> None:
        self._parent: Dict[GroundTerm, GroundTerm] = {}
        self._check_annotations = check_annotations

    def find(self, term: GroundTerm) -> GroundTerm:
        """Representative of *term*'s class (path-halving compression)."""
        parent = self._parent
        if term not in parent:
            parent[term] = term
            return term
        above = parent[term]
        while above != term:
            grand = parent[above]
            parent[term] = grand
            term = grand
            above = parent[term]
        return term

    def union(self, left: GroundTerm, right: GroundTerm) -> GroundTerm:
        """Merge the classes of *left* and *right*; returns the representative.

        Constants always win representative election; merging classes that
        contain two distinct constants raises :class:`ConstantClashError`.
        When both roots are nulls the smaller under
        :func:`~repro.relational.terms.term_sort_key` wins, keeping chase
        output deterministic.  The class minimum always ends up as root,
        so the final representatives do not depend on merge order.

        With ``check_annotations=True``, merging two annotated-null roots
        whose annotations differ raises :class:`AnnotationMismatchError`.
        """
        root_left = self.find(left)
        root_right = self.find(right)
        if root_left == root_right:
            return root_left

        left_const = isinstance(root_left, Constant)
        right_const = isinstance(root_right, Constant)
        if left_const and right_const:
            raise ConstantClashError(root_left, root_right)  # type: ignore[arg-type]
        if (
            self._check_annotations
            and isinstance(root_left, AnnotatedNull)
            and isinstance(root_right, AnnotatedNull)
            and root_left.annotation != root_right.annotation
        ):
            raise AnnotationMismatchError(root_left, root_right)
        if left_const:
            winner, loser = root_left, root_right
        elif right_const:
            winner, loser = root_right, root_left
        elif term_sort_key(root_left) <= term_sort_key(root_right):
            winner, loser = root_left, root_right
        else:
            winner, loser = root_right, root_left
        self._parent[loser] = winner
        return winner

    def same_class(self, left: GroundTerm, right: GroundTerm) -> bool:
        return self.find(left) == self.find(right)

    def substitution(self) -> dict[GroundTerm, GroundTerm]:
        """The induced replacement map term → representative (non-identity only)."""
        mapping: dict[GroundTerm, GroundTerm] = {}
        for term in self._parent:
            root = self.find(term)
            if root != term:
                mapping[term] = root
        return mapping

    def classes(self) -> tuple[frozenset[GroundTerm], ...]:
        """All non-singleton equivalence classes (for diagnostics)."""
        grouped: dict[GroundTerm, set[GroundTerm]] = {}
        for term in self._parent:
            grouped.setdefault(self.find(term), set()).add(term)
        return tuple(
            frozenset(members)
            for members in grouped.values()
            if len(members) > 1
        )

    def __contains__(self, term: object) -> bool:
        return term in self._parent

    def __len__(self) -> int:
        return len(self._parent)
