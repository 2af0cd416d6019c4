"""Content-addressed (Skolem) names for fresh nulls.

A chase step gives every existential variable ``z`` of the firing tgd
``σ`` a fresh null.  Its name is the Skolem term ``f_{σ,z}(x̄)`` written
out (Marnette's Skolem chase, PODS 2009): a pure function of the firing —
the tgd, the variable, the binding of the frontier ``x̄`` and, for the
c-chase's interval-annotated nulls, the stamp ``h(t)`` (Definition 16).
The oblivious variant passes the whole lhs match as ``x̄``, so each of
its firings still mints its own nulls.

Because a name depends on nothing but its firing, re-chasing an
overlapping source re-mints the same names (a one-fact source change is
a one-fact target change), the incremental chase replays a recorded
firing's nulls unchanged, and a region gets the same names whichever
shard or process chases it.  Nulls of different snapshots still never
coincide: the abstract chase annotates each region's nulls with that
region, and an :class:`~repro.relational.terms.AnnotatedNull` is the
pair (base, annotation).

A name is ``N`` plus 16 hex digits of a salt-free ``blake2b`` digest of
the term's canonical text: fixed width, and free of the ``@`` reserved
for snapshot projection whatever the constants contain.  The text spells
each bound term by its ``term_sort_key`` (kind, type name, ``str``),
which is the same in every process for the constants the codecs carry
(strings, numbers, booleans, ``None``, intervals).  Each chase run
keeps a registry from name to Skolem term, so two different terms behind
one name raise :class:`NullNameCollisionError` instead of merging two
unknowns.
"""

from __future__ import annotations

import hashlib

from repro.dependencies.dependency import SourceToTargetTGD
from repro.errors import ReproError
from repro.relational.terms import GroundTerm, Variable, term_sort_key
from repro.temporal.interval import Interval

__all__ = ["NullNameCollisionError", "skolem_arguments", "skolem_names"]


class NullNameCollisionError(ReproError):
    """Two different Skolem terms digested to one null name."""


def skolem_arguments(
    tgd: SourceToTargetTGD, variant: str
) -> tuple[Variable, ...]:
    """The lhs variables whose binding a firing's Skolem terms take.

    The frontier under the standard chase (which never fires twice on
    one frontier binding and stamp); the whole lhs match under the
    oblivious variant, so that its firings never share nulls.
    """
    if variant == "standard":
        return tgd.exported_variables
    return tgd.universal_variables


def _digest(text: bytes) -> str:
    return hashlib.blake2b(text, digest_size=8).hexdigest()


def skolem_names(
    registry: dict[str, tuple],
    function: str,
    existentials: tuple[Variable, ...],
    binding: tuple[GroundTerm, ...],
    stamp: Interval | None = None,
) -> tuple[str, ...]:
    """The names of the nulls ``f_{function,z}(binding)`` at *stamp*, one
    per existential variable ``z`` of one firing.

    *function* identifies the tgd within its setting (label and
    position, so equally-named tgds stay apart); *registry* is the
    calling run's name → term map.  Callers wrap each name as a
    :class:`~repro.relational.terms.LabeledNull` or an
    :class:`~repro.relational.terms.AnnotatedNull`.
    """
    arguments = [term_sort_key(term) for term in binding]
    stamp_text = None if stamp is None else str(stamp)
    names = []
    for variable in existentials:
        key = (function, variable, binding, stamp)
        text = repr((function, variable.name, arguments, stamp_text))
        name = "N" + _digest(text.encode())
        known = registry.setdefault(name, key)
        if known is not key and known != key:
            raise NullNameCollisionError(
                f"null name {name} digests two Skolem terms: "
                f"{known!r} and {key!r}"
            )
        names.append(name)
    return tuple(names)
