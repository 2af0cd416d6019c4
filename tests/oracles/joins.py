"""Join oracle: pin multi-atom plans to one join algorithm.

The product picks the worst-case-optimal generic join for large-enough
cyclic bodies of three or more atoms and the flat written-order join
everywhere else (``_wcoj_selected``).  Both enumerate the identical row
sequence, so pinning either one — the former ``--join flat|wcoj`` —
must never change a result or its order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import repro.relational.homomorphism as homomorphism_module

from tests.oracles import patched

__all__ = ["JOINS", "pinned_join"]

#: ``"auto"`` is the product's own selection; the others pin one engine.
JOINS = ("flat", "wcoj", "auto")


def _flat(plan, instance=None) -> bool:
    return False


def _wcoj(plan, instance=None) -> bool:
    return len(plan.atoms) >= 3


@contextmanager
def pinned_join(join: str) -> Iterator[None]:
    """Route every ≥3-atom plan through *join* (``"auto"``: no pin)."""
    if join == "auto":
        yield
        return
    selector = {"flat": _flat, "wcoj": _wcoj}[join]
    with patched(homomorphism_module, "_wcoj_selected", selector):
        yield
