"""Reference oracles: the historical reference paths, kept for tests only.

The product ships one implementation per operation.  Each reference it
used to carry behind a switch survives here, in one of two forms:

* a **patched seam** — the product algorithm with one optimisation
  removed: a context manager swaps the single function that hides the
  optimisation and restores it on exit.  Patches act in-process only
  (pool workers never see them), and they are context managers rather
  than the ``monkeypatch`` fixture so Hypothesis ``@given`` tests can use
  them;
* **moved code** — a standalone transcription of the paper's procedure.

``docs/architecture.md`` (*Reference oracles*) lists each oracle, the
switch it replaced and the suite that runs it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["patched"]


@contextmanager
def patched(owner: Any, name: str, replacement: Any) -> Iterator[None]:
    """Rebind ``owner.name`` to *replacement* for the block, then restore it."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)
