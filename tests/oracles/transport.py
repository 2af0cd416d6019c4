"""Transport oracle: ship shard payloads over the pool's pickle pipe.

The ``processes`` executor hands payloads over shared-memory segments
exactly when :func:`repro.serialize.shm.available` says the platform
supports them, and pickles them through the pool pipe otherwise.
:func:`pickle_transport` forces that fallback in the parent (the former
``REPRO_SHM=off``); the workers follow whichever path the parent chose.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import repro.serialize.shm as shm_module

from tests.oracles import patched

__all__ = ["pickle_transport"]


@contextmanager
def pickle_transport() -> Iterator[None]:
    """Make the scheduler take the pickle wire path for the block."""
    with patched(shm_module, "available", lambda: False):
        yield
