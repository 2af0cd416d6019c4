"""Content-addressed digests of exchange inputs (salt-free by design).

The server's chase cache (:mod:`repro.server.cache`) keys cached chase
outcomes by *what was chased*: the data exchange setting, the source
instance, and the chase parameters that shape the output.  Two requests
with equal inputs must map to the same key **in any process, on any
day** — so the digest is built exclusively from canonical serialized
content and :func:`hashlib.sha256`, never from Python's per-process
salted ``hash()`` (the TDX005 invariant; this module is listed in the
analyzer's persist-module set).

Canonicality comes for free from the repository's value types:

* :meth:`ConcreteInstance.__iter__` yields facts sorted by
  ``(relation, ConcreteFact.sort_key)``, so
  :func:`~repro.serialize.jsonio.concrete_instance_to_json` is already a
  content-determined encoding — two equal instances built in any
  insertion order serialize identically;
* :func:`~repro.serialize.jsonio.setting_to_json` renders dependencies
  in their declaration order, which is part of a setting's identity
  (tgd order never changes the chase result, but distinct declarations
  are distinct settings — a conservative key can only cause a miss,
  never a false hit);
* ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` fixes the
  byte stream.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.concrete.concrete_instance import ConcreteInstance
from repro.dependencies.mapping import DataExchangeSetting
from repro.serialize.jsonio import concrete_instance_to_json, setting_to_json

__all__ = [
    "canonical_json_bytes",
    "chase_request_digest",
    "instance_digest",
    "setting_digest",
]


def canonical_json_bytes(payload: Any) -> bytes:
    """*payload* as canonical JSON bytes: sorted keys, minimal separators."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def _hexdigest(payload: Any) -> str:
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


def instance_digest(instance: ConcreteInstance) -> str:
    """A stable hex digest of a concrete instance's content."""
    return _hexdigest(concrete_instance_to_json(instance))


def setting_digest(setting: DataExchangeSetting) -> str:
    """A stable hex digest of a data exchange setting."""
    return _hexdigest(setting_to_json(setting))


def chase_request_digest(
    setting: DataExchangeSetting,
    source: ConcreteInstance,
    *,
    normalization: str = "conjunction",
    variant: str = "standard",
) -> str:
    """The content address of one c-chase request.

    Every parameter that can change the chased target participates in
    the key; replay state is output-neutral (byte-identical by contract)
    and does not, so a warm cache keeps serving across it.
    """
    return _hexdigest(
        {
            "kind": "c-chase",
            "setting": setting_to_json(setting),
            "source": concrete_instance_to_json(source),
            "normalization": normalization,
            "variant": variant,
        }
    )
