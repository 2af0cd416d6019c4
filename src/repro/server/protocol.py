"""Request/response vocabulary of the chase service.

The wire format is the JSON codec of :mod:`repro.serialize.jsonio` —
facts, instances and settings travel exactly as they do in the CLI's
files — wrapped in **one versioned request envelope**: a POST body is
``{"v": 1, ...fields...}``, and a body without ``"v"`` reads as v1.
Any other version is a 400; :func:`unwrap_envelope` is the single place
that rule lives.  This module holds the pieces both sides of the wire
share: payload validation that turns malformed requests into
:class:`ProtocolError` (an HTTP 4xx, never a 5xx) and source-delta
decoding onto :class:`repro.deltas.SourceDelta`, whose codec
(``{"add": [...], "remove": [...]}``, facts in canonical
:meth:`ConcreteFact.sort_key` order) every delta response's target diff
uses too.
"""

from __future__ import annotations

import re

from repro.deltas import SourceDelta
from repro.errors import DeltaError

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SESSION_NAME_PATTERN",
    "check_session_name",
    "delta_from_payload",
    "require_list",
    "require_str",
    "unwrap_envelope",
]

#: The one request-envelope version this server speaks.
PROTOCOL_VERSION = 1

#: Session names are path components (URLs, snapshot file names) and are
#: validated on both sides of the wire.
SESSION_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ProtocolError(Exception):
    """A malformed or unsatisfiable request; maps to an HTTP 4xx."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def check_session_name(name: object) -> str:
    if not isinstance(name, str) or not SESSION_NAME_PATTERN.match(name):
        raise ProtocolError(
            "session name must be 1-64 characters of [A-Za-z0-9._-] "
            "starting with an alphanumeric, got "
            f"{name!r}"
        )
    return name


def require_str(payload: dict, key: str, default: str | None = None) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"request field {key!r} must be a non-empty string")
    return value


def require_list(payload: dict, key: str) -> list:
    if key not in payload:
        raise ProtocolError(f"request field {key!r} is required")
    value = payload[key]
    if not isinstance(value, list):
        raise ProtocolError(f"request field {key!r} must be a list")
    return value


def unwrap_envelope(payload: dict) -> dict:
    """A request body's fields, with the version envelope checked.

    A body without ``"v"`` reads as v1, the one version this server
    speaks.  A body carrying ``"v"`` must carry :data:`PROTOCOL_VERSION`;
    any other value — including non-integers — is a 400, so a future
    client never has a v2 request misread as v1.
    """
    if "v" not in payload:
        return payload
    version = payload["v"]
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(f"envelope field 'v' must be an integer, got {version!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    return {key: value for key, value in payload.items() if key != "v"}


def delta_from_payload(payload: dict) -> SourceDelta:
    """Decode a delta request's fields into a :class:`SourceDelta`.

    The delta travels in the canonical codec under ``"delta"``; a body
    without that field (such as bare top-level ``add``/``remove`` lists)
    or with any other field is a 400, as is a malformed delta (bad fact,
    duplicate, fact on both sides), via :class:`ProtocolError`.
    """
    if "delta" not in payload:
        raise ProtocolError(
            "a delta request carries the source delta under the 'delta' "
            'field: {"v": 1, "delta": {"add": [...], "remove": [...]}}'
        )
    unknown = set(payload) - {"delta"}
    if unknown:
        raise ProtocolError(f"unknown delta request field(s) {sorted(unknown)!r}")
    try:
        return SourceDelta.from_json(payload["delta"])
    except DeltaError as exc:
        raise ProtocolError(str(exc)) from exc
