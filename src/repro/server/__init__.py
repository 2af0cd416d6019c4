"""Chase-as-a-service: the resident repro daemon and its client.

``python -m repro serve`` keeps chased targets and answer ledgers
resident between requests, so a source delta answers with the target
diff, repeated queries hit the session's answer ledger, and identical
creates are served from a content-addressed cache.  See
``docs/server.md`` for the operator guide and the endpoint reference.
"""

from repro.server.app import ReproServer, ServerThread, serve
from repro.server.cache import CachedChase, ChaseCache
from repro.server.client import ClientError, ServerClient
from repro.server.protocol import ProtocolError
from repro.server.sessions import Session, SessionManager, UnknownSessionError

__all__ = [
    "CachedChase",
    "ChaseCache",
    "ClientError",
    "ProtocolError",
    "ReproServer",
    "ServerClient",
    "ServerThread",
    "Session",
    "SessionManager",
    "UnknownSessionError",
    "serve",
]
