"""Batch diagnosis serving: pool, server, sessions, typed results.

The build side of the repo ends at an on-disk artifact
(:mod:`repro.store`); this package is the other half of the paper's
"build once, diagnose many" economics at service shape:

* :class:`ArtifactPool` — a bounded LRU pool of loaded (memory-mapped at
  load time) artifacts keyed by content hash, with single-flight load
  deduplication;
* :class:`DiagnosisServer` — serves each :class:`DiagnoseRequest` with
  a per-request deadline, retry-with-backoff on transient artifact
  errors, and graceful degradation to a reason-coded
  :class:`DiagnoseResult`; a batch is served in request order on the
  calling thread;
* :class:`DiagnosisSession` — incremental multi-observation diagnosis
  that narrows the candidate set test by test and reports when
  resolution stops improving.

All three entry points — ``repro.api.serve()`` (the facade),
``repro-fd serve`` (JSONL batches) and ``repro-fd daemon`` (the asyncio
network daemon, :mod:`repro.serve.daemon`) — take the same
:class:`DiagnoseRequest` in and give the same :class:`DiagnoseResult`
out, the typed, versioned wire schemas of :mod:`repro.serve.schemas`.
Semantics, sizing guidance and the reason-code table live in
``docs/serving.md``; the daemon protocol in ``docs/daemon.md``.
"""

from .pool import ArtifactPool, PoolEntry
from .schemas import (
    ARTIFACT_ERROR,
    BAD_REQUEST,
    DEADLINE_EXPIRED,
    INTERNAL_ERROR,
    OK,
    REASON_CODES,
    SCHEMA_VERSION,
    UNMODELED_RESPONSE,
    DiagnoseRequest,
    DiagnoseResult,
    SchemaError,
    SessionAdvance,
    parse_jsonl,
)
from .server import DiagnosisServer, ServeConfig
from .session import DiagnosisSession, SessionUpdate

__all__ = [
    "ARTIFACT_ERROR",
    "ArtifactPool",
    "BAD_REQUEST",
    "DEADLINE_EXPIRED",
    "DiagnoseRequest",
    "DiagnoseResult",
    "DiagnosisServer",
    "DiagnosisSession",
    "INTERNAL_ERROR",
    "OK",
    "PoolEntry",
    "REASON_CODES",
    "SCHEMA_VERSION",
    "SchemaError",
    "ServeConfig",
    "SessionAdvance",
    "SessionUpdate",
    "UNMODELED_RESPONSE",
    "parse_jsonl",
]
