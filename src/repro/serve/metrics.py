"""The serve layer's metric-name catalog.

Every metric the serve layer emits is addressed through a constant in
this module — never an inline string literal — so the catalog below *is*
the emission surface.  ``tests/docs/test_metrics_catalog.py`` holds the
names (this table plus a literal scan of ``src/repro/serve/``) against
the table in ``docs/observability.md``: a metric added here without a
doc row fails the suite.
"""

from __future__ import annotations

# -- counters ----------------------------------------------------------
#: Requests accepted into a batch (every request, whatever its outcome).
REQUESTS = "serve.requests"
#: Batches processed by :meth:`DiagnosisServer.diagnose_batch`.
BATCHES = "serve.batches"
#: Artifact-load attempts retried after a transient error.
RETRIES = "serve.retries"
#: Pool lookups answered from a resident entry.
POOL_HITS = "serve.pool_hits"
#: Pool lookups that had to load the artifact.
POOL_MISSES = "serve.pool_misses"
#: Entries evicted to respect the pool capacity.
POOL_EVICTIONS = "serve.pool_evictions"
#: Lookups that waited on another thread's in-flight load (single-flight).
POOL_SINGLE_FLIGHT_WAITS = "serve.pool_single_flight_waits"
#: Sessions opened through :meth:`DiagnosisServer.session` / ``DiagnosisSession``.
SESSIONS = "serve.sessions"
#: Observations folded into sessions.
SESSION_OBSERVATIONS = "serve.session_observations"
#: Sessions that reported convergence (resolution stopped improving).
SESSIONS_CONVERGED = "serve.sessions_converged"

#: Per-outcome counters: ``serve.outcomes.<reason code>``.
OUTCOME_PREFIX = "serve.outcomes."

# -- daemon counters ---------------------------------------------------
#: TCP connections accepted by the asyncio daemon.
DAEMON_CONNECTIONS = "serve.daemon.connections"
#: HTTP requests parsed off daemon connections (every route and method).
DAEMON_HTTP_REQUESTS = "serve.daemon.http_requests"
#: Responses with a non-2xx HTTP status (transport-level errors).
DAEMON_HTTP_ERRORS = "serve.daemon.http_errors"
#: Work requests rejected because ``max_inflight`` was saturated.
DAEMON_REJECTED_OVERLOAD = "serve.daemon.rejected_overload"
#: Work requests rejected by a per-tenant admission quota.
DAEMON_REJECTED_QUOTA = "serve.daemon.rejected_quota"
#: Work requests rejected because the daemon was draining for shutdown.
DAEMON_REJECTED_DRAINING = "serve.daemon.rejected_draining"
#: Connections dropped for unparseable or oversized HTTP frames.
DAEMON_BAD_FRAMES = "serve.daemon.bad_frames"
#: Artifacts hot-registered (uploaded or pinned by path) while running.
DAEMON_ARTIFACTS_REGISTERED = "serve.daemon.artifacts_registered"
#: Artifacts explicitly evicted through the daemon API.
DAEMON_ARTIFACTS_EVICTED = "serve.daemon.artifacts_evicted"

# -- gauges ------------------------------------------------------------
#: Resident entries in the artifact pool after the last access.
POOL_SIZE = "serve.pool_size"
#: Admitted daemon work units currently in flight.
DAEMON_INFLIGHT = "serve.daemon.inflight"
#: Multi-observation sessions currently held open by the daemon.
DAEMON_OPEN_SESSIONS = "serve.daemon.open_sessions"
#: 1 while the daemon accepts work, 0 while starting/draining/stopped.
DAEMON_READY = "serve.daemon.ready"

# -- timers ------------------------------------------------------------
#: End-to-end latency of one request (parse → outcome).
REQUEST_SECONDS = "serve.request_seconds"
#: Artifact load latency inside the pool (misses only).
LOAD_SECONDS = "serve.load_seconds"
#: Dictionary lookup latency (the diagnose stage alone).
DIAGNOSE_SECONDS = "serve.diagnose_seconds"
#: Wall time of a whole batch.
BATCH_SECONDS = "serve.batch_seconds"
#: HTTP request latency in the daemon (frame parsed → response written).
DAEMON_REQUEST_SECONDS = "serve.daemon.request_seconds"


def outcome_counter(code: str) -> str:
    """The counter name recording outcomes with reason ``code``."""
    return OUTCOME_PREFIX + code


def catalog() -> dict:
    """Every metric name the serve layer can emit, keyed by kind.

    The outcome counters are enumerated from the reason codes so the
    docs test sees the expanded names, not the prefix.
    """
    from .schemas import REASON_CODES

    return {
        "counters": [
            REQUESTS,
            BATCHES,
            RETRIES,
            POOL_HITS,
            POOL_MISSES,
            POOL_EVICTIONS,
            POOL_SINGLE_FLIGHT_WAITS,
            SESSIONS,
            SESSION_OBSERVATIONS,
            SESSIONS_CONVERGED,
            DAEMON_CONNECTIONS,
            DAEMON_HTTP_REQUESTS,
            DAEMON_HTTP_ERRORS,
            DAEMON_REJECTED_OVERLOAD,
            DAEMON_REJECTED_QUOTA,
            DAEMON_REJECTED_DRAINING,
            DAEMON_BAD_FRAMES,
            DAEMON_ARTIFACTS_REGISTERED,
            DAEMON_ARTIFACTS_EVICTED,
            *[outcome_counter(code) for code in REASON_CODES],
        ],
        "gauges": [
            POOL_SIZE,
            DAEMON_INFLIGHT,
            DAEMON_OPEN_SESSIONS,
            DAEMON_READY,
        ],
        "timers": [
            REQUEST_SECONDS,
            LOAD_SECONDS,
            DIAGNOSE_SECONDS,
            BATCH_SECONDS,
            DAEMON_REQUEST_SECONDS,
        ],
    }
