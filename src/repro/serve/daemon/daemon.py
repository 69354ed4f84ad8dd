"""The asyncio diagnosis daemon: admission control, sessions, hot artifacts.

:class:`DiagnosisDaemon` is a long-lived network front end over the
existing serve stack — one :class:`~repro.serve.pool.ArtifactPool`, one
:class:`~repro.serve.server.DiagnosisServer`, the typed wire schemas of
:mod:`repro.serve.schemas` — speaking the minimal HTTP/1.1 of
:mod:`repro.serve.daemon.http` on a plain TCP socket.

Division of labour:

* the **event loop** owns framing, routing, admission control, quotas
  and session bookkeeping — nothing on the loop blocks;
* a **worker executor** (``config.workers`` threads, the serve layer's
  one pool) runs the actual diagnosis via
  :meth:`DiagnosisServer.diagnose_one`, so the deadline/retry/degradation
  semantics of the batch server apply to every network request
  unchanged.  A batch is one work unit: one worker serves its requests
  in order and starts no further threads.

Admission is a bounded in-flight counter, not a queue: once
``max_inflight`` work units are running, further work is answered
``429 overloaded`` immediately — callers retry with backoff rather than
stacking requests into an invisible backlog.  Per-tenant quotas
(``X-Tenant`` header or the request's ``tenant`` field) bound how much
of that global budget one tenant can hold.

Shutdown drains: :meth:`stop` closes the listener, answers new work
``503 shutting_down``, waits up to ``drain_grace_s`` for in-flight work
to finish, then closes connections and the executor.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from ...obs import get_default_registry
from .. import metrics as M
from ..pool import ArtifactPool
from ..schemas import (
    BAD_REQUEST,
    SCHEMA_VERSION,
    DiagnoseRequest,
    DiagnoseResult,
    SchemaError,
    SessionAdvance,
    parse_document,
)
from ..server import DiagnosisServer, ServeConfig
from ..session import DiagnosisSession
from . import http as H


@dataclass(frozen=True)
class DaemonConfig:
    """Operating envelope of one :class:`DiagnosisDaemon`.

    ``serve`` carries the per-request policy (deadline, retries, fleet
    defaults); ``workers`` sizes the executor that runs diagnosis, the
    serve layer's only thread pool.  The rest are network-facing knobs.
    ``max_inflight`` bounds concurrently *running* work units (a batch
    counts as one); ``tenant_quotas`` bounds named tenants below that,
    and ``default_tenant_quota`` applies to tenants not named (``None``
    means only the global bound applies).  Body/header ceilings are
    enforced before any buffering.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the kernel pick (tests); CLI defaults to 8132
    serve: ServeConfig = field(default_factory=ServeConfig)
    workers: int = 4
    default_artifact: Optional[str] = None
    max_inflight: int = 16
    max_batch: int = 256
    max_body_bytes: int = H.DEFAULT_MAX_BODY_BYTES
    max_header_bytes: int = H.DEFAULT_MAX_HEADER_BYTES
    drain_grace_s: float = 5.0
    tenant_quotas: Tuple[Tuple[str, int], ...] = ()
    default_tenant_quota: Optional[int] = None
    #: Where uploaded artifacts are spooled; ``None`` = system temp dir.
    spool_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        for name, quota in self.tenant_quotas:
            if quota < 1:
                raise ValueError(
                    f"tenant quota for {name!r} must be >= 1, got {quota}"
                )
        if self.default_tenant_quota is not None \
                and self.default_tenant_quota < 1:
            raise ValueError(
                "default_tenant_quota must be >= 1, got "
                f"{self.default_tenant_quota}"
            )

    def quota_for(self, tenant: str) -> Optional[int]:
        for name, quota in self.tenant_quotas:
            if name == tenant:
                return quota
        return self.default_tenant_quota


class _Admission:
    """The bounded in-flight budget, global and per-tenant.

    Loop-only state (no lock needed): acquire/release happen on the
    event loop; the executor threads never touch it.
    """

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.inflight = 0
        self.per_tenant: Dict[str, int] = {}

    def try_acquire(self, tenant: Optional[str]) -> Optional[Tuple[str, str]]:
        """``None`` on admit, else ``(reason_code, detail)``."""
        if self.inflight >= self.config.max_inflight:
            return (
                H.OVERLOADED,
                f"{self.inflight} work units in flight "
                f"(max_inflight={self.config.max_inflight}); retry later",
            )
        if tenant is not None:
            quota = self.config.quota_for(tenant)
            held = self.per_tenant.get(tenant, 0)
            if quota is not None and held >= quota:
                return (
                    H.QUOTA_EXCEEDED,
                    f"tenant {tenant!r} holds {held} of {quota} "
                    "admission slots; retry later",
                )
        self.inflight += 1
        if tenant is not None:
            self.per_tenant[tenant] = self.per_tenant.get(tenant, 0) + 1
        get_default_registry().gauge(M.DAEMON_INFLIGHT).set(self.inflight)
        return None

    def release(self, tenant: Optional[str]) -> None:
        self.inflight -= 1
        if tenant is not None:
            held = self.per_tenant.get(tenant, 1) - 1
            if held <= 0:
                self.per_tenant.pop(tenant, None)
            else:
                self.per_tenant[tenant] = held
        get_default_registry().gauge(M.DAEMON_INFLIGHT).set(self.inflight)


class _Session:
    """One daemon-held session plus the lock serialising its advances."""

    __slots__ = ("session", "lock", "artifact")

    def __init__(self, session: DiagnosisSession, artifact: str) -> None:
        self.session = session
        self.lock = asyncio.Lock()
        self.artifact = artifact


class DiagnosisDaemon:
    """Serve the diagnosis protocol on a TCP socket until stopped."""

    def __init__(
        self,
        config: Optional[DaemonConfig] = None,
        *,
        server: Optional[DiagnosisServer] = None,
    ) -> None:
        self.config = config if config is not None else DaemonConfig()
        self.server = server if server is not None else DiagnosisServer(
            self.config.serve, default_artifact=self.config.default_artifact
        )
        self.pool: ArtifactPool = self.server.pool
        self._admission = _Admission(self.config)
        self._sessions: Dict[str, _Session] = {}
        self._listener: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: set = set()
        self._busy = 0  # requests between frame-parsed and response-written
        self._state = "idle"  # idle -> ready -> draining -> stopped
        self._stopped = asyncio.Event()

    @property
    def _registry(self):
        # Resolved per use, not cached: tests swap the process default
        # with ``scoped_registry()`` while the daemon is running.
        return get_default_registry()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port resolved after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("daemon is not started")
        sock = self._listener.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start accepting; returns the address."""
        if self._state != "idle":
            raise RuntimeError(f"daemon already {self._state}")
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-daemon",
        )
        self._listener = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_header_bytes,
        )
        self._state = "ready"
        self._registry.gauge(M.DAEMON_READY).set(1)
        return self.address

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then tear down."""
        if self._state in ("draining", "stopped"):
            return
        self._state = "draining"
        self._registry.gauge(M.DAEMON_READY).set(0)
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        deadline = (
            asyncio.get_running_loop().time() + self.config.drain_grace_s
        )
        while self._admission.inflight > 0 or self._busy > 0:
            if asyncio.get_running_loop().time() >= deadline:
                break
            await asyncio.sleep(0.01)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._sessions.clear()
        self._registry.gauge(M.DAEMON_OPEN_SESSIONS).set(0)
        self._state = "stopped"
        self._stopped.set()

    async def run_until_stopped(self) -> None:
        """Start (if needed) and block until :meth:`stop` completes."""
        if self._state == "idle":
            await self.start()
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._registry.counter(M.DAEMON_CONNECTIONS).inc()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
        except ConnectionError:
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await H.read_request(
                    reader,
                    max_header_bytes=self.config.max_header_bytes,
                    max_body_bytes=self.config.max_body_bytes,
                )
            except H.FrameError as exc:
                self._registry.counter(M.DAEMON_BAD_FRAMES).inc()
                self._registry.counter(M.DAEMON_HTTP_ERRORS).inc()
                writer.write(H.json_response(
                    exc.status,
                    H.error_document(exc.code, str(exc)),
                    keep_alive=False,
                ))
                await writer.drain()
                return
            if request is None:
                return
            self._registry.counter(M.DAEMON_HTTP_REQUESTS).inc()
            # Busy from frame-parsed to response-written: the drain in
            # :meth:`stop` waits on this, so an admitted request always
            # gets its response before connections are torn down.
            self._busy += 1
            try:
                with self._registry.timer(M.DAEMON_REQUEST_SECONDS).time():
                    try:
                        status, document = await self._dispatch(request)
                    except H.FrameError as exc:
                        # Body-level JSON failures: framing is intact, so
                        # the connection survives, but the frame counts.
                        self._registry.counter(M.DAEMON_BAD_FRAMES).inc()
                        status = exc.status
                        document = H.error_document(exc.code, str(exc))
                    except Exception as exc:  # noqa: BLE001 - boundary
                        status = 500
                        document = H.error_document(
                            "internal_error", f"{type(exc).__name__}: {exc}"
                        )
                if status >= 400:
                    self._registry.counter(M.DAEMON_HTTP_ERRORS).inc()
                keep_alive = request.keep_alive
                writer.write(H.json_response(
                    status, document, keep_alive=keep_alive
                ))
                await writer.drain()
            finally:
                self._busy -= 1
            if not keep_alive:
                return

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: H.HttpRequest):
        """Route one request; returns ``(status, json_document)``."""
        path = request.path
        method = request.method

        if path == "/healthz":
            return self._require(request, "GET") or (200, self._health())
        if path == "/readyz":
            bad = self._require(request, "GET")
            if bad:
                return bad
            if self._state != "ready":
                return 503, H.error_document(
                    H.SHUTTING_DOWN if self._state == "draining"
                    else "not_ready",
                    f"daemon is {self._state}",
                )
            return 200, self._health()
        if path == "/metrics":
            return self._require(request, "GET") or (
                200, {"schema": SCHEMA_VERSION,
                      "metrics": self._registry.snapshot()}
            )

        if path == "/v1/diagnose":
            return self._require(request, "POST") \
                or await self._handle_diagnose(request)
        if path == "/v1/diagnose/batch":
            return self._require(request, "POST") \
                or await self._handle_batch(request)

        if path == "/v1/sessions":
            return self._require(request, "POST") \
                or await self._handle_session_open(request)
        if path.startswith("/v1/sessions/"):
            session_id = path[len("/v1/sessions/"):]
            if method == "POST":
                return await self._handle_session_advance(request, session_id)
            if method == "DELETE":
                return self._handle_session_close(session_id)
            return 405, H.error_document(
                H.METHOD_NOT_ALLOWED, f"{method} not allowed on {path}"
            )

        if path == "/v1/artifacts":
            if method == "GET":
                return 200, {
                    "schema": SCHEMA_VERSION,
                    "artifacts": self.pool.resident(),
                    "pinned": self.pool.pinned_hashes(),
                }
            if method == "POST":
                return await self._handle_artifact_register(request)
            return 405, H.error_document(
                H.METHOD_NOT_ALLOWED, f"{method} not allowed on {path}"
            )
        if path.startswith("/v1/artifacts/"):
            content_hash = path[len("/v1/artifacts/"):]
            if method == "DELETE":
                return self._handle_artifact_evict(content_hash)
            return 405, H.error_document(
                H.METHOD_NOT_ALLOWED, f"{method} not allowed on {path}"
            )

        return 404, H.error_document(H.NOT_FOUND, f"no route for {path}")

    def _require(self, request: H.HttpRequest, method: str):
        if request.method != method:
            return 405, H.error_document(
                H.METHOD_NOT_ALLOWED,
                f"{request.method} not allowed on {request.path} "
                f"(use {method})",
            )
        return None

    def _health(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "state": self._state,
            "inflight": self._admission.inflight,
            "max_inflight": self.config.max_inflight,
            "open_sessions": len(self._sessions),
            "pool": {
                "resident": len(self.pool),
                "capacity": self.pool.capacity,
                "pinned": len(self.pool.pinned_hashes()),
            },
            "workers": self.config.workers,
        }

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, tenant: Optional[str]):
        """``None`` on admit, else a ready ``(status, document)`` rejection."""
        if self._state != "ready":
            self._registry.counter(M.DAEMON_REJECTED_DRAINING).inc()
            return 503, H.error_document(
                H.SHUTTING_DOWN, f"daemon is {self._state}; not accepting work"
            )
        refused = self._admission.try_acquire(tenant)
        if refused is not None:
            code, detail = refused
            counter = (
                M.DAEMON_REJECTED_QUOTA if code == H.QUOTA_EXCEEDED
                else M.DAEMON_REJECTED_OVERLOAD
            )
            self._registry.counter(counter).inc()
            return 429, H.error_document(code, detail)
        return None

    @staticmethod
    def _tenant_of(request: H.HttpRequest, doc: object) -> Optional[str]:
        header = request.header("x-tenant")
        if header:
            return header
        if isinstance(doc, dict):
            tenant = doc.get("tenant")
            if isinstance(tenant, str) and tenant:
                return tenant
        return None

    async def _run_in_worker(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    # ------------------------------------------------------------------
    # work routes
    # ------------------------------------------------------------------
    async def _handle_diagnose(self, request: H.HttpRequest):
        doc = request.json_body()
        tenant = self._tenant_of(request, doc)
        try:
            parsed = DiagnoseRequest.from_dict(
                doc, default_id=f"http-{uuid.uuid4().hex[:12]}"
            )
        except SchemaError as exc:
            return 200, DiagnoseResult(
                request_id=self._doc_id(doc),
                code=exc.code,
                detail=str(exc),
            ).as_dict()
        rejected = self._admit(tenant)
        if rejected:
            return rejected
        try:
            result = await self._run_in_worker(
                self.server.diagnose_one, parsed
            )
        finally:
            self._admission.release(tenant)
        return 200, result.as_dict()

    async def _handle_batch(self, request: H.HttpRequest):
        doc = request.json_body()
        tenant = self._tenant_of(request, doc)
        if isinstance(doc, dict):
            raw = doc.get("requests")
        else:
            raw = doc
        if not isinstance(raw, list):
            raise H.FrameError(
                400, H.MALFORMED_FRAME,
                'batch body must be {"requests": [...]} or a JSON array',
            )
        if len(raw) > self.config.max_batch:
            return 413, H.error_document(
                H.BATCH_TOO_LARGE,
                f"batch of {len(raw)} requests exceeds "
                f"max_batch={self.config.max_batch}",
            )
        rejected = self._admit(tenant)
        if rejected:
            return rejected
        try:
            results = await self._run_in_worker(self._serve_batch, raw)
        finally:
            self._admission.release(tenant)
        return 200, {
            "schema": SCHEMA_VERSION,
            "results": [
                result.as_dict(include_schema=False) for result in results
            ],
        }

    def _serve_batch(self, docs: list):
        """A batch's work unit: validate each document, then serve the
        batch, all on the worker."""
        return self.server.diagnose_batch(
            parse_document(doc, number=number)
            for number, doc in enumerate(docs, start=1)
        )

    @staticmethod
    def _doc_id(doc: object) -> str:
        if isinstance(doc, dict) and isinstance(doc.get("id"), str) \
                and doc["id"]:
            return doc["id"]
        return f"http-{uuid.uuid4().hex[:12]}"

    # ------------------------------------------------------------------
    # session routes
    # ------------------------------------------------------------------
    async def _handle_session_open(self, request: H.HttpRequest):
        doc = request.json_body()
        if not isinstance(doc, dict):
            raise H.FrameError(
                400, H.MALFORMED_FRAME, "session open body must be an object"
            )
        unknown = set(doc) - {"schema", "artifact", "stall_after", "flip_budget"}
        if unknown:
            return 200, self._schema_rejection(
                f"unknown session-open fields: {sorted(unknown)}"
            )
        artifact = doc.get("artifact")
        if artifact is not None and (
            not isinstance(artifact, str) or not artifact
        ):
            return 200, self._schema_rejection(
                f"artifact must be a non-empty path, got {artifact!r}"
            )
        stall_after = doc.get("stall_after", 3)
        if isinstance(stall_after, bool) or not isinstance(stall_after, int) \
                or stall_after < 1:
            return 200, self._schema_rejection(
                f"stall_after must be a positive integer, got {stall_after!r}"
            )
        flip_budget = doc.get("flip_budget")
        if flip_budget is not None and (
            isinstance(flip_budget, bool) or not isinstance(flip_budget, int)
            or flip_budget < 0
        ):
            return 200, self._schema_rejection(
                f"flip_budget must be a non-negative integer, "
                f"got {flip_budget!r}"
            )
        if artifact is None and self.server.default_artifact is None:
            return 200, self._schema_rejection(
                "session open names no artifact and the daemon has no default "
                "(set 'artifact' on the request)"
            )
        tenant = self._tenant_of(request, doc)
        rejected = self._admit(tenant)
        if rejected:
            return rejected
        try:
            session = await self._run_in_worker(
                lambda: self.server.session(
                    artifact, stall_after=stall_after, flip_budget=flip_budget
                )
            )
        except Exception as exc:  # noqa: BLE001 - load failures -> document
            return 200, self._schema_rejection(
                f"{type(exc).__name__}: {exc}", code="artifact_error"
            )
        finally:
            self._admission.release(tenant)
        session_id = uuid.uuid4().hex[:16]
        path = artifact if artifact is not None else self.server.default_artifact
        self._sessions[session_id] = _Session(session, str(path))
        self._registry.gauge(M.DAEMON_OPEN_SESSIONS).set(len(self._sessions))
        return 201, {
            "schema": SCHEMA_VERSION,
            "session": session_id,
            "report": session.report(),
        }

    @staticmethod
    def _schema_rejection(detail: str, *, code: str = BAD_REQUEST):
        return {"schema": SCHEMA_VERSION, "code": code, "detail": detail}

    async def _handle_session_advance(
        self, request: H.HttpRequest, session_id: str
    ):
        doc = request.json_body()
        held = self._sessions.get(session_id)
        if held is None:
            return 404, H.error_document(
                H.UNKNOWN_SESSION, f"no open session {session_id!r}"
            )
        try:
            advance = SessionAdvance.from_dict(doc, session_id=session_id)
        except SchemaError as exc:
            return 200, self._schema_rejection(str(exc), code=exc.code)
        tenant = self._tenant_of(request, doc)
        rejected = self._admit(tenant)
        if rejected:
            return rejected
        try:
            async with held.lock:
                return 200, await self._run_in_worker(
                    self._advance_session, held, advance
                )
        except ValueError as exc:
            return 200, self._schema_rejection(
                str(exc), code="unmodeled_response"
            )
        finally:
            self._admission.release(tenant)

    def _advance_session(
        self, held: _Session, advance: SessionAdvance
    ) -> Dict[str, object]:
        session = held.session
        for test_index, signature in advance.observations:
            session.observe(test_index, signature)
        faults = session.candidate_faults()
        if advance.limit:
            faults = faults[: advance.limit]
        candidates = [str(fault) for fault in faults]
        document: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "session": advance.session_id,
            "report": session.report(),
            "candidates": candidates,
        }
        if advance.suggest:
            strategy = (
                advance.strategy
                if advance.strategy is not None
                else self.server.config.strategy
            )
            document["suggested_test"] = session.suggest_next_test(strategy)
        return document

    def _handle_session_close(self, session_id: str):
        held = self._sessions.pop(session_id, None)
        self._registry.gauge(M.DAEMON_OPEN_SESSIONS).set(len(self._sessions))
        if held is None:
            return 404, H.error_document(
                H.UNKNOWN_SESSION, f"no open session {session_id!r}"
            )
        return 200, {
            "schema": SCHEMA_VERSION,
            "session": session_id,
            "report": held.session.report(),
        }

    # ------------------------------------------------------------------
    # artifact routes
    # ------------------------------------------------------------------
    async def _handle_artifact_register(self, request: H.HttpRequest):
        content_type = request.header("content-type", "application/json")
        if content_type.startswith("application/octet-stream"):
            return await self._register_upload(request)
        doc = request.json_body()
        if not isinstance(doc, dict) or not isinstance(doc.get("path"), str) \
                or not doc["path"]:
            raise H.FrameError(
                400, H.MALFORMED_FRAME,
                'artifact registration body must be {"path": "<artifact>"} '
                "(or an application/octet-stream upload)",
            )
        pin = doc.get("pin", True)
        if not isinstance(pin, bool):
            raise H.FrameError(
                400, H.MALFORMED_FRAME, f"pin must be a boolean, got {pin!r}"
            )
        return await self._register_path(doc["path"], pin=pin)

    async def _register_upload(self, request: H.HttpRequest):
        spool = Path(
            self.config.spool_dir
            if self.config.spool_dir is not None
            else tempfile.gettempdir()
        )
        spool.mkdir(parents=True, exist_ok=True)
        name = request.header("x-artifact-name") or uuid.uuid4().hex[:12]
        safe = "".join(c for c in name if c.isalnum() or c in "-_.") or "upload"
        target = spool / f"repro-daemon-{safe}.fdict"
        body = request.body
        await self._run_in_worker(target.write_bytes, body)
        return await self._register_path(str(target), pin=True)

    async def _register_path(self, path: str, *, pin: bool):
        try:
            if pin:
                entry = await self._run_in_worker(self.pool.pin, path)
            else:
                entry = await self._run_in_worker(self.pool.get, path)
        except Exception as exc:  # noqa: BLE001 - load failures -> document
            return 422, H.error_document(
                "artifact_error", f"{type(exc).__name__}: {exc}"
            )
        self._registry.counter(M.DAEMON_ARTIFACTS_REGISTERED).inc()
        return 201, {
            "schema": SCHEMA_VERSION,
            "content_hash": entry.content_hash,
            "path": entry.path,
            "pinned": pin,
            "faults": entry.table.n_faults,
            "tests": entry.table.n_tests,
        }

    def _handle_artifact_evict(self, content_hash: str):
        removed = self.pool.evict(content_hash)
        if not removed:
            return 404, H.error_document(
                H.NOT_FOUND, f"no resident artifact {content_hash!r}"
            )
        self._registry.counter(M.DAEMON_ARTIFACTS_EVICTED).inc()
        return 200, {
            "schema": SCHEMA_VERSION,
            "content_hash": content_hash,
            "evicted": True,
        }


# ----------------------------------------------------------------------
# threaded harness (tests, benchmarks, embedding)
# ----------------------------------------------------------------------
class DaemonHandle:
    """A running daemon on a background thread, stoppable from any thread.

    The test/benchmark harness: the daemon's event loop runs on a
    dedicated thread; ``host``/``port`` are readable once ``started``
    fires; :meth:`stop` performs the graceful drain from the caller's
    thread and joins the loop thread.
    """

    def __init__(self, daemon: DiagnosisDaemon) -> None:
        self.daemon = daemon
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.started = threading.Event()
        self.error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-daemon-loop", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.host, self.port = await self.daemon.start()
            except BaseException as exc:  # noqa: BLE001 - surface to caller
                self.error = exc
                self.started.set()
                return
            self._loop = asyncio.get_running_loop()
            self.started.set()
            await self.daemon.run_until_stopped()

        asyncio.run(main())

    def start(self, timeout: float = 10.0) -> "DaemonHandle":
        self._thread.start()
        if not self.started.wait(timeout):
            raise RuntimeError("daemon did not start within the timeout")
        if self.error is not None:
            raise self.error
        return self

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self.daemon.stop(), self._loop
            )
            try:
                future.result(timeout)
            except (asyncio.CancelledError, TimeoutError):
                pass
        self._thread.join(timeout)

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    config: Optional[DaemonConfig] = None,
    *,
    server: Optional[DiagnosisServer] = None,
    timeout: float = 10.0,
) -> DaemonHandle:
    """Boot a daemon on a background thread and wait for its address."""
    return DaemonHandle(DiagnosisDaemon(config, server=server)).start(timeout)
