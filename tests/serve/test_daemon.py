"""The asyncio daemon over a real localhost socket.

Every test here talks to a :class:`DiagnosisDaemon` bound to
``127.0.0.1:<kernel-assigned>`` through plain ``http.client`` (or a raw
socket for the frame-level failure cases) — the same wire a production
client would use.  Slow/blocked work is injected through the pool's
``loader`` hook, never with real sleeps on the assertion path.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.obs import scoped_registry
from repro.serve import ArtifactPool, DiagnosisServer, ServeConfig
from repro.serve.daemon import DaemonConfig, DiagnosisDaemon, start_in_thread
from repro.serve.pool import _default_loader
from repro.serve.schemas import SCHEMA_VERSION


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
@pytest.fixture()
def daemon_factory():
    """Start daemons on background threads; stop them all at teardown."""
    handles = []

    def start(config=None, *, server=None, **config_kwargs):
        if config is None:
            config = DaemonConfig(port=0, **config_kwargs)
        handle = start_in_thread(config, server=server)
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()


def call(handle, method, path, body=None, *, headers=None, conn=None):
    """One HTTP exchange; returns ``(status, decoded_body)``."""
    own = conn is None
    if own:
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
    data = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=data, headers=headers or {})
    response = conn.getresponse()
    document = json.loads(response.read().decode())
    if own:
        conn.close()
    return response.status, document


def raw_exchange(handle, payload):
    """Send raw bytes, half-close, read to EOF; ``(status, doc, head)``."""
    with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body.decode()), head


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class GatedLoader:
    """A loader that parks loads on an event until released.

    With ``only=`` set, just that path gates (other artifacts load
    normally — needed when a test must make progress on a second
    artifact while the first is parked, since the pool's single-flight
    load would otherwise park every same-hash request too).
    """

    def __init__(self, only=None):
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.only = str(only) if only is not None else None

    def __call__(self, path):
        if self.only is None or str(path) == self.only:
            self.entered.set()
            assert self.gate.wait(10), "gated loader was never released"
        return _default_loader(path)


def gated_server(artifact_path, loader, **serve_kwargs):
    config = ServeConfig(**serve_kwargs)
    pool = ArtifactPool(config.pool_size, loader=loader)
    return DiagnosisServer(
        config, default_artifact=str(artifact_path), pool=pool
    )


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_start_ready_stop(self, daemon_factory, artifact_a):
        handle = daemon_factory(default_artifact=str(artifact_a[0]))
        assert handle.daemon.state == "ready"
        status, doc = call(handle, "GET", "/readyz")
        assert status == 200 and doc["state"] == "ready"
        handle.stop()
        assert handle.daemon.state == "stopped"

    def test_stop_is_idempotent(self, daemon_factory, artifact_a):
        handle = daemon_factory(default_artifact=str(artifact_a[0]))
        handle.stop()
        handle.stop()
        assert handle.daemon.state == "stopped"

    def test_shutdown_drains_inflight_work(self, daemon_factory, artifact_a):
        """A request admitted before stop() gets its full 200 response."""
        loader = GatedLoader()
        server = gated_server(artifact_a[0], loader)
        handle = daemon_factory(
            DaemonConfig(port=0, drain_grace_s=10.0), server=server
        )

        results = []

        def slow_request():
            results.append(call(
                handle, "POST", "/v1/diagnose", {"id": "r", "fault": "x"}
            ))

        thread = threading.Thread(target=slow_request)
        thread.start()
        assert loader.entered.wait(5), "request never reached the loader"

        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        assert wait_until(lambda: handle.daemon.state == "draining")
        # Drain must wait for the parked request, not abandon it.
        assert not results
        loader.gate.set()
        stopper.join(10)
        thread.join(10)
        assert handle.daemon.state == "stopped"
        status, doc = results[0]
        # The fault name is bogus, so the *diagnosis* degrades — but the
        # HTTP exchange itself completed through the drain.
        assert status == 200 and doc["code"] == "unmodeled_response"

    def test_new_work_is_rejected_while_draining(
        self, daemon_factory, artifact_a
    ):
        """The listener closes on drain; work arriving on an existing
        keep-alive connection is answered ``503 shutting_down``."""
        loader = GatedLoader()
        server = gated_server(artifact_a[0], loader)
        handle = daemon_factory(
            DaemonConfig(port=0, drain_grace_s=10.0), server=server
        )
        # Open the keep-alive connection while the daemon still accepts.
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        status, _ = call(handle, "GET", "/healthz", conn=conn)
        assert status == 200

        threading.Thread(target=lambda: call(
            handle, "POST", "/v1/diagnose", {"id": "r", "fault": "x"}
        )).start()
        assert loader.entered.wait(5)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        assert wait_until(lambda: handle.daemon.state == "draining")
        with scoped_registry() as registry:
            status, doc = call(
                handle, "POST", "/v1/diagnose",
                {"id": "late", "fault": "x"}, conn=conn,
            )
            assert status == 503
            assert doc["code"] == "shutting_down"
            rejected = registry.counters[
                "serve.daemon.rejected_draining"].value
        assert rejected == 1
        status, doc = call(handle, "GET", "/readyz", conn=conn)
        assert status == 503 and doc["code"] == "shutting_down"
        # Fresh TCP connections are refused outright: the listener is gone.
        with pytest.raises(OSError):
            call(handle, "GET", "/healthz")
        conn.close()
        loader.gate.set()
        stopper.join(10)


# ----------------------------------------------------------------------
# framing failures
# ----------------------------------------------------------------------
class TestFraming:
    def test_malformed_request_line(self, daemon_factory, artifact_a):
        handle = daemon_factory(default_artifact=str(artifact_a[0]))
        with scoped_registry() as registry:
            status, doc, head = raw_exchange(
                handle, b"NOT-HTTP-AT-ALL\r\n\r\n"
            )
            frames = registry.counters["serve.daemon.bad_frames"].value
        assert status == 400
        assert doc["code"] == "malformed_frame"
        assert b"Connection: close" in head
        assert frames == 1

    def test_malformed_body_json_keeps_the_connection(
        self, daemon_factory, artifact_a
    ):
        handle = daemon_factory(default_artifact=str(artifact_a[0]))
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        conn.request("POST", "/v1/diagnose", body=b"{nope",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        doc = json.loads(response.read().decode())
        assert response.status == 400
        assert doc["code"] == "malformed_frame"
        # Framing stayed intact, so the same connection serves more.
        status, doc = call(handle, "GET", "/healthz", conn=conn)
        assert status == 200
        conn.close()

    def test_oversized_body_is_rejected_before_buffering(
        self, daemon_factory, artifact_a
    ):
        handle = daemon_factory(
            DaemonConfig(
                port=0, default_artifact=str(artifact_a[0]),
                max_body_bytes=1024,
            )
        )
        big = b"x" * 4096
        status, doc, _ = raw_exchange(
            handle,
            b"POST /v1/diagnose HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(big), big),
        )
        assert status == 413
        assert doc["code"] == "oversized_body"

    def test_oversized_header_is_rejected(self, daemon_factory, artifact_a):
        handle = daemon_factory(
            DaemonConfig(
                port=0, default_artifact=str(artifact_a[0]),
                max_header_bytes=512,
            )
        )
        status, doc, _ = raw_exchange(
            handle,
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"y" * 2048 + b"\r\n\r\n",
        )
        assert status == 431
        assert doc["code"] == "oversized_header"

    def test_chunked_transfer_encoding_is_not_implemented(
        self, daemon_factory, artifact_a
    ):
        handle = daemon_factory(default_artifact=str(artifact_a[0]))
        status, doc, _ = raw_exchange(
            handle,
            b"POST /v1/diagnose HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        )
        assert status == 501
        assert doc["code"] == "unsupported_transfer_encoding"


# ----------------------------------------------------------------------
# admission control and quotas
# ----------------------------------------------------------------------
class TestAdmission:
    def saturate(self, handle, loader, count, tenant=None):
        """Park ``count`` requests inside the gated loader."""
        threads = []
        headers = {"X-Tenant": tenant} if tenant else {}
        for i in range(count):
            thread = threading.Thread(target=lambda i=i: call(
                handle, "POST", "/v1/diagnose",
                {"id": f"parked-{i}", "fault": "x"}, headers=headers,
            ))
            thread.start()
            threads.append(thread)
        return threads

    def test_saturated_pool_answers_429_overloaded(
        self, daemon_factory, artifact_a
    ):
        loader = GatedLoader()
        server = gated_server(artifact_a[0], loader)
        handle = daemon_factory(
            DaemonConfig(port=0, max_inflight=1), server=server
        )
        threads = self.saturate(handle, loader, 1)
        assert loader.entered.wait(5)
        assert wait_until(
            lambda: handle.daemon._admission.inflight == 1
        )
        with scoped_registry() as registry:
            status, doc = call(
                handle, "POST", "/v1/diagnose", {"id": "over", "fault": "x"}
            )
            assert status == 429
            assert doc["code"] == "overloaded"
            assert "max_inflight=1" in doc["detail"]
            rejected = registry.counters[
                "serve.daemon.rejected_overload"].value
        assert rejected == 1
        # Health stays served from the loop even at saturation.
        status, doc = call(handle, "GET", "/healthz")
        assert status == 200 and doc["inflight"] == 1
        loader.gate.set()
        for thread in threads:
            thread.join(10)
        # Capacity freed: the same request is admitted now.
        status, doc = call(
            handle, "POST", "/v1/diagnose", {"id": "after", "fault": "x"}
        )
        assert status == 200

    def test_tenant_quota_rejects_only_that_tenant(
        self, daemon_factory, artifact_a, artifact_b
    ):
        loader = GatedLoader(only=artifact_a[0])
        server = gated_server(artifact_a[0], loader)
        handle = daemon_factory(
            DaemonConfig(
                port=0, max_inflight=8, tenant_quotas=(("acme", 1),),
            ),
            server=server,
        )
        threads = self.saturate(handle, loader, 1, tenant="acme")
        assert loader.entered.wait(5)
        assert wait_until(
            lambda: handle.daemon._admission.per_tenant.get("acme") == 1
        )
        status, doc = call(
            handle, "POST", "/v1/diagnose", {"id": "q", "fault": "x"},
            headers={"X-Tenant": "acme"},
        )
        assert status == 429
        assert doc["code"] == "quota_exceeded"
        assert "acme" in doc["detail"]
        # Another tenant (and the untenanted) still get in — against a
        # second artifact, so the parked load cannot stall them.
        status, _ = call(
            handle, "POST", "/v1/diagnose",
            {"id": "other", "fault": "x", "tenant": "globex",
             "artifact": str(artifact_b[0])},
        )
        assert status == 200
        status, _ = call(
            handle, "POST", "/v1/diagnose",
            {"id": "anon", "fault": "x", "artifact": str(artifact_b[0])},
        )
        assert status == 200
        loader.gate.set()
        for thread in threads:
            thread.join(10)

    def test_default_tenant_quota_applies_to_unlisted_tenants(
        self, daemon_factory, artifact_a
    ):
        loader = GatedLoader()
        server = gated_server(artifact_a[0], loader)
        handle = daemon_factory(
            DaemonConfig(port=0, max_inflight=8, default_tenant_quota=1),
            server=server,
        )
        threads = self.saturate(handle, loader, 1, tenant="newcomer")
        assert loader.entered.wait(5)
        assert wait_until(
            lambda: handle.daemon._admission.per_tenant.get("newcomer") == 1
        )
        status, doc = call(
            handle, "POST", "/v1/diagnose", {"id": "q", "fault": "x"},
            headers={"X-Tenant": "newcomer"},
        )
        assert status == 429 and doc["code"] == "quota_exceeded"
        loader.gate.set()
        for thread in threads:
            thread.join(10)

    def test_batch_occupies_one_slot_and_bounds_size(
        self, daemon_factory, artifact_a
    ):
        handle = daemon_factory(
            DaemonConfig(
                port=0, default_artifact=str(artifact_a[0]), max_batch=2,
            )
        )
        status, doc = call(
            handle, "POST", "/v1/diagnose/batch",
            {"requests": [{"id": str(i), "fault": "x"} for i in range(3)]},
        )
        assert status == 413
        assert doc["code"] == "batch_too_large"
        status, doc = call(
            handle, "POST", "/v1/diagnose/batch",
            {"requests": [{"id": "a", "fault": "x"}, {"bogus": 1}]},
        )
        assert status == 200
        assert [r["code"] for r in doc["results"]] == [
            "unmodeled_response", "bad_request",
        ]

    def test_batch_starts_no_thread(
        self, daemon_factory, artifact_a, monkeypatch
    ):
        """A batch is served in order on the worker that took it: once the
        daemon's executor is up, serving batches starts no thread."""
        path, built = artifact_a
        handle = daemon_factory(
            DaemonConfig(port=0, default_artifact=str(path), workers=2)
        )
        # Bring the executor to its full two threads first.
        barrier = threading.Barrier(3)
        warm = [handle.daemon._executor.submit(barrier.wait) for _ in "ab"]
        barrier.wait(5)
        for future in warm:
            future.result(5)

        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        batch = {"requests": [
            {"id": f"r{i}", "fault": str(built.table.faults[i])}
            for i in range(8)
        ]}
        for _ in range(3):
            status, doc = call(handle, "POST", "/v1/diagnose/batch", batch)
            assert status == 200
            assert [r["code"] for r in doc["results"]] == ["ok"] * 8
        assert started == []

    def test_batch_documents_are_validated_on_the_worker(
        self, daemon_factory, artifact_a, monkeypatch
    ):
        """The event loop only frames and admits a batch: every document
        is validated inside the work unit, never on the loop thread."""
        from repro.serve.daemon import daemon as daemon_module

        path, built = artifact_a
        handle = daemon_factory(default_artifact=str(path))
        threads = []
        parse = daemon_module.parse_document

        def recording_parse(doc, **kwargs):
            threads.append(threading.current_thread().name)
            return parse(doc, **kwargs)

        monkeypatch.setattr(daemon_module, "parse_document", recording_parse)
        fault = str(built.table.faults[0])
        for body in (
            {"requests": [{"id": "a", "fault": fault}, {"bogus": 1}]},
            [{"id": "b", "fault": fault}],
        ):
            status, doc = call(handle, "POST", "/v1/diagnose/batch", body)
            assert status == 200
        assert len(threads) == 3
        assert "repro-daemon-loop" not in threads
        assert all(name.startswith("repro-daemon") for name in threads)


# ----------------------------------------------------------------------
# the diagnosis protocol over the wire
# ----------------------------------------------------------------------
class TestProtocol:
    def test_ok_diagnosis_round_trip(self, daemon_factory, artifact_a):
        path, built = artifact_a
        handle = daemon_factory(default_artifact=str(path))
        fault = str(built.table.faults[3])
        status, doc = call(
            handle, "POST", "/v1/diagnose", {"id": "chip", "fault": fault}
        )
        assert status == 200
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["code"] == "ok"
        assert fault in doc["exact"]

    def test_schema_version_mismatch_is_a_reasoned_200(
        self, daemon_factory, artifact_a
    ):
        handle = daemon_factory(default_artifact=str(artifact_a[0]))
        status, doc = call(
            handle, "POST", "/v1/diagnose",
            {"schema": 9, "id": "future", "fault": "x"},
        )
        assert status == 200
        assert doc["code"] == "bad_request"
        assert "schema" in doc["detail"]
        assert doc["id"] == "future"

    def test_degraded_outcome_carries_the_policy_block(
        self, daemon_factory, tmp_path
    ):
        handle = daemon_factory(
            DaemonConfig(
                port=0,
                serve=ServeConfig(max_retries=1, retry_backoff_ms=1.0),
            )
        )
        missing = tmp_path / "nowhere.rfd"
        status, doc = call(
            handle, "POST", "/v1/diagnose",
            {"id": "gone", "fault": "x", "artifact": str(missing)},
        )
        assert status == 200
        assert doc["code"] == "artifact_error"
        assert doc["policy"] == {
            "deadline_ms": None, "max_retries": 1, "retry_backoff_ms": 1.0,
        }

    def test_unknown_route_and_method(self, daemon_factory, artifact_a):
        handle = daemon_factory(default_artifact=str(artifact_a[0]))
        status, doc = call(handle, "GET", "/v2/diagnose")
        assert status == 404 and doc["code"] == "not_found"
        status, doc = call(handle, "GET", "/v1/diagnose")
        assert status == 405 and doc["code"] == "method_not_allowed"

    def test_metrics_endpoint_snapshots_the_registry(
        self, daemon_factory, artifact_a
    ):
        path, built = artifact_a
        handle = daemon_factory(default_artifact=str(path))
        call(handle, "POST", "/v1/diagnose",
             {"id": "c", "fault": str(built.table.faults[0])})
        status, doc = call(handle, "GET", "/metrics")
        assert status == 200
        metrics = doc["metrics"]
        assert metrics["counters"]["serve.daemon.http_requests"] >= 1
        assert metrics["counters"]["serve.outcomes.ok"] >= 1


# ----------------------------------------------------------------------
# sessions over the socket
# ----------------------------------------------------------------------
class TestSessions:
    def test_session_narrows_like_the_inprocess_session(
        self, daemon_factory, artifact_a
    ):
        from repro.serve import DiagnosisSession

        path, built = artifact_a
        handle = daemon_factory(default_artifact=str(path))
        table = built.table
        observed = [tuple(table.full_row(5)[j]) for j in range(table.n_tests)]

        reference = DiagnosisSession(built.dictionary)
        for j in range(4):
            reference.observe(j, observed[j])

        status, doc = call(handle, "POST", "/v1/sessions", {})
        assert status == 201
        session_id = doc["session"]
        assert doc["report"]["candidates"] == table.n_faults

        status, doc = call(
            handle, "POST", f"/v1/sessions/{session_id}",
            {"observations": [[j, list(observed[j])] for j in range(4)],
             "suggest": True},
        )
        assert status == 200
        assert doc["report"]["narrowing"] == [
            update.after for update in reference.history
        ]
        assert doc["candidates"] == [
            str(fault) for fault in reference.candidate_faults()
        ][:10]
        assert doc["suggested_test"] == reference.suggest_next_test()

        status, doc = call(handle, "DELETE", f"/v1/sessions/{session_id}")
        assert status == 200
        assert doc["report"]["observations"] == 4
        status, doc = call(handle, "DELETE", f"/v1/sessions/{session_id}")
        assert status == 404 and doc["code"] == "unknown_session"

    def test_advance_limit_bounds_the_candidates(
        self, daemon_factory, artifact_a
    ):
        from repro.serve import DiagnosisSession

        path, built = artifact_a
        handle = daemon_factory(default_artifact=str(path))
        observation = [0, list(built.table.full_row(5)[0])]
        reference = DiagnosisSession(built.dictionary)
        reference.observe(0, tuple(observation[1]))
        names = [str(fault) for fault in reference.candidate_faults()]
        assert len(names) > 1

        for limit, expected in ((1, names[:1]), (0, names)):
            _, doc = call(handle, "POST", "/v1/sessions", {})
            session_id = doc["session"]
            status, doc = call(
                handle, "POST", f"/v1/sessions/{session_id}",
                {"observations": [observation], "limit": limit},
            )
            assert status == 200
            assert doc["candidates"] == expected
            assert doc["report"]["candidates"] == len(names)
            call(handle, "DELETE", f"/v1/sessions/{session_id}")

    def test_open_naming_no_artifact_is_a_bad_request(self, daemon_factory):
        """With no default artifact either, a session open has nothing to
        load: that is the request's fault (``bad_request``, as for
        ``/v1/diagnose``), not a load failure."""
        handle = daemon_factory(DaemonConfig(port=0))
        status, doc, _ = raw_exchange(
            handle,
            b"POST /v1/sessions HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 2\r\nConnection: close\r\n\r\n{}",
        )
        assert status == 200
        assert doc["code"] == "bad_request"
        assert "names no artifact" in doc["detail"]
        assert handle.daemon._sessions == {}

    def test_advance_on_unknown_session_is_404(
        self, daemon_factory, artifact_a
    ):
        handle = daemon_factory(default_artifact=str(artifact_a[0]))
        status, doc = call(
            handle, "POST", "/v1/sessions/nope", {"suggest": True}
        )
        assert status == 404 and doc["code"] == "unknown_session"

    def test_open_sessions_gauge_tracks(self, daemon_factory, artifact_a):
        handle = daemon_factory(default_artifact=str(artifact_a[0]))
        with scoped_registry() as registry:
            _, doc = call(handle, "POST", "/v1/sessions", {})
            assert registry.gauges["serve.daemon.open_sessions"].value == 1
            call(handle, "DELETE", f"/v1/sessions/{doc['session']}")
            assert registry.gauges["serve.daemon.open_sessions"].value == 0


# ----------------------------------------------------------------------
# hot artifact registration
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_register_by_path_pins_against_lru_pressure(
        self, daemon_factory, artifact_a, artifact_b, artifact_c
    ):
        server = DiagnosisServer(
            ServeConfig(pool_size=1), default_artifact=str(artifact_a[0])
        )
        handle = daemon_factory(DaemonConfig(port=0), server=server)
        status, doc = call(
            handle, "POST", "/v1/artifacts", {"path": str(artifact_a[0])}
        )
        assert status == 201 and doc["pinned"]
        pinned_hash = doc["content_hash"]
        # Traffic against two other artifacts would evict an unpinned
        # entry from a capacity-1 pool; the pinned one must survive.
        for path, built in (artifact_b, artifact_c):
            status, _ = call(
                handle, "POST", "/v1/diagnose",
                {"id": "t", "fault": str(built.table.faults[0]),
                 "artifact": str(path)},
            )
            assert status == 200
        status, doc = call(handle, "GET", "/v1/artifacts")
        assert pinned_hash in doc["pinned"]
        assert pinned_hash in [a["content_hash"] for a in doc["artifacts"]]

    def test_upload_registers_and_serves(self, daemon_factory, artifact_a, tmp_path):
        path, built = artifact_a
        handle = daemon_factory(
            DaemonConfig(port=0, spool_dir=str(tmp_path / "spool"))
        )
        payload = path.read_bytes()
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        conn.request(
            "POST", "/v1/artifacts", body=payload,
            headers={"Content-Type": "application/octet-stream",
                     "X-Artifact-Name": "uploaded"},
        )
        response = conn.getresponse()
        doc = json.loads(response.read().decode())
        conn.close()
        assert response.status == 201
        assert doc["faults"] == built.table.n_faults
        uploaded_path = doc["path"]
        assert "uploaded" in uploaded_path
        # Serve against the registered copy, by its spooled path.
        fault = str(built.table.faults[2])
        status, result = call(
            handle, "POST", "/v1/diagnose",
            {"id": "up", "fault": fault, "artifact": uploaded_path},
        )
        assert status == 200 and result["code"] == "ok"
        assert fault in result["exact"]

    def test_evict_frees_and_404s_when_absent(
        self, daemon_factory, artifact_a
    ):
        handle = daemon_factory(DaemonConfig(port=0))
        status, doc = call(
            handle, "POST", "/v1/artifacts", {"path": str(artifact_a[0])}
        )
        content_hash = doc["content_hash"]
        status, doc = call(
            handle, "DELETE", f"/v1/artifacts/{content_hash}"
        )
        assert status == 200 and doc["evicted"]
        status, doc = call(
            handle, "DELETE", f"/v1/artifacts/{content_hash}"
        )
        assert status == 404 and doc["code"] == "not_found"

    def test_register_unloadable_path_is_422(self, daemon_factory, tmp_path):
        bogus = tmp_path / "not-an-artifact.rfd"
        bogus.write_bytes(b"junk")
        handle = daemon_factory(DaemonConfig(port=0))
        status, doc = call(
            handle, "POST", "/v1/artifacts", {"path": str(bogus)}
        )
        assert status == 422 and doc["code"] == "artifact_error"
