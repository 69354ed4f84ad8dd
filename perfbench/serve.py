"""The ``serve-mixed`` workload: a ``repro-fd daemon`` under a closed loop.

Set-up builds and packs one artifact from a fixed proxy table, spawns
the daemon as its own process and waits for the first correct reply; it
does this several times, before each slice of the traffic window and
after the last, and the first daemon serves all the traffic.  The
benchmark process is the load generator: one asyncio loop, two
keep-alive connections, each sending its next request only after the
previous reply (a closed loop).  A unit of traffic is either a one-shot
lookup of an injected fault's stored row, or an adaptive session that
feeds the injected fault's signature at each greedily suggested test.

Every reply is checked; a wrong answer counts as a failed request.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from builds import BuildSpec, PassOutcome, one_pass
from common import (
    ROOT,
    BenchError,
    SpanRecorder,
    layer_metrics,
    median,
    metric,
    percentile,
    program_env,
)

CLASSES = ("lookup", "open", "advance", "close")
_BANNER = re.compile(r"listening on http://([^:\s]+):(\d+)")


@dataclass(frozen=True)
class ServeSpec:
    """The ``serve-mixed`` workload: its artifact and its traffic."""

    #: The artifact: a fixed proxy table at the paper's restart budget,
    #: built with seed 0 on every run; only the traffic uses ``--seed``.
    build: BuildSpec = BuildSpec(
        "serve-mixed", proxy=("b14p", 300, 40), calls1=100, setup_probes=0
    )
    #: Set-ups before each slice of the window and after the last slice.
    setups: int = 2
    #: Lookup samples each slice of the window needs before it may close
    #: (advances need a third of this).
    min_samples: int = 1000


#: Keep-alive connections of the one client process, and daemon workers.
CONNECTIONS = WORKERS = 2
#: Share of traffic units that are one-shot lookups; the rest are sessions.
LOOKUP_SHARE = 0.8
#: Advances a session makes at most before it is closed.
STEP_CAP = 12
#: The window is cut into this many slices of equal length, with set-ups
#: between them.  The end-to-end serving metrics come from the best slice:
#: host noise arrives in bursts that inflate some slices, while a change
#: in the program moves them all.
SLICES = 3


# ----------------------------------------------------------------------
# the daemon process
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro-fd daemon`` child process and its stderr."""

    def __init__(self, artifact: Path, spool: Path, workers: int) -> None:
        spool.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "daemon",
             "--artifact", str(artifact), "--port", "0",
             "--workers", str(workers), "--spool-dir", str(spool)],
            cwd=str(ROOT), env=program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.lines: List[str] = []
        self.address: Optional[Tuple[str, int]] = None
        self._banner = threading.Event()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line.rstrip("\n"))
            found = _BANNER.search(line)
            if found and self.address is None:
                self.address = (found.group(1), int(found.group(2)))
                self._banner.set()
        self._banner.set()  # EOF: the process is gone

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Wait for the ``listening on`` banner, then for ``/readyz``."""
        if not self._banner.wait(timeout) or self.address is None:
            self.kill()
            raise BenchError(
                "daemon printed no 'listening on' banner: "
                + " | ".join(self.lines[-5:])
            )
        deadline = time.monotonic() + timeout
        while True:
            try:
                status, _ = self.request("GET", "/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.kill()
                raise BenchError("daemon never became ready")
            time.sleep(0.01)

    def request(self, method: str, path: str, body: bytes = b""):
        """One synchronous request on a fresh connection (set-up only)."""
        host, port = self.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request(method, path, body=body or None,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def metrics(self) -> Dict[str, Dict]:
        status, doc = self.request("GET", "/metrics")
        if status != 200:
            raise BenchError(f"GET /metrics answered {status}")
        return doc["metrics"]

    def cpu_seconds(self) -> float:
        """User + system CPU seconds of the daemon, all threads."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self, timeout: float = 20.0) -> List[str]:
        """SIGTERM, then require exit 0 and the drain line; kill on timeout."""
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return [f"daemon did not stop within {timeout}s of SIGTERM"]
        self._reader.join(timeout)
        if code != 0:
            problems.append(f"daemon exited {code}: " + " | ".join(self.lines[-5:]))
        if not any("drained and stopped" in line for line in self.lines):
            problems.append("daemon never printed 'drained and stopped'")
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(5)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Served:
    """What a set-up hands the traffic phase."""

    names: List[str]
    lookup_bodies: List[bytes]
    #: ``observe[fault][test]``: the advance body feeding that signature.
    observe: List[List[bytes]]
    outcome: PassOutcome


def build_served(spec: ServeSpec, path: Path) -> Served:
    """The set-up's build pass and its checks, then the request bodies,
    encoded from the rows the artifact stores."""
    outcome, loaded = one_pass(spec.build, 0, path, None, 0)
    table = loaded.table
    rows = [
        [list(table.signature(i, j)) for j in range(table.n_tests)]
        for i in range(table.n_faults)
    ]
    lookup_bodies = [
        json.dumps({"id": f"f{i}", "observed": row}).encode()
        for i, row in enumerate(rows)
    ]
    observe = [
        [json.dumps({"observations": [[j, sig]], "suggest": True, "limit": 0})
         .encode() for j, sig in enumerate(row)]
        for row in rows
    ]
    names = [str(fault) for fault in table.faults]
    return Served(names, lookup_bodies, observe, outcome)


def lookup_problem(status: int, doc: Dict, name: str) -> Optional[str]:
    if status != 200 or doc.get("code") != "ok":
        return f"lookup of {name}: HTTP {status} code={doc.get('code')}"
    if name not in doc.get("exact", ()):
        return f"lookup of {name}: not in exact {doc.get('exact')}"
    return None


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class Traffic:
    """Per-class samples and counts of one timed window."""

    rtt_ms: Dict[str, List[float]] = field(
        default_factory=lambda: {c: [] for c in CLASSES}
    )
    sent: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(CLASSES, 0))
    failed: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(CLASSES, 0))
    sessions: int = 0
    sessions_lost: int = 0
    session_steps: int = 0
    problems: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def requests(self) -> int:
        return sum(self.sent.values())

    @property
    def failures(self) -> int:
        return sum(self.failed.values()) + self.sessions_lost

    @property
    def completed_per_s(self) -> float:
        return sum(len(s) for s in self.rtt_ms.values()) / self.seconds

    @classmethod
    def merge(cls, windows: List["Traffic"]) -> "Traffic":
        """The samples and counts of several windows as one."""
        merged = cls()
        for window in windows:
            for c in CLASSES:
                merged.rtt_ms[c] += window.rtt_ms[c]
                merged.sent[c] += window.sent[c]
                merged.failed[c] += window.failed[c]
            merged.sessions += window.sessions
            merged.sessions_lost += window.sessions_lost
            merged.session_steps += window.session_steps
            merged.problems += window.problems
            merged.seconds += window.seconds
        return merged


class _Conn:
    def __init__(self, reader, writer, host: str) -> None:
        self.reader = reader
        self.writer = writer
        self.host = host

    async def call(self, method: str, path: str, body: bytes = b""):
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.writer.write(head + body)
        await self.writer.drain()
        header = await self.reader.readuntil(b"\r\n\r\n")
        status = int(header[9:12])
        marker = header.index(b"Content-Length:") + 15
        length = int(header[marker:header.index(b"\r\n", marker)])
        return status, json.loads(await self.reader.readexactly(length))


class Loop:
    """Two connections in one closed loop over a seeded unit stream."""

    def __init__(
        self,
        spec: ServeSpec,
        served: Served,
        address: Tuple[str, int],
        seed: int,
        recorder: SpanRecorder,
        tamper: Optional[Callable[[str, Dict], None]] = None,
    ) -> None:
        self.spec = spec
        self.served = served
        self.address = address
        self.rng = random.Random(seed)
        self.rec = recorder
        self.tamper = tamper
        self.units = 0

    async def run(self, seconds: float) -> Traffic:
        traffic = Traffic()
        host, port = self.address
        conns = []
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port)
            conns.append(_Conn(reader, writer, f"{host}:{port}"))
        start = time.perf_counter()
        soft, hard = start + seconds, start + 3 * seconds
        try:
            await asyncio.gather(*(
                self._client(conn, traffic, soft, hard) for conn in conns
            ))
        finally:
            traffic.seconds = time.perf_counter() - start
            for conn in conns:
                conn.writer.close()
                try:
                    await conn.writer.wait_closed()
                except ConnectionError:
                    pass
        return traffic

    def _enough(self, traffic: Traffic) -> bool:
        need = self.spec.min_samples
        return (len(traffic.rtt_ms["lookup"]) >= need
                and len(traffic.rtt_ms["advance"]) >= -(-need // SLICES))

    async def _client(self, conn: _Conn, traffic: Traffic, soft, hard) -> None:
        while True:
            now = time.perf_counter()
            if now >= hard or (now >= soft and self._enough(traffic)):
                return
            unit = self.units
            self.units += 1
            fault = self.rng.randrange(len(self.served.names))
            if self.rng.random() < LOOKUP_SHARE:
                await self._lookup(conn, traffic, unit, fault)
            else:
                await self._session(conn, traffic, unit, fault)

    async def _timed(self, conn, traffic, cls, parent, method, path, body=b""):
        traffic.sent[cls] += 1
        begin = time.perf_counter()
        try:
            status, doc = await conn.call(method, path, body)
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            traffic.failed[cls] += 1
            traffic.problems.append(f"{cls}: {type(exc).__name__}: {exc}")
            raise
        end = time.perf_counter()
        traffic.rtt_ms[cls].append((end - begin) * 1e3)
        self.rec.add(cls, begin, end, parent, request=traffic.sent[cls])
        if self.tamper is not None:
            self.tamper(cls, doc)
        return status, doc

    async def _lookup(self, conn, traffic, unit, fault) -> None:
        name = self.served.names[fault]
        with self.rec.span("unit.lookup", None, unit=unit, fault=name) as sid:
            status, doc = await self._timed(
                conn, traffic, "lookup", sid, "POST", "/v1/diagnose",
                self.served.lookup_bodies[fault],
            )
        problem = lookup_problem(status, doc, name)
        if problem:
            traffic.failed["lookup"] += 1
            traffic.problems.append(problem)

    async def _session(self, conn, traffic, unit, fault) -> None:
        name = self.served.names[fault]
        traffic.sessions += 1
        with self.rec.span("unit.session", None, unit=unit, fault=name) as sid:
            status, doc = await self._timed(
                conn, traffic, "open", sid, "POST", "/v1/sessions", b"{}"
            )
            if status != 201 or "session" not in doc:
                traffic.failed["open"] += 1
                traffic.problems.append(f"session open: HTTP {status} {doc}")
                return
            path = f"/v1/sessions/{doc['session']}"
            body = b'{"suggest": true, "limit": 0}'
            held = True
            for _ in range(STEP_CAP):
                status, doc = await self._timed(
                    conn, traffic, "advance", sid, "POST", path, body
                )
                if status != 200 or "candidates" not in doc:
                    traffic.failed["advance"] += 1
                    traffic.problems.append(f"advance: HTTP {status} {doc}")
                    break
                traffic.session_steps += 1
                if name not in doc["candidates"]:
                    traffic.failed["advance"] += 1
                    traffic.problems.append(f"session lost {name}")
                    held = False
                    break
                test = doc.get("suggested_test")
                if doc["report"]["converged"] or test is None:
                    break
                body = self.served.observe[fault][test]
            status, doc = await self._timed(
                conn, traffic, "close", sid, "DELETE", path
            )
            if status != 200:
                traffic.failed["close"] += 1
                traffic.problems.append(f"session close: HTTP {status} {doc}")
        if not held:
            traffic.sessions_lost += 1


def timer_delta(before: Dict, after: Dict, name: str) -> Tuple[float, int]:
    """``(seconds, count)`` a daemon timer gained between two snapshots."""
    empty = {"total": 0.0, "count": 0}
    a = after["timers"].get(name, empty)
    b = before["timers"].get(name, empty)
    return a["total"] - b["total"], a["count"] - b["count"]


def counter_delta(before: Dict, after: Dict, name: str) -> int:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


REJECTED = ("serve.daemon.rejected_overload", "serve.daemon.rejected_quota",
            "serve.daemon.rejected_draining")


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run_workload(
    spec: ServeSpec,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    tamper: Optional[Callable[[str, Dict], None]] = None,
):
    """Set up, drive the daemon for ``seconds``, shut down; returns
    ``(correct, attempted, failed, metrics, report_lines, recorder)``."""
    problems: List[str] = []
    setups, passes = [], []
    attempted = failed = 0

    def set_up(index: int) -> Tuple[Daemon, Served]:
        """Build and pack the artifact, spawn a daemon, check its first
        reply; records the set-up and build-pass seconds."""
        nonlocal attempted, failed
        path = workdir / f"serve{index}.rfd"
        served = build_served(spec, path)
        problems.extend(served.outcome.checks)
        if served.outcome.lookup_failures:
            problems.append(f"{served.outcome.lookup_failures} faults "
                            "missing from their own exact set")
        spawn = time.perf_counter()
        daemon = Daemon(path, workdir / f"spool{index}", WORKERS)
        try:
            daemon.wait_ready()
            status, doc = daemon.request("POST", "/v1/diagnose",
                                         served.lookup_bodies[0])
        except BaseException:
            daemon.kill()
            raise
        ready_s = time.perf_counter() - spawn
        attempted += 1
        first = lookup_problem(status, doc, served.names[0])
        if first:
            failed += 1
            problems.append(f"first reply: {first}")
        setups.append(served.outcome.seconds + ready_s)
        passes.append(served.outcome.seconds)
        return daemon, served

    # Set-ups run before each slice of the window and after the last one,
    # so that the set-up figures and the slices both span the run rather
    # than one moment of the host.  The first daemon serves every slice
    # and idles while later set-ups run.
    recorder = SpanRecorder(enabled=trace)
    windows: List[Traffic] = []
    cpu: List[float] = []  # daemon CPU seconds of each slice
    server: Optional[Daemon] = None
    try:
        for gap in range(SLICES + 1):
            for _ in range(spec.setups):
                daemon, fresh = set_up(len(setups))
                if gap == 0 and server is None:
                    server, served = daemon, fresh
                else:
                    problems.extend(daemon.stop())
            if gap == SLICES:
                break
            if gap == 0:
                loop = Loop(spec, served, server.address, seed, recorder,
                            tamper)
            # A traced run leaves its first slice untraced, so that it can
            # report its own tracing overhead; the rest feed the layer
            # split.
            loop.rec = recorder if trace and gap else SpanRecorder(enabled=False)
            if trace and gap == 1:
                before = server.metrics()
            cpu0 = server.cpu_seconds()
            windows.append(asyncio.run(loop.run(seconds / SLICES)))
            cpu.append(server.cpu_seconds() - cpu0)
            if gap == SLICES - 1:
                after, hwm = server.metrics(), server.vm_hwm_mb()
                problems.extend(server.stop())
                server = None
    finally:
        if server is not None:
            problems.extend(server.stop())

    for window in windows:
        attempted += window.requests
        failed += window.failures
        problems += window.problems[:20]
    rejected = sum(after["counters"].get(name, 0) for name in REJECTED)
    if rejected:
        problems.append(f"daemon rejected {rejected} requests")
    # The measured slices: all of them, or the traced ones.
    measured = windows[1:] if trace else windows
    traffic = Traffic.merge(measured)
    cpu_share = sum(cpu[len(windows) - len(measured):]) / traffic.seconds
    report = [
        f"setups={len(setups)} setup_s={[round(s, 3) for s in setups]} "
        f"set-up passes={[round(s, 3) for s in passes]}",
        f"window {traffic.seconds:.2f}s in {len(measured)} slices "
        f"units={loop.units} sessions={traffic.sessions} "
        f"steps={traffic.session_steps} daemon cpu_share={cpu_share:.3f} "
        f"VmHWM={hwm:.1f}MB",
    ]
    for cls in CLASSES:
        samples = traffic.rtt_ms[cls]
        sent, bad = traffic.sent[cls], traffic.failed[cls]
        line = f"  {cls:8} sent={sent} succeeded={sent - bad} failed={bad}"
        if samples:
            line += (f" samples={len(samples)} p50={percentile(samples, 50):.3f}ms"
                     f" p99={percentile(samples, 99):.3f}ms")
        report.append(line)
    for index, w in enumerate(windows):
        report.append(
            f"  slice {index}: {w.seconds:.2f}s {w.completed_per_s:.1f} req/s, "
            f"{len(w.rtt_ms['lookup'])} lookups "
            f"p50={percentile(w.rtt_ms['lookup'], 50):.3f}ms "
            f"p99={percentile(w.rtt_ms['lookup'], 99):.3f}ms"
        )
    report.extend(f"  CHECK FAILED: {msg}" for msg in problems)

    numbers = served.outcome.numbers
    if not trace:
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "pipeline_s": metric(min(passes), "s"),
            "peak_rss_mb": metric(hwm, "MB"),
            "sd_indist_pairs": metric(numbers["sd_p2"], "pairs"),
            "sd_bits": metric(numbers["sd_bits"], "bits"),
            "throughput_rps": metric(
                max(w.completed_per_s for w in windows), "1/s"
            ),
            "lookup_p50_ms": metric(
                min(percentile(w.rtt_ms["lookup"], 50) for w in windows), "ms"
            ),
            "lookup_p99_ms": metric(
                min(percentile(w.rtt_ms["lookup"], 99) for w in windows), "ms"
            ),
        }
    else:
        metrics, lines = traced_metrics(
            before, after, traffic, windows[0], served, cpu_share
        )
        report.extend(lines)
        nesting = recorder.check_nesting()
        failed += len(nesting)
        problems.extend(nesting)
        report.extend(f"  NESTING: {msg}" for msg in nesting)
    correct = not problems and failed == 0
    return correct, attempted, failed, metrics, report, recorder


def traced_metrics(before, after, traffic, plain, served, cpu_share):
    """The daemon's own timers, diffed across the traced window, split a
    lookup's round trip into transport, dispatch, serve and diagnose."""
    all_rtt = [ms for samples in traffic.rtt_ms.values() for ms in samples]
    rtt_mean = sum(all_rtt) / len(all_rtt)
    daemon_s, daemon_n = timer_delta(before, after, "serve.daemon.request_seconds")
    request_s, request_n = timer_delta(before, after, "serve.request_seconds")
    diagnose_s, diagnose_n = timer_delta(before, after, "serve.diagnose_seconds")
    dispatch_ms = daemon_s / daemon_n * 1e3
    request_ms = request_s / request_n * 1e3
    diagnose_ms = diagnose_s / diagnose_n * 1e3
    transport_ms = rtt_mean - dispatch_ms
    lookups = traffic.rtt_ms["lookup"]
    advances = traffic.rtt_ms["advance"]
    load = after["timers"].get("serve.load_seconds", {"total": 0.0})["total"]
    metrics = layer_metrics({
        "store.artifact_bytes": served.outcome.numbers["artifact_bytes"],
        "serve.daemon.transport_ms": transport_ms,
        "serve.daemon.dispatch_ms": dispatch_ms,
        "serve.daemon.cpu_share": cpu_share,
        "serve.daemon.rejected": sum(
            counter_delta(before, after, name) for name in REJECTED
        ),
        "serve.request_ms": request_ms,
        "serve.load_s": load,
        "serve.sessions": counter_delta(before, after, "serve.sessions"),
        "serve.session_steps": counter_delta(
            before, after, "serve.session_observations"
        ),
        "serve.advance_p50_ms": percentile(advances, 50),
        "serve.advance_p99_ms": percentile(advances, 99),
        "diagnosis.lookup_ms": diagnose_ms,
        "diagnosis.candidates_scored": counter_delta(
            before, after, "diagnosis.candidates_scored"
        ),
        "diagnosis.verify_ms": served.outcome.verify_ms,
    })
    lookup_mean = sum(lookups) / len(lookups)
    outside = lookup_mean - request_ms
    lines = [
        f"layer split of the traced window ({traffic.seconds:.2f}s, "
        f"{daemon_n} daemon requests, {request_n} lookups served):",
        f"  all requests: client round trip {rtt_mean:.3f}ms = transport "
        f"{transport_ms:.3f}ms + daemon dispatch {dispatch_ms:.3f}ms",
        f"  lookup: client round trip {lookup_mean:.3f}ms; serve.request "
        f"{request_ms:.3f}ms of which diagnose {diagnose_ms:.3f}ms",
        f"  lookup: daemon dispatch + transport = {outside:.3f}ms = "
        f"{outside / lookup_mean:.1%} of a {lookup_mean:.3f}ms lookup round trip",
        f"  lookup: diagnose = {diagnose_ms / lookup_mean:.1%}, serve outside "
        f"diagnose = {(request_ms - diagnose_ms) / lookup_mean:.1%} of it",
        f"  daemon cpu_share={cpu_share:.3f}  advance p50="
        f"{percentile(advances, 50):.3f}ms p99={percentile(advances, 99):.3f}ms "
        f"over {len(advances)} advances",
    ]
    if plain is not None and plain.rtt_ms["lookup"]:
        untraced = sum(plain.rtt_ms["lookup"]) / len(plain.rtt_ms["lookup"])
        lines.append(
            f"  tracing overhead: lookup mean {lookup_mean:.3f}ms traced - "
            f"{untraced:.3f}ms untraced = {lookup_mean - untraced:+.3f}ms"
        )
    return metrics, lines
