"""Benchmark for the asyncio daemon: sustained RPS and tail latency.

The daemon's claim is that the HTTP front end adds a bounded, small cost
over the in-process serve layer: a handful of persistent keep-alive
clients must sustain at least ``MIN_RPS`` requests per second against a
warm artifact over a real localhost socket, with a p99 latency below
``MAX_P99_MS``.

Every response is cross-checked against a directly-constructed
``Diagnoser`` on the same build before any timing is trusted, so the
numbers can never come from a daemon that is fast because it is wrong.
``REPRO_BENCH_QUICK=1`` (the CI setting) shrinks the request count;
per-round minimum over ``ROUNDS`` keeps the usual noise discipline.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time

import pytest

from benchmarks.util import pick
from repro.api import DictionaryConfig, build
from repro.diagnosis.engine import Diagnoser
from repro.experiments.table6 import response_table_for
from repro.serve import ServeConfig
from repro.serve.daemon import DaemonConfig, start_in_thread
from repro.store import save_artifact

ROUNDS = pick(3, 2)
REQUESTS = pick(240, 48)
CLIENTS = pick(4, 2)
CALLS = 5
#: Sustained-throughput floor (requests/second) and tail-latency ceiling
#: for the hard asserts below; the recorded gates track the real numbers
#: against the committed baseline with their own tolerances.
MIN_RPS = 40.0
MAX_P99_MS = 250.0


@pytest.fixture(scope="module")
def daemon_cell(tmp_path_factory):
    """A packed p208 cell plus a running daemon warmed on it."""
    _, table = response_table_for("p208", "diag", 0)
    built = build(table, config=DictionaryConfig(seed=0, calls1=CALLS))
    path = tmp_path_factory.mktemp("daemon-bench") / "p208.rfd"
    save_artifact(built, path)
    handle = start_in_thread(DaemonConfig(
        port=0,
        default_artifact=str(path),
        serve=ServeConfig(pool_size=2),
        workers=4,
        max_inflight=2 * CLIENTS,
    ))
    try:
        yield handle, built
    finally:
        handle.stop()


def payloads(built):
    """Pre-encoded request bodies: fault-mode lookups over the catalogue."""
    n_faults = built.table.n_faults
    bodies = []
    for i in range(REQUESTS):
        name = str(built.table.faults[(i * 13) % n_faults])
        bodies.append((name, json.dumps(
            {"id": f"r{i}", "fault": name}
        ).encode("ascii")))
    return bodies


def drive(handle, bodies):
    """One sustained round: ``CLIENTS`` persistent keep-alive connections.

    Each client thread owns one ``http.client.HTTPConnection`` and posts
    its share of ``bodies`` back to back.  Returns the merged per-request
    latencies (seconds) and ``(fault, code, exact)`` result rows.
    """
    latencies = [[] for _ in range(CLIENTS)]
    results = [[] for _ in range(CLIENTS)]
    errors = []

    def client(slot):
        conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=30
        )
        try:
            for name, body in bodies[slot::CLIENTS]:
                begin = time.perf_counter()
                conn.request("POST", "/v1/diagnose", body=body)
                response = conn.getresponse()
                doc = json.loads(response.read().decode("utf-8"))
                latencies[slot].append(time.perf_counter() - begin)
                if response.status != 200:
                    raise AssertionError(f"HTTP {response.status}: {doc}")
                results[slot].append((name, doc["code"], doc["exact"]))
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return (
        [sample for per_client in latencies for sample in per_client],
        [row for per_client in results for row in per_client],
    )


def p99_ms(latencies):
    ordered = sorted(latencies)
    index = max(0, math.ceil(0.99 * len(ordered)) - 1)
    return ordered[index] * 1e3


def test_daemon_sustained_throughput(bench, daemon_cell):
    handle, built = daemon_cell
    bodies = payloads(built)

    # Correctness before speed: every response over the socket must equal
    # the direct in-memory diagnosis for its injected fault.
    diagnoser = Diagnoser(built.dictionary)
    names = [str(f) for f in built.table.faults]
    _, rows = drive(handle, bodies)  # also warms the pool for the timing
    assert len(rows) == REQUESTS
    for name, code, exact in rows:
        assert code == "ok", (name, code)
        want = diagnoser.diagnose(
            list(built.table.full_row(names.index(name))), limit=10
        )
        assert exact == [str(f) for f in want.exact], name

    case = bench.case("daemon_sustained", requests=REQUESTS, clients=CLIENTS)
    case.iterations(REQUESTS)
    best_p99 = math.inf
    for _ in range(ROUNDS):
        with case.measure():
            latencies, rows = drive(handle, bodies)
        assert all(code == "ok" for _, code, _ in rows)
        best_p99 = min(best_p99, p99_ms(latencies))

    wall = case.wall_seconds
    rps = REQUESTS / wall if wall else math.inf
    case.info(p99_ms=round(best_p99, 2))
    case.gate("rps", rps, higher_is_better=True, tolerance=0.6)
    case.gate("p99_ms", best_p99, higher_is_better=False, tolerance=1.5)
    print(
        f"\n[daemon-bench] p208 diag x{REQUESTS} over {CLIENTS} clients: "
        f"wall={wall * 1e3:.1f}ms rps={rps:.0f} p99={best_p99:.1f}ms"
    )
    assert rps >= MIN_RPS, (
        f"daemon sustained only {rps:.0f} req/s (floor {MIN_RPS})"
    )
    assert best_p99 <= MAX_P99_MS, (
        f"daemon p99 {best_p99:.1f}ms above ceiling {MAX_P99_MS}ms"
    )
