"""Pinned wire bytes: the ``repro-fd serve`` JSONL and the daemon bodies.

The fixture records, for one fixed request set over one fixed
``tests.util.random_table`` artifact, the exact text each entry point
writes:

* the stdout (and the stderr summary) of ``repro-fd serve``;
* the HTTP status and response body of the daemon's ``/v1/diagnose``,
  ``/v1/diagnose/batch`` and one session's open, advance and close.

The requests cover each outcome shape: a fault lookup, an ``observed=``
lookup, an ``observations=`` request with a ``strategy``, a
``max_faults=2`` request, an unparseable line, a wrong-schema line, an
unknown fault, a wrong test count and a missing artifact.  The JSONL
request file holds blank lines, so the ``line N:`` prefixes and the
``request-N`` default ids are pinned as well.

Four things vary from run to run and are normalised before the
comparison: ``elapsed_seconds`` is dropped, the temporary directory
becomes ``<tmp>``, the session id becomes ``<session>`` and an id the
daemon mints for a request without one becomes ``http-<id>``.

Regenerate deliberately after an *intended* wire change::

    PYTHONPATH=src python -m tests.serve.test_wire_golden --regen
"""

from __future__ import annotations

import http.client
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from repro.api import DictionaryConfig, build
from repro.cli import main
from repro.serve.daemon import DaemonConfig, start_in_thread
from repro.store import save_artifact
from tests.util import random_table

GOLDEN_PATH = Path(__file__).parent / "golden" / "wire.json"

#: The pinned artifact: a 24-fault, 10-test, 3-output random table.
N_FAULTS, N_TESTS, N_OUTPUTS, SEED, CALLS = 24, 10, 3, 5, 3

_ELAPSED = re.compile(r', "elapsed_seconds": [-+0-9.eE]+')
_MINTED_ID = re.compile(r'"http-[0-9a-f]{12}"')


def pack(directory: Path):
    table = random_table(N_FAULTS, N_TESTS, N_OUTPUTS, seed=SEED)
    built = build(table, config=DictionaryConfig(seed=SEED, calls1=CALLS))
    path = directory / "wire.rfd"
    save_artifact(built, path)
    return path, table


def request_docs(table, directory: Path):
    """``(name, document)`` pairs; a ``str`` document is sent verbatim."""
    row = [list(sig) for sig in table.full_row(5)]
    noisy = [list(sig) for sig in row]
    noisy[0] = [] if noisy[0] else [0]
    pair = [
        sorted(set(a) | set(b))
        for a, b in zip(table.full_row(1), table.full_row(2))
    ]
    observations = [[j, list(table.full_row(7)[j])] for j in range(3)]
    return [
        ("fault", {"id": "lookup", "fault": "f3/sa0"}),
        ("observed", {"id": "observed", "observed": noisy}),
        ("session", {"id": "steps", "observations": observations,
                     "strategy": "entropy"}),
        ("multiplet", {"id": "pair", "observed": pair, "max_faults": 2}),
        ("unparseable", "{not json"),
        ("wrong-schema", {"schema": 2, "id": "future", "fault": "f0/sa0"}),
        ("unknown-fault", {"id": "ghost", "fault": "f99/sa1"}),
        ("wrong-test-count", {"id": "short", "observed": [[0]]}),
        ("missing-artifact", {"id": "gone", "fault": "f0/sa0",
                              "artifact": str(directory / "missing.rfd")}),
        ("default-id", {"fault": "f1/sa0", "limit": 2}),
        ("no-flavour", {"limit": 1}),
    ]


def normalise(text: str, directory: Path, session: str = None) -> str:
    text = _ELAPSED.sub("", text).replace(str(directory), "<tmp>")
    text = _MINTED_ID.sub('"http-<id>"', text)
    if session is not None:
        text = text.replace(session, "<session>")
    return text


def serve_cli(directory: Path, artifact: Path, docs) -> dict:
    """``repro-fd serve`` over a request file with blank lines between."""
    lines = []
    for index, (_, doc) in enumerate(docs):
        lines.append(doc if isinstance(doc, str) else json.dumps(doc))
        if index in (1, 4):
            lines.append("")
    requests = directory / "requests.jsonl"
    requests.write_text("\n".join(lines) + "\n")
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["serve", str(requests), "--artifact", str(artifact)])
    return {
        "exit": code,
        "stdout": normalise(out.getvalue(), directory).splitlines(),
        "stderr": normalise(err.getvalue(), directory).splitlines(),
    }


def exchange(conn, method, path, body=None):
    data = None
    if body is not None:
        data = (body if isinstance(body, str) else json.dumps(body)).encode()
    conn.request(method, path, body=data)
    response = conn.getresponse()
    return response.status, response.read().decode()


def serve_daemon(directory: Path, artifact: Path, docs, table) -> list:
    """One exchange per request; returns the pinned transcript."""
    handle = start_in_thread(
        DaemonConfig(port=0, default_artifact=str(artifact))
    )
    transcript = []
    session = None

    def record(name, method, path, body=None):
        nonlocal session
        status, text = exchange(conn, method, path, body)
        if path == "/v1/sessions" and status == 201:
            session = json.loads(text)["session"]
        transcript.append({
            "name": name,
            "request": f"{method} {normalise(path, directory, session)}",
            "status": status,
            "body": normalise(text, directory, session),
        })

    try:
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        for name, doc in docs:
            record(name, "POST", "/v1/diagnose", doc)
        batch = [doc for _, doc in docs if not isinstance(doc, str)]
        record("batch", "POST", "/v1/diagnose/batch", {"requests": batch})
        record("batch-array", "POST", "/v1/diagnose/batch",
               [batch[0], "not an object", {"bogus": 1}])
        record("session-open", "POST", "/v1/sessions", {"stall_after": 2})
        observations = [[j, list(table.full_row(7)[j])] for j in range(2)]
        record("session-advance", "POST", f"/v1/sessions/{session}",
               {"observations": observations, "suggest": True,
                "strategy": "entropy", "limit": 3})
        record("session-query", "POST", f"/v1/sessions/{session}", {})
        record("session-close", "DELETE", f"/v1/sessions/{session}")
        conn.close()
    finally:
        handle.stop()
    return transcript


def compute() -> dict:
    with tempfile.TemporaryDirectory() as raw:
        directory = Path(raw)
        artifact, table = pack(directory)
        docs = request_docs(table, directory)
        return {
            "artifact": {
                "faults": N_FAULTS, "tests": N_TESTS, "outputs": N_OUTPUTS,
                "seed": SEED, "calls": CALLS,
            },
            "serve": serve_cli(directory, artifact, docs),
            "daemon": serve_daemon(directory, artifact, docs, table),
        }


@pytest.fixture(scope="module")
def wire():
    return compute()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_serve_cli_bytes_are_pinned(wire, golden):
    assert wire["artifact"] == golden["artifact"]
    assert wire["serve"] == golden["serve"]


def test_daemon_bodies_are_pinned(wire, golden):
    got = {entry["name"]: entry for entry in wire["daemon"]}
    want = {entry["name"]: entry for entry in golden["daemon"]}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: python -m tests.serve.test_wire_golden --regen")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
