"""Batch outcomes must not depend on pool churn or load retries."""

from __future__ import annotations

import json

from repro.obs import scoped_registry
from repro.serve import ArtifactPool, DiagnosisServer, ServeConfig
from repro.store import ArtifactFormatError, load_artifact


def build_batch(artifacts):
    """A mixed batch spanning three artifacts and every request flavour."""
    lines = []
    for round_index in range(3):
        for letter, (path, built) in artifacts.items():
            table = built.table
            fault_index = (round_index * 7 + ord(letter)) % table.n_faults
            lines.append(json.dumps({
                "id": f"{letter}-fault-{round_index}",
                "fault": f"f{fault_index}/sa0",
                "artifact": str(path),
            }))
            lines.append(json.dumps({
                "id": f"{letter}-observed-{round_index}",
                "observed": [list(sig) for sig in table.full_row(fault_index)],
                "artifact": str(path),
            }))
            row = table.full_row(fault_index)
            lines.append(json.dumps({
                "id": f"{letter}-session-{round_index}",
                "observations": [[j, list(row[j])] for j in range(4)],
                "artifact": str(path),
            }))
    # Degraded flavours ride along: they must not perturb their neighbours.
    lines.append('{"id": "bad", "fault": 3}')
    lines.append(json.dumps({
        "id": "unmodeled", "observed": [[0]],
        "artifact": str(next(iter(artifacts.values()))[0]),
    }))
    return lines


def canonical(outcomes):
    """Outcome dicts minus wall-clock noise."""
    docs = []
    for outcome in outcomes:
        doc = outcome.as_dict()
        doc.pop("elapsed_seconds")
        docs.append(doc)
    return docs


class TestWorkerCountInvariance:
    def test_repeat_runs_are_stable_under_pool_churn(
        self, artifact_a, artifact_b, artifact_c
    ):
        # pool_size=1 forces an eviction on nearly every artifact switch;
        # reloads must not change a single outcome.
        artifacts = {"a": artifact_a, "b": artifact_b, "c": artifact_c}
        lines = build_batch(artifacts)
        runs = []
        for _ in range(2):
            with scoped_registry() as registry:
                server = DiagnosisServer(ServeConfig(pool_size=1))
                runs.append(canonical(server.serve_jsonl(lines)))
                assert registry.counters["serve.pool_evictions"].value > 0
        assert runs[0] == runs[1]

    def test_flaky_loader_retries_do_not_change_results(self, artifact_a):
        # A loader that fails every other call: retried requests must end
        # with the same diagnosis as an unfaulted server.
        path, built = artifact_a
        lines = [
            json.dumps({"id": f"r{i}", "fault": f"f{i}/sa0"})
            for i in range(6)
        ]

        with scoped_registry():
            clean = DiagnosisServer(
                ServeConfig(),
                default_artifact=str(path),
            )
            expected = canonical(clean.serve_jsonl(lines))

        state = {"calls": 0}

        def flaky_loader(p):
            state["calls"] += 1
            if state["calls"] % 2 == 1:
                raise ArtifactFormatError("every other call flakes")
            return load_artifact(p)

        with scoped_registry():
            pool = ArtifactPool(1, loader=flaky_loader)
            flaky = DiagnosisServer(
                ServeConfig(pool_size=1, max_retries=2,
                            retry_backoff_ms=0.001),
                default_artifact=str(path),
                pool=pool,
            )
            # Evict between requests so every request reloads through the
            # flaky path.
            got = []
            for line in lines:
                got.extend(flaky.serve_jsonl([line]))
                pool.clear()
        got = canonical(got)
        for want, have in zip(expected, got):
            assert have["code"] == "ok"
            assert have["exact"] == want["exact"]
            assert have["ranked"] == want["ranked"]
            assert have["attempts"] == 2  # one flake, one success
