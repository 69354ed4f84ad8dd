"""Eviction/reload correctness against the golden Table-6 cells.

The golden fixture (``tests/experiments/golden/table6_small.json``) pins
three (circuit, test-type) cells at ``seed=0, calls=5``.  Here those same
cells are packed into artifacts and served through a capacity-1 pool, so
every artifact switch evicts and every revisit reloads from bytes — and
every outcome must equal what a directly-constructed ``Diagnoser`` on the
freshly-built dictionary produces, every time.
"""

from __future__ import annotations

import pytest

from repro.api import DictionaryConfig, build
from repro.diagnosis.engine import Diagnoser
from repro.experiments.table6 import response_table_for
from repro.obs import scoped_registry
from repro.serve import DiagnoseRequest, DiagnosisServer, ServeConfig
from repro.store import save_artifact
from tests.experiments.test_golden import CALLS, CELLS, SEED
from tests.util import use_kernel


@pytest.fixture(scope="module")
def golden_artifacts(tmp_path_factory):
    """The three golden cells, built once and packed to disk."""
    root = tmp_path_factory.mktemp("golden-serve")
    cells = {}
    for circuit, test_type in CELLS:
        _, table = response_table_for(circuit, test_type, SEED)
        built = build(table, config=DictionaryConfig(seed=SEED, calls1=CALLS))
        path = root / f"{circuit}-{test_type}.rfd"
        save_artifact(built, path)
        cells[(circuit, test_type)] = (path, built)
    return cells


def sample_fault_names(built, count=4):
    faults = built.table.faults
    step = max(1, len(faults) // count)
    return [str(faults[i]) for i in range(0, len(faults), step)][:count]


def test_capacity_one_pool_serves_golden_cells_bit_for_bit(golden_artifacts):
    # Direct, pool-free reference results from the in-memory builds.
    reference = {}
    for cell, (path, built) in golden_artifacts.items():
        diagnoser = Diagnoser(built.dictionary)
        for name in sample_fault_names(built):
            index = [str(f) for f in built.table.faults].index(name)
            observed = list(built.table.full_row(index))
            diagnosis = diagnoser.diagnose(observed, limit=10)
            reference[(cell, name)] = (
                [str(f) for f in diagnosis.exact],
                [(str(f), score) for f, score in diagnosis.ranked],
            )

    # Round-robin over the cells with a capacity-1 pool: every request
    # after the first switch reloads its artifact from disk.
    requests = []
    for round_index in range(2):
        for cell, (path, built) in golden_artifacts.items():
            for name in sample_fault_names(built):
                requests.append((cell, name, DiagnoseRequest(
                    request_id=f"{cell[0]}/{cell[1]}/{name}/{round_index}",
                    fault=name,
                    artifact=str(path),
                )))

    with scoped_registry() as registry:
        server = DiagnosisServer(ServeConfig(pool_size=1))
        outcomes = server.diagnose_batch([req for _, _, req in requests])
        evictions = registry.counters["serve.pool_evictions"].value
        misses = registry.counters["serve.pool_misses"].value
    assert evictions > 0, "capacity-1 pool over 3 artifacts must evict"
    assert misses > len(golden_artifacts), "revisits must reload, not hit"

    for (cell, name, request), outcome in zip(requests, outcomes):
        assert outcome.code == "ok", (cell, name, outcome.detail)
        exact, ranked = reference[(cell, name)]
        assert outcome.exact == tuple(exact), (cell, name)
        assert outcome.ranked == tuple(ranked), (cell, name)
        assert name in outcome.exact  # the injected fault names itself


def test_naive_backend_builds_and_serves_identical_cells(golden_artifacts, tmp_path):
    """The kernel used to *build* must be invisible at serve time.

    Each golden cell is rebuilt with the naive oracle swapped in for the
    production kernel, packed, and served — the artifacts' dictionaries
    and every served outcome must equal the production build's.
    """
    leg = "naive"
    for cell in CELLS:
        circuit, test_type = cell
        _, table = response_table_for(circuit, test_type, SEED)
        config = DictionaryConfig(seed=SEED, calls1=CALLS)
        with use_kernel(leg):
            rebuilt = build(table, config=config)
        _, reference = golden_artifacts[cell]
        assert rebuilt.dictionary.baselines == reference.dictionary.baselines, leg
        path = tmp_path / f"{circuit}-{test_type}-{leg}.rfd"
        save_artifact(rebuilt, path)

        names = sample_fault_names(reference)
        diagnoser = Diagnoser(reference.dictionary)
        server = DiagnosisServer(
            ServeConfig(pool_size=1), default_artifact=str(path)
        )
        outcomes = server.diagnose_batch(
            [DiagnoseRequest(request_id=name, fault=name) for name in names]
        )
        for name, outcome in zip(names, outcomes):
            assert outcome.code == "ok", (leg, cell, name, outcome.detail)
            index = [str(f) for f in reference.table.faults].index(name)
            want = diagnoser.diagnose(
                list(reference.table.full_row(index)), limit=10
            )
            assert outcome.exact == tuple(
                str(f) for f in want.exact
            ), (leg, name)
            assert outcome.ranked == tuple(
                (str(f), score) for f, score in want.ranked
            ), (leg, name)


def test_daemon_serves_golden_cells_over_a_real_socket(golden_artifacts):
    """The network daemon must not perturb a single golden bit.

    Every sampled fault of every golden cell is diagnosed twice — by a
    direct ``Diagnoser`` on the in-memory build, and through the asyncio
    daemon over a real localhost socket — and the exact/ranked lists
    must agree pair for pair.
    """
    import http.client
    import json

    from repro.serve.daemon import DaemonConfig, start_in_thread

    handle = start_in_thread(DaemonConfig(port=0, workers=2))
    try:
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        for cell, (path, built) in golden_artifacts.items():
            diagnoser = Diagnoser(built.dictionary)
            for name in sample_fault_names(built):
                index = [str(f) for f in built.table.faults].index(name)
                want = diagnoser.diagnose(
                    list(built.table.full_row(index)), limit=10
                )
                conn.request(
                    "POST", "/v1/diagnose",
                    body=json.dumps({
                        "id": name, "fault": name, "artifact": str(path),
                    }).encode(),
                )
                response = conn.getresponse()
                doc = json.loads(response.read().decode())
                assert response.status == 200, (cell, name, doc)
                assert doc["code"] == "ok", (cell, name, doc)
                assert doc["exact"] == [str(f) for f in want.exact], (cell, name)
                assert doc["ranked"] == [
                    [str(f), score] for f, score in want.ranked
                ], (cell, name)
        conn.close()
    finally:
        handle.stop()


def test_reloads_are_stable_across_runs(golden_artifacts):
    (path, built) = golden_artifacts[CELLS[0]]
    names = sample_fault_names(built)
    batches = []
    for _ in range(2):
        with scoped_registry():
            server = DiagnosisServer(
                ServeConfig(pool_size=1),
                default_artifact=str(path),
            )
            outcomes = server.diagnose_batch([
                DiagnoseRequest(request_id=name, fault=name)
                for name in names
            ])
        batches.append([
            (o.request_id, o.code, tuple(o.exact), tuple(o.ranked))
            for o in outcomes
        ])
    assert batches[0] == batches[1]
