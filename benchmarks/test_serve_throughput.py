"""Benchmark for the serve layer: warm-pool batches vs one-shot diagnosis.

The serving layer exists so a stream of failing-chip lookups does not pay
the artifact load per request.  This bench measures the claim: a batch
driven through a warm :class:`DiagnosisServer` must process requests at
least ``MIN_SPEEDUP``× faster than the one-shot flow — where each request
constructs its own ``Diagnoser.from_artifact`` the way the ``diagnose``
CLI command does.

Both sides serve the identical request list against the identical
artifact bytes, and the outcomes are cross-checked against the one-shot
results before any timing is trusted.  ``REPRO_BENCH_QUICK=1`` (the CI
setting) shrinks the batch; per-side minimum over ``ROUNDS`` keeps the
usual noise discipline.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.util import pick
from repro.api import DictionaryConfig, build
from repro.diagnosis.engine import Diagnoser
from repro.experiments.table6 import response_table_for
from repro.obs import scoped_registry
from repro.serve import DiagnoseRequest, DiagnosisServer, ServeConfig
from repro.store import save_artifact

ROUNDS = pick(3, 2)
REQUESTS = pick(200, 40)
CALLS = 5
MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def packed_cell(tmp_path_factory):
    _, table = response_table_for("p208", "diag", 0)
    built = build(table, config=DictionaryConfig(seed=0, calls1=CALLS))
    path = tmp_path_factory.mktemp("serve-bench") / "p208.rfd"
    save_artifact(built, path)
    return path, built


def request_list(built):
    n_faults = built.table.n_faults
    return [
        DiagnoseRequest(
            request_id=f"r{i}",
            fault=str(built.table.faults[(i * 13) % n_faults]),
        )
        for i in range(REQUESTS)
    ]


def one_shot_results(path, built, requests):
    """The CLI-style flow: every request loads its own diagnoser."""
    results = []
    for request in requests:
        diagnoser = Diagnoser.from_artifact(path)
        index = [str(f) for f in built.table.faults].index(request.fault)
        observed = list(built.table.full_row(index))
        diagnosis = diagnoser.diagnose(observed, limit=request.limit)
        results.append((request.request_id, [str(f) for f in diagnosis.exact]))
    return results


def test_warm_pool_batch_throughput(bench, packed_cell):
    path, built = packed_cell
    requests = request_list(built)

    with scoped_registry():
        server = DiagnosisServer(
            ServeConfig(pool_size=2),
            default_artifact=str(path),
        )
        server.pool.get(path)  # warm the pool: steady-state serving
        outcomes = server.diagnose_batch(requests)
    # Correctness before speed: batch results equal the one-shot flow.
    expected = one_shot_results(path, built, requests)
    assert [(o.request_id, list(o.exact)) for o in outcomes] == expected
    assert all(o.code == "ok" for o in outcomes)

    one_shot_case = bench.case("one_shot", requests=REQUESTS)
    batch_case = bench.case("warm_pool_batch", requests=REQUESTS)
    one_shot_case.iterations(REQUESTS)
    batch_case.iterations(REQUESTS)
    for _ in range(ROUNDS):
        with one_shot_case.measure():
            one_shot_results(path, built, requests)

        with scoped_registry() as registry:
            server = DiagnosisServer(
                ServeConfig(pool_size=2),
                default_artifact=str(path),
            )
            server.pool.get(path)
            with batch_case.measure():
                server.diagnose_batch(requests)
            # Warm pool: the batch must never reload the artifact.
            assert registry.counter("serve.pool_misses").value == 1
            assert registry.counter("serve.pool_hits").value == REQUESTS

    sequential_best = one_shot_case.wall_seconds
    batch_best = batch_case.wall_seconds
    ratio = sequential_best / batch_best if batch_best else math.inf
    per_request = batch_best / REQUESTS * 1e6
    batch_case.info(us_per_request=round(per_request, 1))
    batch_case.gate("speedup_vs_one_shot", ratio, higher_is_better=True,
                    tolerance=0.35)
    print(
        f"\n[serve-bench] p208 diag x{REQUESTS}: "
        f"one-shot={sequential_best * 1e3:.1f}ms "
        f"batch={batch_best * 1e3:.1f}ms ({per_request:.0f}us/req) "
        f"speedup={ratio:.1f}x"
    )
    assert ratio >= MIN_SPEEDUP, (
        f"warm-pool batch only {ratio:.1f}x faster than one-shot diagnosis "
        f"(floor {MIN_SPEEDUP}x)"
    )
