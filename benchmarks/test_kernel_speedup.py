"""Speedup benchmark for the packed kernel backend.

Times the candidate-scoring inner loop of Procedure 1 — the part the
packed backend exists to accelerate — on the 10-detect cells of the
sweep, naive vs packed, proving along the way that both backends return
bit-identical :class:`Procedure1Run` results.  Scoring time is taken
from the ``timings`` hook both backends expose: each accumulates the
wall-clock of its dist(z) computation under ``timings["scoring"]``, so
the comparison excludes the (shared) selection/cutoff bookkeeping and
the packed backend's one-off interning cost, which is reported
separately via the ``kernel.pack_seconds`` / ``kernel.tables_packed``
metrics.  On these many-test cells packed scores most tests in its
class-major phase, so this half keeps that phase gated.

Rounds are interleaved (naive, packed, naive, packed, …) and the
per-backend minimum is kept, so background CPU drift hits both sides
alike.  Full mode sweeps the first five circuits of the default sweep
(all of them with ``REPRO_FULL_SWEEP=1``) and asserts a geometric-mean
speedup of ≥3× with every circuit ≥1.5×; ``REPRO_BENCH_QUICK=1`` (the
CI setting) times only p208 and asserts ≥1.5×.  The measured per-circuit
ratio is regression-gated against the committed baseline through
``BENCH_kernel_speedup.json``.

The second half times whole ``procedure1`` calls, packed against naive,
on large synthetic tables (``tests.util.random_table``), where packed
scores mostly entry-major.  The timer wraps the *whole* call rather than
``timings["scoring"]``: the entry-major phase folds its split
bookkeeping into the same counts it scores from, so whole-call wall
time is the only honest common denominator.  Quick mode runs one
4 000-fault workload; full mode adds an 8 000-fault one.  Each floor
sits well under the ratios measured on a 2-vCPU host (noted beside the
workloads), and the measured ratio is regression-gated.
"""

from __future__ import annotations

import math
import time

import pytest

from benchmarks.util import full_sweep, pick, quick_mode
from repro.experiments.table6 import DEFAULT_CIRCUITS, response_table_for
from repro.kernels import PackedBackend
from repro.kernels.interning import intern_response_table
from repro.kernels.naive import NaiveBackend
from repro.obs import scoped_registry

ROUNDS = pick(3, 2)
LOWER = 10
#: Per-circuit floor and sweep-wide geometric-mean floor (full mode).
MIN_EACH = 1.5
MIN_GEOMEAN = 3.0

#: Synthetic whole-``procedure1`` workloads, packed against naive:
#: (name, n_faults, n_tests, n_outputs, density, speedup floor).
#: Measured on a 2-vCPU host: rand4000 5.1–10×, rand8000 7.7–15.6×,
#: depending on the host's load state.
SYNTHETIC_WORKLOADS_QUICK = [("rand4000", 4000, 100, 4, 0.10, 3.0)]
SYNTHETIC_WORKLOADS_FULL = [
    ("rand4000", 4000, 100, 4, 0.10, 3.0),
    ("rand8000", 8000, 160, 4, 0.06, 4.0),
]


def _bench_circuits():
    if quick_mode():
        return ["p208"]
    if full_sweep():
        return list(DEFAULT_CIRCUITS)
    return list(DEFAULT_CIRCUITS)[:5]


@pytest.fixture(scope="module", params=_bench_circuits())
def tenDetect_table(request):
    _, table = response_table_for(request.param, "10det", 0)
    return request.param, table


def _run_tuple(run):
    return (run.baselines, run.distinguished, run.evaluated, run.cutoffs,
            run.winners)


def _scoring_seconds(backend, table):
    timings = {}
    run = backend.procedure1(table, range(table.n_tests), LOWER, timings)
    return timings["scoring"], run


def test_kernel_scoring_speedup(bench, tenDetect_table):
    circuit, table = tenDetect_table
    naive = NaiveBackend()
    packed = PackedBackend()

    # Pay (and measure) the packed backend's interning overhead outside
    # the timed rounds; it is a per-table one-off, not a scoring cost.
    with scoped_registry() as registry:
        intern_response_table(table)
        table.interned  # materialise the cache used by the timed runs
        snapshot = registry.snapshot()
    pack_seconds = snapshot["timers"]["kernel.pack_seconds"]["total"]
    tables_packed = snapshot["counters"]["kernel.tables_packed"]

    naive_case = bench.case(f"naive[{circuit}]", circuit=circuit, backend="naive")
    packed_case = bench.case(f"packed[{circuit}]", circuit=circuit,
                             backend="packed")
    naive_best = math.inf
    packed_best = math.inf
    for _ in range(ROUNDS):
        naive_seconds, naive_run = _scoring_seconds(naive, table)
        packed_seconds, packed_run = _scoring_seconds(packed, table)
        # The differential half of the claim: identical output, always.
        assert _run_tuple(packed_run) == _run_tuple(naive_run)
        naive_case.record(naive_seconds)
        packed_case.record(packed_seconds)
        naive_best = min(naive_best, naive_seconds)
        packed_best = min(packed_best, packed_seconds)

    ratio = naive_best / packed_best if packed_best else math.inf
    _RATIOS[circuit] = ratio
    packed_case.info(
        pack_seconds=pack_seconds, tables_packed=tables_packed,
        faults=table.n_faults, tests=table.n_tests,
    )
    packed_case.gate("speedup_vs_naive", ratio, higher_is_better=True,
                     tolerance=0.35)
    print(
        f"\n[kernel-speedup] {circuit} 10det: naive={naive_best * 1e3:.1f}ms "
        f"packed={packed_best * 1e3:.1f}ms speedup={ratio:.2f}x "
        f"(pack={pack_seconds * 1e3:.1f}ms tables_packed={tables_packed}, "
        f"faults={table.n_faults}, tests={table.n_tests})"
    )

    floor = MIN_EACH
    assert ratio >= floor, (
        f"{circuit}: packed scoring only {ratio:.2f}x faster than naive "
        f"(floor {floor}x)"
    )


#: circuit -> measured ratio, filled per-param and summarised at the end.
_RATIOS = {}


def test_kernel_speedup_geomean(bench):
    """Full mode only: the sweep-wide claim of the kernel layer is ≥3×."""
    if quick_mode():
        pytest.skip("quick mode times a single circuit; no geomean to assert")
    assert _RATIOS, "per-circuit bench must run first"
    geomean = math.exp(
        sum(math.log(r) for r in _RATIOS.values()) / len(_RATIOS)
    )
    case = bench.case("geomean", circuits=len(_RATIOS))
    case.info({c: round(r, 3) for c, r in sorted(_RATIOS.items())})
    case.gate("geomean_speedup", geomean, higher_is_better=True, tolerance=0.35)
    print(
        f"\n[kernel-speedup] geomean over {len(_RATIOS)} circuits: "
        f"{geomean:.2f}x "
        + " ".join(f"{c}={r:.2f}x" for c, r in sorted(_RATIOS.items()))
    )
    assert geomean >= MIN_GEOMEAN, (
        f"geomean speedup {geomean:.2f}x below the {MIN_GEOMEAN}x floor"
    )


def _synthetic_workloads():
    if quick_mode():
        return SYNTHETIC_WORKLOADS_QUICK
    return SYNTHETIC_WORKLOADS_FULL


@pytest.fixture(scope="module", params=_synthetic_workloads(),
                ids=lambda spec: spec[0])
def synthetic_table(request):
    from tests.util import random_table

    name, n_faults, n_tests, n_outputs, density, floor = request.param
    table = random_table(n_faults, n_tests, n_outputs, seed=0,
                         density=density)
    return name, table, floor


def test_procedure1_speedup_vs_naive(bench, synthetic_table):
    name, table, floor = synthetic_table
    naive = NaiveBackend()
    packed = PackedBackend()

    # Both backends' one-off preparation happens outside the timed
    # rounds: packed's interning, and the per-test signature groups the
    # naive path caches on the table during its first call.
    order = range(table.n_tests)
    packed.prepare(table)
    naive.procedure1(table, order, LOWER)

    naive_case = bench.case(f"naive[{name}]", workload=name, backend="naive")
    packed_case = bench.case(f"packed[{name}]", workload=name,
                             backend="packed")
    naive_best = math.inf
    packed_best = math.inf
    for _ in range(ROUNDS):
        start = time.perf_counter()
        naive_run = naive.procedure1(table, order, LOWER)
        naive_seconds = time.perf_counter() - start
        start = time.perf_counter()
        packed_run = packed.procedure1(table, order, LOWER)
        packed_seconds = time.perf_counter() - start
        # The differential half of the claim: identical output, always.
        assert _run_tuple(packed_run) == _run_tuple(naive_run)
        naive_case.record(naive_seconds)
        packed_case.record(packed_seconds)
        naive_best = min(naive_best, naive_seconds)
        packed_best = min(packed_best, packed_seconds)

    ratio = naive_best / packed_best if packed_best else math.inf
    packed_case.info(faults=table.n_faults, tests=table.n_tests, floor=floor)
    packed_case.gate("procedure1_speedup_vs_naive", ratio,
                     higher_is_better=True, tolerance=0.35)
    print(
        f"\n[kernel-speedup] {name}: naive={naive_best * 1e3:.1f}ms "
        f"packed={packed_best * 1e3:.1f}ms speedup={ratio:.2f}x "
        f"(floor {floor}x, faults={table.n_faults}, tests={table.n_tests})"
    )
    assert ratio >= floor, (
        f"{name}: packed procedure1 only {ratio:.2f}x faster than naive "
        f"(floor {floor}x)"
    )
