"""Overhead bound for the always-on instrumentation.

The acceptance contract of the observability layer: with no exporters
attached (the default no-op tracer and the plain in-memory registry),
the same/different build must stay within 5% of its un-instrumented wall
time.  The un-instrumented reference is the same code under a
:class:`~repro.obs.NullRegistry`, whose instruments discard everything —
the only difference between the two runs is the registry flush work the
instrumentation adds.

Runs are interleaved and the per-mode minimum is compared, which washes
out machine noise far better than single-shot timing.  A shared host
switches between fast and slow states for seconds at a time, though, and
one mode's minimum can come from a moment the other mode never saw: a
min-of-5 ratio of 1.127 was seen with the program unchanged, and even
30 s of interleaved rounds put the ratio of the minima anywhere from
0.88 to 1.06.  So the rounds are cut into blocks of a few seconds, each
block's minima are compared within the block, and the gate reads the
median block ratio.
"""

import gc
import statistics
import time

from benchmarks.util import build_sd
from repro.experiments.table6 import response_table_for
from repro.obs import disabled, scoped_registry

# Not shrunk in quick mode: the 5% bound needs many short interleaved
# rounds to wash out scheduler noise.  A build takes ~0.1 s, so a block
# holds 20-30 rounds.  Over 110 s of recorded rounds, the median of six
# 5 s blocks stayed within 0.97-1.02.
BLOCKS = 6
BLOCK_SECONDS = 5.0
MIN_BLOCK_ROUNDS = 3
CALLS = 20
TOLERANCE = 1.05


def _timed_build(table, mode, case):
    """One build under ``mode``, recorded on ``case``; returns its wall time."""
    gc.collect()
    with mode():
        cpu, wall = time.process_time(), time.perf_counter()
        build_sd(table, calls=CALLS, seed=0)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    case.record(wall, cpu)
    return wall


def _block_ratio(table, instrumented_case, plain_case):
    """Interleave the two modes for one block, swapping which goes first
    each round; returns the ratio of the block's per-mode minima."""
    modes = [(scoped_registry, instrumented_case), (disabled, plain_case)]
    best = {}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_BLOCK_ROUNDS or time.perf_counter() - start < BLOCK_SECONDS:
        for mode, case in modes if rounds % 2 == 0 else modes[::-1]:
            wall = _timed_build(table, mode, case)
            best[case.name] = min(best.get(case.name, wall), wall)
        rounds += 1
    return best[instrumented_case.name] / best[plain_case.name]


def test_instrumentation_overhead_is_bounded(bench):
    _, table = response_table_for("p208", "diag", 0)
    # Warm-up outside the measurement: first-touch costs (caches) hit
    # whichever mode runs first otherwise.
    build_sd(table, calls=CALLS, seed=0)

    instrumented_case = bench.case("instrumented", calls1=CALLS)
    plain_case = bench.case("null_registry", calls1=CALLS)
    ratios = [
        _block_ratio(table, instrumented_case, plain_case) for _ in range(BLOCKS)
    ]
    ratio = statistics.median(ratios)
    instrumented_case.info(
        overhead_ratio=round(ratio, 4),
        block_ratios=[round(r, 4) for r in ratios],
    )
    instrumented_case.gate("overhead_ratio", ratio, higher_is_better=False,
                           tolerance=0.1)
    print(
        f"\nobs overhead: median block ratio {ratio:.3f} over {BLOCKS} blocks "
        f"({', '.join(f'{r:.3f}' for r in ratios)}); best instrumented "
        f"{instrumented_case.wall_seconds:.4f}s vs plain "
        f"{plain_case.wall_seconds:.4f}s"
    )
    assert ratio <= TOLERANCE, (
        f"instrumentation overhead {100 * (ratio - 1):.1f}% exceeds "
        f"{100 * (TOLERANCE - 1):.0f}%"
    )
