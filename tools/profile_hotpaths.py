#!/usr/bin/env python
"""Profile the hot paths of each pipeline area with cProfile.

Every future optimization PR should start from a named hot path, not a
guess.  This harness runs one representative workload per area —

* ``build``     — same/different construction (Procedures 1 + 2),
* ``kernels``   — the packed backend's candidate-scoring sweep,
* ``parallel``  — the restart scheduler with ``jobs=2`` (worker-process
                  internals run out-of-process and are profiled via the
                  ``kernels``/``build`` areas instead),
* ``partition`` — the in-place refinement loop: Procedure 1 over a
                  caller-seeded ``FaultPartition`` (class-major
                  ``refine_scores`` plus ``split`` deltas) for three
                  restart orders on an ITC-99-class proxy table,
* ``atpg``      — a cold diagnostic test generation on p208 (seed 0):
                  detection ATPG, random splitting and the SAT miter
                  phase, from a freshly loaded netlist,
* ``artifact``  — artifact save/load round trips (the serve cold path)
                  of a same/different build of the ``b14p`` ITC-99
                  proxy, 10k faults x 32 tests at ``calls1=10`` (2k
                  faults in quick mode): the table ``build-b14p`` uses,
                  where the store is a third of a pass,
* ``serve``     — a warm-pool request batch through ``DiagnosisServer``
                  (``workers=1`` keeps the work on the profiled thread)

— under ``cProfile``, extracts the top-N functions by cumulative time
(first-party frames under ``src/repro`` first), prints them, and writes
``BENCH_profile_<area>.json`` in the same schema every benchmark suite
emits, so profiles travel with the perf trajectory.

Usage::

    python tools/profile_hotpaths.py                 # all areas, top 10
    python tools/profile_hotpaths.py --area serve --top 5
    REPRO_BENCH_QUICK=1 python tools/profile_hotpaths.py   # smaller workloads

``--pstats DIR`` additionally dumps raw ``.pstats`` files for
``snakeviz``/``gprof2dot``-style exploration.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.bench import BenchCase, BenchResult  # noqa: E402

QUICK = bool(
    os.environ.get("REPRO_BENCH_QUICK") or os.environ.get("REPRO_EXAMPLES_QUICK")
)
CALLS = 10 if QUICK else 40
REQUESTS = 50 if QUICK else 300
ARTIFACT_ROUNDS = 5 if QUICK else 20
KERNEL_SWEEPS = 2 if QUICK else 5
PARTITION_FAULTS = 1500 if QUICK else 4000
PARTITION_TESTS = 24 if QUICK else 48
ARTIFACT_FAULTS = 2000 if QUICK else 10000


# ----------------------------------------------------------------------
# per-area workloads: prepare() builds the inputs un-profiled and returns
# the zero-argument callable that cProfile runs.
# ----------------------------------------------------------------------

def _table(circuit="p208", ttype="diag"):
    from repro.experiments.table6 import response_table_for

    return response_table_for(circuit, ttype, 0)[1]


def prepare_build():
    from repro.api import DictionaryConfig, build

    table = _table()
    return lambda: build(table, config=DictionaryConfig(seed=0, calls1=CALLS))


def prepare_kernels():
    from repro.kernels import get_backend
    from repro.kernels.interning import intern_response_table

    table = _table(ttype="10det")
    intern_response_table(table)
    table.interned
    backend = get_backend("packed")

    def run():
        for _ in range(KERNEL_SWEEPS):
            backend.procedure1(table, range(table.n_tests), 10, {})

    return run


def prepare_parallel():
    from repro.api import DictionaryConfig, build

    table = _table()
    config = DictionaryConfig(seed=0, calls1=CALLS, jobs=2, procedure2=False)
    return lambda: build(table, config=config)


def prepare_partition():
    from repro.circuit.generate import proxy_response_table
    from repro.dictionaries import select_baselines
    from repro.parallel.seeds import restart_order
    from repro.partition import FaultPartition

    table = proxy_response_table(
        "b14p", n_faults=PARTITION_FAULTS, n_tests=PARTITION_TESTS
    )
    orders = [restart_order(0, r, table.n_tests) for r in range(3)]

    def run():
        for order in orders:
            select_baselines(
                table, order, partition=FaultPartition(range(table.n_faults))
            )

    return run


def prepare_atpg():
    from repro.atpg import generate_diagnostic_tests
    from repro.circuit import load_circuit, prepare_for_test
    from repro.faults import collapse

    def run():
        # A fresh netlist per run, so no cached structure carries over.
        netlist = prepare_for_test(load_circuit("p208"))
        generate_diagnostic_tests(netlist, collapse(netlist), seed=0)

    return run


def prepare_artifact(workdir: Path):
    from repro.api import DictionaryConfig, build
    from repro.circuit.generate import proxy_response_table
    from repro.store import load_artifact, save_artifact

    table = proxy_response_table("b14p", ARTIFACT_FAULTS, 32)
    built = build(table, config=DictionaryConfig(seed=0, calls1=10))
    path = workdir / "profile.rfd"

    def run():
        for _ in range(ARTIFACT_ROUNDS):
            save_artifact(built, path)
            load_artifact(path)

    return run


def prepare_serve(workdir: Path):
    from repro.api import DictionaryConfig, build
    from repro.serve import DiagnosisRequest, DiagnosisServer, ServeConfig
    from repro.store import save_artifact

    built = build(_table(), config=DictionaryConfig(seed=0, calls1=5))
    path = workdir / "profile-serve.rfd"
    save_artifact(built, path)
    faults = built.table.faults
    requests = [
        DiagnosisRequest(request_id=f"r{i}", fault=str(faults[(i * 13) % len(faults)]))
        for i in range(REQUESTS)
    ]
    # workers=1 serves on the calling thread — the one cProfile sees.
    server = DiagnosisServer(ServeConfig(workers=1, pool_size=2),
                             default_artifact=str(path))
    server.pool.get(path)
    return lambda: server.diagnose_batch(requests)


AREAS = {
    "build": lambda workdir: prepare_build(),
    "kernels": lambda workdir: prepare_kernels(),
    "parallel": lambda workdir: prepare_parallel(),
    "partition": lambda workdir: prepare_partition(),
    "atpg": lambda workdir: prepare_atpg(),
    "artifact": prepare_artifact,
    "serve": prepare_serve,
}


# ----------------------------------------------------------------------
# profiling + extraction
# ----------------------------------------------------------------------

def _frame_name(key) -> dict:
    filename, line, func = key
    path = Path(filename)
    try:
        shown = str(path.relative_to(REPO_ROOT))
    except ValueError:
        shown = path.name
    return {"function": func, "file": shown, "line": line}


def hot_paths(stats: pstats.Stats, top: int) -> list:
    """Top functions by cumulative time, first-party frames first."""
    first_party, third_party = [], []
    for key, (cc, nc, tt, ct, _callers) in stats.stats.items():
        entry = _frame_name(key)
        entry.update({
            "ncalls": nc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        })
        bucket = (
            first_party if f"src{os.sep}repro" in str(Path(key[0]))
            else third_party
        )
        bucket.append(entry)
    for bucket in (first_party, third_party):
        bucket.sort(key=lambda e: e["cumtime_s"], reverse=True)
    return (first_party + third_party)[:top]


def profile_area(area: str, workdir: Path, top: int,
                 pstats_dir: Path | None) -> BenchResult:
    workload = AREAS[area](workdir)
    workload()  # warm caches so first-touch costs don't dominate the profile
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()
    stats = pstats.Stats(profiler)
    if pstats_dir is not None:
        pstats_dir.mkdir(parents=True, exist_ok=True)
        stats.dump_stats(pstats_dir / f"{area}.pstats")

    paths = hot_paths(stats, top)
    case = BenchCase(name=f"hotpaths[{area}]", params={"area": area})
    case.rounds = 1
    case.wall_seconds = round(stats.total_tt, 6)
    case.info = {"quick": QUICK, "hot_paths": paths}
    result = BenchResult(area=f"profile_{area}", quick=QUICK, cases=[case])

    print(f"\n== {area}: top {min(3, len(paths))} hot paths "
          f"(profiled {stats.total_tt:.3f}s) ==")
    for entry in paths[:3]:
        print(
            f"  {entry['cumtime_s']:8.3f}s cum  {entry['tottime_s']:8.3f}s self"
            f"  {entry['ncalls']:>8}x  "
            f"{entry['file']}:{entry['line']} {entry['function']}"
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the pipeline's hot paths, one area at a time"
    )
    parser.add_argument(
        "--area", choices=sorted(AREAS) + ["all"], default="all",
        help="which pipeline area to profile (default: all)",
    )
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="hot-path entries to keep per area (default 10)",
    )
    parser.add_argument(
        "--out", metavar="DIR",
        default=os.environ.get("REPRO_BENCH_OUT", "."),
        help="directory for BENCH_profile_<area>.json "
        "(default: $REPRO_BENCH_OUT or the current directory)",
    )
    parser.add_argument(
        "--pstats", metavar="DIR", default=None,
        help="also dump raw .pstats files here for snakeviz/gprof2dot",
    )
    args = parser.parse_args(argv)

    import tempfile

    areas = sorted(AREAS) if args.area == "all" else [args.area]
    out_dir = Path(args.out)
    pstats_dir = Path(args.pstats) if args.pstats else None
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        for area in areas:
            result = profile_area(area, Path(tmp), args.top, pstats_dir)
            path = result.write(out_dir)
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
