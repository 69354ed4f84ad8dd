"""Shared pieces of the end-to-end benchmark: import guard, statistics,
host fingerprint, the benchmark's own span recorder and result printing.

The span recorder lives here, not in ``repro.obs``, so that a rewrite of
the program's tracing cannot change how the benchmark measures.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: artifacts, daemon spool, traces.
WORK = ROOT / ".bench_work"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, daemon failure)."""


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import ``repro``.

    Raises :class:`BenchError` when the checkout holds no program, or when
    ``repro`` would be imported from anywhere but this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC not in where.parents:
        raise BenchError(f"repro imported from {where}, not from {SRC}")


def program_env() -> Dict[str, str]:
    """Environment for child processes that run the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the rule ``repro.obs.Timer`` uses)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-int(q * len(ordered)) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def host_fingerprint() -> Dict[str, object]:
    """What separates a slow host from a slow program."""
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = os.getloadavg()
    except OSError:
        load = ()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": [round(x, 2) for x in load],
    }


def host_loop_ms(repeats: int = 15) -> float:
    """Median milliseconds of a fixed pure-Python loop: the host's speed,
    measured apart from the program."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


def cpu_ticks() -> List[int]:
    """The host's aggregate ``/proc/stat`` CPU tick counters (empty when
    unavailable); diff two readings with :func:`host_share`."""
    try:
        with open("/proc/stat") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def host_share(before: List[int], after: List[int]) -> Dict[str, float]:
    """Busy and stolen shares of all host CPUs between two readings."""
    if not before or not after:
        return {}
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta) or 1
    idle = delta[3] + (delta[4] if len(delta) > 4 else 0)
    steal = delta[7] if len(delta) > 7 else 0
    return {"busy": (total - idle) / total, "steal": steal / total}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans recorded by the benchmark's own code.

    Parents are explicit ids, not a stack, so the asyncio client can
    interleave requests of two connections.  A disabled recorder keeps
    nothing and costs one branch per span.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> Optional[int]:
        """Record a finished span; returns its id."""
        if not self.enabled:
            return None
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "name": name, "parent": parent,
            "start": start, "end": end, "attrs": attrs,
        })
        return span_id

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, **attrs: object
    ) -> Iterator[Optional[int]]:
        """Time a block as one span.  The id is reserved at entry, so
        spans opened inside can name it as their parent."""
        if not self.enabled:
            yield None
            return
        span_id = self.add(name, time.perf_counter(), 0.0, parent, **attrs)
        try:
            yield span_id
        finally:
            self.spans[span_id]["end"] = time.perf_counter()

    def children(self) -> Dict[Optional[int], List[Dict[str, object]]]:
        by_parent: Dict[Optional[int], List[Dict[str, object]]] = {}
        for span in self.spans:
            by_parent.setdefault(span["parent"], []).append(span)
        return by_parent

    def check_nesting(self) -> List[str]:
        """Spans whose interval escapes their parent's (empty when sound)."""
        problems = []
        for span in self.spans:
            if span["parent"] is None:
                continue
            parent = self.spans[span["parent"]]
            if span["start"] < parent["start"] or span["end"] > parent["end"]:
                problems.append(
                    f"{span['name']}#{span['id']} escapes "
                    f"{parent['name']}#{parent['id']}"
                )
        return problems

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the union of its children's."""
        by_parent = self.children()
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for child in sorted(
                by_parent.get(span["id"], ()), key=lambda s: s["start"]
            ):
                lo = max(child["start"], cursor)
                hi = min(child["end"], span["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span["id"]] = (span["end"] - span["start"]) - covered
        return result

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def layer_table(
    recorder: SpanRecorder, roots: Sequence[int]
) -> Dict[str, Dict[str, float]]:
    """Busy and self seconds per span name over the subtrees of ``roots``."""
    by_parent = recorder.children()
    self_time = recorder.self_times()
    table: Dict[str, Dict[str, float]] = {}
    stack = list(roots)
    while stack:
        span = recorder.spans[stack.pop()]
        row = table.setdefault(span["name"], {"busy_s": 0.0, "self_s": 0.0, "n": 0})
        row["busy_s"] += span["end"] - span["start"]
        row["self_s"] += self_time[span["id"]]
        row["n"] += 1
        stack.extend(child["id"] for child in by_parent.get(span["id"], ()))
    return table


# ----------------------------------------------------------------------
# result
# ----------------------------------------------------------------------
#: Every per-layer metric and its unit.  A traced run reports all of them;
#: a layer a workload does not exercise reads 0 there.
PER_LAYER = (
    ("atpg.generate_s", "s"), ("atpg.sat_s", "s"), ("atpg.podem_s", "s"),
    ("atpg.sat_calls", "count"), ("atpg.sat_conflicts", "count"),
    ("atpg.podem_backtracks", "count"), ("atpg.tests", "count"),
    ("circuit.prepare_s", "s"), ("faults.collapse_s", "s"),
    ("faults.collapsed", "count"), ("sim.response_s", "s"),
    ("sim.faults_simulated", "count"),
    ("dictionaries.build_s", "s"), ("dictionaries.procedure1_s", "s"),
    ("dictionaries.procedure2_s", "s"),
    ("dictionaries.procedure1_calls", "count"),
    ("kernels.candidates_evaluated", "count"),
    ("dictionaries.procedure2_attempts", "count"),
    ("partition.classes", "count"), ("dictionaries.columns_s", "s"),
    ("store.save_s", "s"), ("store.load_s", "s"),
    ("store.artifact_bytes", "bytes"),
    ("serve.daemon.transport_ms", "ms"), ("serve.daemon.dispatch_ms", "ms"),
    ("serve.daemon.cpu_share", "ratio"), ("serve.daemon.rejected", "count"),
    ("serve.request_ms", "ms"), ("serve.load_s", "s"),
    ("serve.sessions", "count"), ("serve.session_steps", "count"),
    ("serve.advance_p50_ms", "ms"), ("serve.advance_p99_ms", "ms"),
    ("diagnosis.lookup_ms", "ms"), ("diagnosis.candidates_scored", "count"),
    ("diagnosis.verify_ms", "ms"),
)

#: Every end-to-end metric and its unit, in report order.
END_TO_END = (
    ("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"),
    ("sd_indist_pairs", "pairs"), ("sd_bits", "bits"),
    ("throughput_rps", "1/s"), ("lookup_p50_ms", "ms"),
    ("lookup_p99_ms", "ms"),
)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """All per-layer metrics, taking ``values`` where given and 0 elsewhere."""
    unknown = set(values) - {name for name, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {name: metric(values.get(name, 0), unit) for name, unit in PER_LAYER}


def emit_result(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict]
) -> None:
    """The run's result, as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True), flush=True)
