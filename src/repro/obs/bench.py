"""Machine-readable benchmark results: the ``BENCH_<area>.json`` schema.

Every suite under ``benchmarks/`` records its measurements through a
:class:`BenchRecorder` (handed out by the ``bench`` fixture in
``benchmarks/conftest.py``) instead of hand-rolled ``time.perf_counter()``
pairs, so each run leaves one schema-versioned ``BENCH_<area>.json``
behind.  That file — not a floor assertion in a test body — is what
``tools/bench_report.py`` diffs against the committed baselines in
``benchmarks/baselines/`` to track the perf trajectory PR over PR.

One result file holds:

* a **host fingerprint** (platform, python, CPU count, kernel backend) so
  cross-machine comparisons are visibly cross-machine;
* one entry per **case** — wall/CPU seconds (best of the recorded
  rounds), iteration count, derived throughput, free-form ``info`` and
  explicitly **gated** metrics with a direction and tolerance;
* a **metrics-registry snapshot** taken when the result is finalised,
  including every timer's p50/p90/p99.

The schema is versioned (:data:`BENCH_SCHEMA`); :func:`BenchResult.from_dict`
rejects files written by a different schema so the report tool never
silently misreads an old trajectory.  See ``docs/benchmarking.md``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from .metrics import get_default_registry

#: Version of the ``BENCH_*.json`` layout; bump on incompatible change.
BENCH_SCHEMA = 1

#: Result files are named ``BENCH_<area>.json``.
BENCH_PREFIX = "BENCH_"


class BenchSchemaError(ValueError):
    """A result file does not conform to the current bench schema."""


def host_fingerprint() -> Dict[str, object]:
    """Where a result was measured — attached to every ``BenchResult``.

    The report tool prints the fingerprint beside cross-machine deltas,
    because a wall-clock "regression" measured on different hardware is
    an observation about the hardware first.
    """
    # Imported here: repro.kernels imports repro.obs.
    from ..kernels.base import default_backend_name

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
        "backend": default_backend_name(),
    }


@dataclass
class BenchCase:
    """One measured case of a suite (one parameter point of one bench)."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    rounds: int = 0
    #: Work units per round; throughput is ``iterations / wall_seconds``.
    iterations: int = 1
    wall_seconds: Optional[float] = None  # best (minimum) over rounds
    cpu_seconds: Optional[float] = None
    wall_samples: List[float] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    #: name -> {"value", "higher_is_better", "tolerance"}; the metrics the
    #: regression gate checks against the committed baseline.
    gates: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def throughput(self) -> Optional[float]:
        if self.wall_seconds is None or self.wall_seconds <= 0.0:
            return None
        return self.iterations / self.wall_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "params": dict(self.params),
            "rounds": self.rounds,
            "iterations": self.iterations,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "throughput": self.throughput,
            "wall_samples": list(self.wall_samples),
            "info": dict(self.info),
            "gates": {name: dict(spec) for name, spec in self.gates.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchCase":
        if not isinstance(data, dict) or not isinstance(data.get("name"), str):
            raise BenchSchemaError(f"malformed bench case: {data!r}")
        return cls(
            name=data["name"],
            params=dict(data.get("params", {})),
            rounds=int(data.get("rounds", 0)),
            iterations=int(data.get("iterations", 1)),
            wall_seconds=data.get("wall_seconds"),
            cpu_seconds=data.get("cpu_seconds"),
            wall_samples=list(data.get("wall_samples", [])),
            info=dict(data.get("info", {})),
            gates={
                name: dict(spec)
                for name, spec in data.get("gates", {}).items()
            },
        )

    # ------------------------------------------------------------------
    def merge(self, other: "BenchCase") -> None:
        """Fold a repeated run of the same case into this one.

        Timing keeps the best (minimum) side — the usual noise
        discipline; rounds and samples accumulate; gated metrics keep
        whichever value is better in their own direction; ``info`` is
        last-writer-wins.
        """
        if other.name != self.name:
            raise ValueError(
                f"cannot merge case {other.name!r} into {self.name!r}"
            )
        for attr in ("wall_seconds", "cpu_seconds"):
            theirs = getattr(other, attr)
            if theirs is not None:
                ours = getattr(self, attr)
                setattr(self, attr, theirs if ours is None else min(ours, theirs))
        self.rounds += other.rounds
        self.wall_samples.extend(other.wall_samples)
        self.iterations = max(self.iterations, other.iterations)
        self.params.update(other.params)
        self.info.update(other.info)
        for name, spec in other.gates.items():
            mine = self.gates.get(name)
            if mine is None:
                self.gates[name] = dict(spec)
                continue
            better = max if spec.get("higher_is_better", True) else min
            mine["value"] = better(mine["value"], spec["value"])


@dataclass
class BenchResult:
    """Everything one run of one bench area measured."""

    area: str
    quick: bool = False
    host: Dict[str, object] = field(default_factory=host_fingerprint)
    metrics: Dict[str, object] = field(default_factory=dict)
    cases: List[BenchCase] = field(default_factory=list)
    generated_unix: float = field(default_factory=time.time)
    runs: int = 1

    def case(self, name: str) -> Optional[BenchCase]:
        for case in self.cases:
            if case.name == name:
                return case
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": BENCH_SCHEMA,
            "area": self.area,
            "quick": self.quick,
            "generated_unix": self.generated_unix,
            "runs": self.runs,
            "host": dict(self.host),
            "metrics": self.metrics,
            "cases": [case.as_dict() for case in self.cases],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchResult":
        if not isinstance(data, dict):
            raise BenchSchemaError("bench result must be a JSON object")
        schema = data.get("schema")
        if schema != BENCH_SCHEMA:
            raise BenchSchemaError(
                f"bench schema {schema!r} is not the supported "
                f"schema {BENCH_SCHEMA}"
            )
        area = data.get("area")
        if not isinstance(area, str) or not area:
            raise BenchSchemaError(f"bench result has no area: {data!r}")
        result = cls(
            area=area,
            quick=bool(data.get("quick", False)),
            host=dict(data.get("host", {})),
            metrics=dict(data.get("metrics", {})),
            cases=[BenchCase.from_dict(c) for c in data.get("cases", [])],
            generated_unix=float(data.get("generated_unix", 0.0)),
            runs=int(data.get("runs", 1)),
        )
        return result

    @classmethod
    def load(cls, path: "Path | str") -> "BenchResult":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise BenchSchemaError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def filename(self) -> str:
        return f"{BENCH_PREFIX}{self.area}.json"

    def write(self, directory: "Path | str") -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / self.filename()
        path.write_text(self.to_json() + "\n")
        return path

    # ------------------------------------------------------------------
    def merge(self, other: "BenchResult") -> None:
        """Fold a repeated run of the same area into this result.

        Cases are matched by name (new names append), ``quick`` stays
        quick only if both runs were quick, and the metrics snapshot and
        host fingerprint follow the most recent run.
        """
        if other.area != self.area:
            raise ValueError(
                f"cannot merge area {other.area!r} into {self.area!r}"
            )
        for theirs in other.cases:
            mine = self.case(theirs.name)
            if mine is None:
                self.cases.append(BenchCase.from_dict(theirs.as_dict()))
            else:
                mine.merge(theirs)
        self.quick = self.quick and other.quick
        if other.metrics:
            self.metrics = dict(other.metrics)
        if other.host:
            self.host = dict(other.host)
        self.generated_unix = max(self.generated_unix, other.generated_unix)
        self.runs += other.runs


class _Measurement:
    """Times one ``with`` block as one round of a case."""

    __slots__ = ("_case", "_wall0", "_cpu0")

    def __init__(self, case: BenchCase) -> None:
        self._case = case
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "_Measurement":
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        if exc[0] is None:
            _record_round(self._case, wall, cpu)


def _record_round(case: BenchCase, wall: float, cpu: Optional[float]) -> None:
    case.rounds += 1
    case.wall_samples.append(wall)
    if case.wall_seconds is None or wall < case.wall_seconds:
        case.wall_seconds = wall
    if cpu is not None and (case.cpu_seconds is None or cpu < case.cpu_seconds):
        case.cpu_seconds = cpu


class CaseRecorder:
    """The per-case handle suites measure and annotate through."""

    def __init__(self, case: BenchCase) -> None:
        self._case = case

    @property
    def name(self) -> str:
        return self._case.name

    @property
    def wall_seconds(self) -> Optional[float]:
        return self._case.wall_seconds

    def measure(self) -> _Measurement:
        """Time one round: ``with case.measure(): <the measured work>``."""
        return _Measurement(self._case)

    def run(self, fn: Callable[[], object], *, rounds: int = 1) -> object:
        """Measure ``fn`` for ``rounds`` rounds; returns the last result."""
        result: object = None
        for _ in range(rounds):
            with self.measure():
                result = fn()
        return result

    def record(self, wall_seconds: float,
               cpu_seconds: Optional[float] = None) -> None:
        """Adopt one externally measured round (e.g. a kernel's own
        ``timings`` hook, where the wall clock of the block would include
        work the case deliberately excludes)."""
        _record_round(self._case, wall_seconds, cpu_seconds)

    def iterations(self, count: int) -> None:
        """Declare work units per round, for derived throughput."""
        self._case.iterations = max(1, int(count))

    def info(self, values: Optional[Dict[str, object]] = None,
             **kwargs: object) -> None:
        """Attach free-form result data (sizes, counts, resolutions…)."""
        if values:
            self._case.info.update(values)
        if kwargs:
            self._case.info.update(kwargs)

    def gate(self, name: str, value: float, *, higher_is_better: bool = True,
             tolerance: float = 0.25) -> None:
        """Declare a regression-gated metric.

        ``tools/bench_report.py --check`` fails when the measured value
        falls beyond ``tolerance`` (a fraction) on the losing side of the
        committed baseline; exactly at the tolerance boundary still
        passes.
        """
        self._case.gates[name] = {
            "value": float(value),
            "higher_is_better": bool(higher_is_better),
            "tolerance": float(tolerance),
        }


class BenchRecorder:
    """Collects a suite's cases and finalises them into a result file.

    The ``bench`` fixture in ``benchmarks/conftest.py`` creates one per
    suite module and writes ``BENCH_<area>.json`` at teardown; suites
    only ever talk to :meth:`case`.
    """

    def __init__(self, area: str, *, quick: bool = False) -> None:
        self.area = area
        self.quick = quick
        self._cases: List[BenchCase] = []

    def case(self, name: str, **params: object) -> CaseRecorder:
        """Create-or-get the named case (re-entry merges rounds)."""
        for case in self._cases:
            if case.name == name:
                case.params.update(params)
                return CaseRecorder(case)
        case = BenchCase(name=name, params=dict(params))
        self._cases.append(case)
        return CaseRecorder(case)

    def __iter__(self) -> Iterator[BenchCase]:
        return iter(self._cases)

    def __len__(self) -> int:
        return len(self._cases)

    def result(self) -> BenchResult:
        """Finalise: snapshot the metrics registry beside the cases."""
        return BenchResult(
            area=self.area,
            quick=self.quick,
            metrics=get_default_registry().snapshot(),
            cases=self._cases,
        )

    def write(self, directory: "Path | str") -> Path:
        return self.result().write(directory)


def load_results(directory: "Path | str") -> Dict[str, BenchResult]:
    """All ``BENCH_*.json`` under ``directory``, keyed by area."""
    directory = Path(directory)
    results: Dict[str, BenchResult] = {}
    for path in sorted(directory.glob(f"{BENCH_PREFIX}*.json")):
        result = BenchResult.load(path)
        if result.area in results:
            results[result.area].merge(result)
        else:
            results[result.area] = result
    return results
