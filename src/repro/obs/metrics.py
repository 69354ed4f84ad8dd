"""A dependency-free metrics registry: counters, gauges and timers.

The registry is the pipeline's single sink for quantitative
instrumentation.  Three instrument kinds cover what the build and
diagnosis code needs:

* :class:`Counter` — monotonically increasing totals (candidate
  evaluations, ``LOWER`` cutoffs, replacements, faults simulated…);
* :class:`Gauge` — last-value-wins measurements (final stale streak,
  partition class counts…);
* :class:`Timer` — duration samples with summary statistics
  (count/total/min/max/p50/p90/p95/p99), backing every wall-clock
  measurement in the repo so no caller hand-rolls ``time.perf_counter()``
  pairs.

A process-global default registry is always installed, so instrumented
code never checks for ``None``; hot paths accumulate locally and flush
once per call, keeping the overhead of the always-on path negligible.
Tests (and the overhead benchmark) isolate or disable collection with
:func:`scoped_registry` / :func:`disabled`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Timers keep at most this many raw samples for percentile estimates;
#: count/total/min/max stay exact beyond it.
MAX_TIMER_SAMPLES = 8192


class Timer:
    """Duration samples with summary statistics.

    ``record`` takes seconds directly; :meth:`time` measures a ``with``
    block and exposes the elapsed seconds on the returned stopwatch, which
    is how the experiment harnesses obtain their per-stage timings.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds
        if len(self._samples) < MAX_TIMER_SAMPLES:
            self._samples.append(seconds)

    def time(self) -> "Stopwatch":
        return Stopwatch(self)

    def dump(self) -> Dict[str, object]:
        """Complete mergeable state, including the retained raw samples."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "samples": list(self._samples),
        }

    def merge(self, dump: Dict[str, object]) -> None:
        """Fold another timer's :meth:`dump` into this one.

        Aggregates (count/total/min/max) stay exact; samples are adopted
        up to :data:`MAX_TIMER_SAMPLES`, so percentiles after a merge are
        estimates over whichever samples fit first.
        """
        self.count += int(dump.get("count", 0))
        self.total += float(dump.get("total", 0.0))
        for bound, pick in (("min", min), ("max", max)):
            theirs = dump.get(bound)
            if theirs is not None:
                ours = getattr(self, bound)
                setattr(self, bound, theirs if ours is None else pick(ours, theirs))
        room = MAX_TIMER_SAMPLES - len(self._samples)
        if room > 0:
            self._samples.extend(dump.get("samples", ())[:room])

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile of the retained samples (q in [0, 100])."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(1, -(-int(q) * len(ordered) // 100))  # ceil(q*n/100), >= 1
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50) or 0.0,
            "p90": self.percentile(90) or 0.0,
            "p95": self.percentile(95) or 0.0,
            "p99": self.percentile(99) or 0.0,
        }


class Stopwatch:
    """Times one ``with`` block and records it into its timer."""

    __slots__ = ("timer", "elapsed", "_start")

    def __init__(self, timer: Optional[Timer]) -> None:
        self.timer = timer
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
        if self.timer is not None:
            self.timer.record(self.elapsed)


class MetricsRegistry:
    """Named instruments, created on first use.

    ``counter``/``gauge``/``timer`` are create-or-get: instrumented code
    addresses instruments purely by name and never registers anything up
    front.  :meth:`snapshot` renders the whole registry as plain data for
    JSON export and report folding.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.timers: Dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self.timers.get(name)
        if instrument is None:
            instrument = self.timers[name] = Timer(name)
        return instrument

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.timers.clear()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "timers": {name: t.summary() for name, t in sorted(self.timers.items())},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # cross-registry merging
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Dict[str, object]]:
        """Render the registry as plain picklable data, losslessly enough
        to be merged into another registry with :meth:`merge_dump`.

        Unlike :meth:`snapshot` (which summarises timers for human/JSON
        consumption), ``dump`` keeps the raw timer state so aggregates
        survive the round trip.
        """
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "gauges": {name: g.value for name, g in self.gauges.items()},
            "timers": {name: t.dump() for name, t in self.timers.items()},
        }

    def merge_dump(self, dump: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`dump` into this registry.

        Counters add, timers aggregate, and gauges are last-writer-wins —
        the same semantics the instruments have in-process.  Instruments
        missing here are created, so merging into a fresh registry
        reconstructs the dumped one.
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, timer_dump in dump.get("timers", {}).items():
            self.timer(name).merge(timer_dump)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one."""
        self.merge_dump(other.dump())


class NullRegistry(MetricsRegistry):
    """A registry whose instruments discard everything (the opt-out).

    Used by the overhead benchmark as the "un-instrumented" reference and
    available to any embedder that wants collection fully off.
    """

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter()
        self._gauge = _NullGauge()
        self._timer = _NullTimer()

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def timer(self, name: str) -> Timer:
        return self._timer


class _NullCounter(Counter):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def set(self, value: float) -> None:
        pass


class _NullTimer(Timer):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def record(self, seconds: float) -> None:
        pass

    def merge(self, dump: Dict[str, object]) -> None:
        pass


_default_registry: MetricsRegistry = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    """The process-global registry instrumented code writes into."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def scoped_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily install a registry (a fresh one by default).

    The standard test idiom: everything instrumented inside the block
    lands in an isolated registry, and the previous default is restored
    on exit regardless of exceptions.
    """
    installed = registry if registry is not None else MetricsRegistry()
    previous = set_default_registry(installed)
    try:
        yield installed
    finally:
        set_default_registry(previous)


@contextmanager
def disabled() -> Iterator[MetricsRegistry]:
    """Temporarily discard all metrics (a scoped :class:`NullRegistry`)."""
    with scoped_registry(NullRegistry()) as registry:
        yield registry
