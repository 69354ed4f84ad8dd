"""Batched scheduling of Procedure 1 restarts over a process pool.

The restart loop of :func:`repro.api.build` (in
:func:`~repro.dictionaries.samediff._build_impl`) is a sequential fold:
restarts arrive in index order, the best result so far and a stale
counter decide when to stop (``CALLS1`` consecutive non-improvements, or
the full-dictionary ceiling).  :class:`RestartFold` captures exactly that
reduction, and both execution strategies drive it:

* the serial path evaluates restart ``r`` and folds it immediately;
* :class:`RestartScheduler` speculatively fans restarts out over a
  ``ProcessPoolExecutor`` in batches sized at least the remaining stale
  budget (so a batch with no improvement is guaranteed to finish the
  loop), collects results as they complete, and folds them in strict
  index order.

Because each restart's test order is a pure function of ``(seed, r)``
(see :mod:`~repro.parallel.seeds`) and the fold consumes results in index
order with the serial stopping rule, ``jobs=N`` produces byte-identical
baselines, distinguished-pair counts and logical call counts to the
serial path.  Results computed beyond the stopping point are discarded
from the fold but their worker metrics are still merged (counted under
``parallel.speculative_restarts``), so ``procedure1.*`` counters reflect
all work actually done.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..obs import NullProgress, ProgressReporter, get_default_registry
from ..sim.responses import ResponseTable, Signature
from .worker import RestartResult, init_worker, run_restart


class RestartFold:
    """The order-preserving reduction shared by serial and parallel paths.

    Seeded with the all-PASS (pass/fail) assignment as restart "-1", so a
    build can never end worse than the pass/fail dictionary — that floor
    is what makes the documented resolution chain
    ``passfail <= s/d(P1) <= s/d(P2) <= full`` an invariant rather than
    an empirical tendency.
    """

    def __init__(
        self,
        calls: int,
        ceiling: int,
        baselines: Sequence[Signature],
        distinguished: int,
        progress: Optional[ProgressReporter] = None,
        observer: Optional[Callable[["RestartFold"], None]] = None,
    ) -> None:
        if calls < 1:
            raise ValueError(f"calls (CALLS1) must be >= 1, got {calls}")
        self.calls = calls
        self.ceiling = ceiling
        self.best_baselines: List[Signature] = list(baselines)
        self.best_distinguished = distinguished
        self.progress = progress if progress is not None else NullProgress()
        #: Called after every folded restart with the fold itself — the
        #: hook the ``RFDC`` checkpoint layer hangs off (and anything
        #: else that wants the exact post-fold state, observers never
        #: change the fold).
        self.observer = observer
        self.stale = 0
        self.calls_made = 0
        #: Restarts folded before this fold was constructed (a resumed
        #: checkpointed build); folded into ``calls_made`` so restart
        #: cursors and reports stay continuous across the kill.
        self.resumed_calls = 0
        self.ceiling_hit = False
        self._started = time.perf_counter()
        self._check_ceiling()

    @property
    def done(self) -> bool:
        return self.ceiling_hit or self.stale >= self.calls

    def eta_seconds(self) -> float:
        """Remaining-work estimate for multi-minute builds.

        Average seconds per restart folded *this process* times the
        restarts left before the stale budget runs out (the worst case
        when no further restart improves; an improvement extends it).
        ``0.0`` until one restart has been folded, and once done.
        """
        folded = self.calls_made - self.resumed_calls
        if folded <= 0 or self.done:
            return 0.0
        average = (time.perf_counter() - self._started) / folded
        return round(average * max(self.calls - self.stale, 0), 3)

    def consume(self, distinguished: int, baselines: Sequence[Signature]) -> None:
        """Fold the next restart (they must arrive in restart-index order)."""
        self.calls_made += 1
        if distinguished > self.best_distinguished:
            self.best_distinguished = distinguished
            self.best_baselines = list(baselines)
            self.stale = 0
        else:
            self.stale += 1
        self._check_ceiling()
        # Observers (the checkpoint layer) persist the folded state
        # before progress is announced: anything a consumer learns from
        # the report is already durable.
        if self.observer is not None:
            self.observer(self)
        self.progress.report(
            "build.procedure1",
            self.calls_made,
            stale=self.stale,
            best=self.best_distinguished,
            eta_s=self.eta_seconds(),
        )

    def restore(
        self,
        *,
        calls_made: int,
        stale: int,
        best_distinguished: int,
        best_baselines: Sequence[Signature],
    ) -> None:
        """Install checkpointed state: the fold position of a killed build.

        ``calls_made`` doubles as the restart cursor — restarts fold in
        index order from 0, so the next restart to evaluate is exactly
        ``calls_made`` (the checkpoint's seed-stream position).
        """
        if calls_made < 0 or stale < 0 or stale > calls_made:
            raise ValueError(
                f"inconsistent fold state: calls_made={calls_made} stale={stale}"
            )
        self.calls_made = calls_made
        self.resumed_calls = calls_made
        self.stale = stale
        self.best_distinguished = best_distinguished
        self.best_baselines = list(best_baselines)
        self._check_ceiling()

    def _check_ceiling(self) -> None:
        if not self.ceiling_hit and self.best_distinguished >= self.ceiling:
            # Nothing left that any dictionary could distinguish.
            self.ceiling_hit = True
            get_default_registry().counter("build.ceiling_early_exits").inc()


@dataclass
class ScheduleOutcome:
    """Bookkeeping of one parallel run (the fold carries the result)."""

    batches: int = 0
    #: Restarts whose results were computed (folded + speculative).
    executed: int = 0
    #: Computed beyond the serial stopping point and discarded.
    speculative: int = 0
    #: Cancelled before a worker picked them up.
    cancelled: int = 0
    errors: List[str] = field(default_factory=list)


class RestartScheduler:
    """Fans Procedure 1 restarts out over worker processes, in batches.

    The schedule is speculative but the fold is exact: batch ``size`` is
    ``max(calls - stale, jobs)`` so that an improvement-free batch always
    drains the stale budget, results are folded in restart-index order,
    and any member reaching the full-dictionary ceiling immediately
    cancels every higher-indexed restart still waiting for a worker
    (early-exit propagation).
    """

    def __init__(
        self,
        table: ResponseTable,
        lower: int = 10,
        seed: int = 0,
        jobs: int = 2,
        executor_factory=None,
        backend: Optional[str] = None,
    ) -> None:
        if jobs < 2:
            raise ValueError(f"RestartScheduler needs jobs >= 2, got {jobs}")
        self.table = table
        self.lower = lower
        self.seed = seed
        self.jobs = jobs
        self.backend = backend
        self._executor_factory = executor_factory or (
            lambda: ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=init_worker,
                initargs=(self.table, self.lower, self.backend),
            )
        )

    def run(self, fold: RestartFold) -> ScheduleOutcome:
        """Drive ``fold`` to completion; returns the schedule bookkeeping."""
        registry = get_default_registry()
        registry.gauge("parallel.jobs").set(self.jobs)
        outcome = ScheduleOutcome()
        # Restarts fold in index order from 0, so a fold restored from a
        # checkpoint dictates the first restart still to evaluate.
        next_restart = fold.calls_made
        with self._executor_factory() as pool:
            while not fold.done:
                size = max(fold.calls - fold.stale, self.jobs)
                futures: Dict[int, Future] = {
                    r: pool.submit(run_restart, self.seed, r)
                    for r in range(next_restart, next_restart + size)
                }
                next_restart += size
                outcome.batches += 1
                self._fold_batch(futures, fold, outcome, registry)
        registry.counter("parallel.batches").inc(outcome.batches)
        registry.counter("parallel.speculative_restarts").inc(outcome.speculative)
        registry.counter("parallel.cancelled_restarts").inc(outcome.cancelled)
        return outcome

    def _fold_batch(
        self,
        futures: Dict[int, Future],
        fold: RestartFold,
        outcome: ScheduleOutcome,
        registry,
    ) -> None:
        """Collect one batch: fold in index order, cancel what can't matter.

        Completed-but-unfoldable results (the fold stopped at a lower
        index) still have their metrics merged — the work happened.  The
        batch always drains fully before returning so no worker output is
        silently dropped; cancellation only saves restarts no worker has
        picked up yet.
        """
        first = min(futures)
        arrived: Dict[int, RestartResult] = {}
        expect = first
        ceiling_at: Optional[int] = None
        pending = set(futures.values())
        while pending:
            completed, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in completed:
                if future.cancelled():
                    outcome.cancelled += 1
                    continue
                error = future.exception()
                if error is not None:
                    # Surface the first worker failure with its restart
                    # context instead of an opaque pool traceback.
                    raise RuntimeError(
                        f"restart worker failed: {error!r}"
                    ) from error
                result: RestartResult = future.result()
                outcome.executed += 1
                registry.merge_dump(result.metrics)
                arrived[result.restart] = result
                if result.distinguished >= fold.ceiling and (
                    ceiling_at is None or result.restart < ceiling_at
                ):
                    # Early-exit propagation: no restart after the first
                    # ceiling-reaching one can be needed by the fold.
                    ceiling_at = result.restart
                    self._cancel_after(futures, ceiling_at)
            while not fold.done and expect in arrived:
                folded = arrived.pop(expect)
                fold.consume(folded.distinguished, folded.baselines)
                expect += 1
            if fold.done:
                self._cancel_after(futures, expect - 1)
        # Folded results were popped as they were consumed; whatever is
        # still in ``arrived`` was computed beyond the stopping point.
        outcome.speculative += len(arrived)

    @staticmethod
    def _cancel_after(futures: Dict[int, Future], index: int) -> None:
        for r, future in futures.items():
            if r > index:
                future.cancel()
