"""The random-restart loop's state: seed streams and the restart fold.

The restart driver of :func:`repro.api.build` (in
:func:`~repro.dictionaries.samediff._build_impl`) re-runs Procedure 1 over
shuffled test orders until ``CALLS1`` consecutive restarts bring no
improvement.  Two pieces of that loop live here:

* **seed streams** — every restart derives an independent child seed from
  ``(seed, restart)`` by hashing, in the spirit of
  ``numpy.random.SeedSequence.spawn``, so any restart's test order can be
  recomputed from two integers.  That is what lets an ``RFDC`` checkpoint
  (:mod:`repro.store.checkpoint`) resume a killed build from its restart
  cursor alone.  Restart 0 keeps the natural test order, the paper's
  convention that the first Procedure 1 call runs un-shuffled;
* :class:`RestartFold` — the reduction the loop folds restarts into, in
  index order: the best result so far, the stale streak and the stopping
  rule.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Callable, List, Optional, Sequence

from ..obs import NullProgress, ProgressReporter, get_default_registry
from ..sim.responses import Signature

#: Domain-separation tag so restart streams never collide with any other
#: hash-derived randomness.  Every pinned digest depends on it: keep the
#: string as it is.
_STREAM_TAG = "repro.parallel.restart"


def derive_restart_seed(seed: int, restart: int) -> int:
    """An independent 128-bit child seed for one restart of one build."""
    if restart < 0:
        raise ValueError(f"restart index must be >= 0, got {restart}")
    payload = f"{_STREAM_TAG}:{seed}:{restart}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "big")


def restart_rng(seed: int, restart: int) -> random.Random:
    """The private RNG of one restart (used for its test-order shuffle)."""
    return random.Random(derive_restart_seed(seed, restart))


def restart_order(seed: int, restart: int, n_tests: int) -> List[int]:
    """The test order of restart ``restart``: natural for 0, shuffled after.

    Pure in ``(seed, restart, n_tests)`` — the contract the checkpoint
    resume and the determinism tests lean on.
    """
    order = list(range(n_tests))
    if restart:
        restart_rng(seed, restart).shuffle(order)
    return order


class RestartFold:
    """The order-preserving reduction of the restart loop.

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
