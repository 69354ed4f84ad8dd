"""The batch diagnosis server: deadlines, retries, degradation.

:class:`DiagnosisServer` turns the one-shot ``Diagnoser`` flow into a
service loop: each :class:`~repro.serve.schemas.DiagnoseRequest` carries
its own deadline and retry budget, and **no request can fail the
batch** — malformed input, an unloadable artifact or a blown deadline
each degrade to a :class:`~repro.serve.schemas.DiagnoseResult` with a
reason code.

A batch is served in request order on the calling thread.  The server
starts no threads: the daemon's worker executor is the serve layer's
one pool, and it runs a whole batch as one work unit.

Determinism: a result is a pure function of its request and the
artifact bytes (requests share nothing mutable beyond the pool, whose
entries are immutable once loaded).  ``tests/serve/test_determinism.py``
holds that line.

Time is injectable (``clock``/``sleep``) so deadline and backoff
behaviour is tested with a fake clock rather than real sleeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Union

from ..diagnosis.multiplet import match_multiplets
from ..obs import get_default_registry, trace_span
from ..store import ArtifactError
from . import metrics as M
from .pool import ArtifactPool, PoolEntry
from .schemas import (
    ARTIFACT_ERROR,
    BAD_REQUEST,
    DEADLINE_EXPIRED,
    INTERNAL_ERROR,
    OK,
    UNMODELED_RESPONSE,
    DiagnoseRequest,
    DiagnoseResult,
    parse_jsonl,
)
from .session import STRATEGIES, DiagnosisSession


@dataclass(frozen=True)
class ServeConfig:
    """Operating envelope of one :class:`DiagnosisServer`.

    ``deadline_ms`` is per request, measured from the moment the server
    picks the request up (queueing behind earlier requests does not
    count); ``None`` disables deadlines.  Retries apply to transient
    artifact/cache errors only — a request that cannot load its artifact
    is attempted ``1 + max_retries`` times with exponential backoff
    starting at ``retry_backoff_ms``.
    """

    pool_size: int = 8
    deadline_ms: Optional[float] = None
    max_retries: int = 2
    retry_backoff_ms: float = 10.0
    #: Default multi-fault candidate width for requests that don't set
    #: one; 1 = classic single-fault exact matching.
    max_faults: int = 1
    #: Default per-request noise tolerance (tests allowed to disagree);
    #: 0 = strict matching.
    flip_budget: int = 0
    #: Default next-test selection rule for session suggestions.
    strategy: str = "greedy"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.max_faults < 1:
            raise ValueError(f"max_faults must be >= 1, got {self.max_faults}")
        if self.flip_budget < 0:
            raise ValueError(
                f"flip_budget must be >= 0, got {self.flip_budget}"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {list(STRATEGIES)}, "
                f"got {self.strategy!r}"
            )

    def policy(self) -> dict:
        """The deadline/retry settings as an auditable outcome block.

        Attached to every ``deadline_expired``/``artifact_error`` outcome
        so a degraded JSONL line carries the settings it degraded under —
        previously those only appeared in the CLI summary line.
        """
        return {
            "deadline_ms": self.deadline_ms,
            "max_retries": self.max_retries,
            "retry_backoff_ms": self.retry_backoff_ms,
        }


class _Deadline:
    """One request's time budget against an injectable clock."""

    __slots__ = ("clock", "start", "budget")

    def __init__(self, clock: Callable[[], float], budget_ms: Optional[float]) -> None:
        self.clock = clock
        self.start = clock()
        self.budget = budget_ms / 1000.0 if budget_ms is not None else None

    @property
    def elapsed(self) -> float:
        return self.clock() - self.start

    @property
    def expired(self) -> bool:
        return self.budget is not None and self.elapsed > self.budget


class DiagnosisServer:
    """Serve diagnosis batches and sessions from pooled artifacts.

    ``default_artifact`` answers requests that do not name their own;
    ``pool`` lets callers share one :class:`ArtifactPool` between servers
    (and lets tests inject fault-raising loaders).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        default_artifact: Optional[str] = None,
        pool: Optional[ArtifactPool] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.default_artifact = (
            str(default_artifact) if default_artifact is not None else None
        )
        self.pool = pool if pool is not None else ArtifactPool(self.config.pool_size)
        self._clock = clock
        self._sleep = sleep

    # ------------------------------------------------------------------
    # batch entry points
    # ------------------------------------------------------------------
    def serve_jsonl(self, lines: Iterable[str]) -> List[DiagnoseResult]:
        """Process a JSONL request stream (one request object per line)."""
        return self.diagnose_batch(parse_jsonl(lines))

    def diagnose_batch(
        self, requests: Iterable[Union[DiagnoseRequest, DiagnoseResult]]
    ) -> List[DiagnoseResult]:
        """One result per request, in request order, degraded never dropped.

        Serves the requests one after another on the calling thread.
        Accepts ready-made results in the input sequence (as
        :func:`~repro.serve.schemas.parse_jsonl` produces for unparseable
        lines) and passes them through in position.
        """
        registry = get_default_registry()
        requests = list(requests)
        registry.counter(M.BATCHES).inc()
        with registry.timer(M.BATCH_SECONDS).time(), \
                trace_span("serve.batch", requests=len(requests)):
            return [self.diagnose_one(entry) for entry in requests]

    def diagnose_one(
        self, request: Union[DiagnoseRequest, DiagnoseResult]
    ) -> DiagnoseResult:
        """Serve a single request outside a batch (the daemon's work unit).

        Same degradation and metrics semantics as one entry of
        :meth:`diagnose_batch`, without the batch bookkeeping.
        """
        registry = get_default_registry()
        registry.counter(M.REQUESTS).inc()
        if isinstance(request, DiagnoseResult):
            result = request
        else:
            result = self._serve_request(request)
        registry.counter(M.outcome_counter(result.code)).inc()
        return result

    # ------------------------------------------------------------------
    def session(
        self,
        artifact: Optional[str] = None,
        *,
        stall_after: int = 3,
        flip_budget: Optional[int] = None,
    ) -> DiagnosisSession:
        """Open an incremental multi-observation session on an artifact.

        The artifact goes through the same pool (hot sessions on a warm
        dictionary cost no load).  ``flip_budget=None`` inherits the
        server's configured default.
        """
        entry = self.pool.get(self._artifact_for(artifact))
        budget = (
            flip_budget if flip_budget is not None else self.config.flip_budget
        )
        return DiagnosisSession(
            entry.built.dictionary,
            stall_after=stall_after,
            flip_budget=budget,
        )

    # ------------------------------------------------------------------
    # per-request machinery
    # ------------------------------------------------------------------
    def _artifact_for(self, override: Optional[str]) -> str:
        path = override if override is not None else self.default_artifact
        if path is None:
            raise ValueError(
                "request names no artifact and the server has no default "
                "(pass default_artifact= or set 'artifact' on the request)"
            )
        return path

    def _serve_request(self, request: DiagnoseRequest) -> DiagnoseResult:
        deadline = _Deadline(self._clock, self.config.deadline_ms)
        with get_default_registry().timer(M.REQUEST_SECONDS).time():
            try:
                result = self._serve_inner(request, deadline)
            except Exception as exc:  # noqa: BLE001 - degradation boundary
                result = DiagnoseResult(
                    request_id=request.request_id,
                    code=INTERNAL_ERROR,
                    detail=f"{type(exc).__name__}: {exc}",
                )
        policy = None
        if result.code in (DEADLINE_EXPIRED, ARTIFACT_ERROR):
            # Deadline/retry degradations carry the settings they
            # degraded under, so the JSONL output alone is auditable.
            policy = tuple(sorted(self.config.policy().items()))
        return replace(result, elapsed_seconds=deadline.elapsed, policy=policy)

    def _serve_inner(
        self, request: DiagnoseRequest, deadline: _Deadline
    ) -> DiagnoseResult:
        try:
            path = self._artifact_for(request.artifact)
        except ValueError as exc:
            return DiagnoseResult(
                request_id=request.request_id, code=BAD_REQUEST, detail=str(exc)
            )

        entry, attempts, failure = self._load_with_retries(path, deadline)
        if entry is None:
            code = DEADLINE_EXPIRED if deadline.expired else ARTIFACT_ERROR
            return DiagnoseResult(
                request_id=request.request_id,
                code=code,
                detail=failure or "artifact load failed",
                attempts=attempts,
            )
        if deadline.expired:
            return DiagnoseResult(
                request_id=request.request_id,
                code=DEADLINE_EXPIRED,
                detail=f"deadline of {self.config.deadline_ms}ms passed "
                "after artifact load",
                attempts=attempts,
            )

        if request.observations is not None:
            return self._serve_session_request(request, entry, attempts, deadline)
        if request.observed is None and request.fault is None:
            return DiagnoseResult(
                request_id=request.request_id,
                code=BAD_REQUEST,
                detail="request carries no observed=, fault= or observations=",
                attempts=attempts,
            )
        return self._serve_lookup(request, entry, attempts, deadline)

    # -- artifact load with retry/backoff ------------------------------
    def _load_with_retries(self, path: str, deadline: _Deadline):
        """Returns ``(entry, attempts, failure_detail)``; entry ``None`` on
        failure.  Only :class:`ArtifactError`/``OSError`` are treated as
        transient; anything else propagates to the internal-error boundary.
        """
        registry = get_default_registry()
        failure: Optional[str] = None
        attempts = 0
        for attempt in range(1 + self.config.max_retries):
            if deadline.expired:
                return None, attempts, failure or "deadline expired before load"
            attempts = attempt + 1
            if attempt:
                registry.counter(M.RETRIES).inc()
                backoff = (
                    self.config.retry_backoff_ms / 1000.0 * (2 ** (attempt - 1))
                )
                if deadline.budget is not None:
                    remaining = deadline.budget - deadline.elapsed
                    if remaining <= 0:
                        return None, attempts - 1, failure
                    backoff = min(backoff, remaining)
                self._sleep(backoff)
            try:
                return self.pool.get(path), attempts, None
            except (ArtifactError, OSError) as exc:
                failure = f"{type(exc).__name__}: {exc}"
        return None, attempts, failure

    # -- the two request flavours --------------------------------------
    def _resolve_observed(self, request: DiagnoseRequest, entry: PoolEntry):
        """The per-test signature sequence a request asks to diagnose.

        Returns ``(observed, problem)`` where ``problem`` is an
        unmodeled-response detail string when the request does not fit
        the dictionary.
        """
        table = entry.table
        if request.fault is not None:
            index = entry.fault_index(request.fault)
            if index is None:
                return None, (
                    f"fault {request.fault!r} is not in the artifact's "
                    f"{table.n_faults}-fault catalogue"
                )
            return list(table.full_row(index)), None
        observed = request.observed
        if len(observed) != table.n_tests:
            return None, (
                f"observed response has {len(observed)} tests, dictionary "
                f"has {table.n_tests}"
            )
        for j, signature in enumerate(observed):
            for output in signature:
                if output >= table.n_outputs:
                    return None, (
                        f"observed[{j}] names output {output}, dictionary "
                        f"has {table.n_outputs} outputs"
                    )
        return list(observed), None

    def _effective(self, request: DiagnoseRequest) -> tuple:
        """Resolve the request's fleet knobs against the config defaults."""
        max_faults = (
            request.max_faults
            if request.max_faults is not None else self.config.max_faults
        )
        flip_budget = (
            request.flip_budget
            if request.flip_budget is not None else self.config.flip_budget
        )
        return max_faults, flip_budget

    def _serve_lookup(
        self,
        request: DiagnoseRequest,
        entry: PoolEntry,
        attempts: int,
        deadline: _Deadline,
    ) -> DiagnoseResult:
        registry = get_default_registry()
        observed, problem = self._resolve_observed(request, entry)
        if problem is not None:
            return DiagnoseResult(
                request_id=request.request_id,
                code=UNMODELED_RESPONSE,
                detail=problem,
                attempts=attempts,
            )
        max_faults, flip_budget = self._effective(request)
        if max_faults == 1 and flip_budget == 0:
            # Classic single-fault exact path — byte-identical to the
            # pre-fleet server for default requests.
            with registry.timer(M.DIAGNOSE_SECONDS).time():
                diagnosis = entry.diagnoser.diagnose(
                    observed, limit=request.limit
                )
            exact = tuple(str(fault) for fault in diagnosis.exact)
            ranked = tuple(
                (str(fault), score) for fault, score in diagnosis.ranked
            )
        else:
            # Fleet path: envelope-matched multiplets within the flip
            # budget.  Ranked scores stay "tests agreed" so both paths
            # read the same way downstream.
            table = entry.table
            with registry.timer(M.DIAGNOSE_SECONDS).time():
                matches = match_multiplets(
                    table,
                    observed,
                    max_faults=max_faults,
                    flip_budget=flip_budget,
                    limit=request.limit or None,
                )
            faults = table.faults
            exact = tuple(m.render(faults) for m in matches if m.flips == 0)
            ranked = tuple(
                (m.render(faults), table.n_tests - m.flips) for m in matches
            )
        if deadline.expired:
            return DiagnoseResult(
                request_id=request.request_id,
                code=DEADLINE_EXPIRED,
                detail=f"deadline of {self.config.deadline_ms}ms passed "
                "during diagnosis",
                attempts=attempts,
            )
        return DiagnoseResult(
            request_id=request.request_id,
            code=OK,
            exact=exact,
            ranked=ranked,
            attempts=attempts,
        )

    def _serve_session_request(
        self,
        request: DiagnoseRequest,
        entry: PoolEntry,
        attempts: int,
        deadline: _Deadline,
    ) -> DiagnoseResult:
        table = entry.table
        _, flip_budget = self._effective(request)
        session = DiagnosisSession(
            entry.built.dictionary, flip_budget=flip_budget
        )
        for test_index, signature in request.observations:
            if test_index >= table.n_tests:
                return DiagnoseResult(
                    request_id=request.request_id,
                    code=UNMODELED_RESPONSE,
                    detail=f"observation names test {test_index}, dictionary "
                    f"has {table.n_tests} tests",
                    attempts=attempts,
                )
            if any(output >= table.n_outputs for output in signature):
                return DiagnoseResult(
                    request_id=request.request_id,
                    code=UNMODELED_RESPONSE,
                    detail=f"observation on test {test_index} names an output "
                    f">= {table.n_outputs}",
                    attempts=attempts,
                )
            session.observe(test_index, signature)
            if deadline.expired:
                return DiagnoseResult(
                    request_id=request.request_id,
                    code=DEADLINE_EXPIRED,
                    detail=f"deadline of {self.config.deadline_ms}ms passed "
                    f"after {len(session.history)} observations",
                    attempts=attempts,
                    narrowing=tuple(update.after for update in session.history),
                )
        faults = session.candidate_faults()
        if request.limit:
            faults = faults[: request.limit]
        candidates = tuple(str(fault) for fault in faults)
        # A suggestion is computed only when the request names a
        # strategy, so default requests stay byte-identical on the wire.
        suggested = None
        if request.strategy is not None:
            suggested = session.suggest_next_test(request.strategy)
        return DiagnoseResult(
            request_id=request.request_id,
            code=OK,
            exact=candidates,
            attempts=attempts,
            narrowing=tuple(update.after for update in session.history),
            converged=session.converged,
            suggested_test=suggested,
        )
