"""DiagnosisServer: deadlines, retries, degradation — with injected time."""

from __future__ import annotations

import pytest

from repro.obs import scoped_registry
from repro.serve import (
    ArtifactPool,
    DiagnoseRequest,
    DiagnoseResult,
    DiagnosisServer,
    ServeConfig,
)
from repro.serve.daemon import DaemonConfig
from repro.store import ArtifactFormatError, load_artifact


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeSleep:
    """Records requested sleeps and advances the paired clock instead."""

    def __init__(self, clock):
        self.clock = clock
        self.calls = []

    def __call__(self, seconds):
        self.calls.append(seconds)
        self.clock.advance(seconds)


def make_server(artifact_path, *, loader=None, clock=None, sleep=None, **cfg):
    clock = clock if clock is not None else FakeClock()
    sleep = sleep if sleep is not None else FakeSleep(clock)
    config = ServeConfig(**cfg)
    pool = ArtifactPool(config.pool_size, loader=loader)
    server = DiagnosisServer(
        config,
        default_artifact=str(artifact_path),
        pool=pool,
        clock=clock,
        sleep=sleep,
    )
    return server, clock, sleep


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="workers"):
            DaemonConfig(workers=0)
        with pytest.raises(ValueError, match="max_retries"):
            ServeConfig(max_retries=-1)
        with pytest.raises(ValueError, match="deadline_ms"):
            ServeConfig(deadline_ms=0)


class TestLookups:
    def test_fault_request_finds_itself(self, artifact_a):
        path, built = artifact_a
        server, _, _ = make_server(path)
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
        assert outcome.code == "ok"
        assert "f0/sa0" in outcome.exact
        assert outcome.attempts == 1

    def test_observed_request_matches_stored_row(self, artifact_a):
        path, built = artifact_a
        observed = tuple(built.table.full_row(3))
        server, _, _ = make_server(path)
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", observed=observed)]
            )
        assert outcome.code == "ok"
        assert "f3/sa0" in outcome.exact

    def test_unknown_fault_is_unmodeled(self, artifact_a):
        path, _ = artifact_a
        server, _, _ = make_server(path)
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="nope/sa1")]
            )
        assert outcome.code == "unmodeled_response"
        assert "catalogue" in outcome.detail

    def test_wrong_test_count_is_unmodeled(self, artifact_a):
        path, _ = artifact_a
        server, _, _ = make_server(path)
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", observed=((0,),))]
            )
        assert outcome.code == "unmodeled_response"
        assert "tests" in outcome.detail

    def test_out_of_range_output_is_unmodeled(self, artifact_a):
        path, built = artifact_a
        observed = [()] * built.table.n_tests
        observed[0] = (99,)
        server, _, _ = make_server(path)
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", observed=tuple(observed))]
            )
        assert outcome.code == "unmodeled_response"
        assert "output" in outcome.detail

    def test_flip_budget_request_recovers_corrupted_row(self, artifact_a):
        path, built = artifact_a
        observed = list(built.table.full_row(3))
        observed[1] = () if observed[1] else (0,)
        server, _, _ = make_server(path)
        with scoped_registry():
            [strict] = server.diagnose_batch([
                DiagnoseRequest(request_id="r1", observed=tuple(observed))
            ])
            [tolerant] = server.diagnose_batch([
                DiagnoseRequest(
                    request_id="r2", observed=tuple(observed), flip_budget=1
                )
            ])
        assert strict.code == "ok" and "f3/sa0" not in strict.exact
        assert tolerant.code == "ok"
        ranked_names = [name for name, _ in tolerant.ranked]
        assert "f3/sa0" in ranked_names

    def test_multiplet_request_names_the_pair(self, artifact_a):
        from repro.diagnosis.multiplet import compose_observation

        path, built = artifact_a
        observed = compose_observation(built.table, (2, 9))
        server, _, _ = make_server(path)
        with scoped_registry():
            [outcome] = server.diagnose_batch([
                DiagnoseRequest(
                    request_id="r1", observed=tuple(observed), max_faults=2
                )
            ])
        assert outcome.code == "ok"
        names = [*outcome.exact, *(name for name, _ in outcome.ranked)]
        assert any("+" in name for name in names)

    def test_config_level_defaults_apply_when_request_is_silent(
        self, artifact_a
    ):
        path, built = artifact_a
        observed = list(built.table.full_row(3))
        observed[1] = () if observed[1] else (0,)
        server, _, _ = make_server(path, flip_budget=1)
        with scoped_registry():
            [outcome] = server.diagnose_batch([
                DiagnoseRequest(request_id="r1", observed=tuple(observed))
            ])
        assert outcome.code == "ok"
        assert "f3/sa0" in [name for name, _ in outcome.ranked]

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError, match="max_faults"):
            ServeConfig(max_faults=0)
        with pytest.raises(ValueError, match="flip_budget"):
            ServeConfig(flip_budget=-1)
        with pytest.raises(ValueError, match="strategy"):
            ServeConfig(strategy="oracle")

    def test_request_with_no_mode_is_bad_request(self, artifact_a):
        path, _ = artifact_a
        server, _, _ = make_server(path)
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1")]
            )
        assert outcome.code == "bad_request"

    def test_no_artifact_anywhere_is_bad_request(self):
        server = DiagnosisServer(ServeConfig())
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
        assert outcome.code == "bad_request"
        assert "default" in outcome.detail

    def test_premade_outcomes_pass_through_in_position(self, artifact_a):
        path, _ = artifact_a
        server, _, _ = make_server(path)
        early = DiagnoseResult(request_id="corrupt", code="bad_request")
        with scoped_registry() as registry:
            outcomes = server.diagnose_batch(
                [
                    DiagnoseRequest(request_id="r1", fault="f0/sa0"),
                    early,
                    DiagnoseRequest(request_id="r3", fault="f1/sa0"),
                ]
            )
            assert [o.request_id for o in outcomes] == ["r1", "corrupt", "r3"]
            assert outcomes[1] is early
            assert registry.counters["serve.outcomes.bad_request"].value == 1
            assert registry.counters["serve.outcomes.ok"].value == 2
            assert registry.counters["serve.requests"].value == 3


class TestRetries:
    def test_transient_faults_retry_with_exponential_backoff(self, artifact_a):
        path, _ = artifact_a
        failures = [
            ArtifactFormatError("flake one"),
            ArtifactFormatError("flake two"),
        ]

        def flaky_loader(p):
            if failures:
                raise failures.pop(0)
            return load_artifact(p)

        server, _, sleep = make_server(
            path, loader=flaky_loader, max_retries=2, retry_backoff_ms=10.0
        )
        with scoped_registry() as registry:
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
            assert outcome.code == "ok"
            assert outcome.attempts == 3
            assert registry.counters["serve.retries"].value == 2
        assert sleep.calls == [0.010, 0.020]

    def test_retries_exhausted_degrades_to_artifact_error(self, artifact_a):
        path, _ = artifact_a

        def broken_loader(p):
            raise ArtifactFormatError("permanently hurt")

        server, _, sleep = make_server(
            path, loader=broken_loader, max_retries=2, retry_backoff_ms=5.0
        )
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
        assert outcome.code == "artifact_error"
        assert outcome.attempts == 3
        assert "permanently hurt" in outcome.detail
        assert sleep.calls == [0.005, 0.010]

    def test_zero_retries_fails_on_first_error(self, artifact_a):
        path, _ = artifact_a

        def broken_loader(p):
            raise ArtifactFormatError("hurt")

        server, _, sleep = make_server(path, loader=broken_loader, max_retries=0)
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
        assert outcome.code == "artifact_error"
        assert outcome.attempts == 1
        assert sleep.calls == []

    def test_unexpected_loader_exception_is_internal_error(self, artifact_a):
        path, _ = artifact_a

        def exploding_loader(p):
            raise RuntimeError("not a transient artifact problem")

        server, _, sleep = make_server(path, loader=exploding_loader)
        with scoped_registry() as registry:
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
            assert registry.counters["serve.outcomes.internal_error"].value == 1
        assert outcome.code == "internal_error"
        assert "RuntimeError" in outcome.detail
        assert sleep.calls == []  # no retry budget spent on non-transients


class TestDeadlines:
    def test_slow_load_expires_the_deadline(self, artifact_a):
        path, _ = artifact_a
        clock = FakeClock()

        def slow_loader(p):
            clock.advance(0.2)  # slower than the 50ms budget
            return load_artifact(p)

        server, _, _ = make_server(
            path, loader=slow_loader, clock=clock, deadline_ms=50.0
        )
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
        assert outcome.code == "deadline_expired"
        assert outcome.elapsed_seconds == pytest.approx(0.2)

    def test_backoff_never_sleeps_past_the_deadline(self, artifact_a):
        path, _ = artifact_a
        clock = FakeClock()

        def broken_loader(p):
            clock.advance(0.001)  # each failed load costs 1ms of budget
            raise ArtifactFormatError("hurt")

        # 1000ms backoff against a 100ms budget: the sleep must be clipped.
        server, _, sleep = make_server(
            path,
            loader=broken_loader,
            clock=clock,
            max_retries=3,
            retry_backoff_ms=1000.0,
            deadline_ms=100.0,
        )
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
        assert outcome.code == "deadline_expired"
        # One clipped backoff, then the budget is gone: no 1s sleep ever ran.
        assert sleep.calls and max(sleep.calls) <= 0.1
        assert outcome.attempts == 2

    def test_no_deadline_means_no_expiry(self, artifact_a):
        path, _ = artifact_a
        clock = FakeClock()

        def slow_loader(p):
            clock.advance(3600.0)
            return load_artifact(p)

        server, _, _ = make_server(path, loader=slow_loader, clock=clock)
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
        assert outcome.code == "ok"

    def test_session_request_reports_partial_narrowing_on_expiry(
        self, artifact_a
    ):
        path, built = artifact_a

        class TickingClock(FakeClock):
            """Every reading costs 10ms — deadline checks see time move."""

            def __call__(self):
                reading = self.now
                self.now += 0.010
                return reading

        # Budget of 35ms against 10ms-per-check: the deadline survives the
        # load and the first observation, then expires on the second.
        server, _, _ = make_server(
            path, clock=TickingClock(), deadline_ms=35.0
        )
        row = built.table.full_row(0)
        observations = tuple((j, row[j]) for j in range(3))
        with scoped_registry():
            server.pool.get(path)  # warm: the load is not the slow part
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", observations=observations)]
            )
        assert outcome.code == "deadline_expired"
        assert outcome.narrowing is not None
        assert len(outcome.narrowing) == 2  # expired after two of three
        assert "2 observations" in outcome.detail


class TestSessionRequests:
    def test_limit_bounds_the_candidates(self, artifact_a):
        from repro.serve import DiagnosisSession

        path, built = artifact_a
        server, _, _ = make_server(path)
        observations = ((0, built.table.full_row(5)[0]),)
        reference = DiagnosisSession(built.dictionary)
        reference.observe(*observations[0])
        names = [str(fault) for fault in reference.candidate_faults()]
        assert len(names) > 1
        with scoped_registry():
            outcomes = server.diagnose_batch([
                DiagnoseRequest(
                    request_id=f"r{limit}", observations=observations, limit=limit
                )
                for limit in (1, 0)
            ])
        assert [o.code for o in outcomes] == ["ok", "ok"]
        assert outcomes[0].exact == tuple(names[:1])
        assert outcomes[1].exact == tuple(names)


class TestJsonl:
    def test_corrupt_line_degrades_only_itself(self, artifact_a):
        path, _ = artifact_a
        server, _, _ = make_server(path)
        lines = [
            '{"id": "good", "fault": "f0/sa0"}',
            "{this is not json",
            '{"id": "alien", "warp": 9}',
        ]
        with scoped_registry():
            outcomes = server.serve_jsonl(lines)
        assert [o.code for o in outcomes] == ["ok", "bad_request", "bad_request"]
        assert "invalid JSON" in outcomes[1].detail
        assert "unknown request fields" in outcomes[2].detail

    def test_outcome_json_round_trip(self, artifact_a):
        import json

        path, _ = artifact_a
        server, _, _ = make_server(path)
        with scoped_registry():
            [outcome] = server.serve_jsonl(['{"fault": "f0/sa0"}'])
        doc = json.loads(outcome.to_json_line())
        assert doc["code"] == "ok"
        assert doc["id"] == "request-1"
        assert doc["attempts"] == 1


class TestPolicyAudit:
    """Degraded outcomes carry the operative deadline/retry settings, so
    a ``deadline_expired``/``artifact_error`` JSONL line is auditable
    without the CLI summary (the PR-8 fix)."""

    def test_deadline_expired_outcome_carries_policy(self, artifact_a):
        path, _ = artifact_a
        clock = FakeClock()

        def slow_loader(p):
            clock.advance(0.2)
            return load_artifact(p)

        server, _, _ = make_server(
            path, loader=slow_loader, clock=clock,
            deadline_ms=50.0, max_retries=1, retry_backoff_ms=7.0,
        )
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
        assert outcome.code == "deadline_expired"
        assert dict(outcome.policy) == {
            "deadline_ms": 50.0, "max_retries": 1, "retry_backoff_ms": 7.0,
        }
        # And it reaches the JSONL line itself.
        import json
        doc = json.loads(outcome.to_json_line())
        assert doc["policy"]["deadline_ms"] == 50.0

    def test_artifact_error_outcome_carries_policy(self, artifact_a):
        path, _ = artifact_a

        def broken_loader(p):
            raise ArtifactFormatError("hurt")

        server, _, _ = make_server(
            path, loader=broken_loader, max_retries=2, retry_backoff_ms=5.0
        )
        with scoped_registry():
            [outcome] = server.diagnose_batch(
                [DiagnoseRequest(request_id="r1", fault="f0/sa0")]
            )
        assert outcome.code == "artifact_error"
        assert dict(outcome.policy) == {
            "deadline_ms": None, "max_retries": 2, "retry_backoff_ms": 5.0,
        }

    def test_ok_and_bad_request_outcomes_carry_no_policy(self, artifact_a):
        path, built = artifact_a
        server, _, _ = make_server(path)
        with scoped_registry():
            outcomes = server.diagnose_batch([
                DiagnoseRequest(
                    request_id="ok", fault=str(built.table.faults[0])
                ),
                DiagnoseRequest(request_id="nope", fault="not-a-fault"),
            ])
        assert [o.code for o in outcomes] == ["ok", "unmodeled_response"]
        for outcome in outcomes:
            assert outcome.policy is None
            assert "policy" not in outcome.as_dict()


class TestDiagnoseOne:
    """The daemon's per-request hot path mirrors one batch entry."""

    def test_counts_outcome_and_matches_batch(self, artifact_a):
        path, built = artifact_a
        server, _, _ = make_server(path)
        request = DiagnoseRequest(
            request_id="solo", fault=str(built.table.faults[1])
        )
        with scoped_registry() as registry:
            single = server.diagnose_one(request)
            assert registry.counters["serve.outcomes.ok"].value == 1
            assert registry.counters["serve.requests"].value == 1
            assert "serve.batches" not in registry.counters
        with scoped_registry():
            [batched] = server.diagnose_batch([request])
        assert single.as_dict() == batched.as_dict()

    def test_premade_outcome_passes_through(self, artifact_a):
        path, _ = artifact_a
        server, _, _ = make_server(path)
        premade = DiagnoseResult(request_id="x", code="bad_request")
        with scoped_registry():
            assert server.diagnose_one(premade) is premade
