"""The random-restart loop: seed streams, the restart fold, seed
determinism of ``BuildReport``, the degenerate-input guards, and the
resolution chain the fold's pass/fail floor guarantees."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionaries import FullDictionary, PassFailDictionary, total_pairs
from repro.dictionaries.restarts import (
    RestartFold,
    derive_restart_seed,
    restart_order,
)
from repro.obs import scoped_registry
from repro.sim import PASS
from tests.util import build_sd, random_table


class TestSeedStreams:
    def test_restart_zero_is_natural_order(self):
        assert restart_order(123, 0, 6) == [0, 1, 2, 3, 4, 5]

    def test_orders_are_pure_functions(self):
        for seed in (0, 1, 99):
            for restart in (1, 2, 17):
                assert restart_order(seed, restart, 9) == restart_order(
                    seed, restart, 9
                )

    def test_orders_are_permutations(self):
        for restart in range(1, 20):
            assert sorted(restart_order(5, restart, 11)) == list(range(11))

    def test_streams_decorrelated(self):
        orders = {tuple(restart_order(0, r, 12)) for r in range(40)}
        assert len(orders) > 30  # collisions should be rare, not systematic

    def test_child_seeds_differ_across_parents_and_restarts(self):
        seeds = {derive_restart_seed(s, r) for s in range(10) for r in range(10)}
        assert len(seeds) == 100

    def test_negative_restart_rejected(self):
        with pytest.raises(ValueError):
            derive_restart_seed(0, -1)


class TestRestartFold:
    def test_matches_serial_stopping_rule(self):
        fold = RestartFold(calls=2, ceiling=100, baselines=[PASS], distinguished=0)
        fold.consume(10, [PASS])  # improvement
        assert not fold.done and fold.stale == 0
        fold.consume(10, [PASS])  # tie: stale
        fold.consume(9, [PASS])  # worse: stale -> done
        assert fold.done
        assert fold.calls_made == 3
        assert fold.best_distinguished == 10

    def test_ceiling_stops_immediately(self):
        with scoped_registry() as registry:
            fold = RestartFold(
                calls=5, ceiling=7, baselines=[PASS], distinguished=0
            )
            fold.consume(7, [PASS])
            assert fold.done and fold.ceiling_hit
            assert registry.counter("build.ceiling_early_exits").value == 1

    def test_floor_at_ceiling_needs_no_restart(self):
        fold = RestartFold(calls=5, ceiling=3, baselines=[PASS], distinguished=3)
        assert fold.done and fold.calls_made == 0

    def test_rejects_zero_calls(self):
        with pytest.raises(ValueError):
            RestartFold(calls=0, ceiling=1, baselines=[], distinguished=0)


class TestDegenerateGuards:
    """Regression: empty test sets / sub-pair fault lists short-circuit."""

    def test_no_tests(self):
        table = random_table(10, 0, 2, seed=3)
        dictionary, report = build_sd(table, calls=3)
        assert report.procedure1_calls == 0
        assert report.distinguished_procedure1 == 0
        assert report.distinguished_procedure2 == 0
        assert dictionary.baselines == ()
        assert dictionary.indistinguished_pairs() == 45  # C(10, 2)

    @pytest.mark.parametrize("n_faults", [0, 1])
    def test_too_few_faults(self, n_faults):
        table = random_table(n_faults, 5, 2, seed=4)
        dictionary, report = build_sd(table, calls=3)
        assert report.procedure1_calls == 0
        assert dictionary.baselines == (PASS,) * 5
        assert dictionary.indistinguished_pairs() == 0


class TestSeedDeterminism:
    """Same seed → same BuildReport trajectory, run to run."""

    def test_report_and_baselines_stable(self):
        table = random_table(22, 11, 3, seed=31, density=0.3)
        runs = []
        for _ in range(2):
            with scoped_registry():
                dictionary, report = build_sd(table, calls=5, seed=9)
            runs.append((dictionary, report))
        (dict_a, rep_a), (dict_b, rep_b) = runs
        assert dict_a.baselines == dict_b.baselines
        assert rep_a.procedure1_calls == rep_b.procedure1_calls
        assert rep_a.distinguished_procedure1 == rep_b.distinguished_procedure1
        assert rep_a.distinguished_procedure2 == rep_b.distinguished_procedure2
        assert [
            dict_a.baseline_vector(j) for j in range(table.n_tests)
        ] == [dict_b.baseline_vector(j) for j in range(table.n_tests)]

    def test_floor_never_below_passfail(self):
        # Seeds (with these dimensions) where the unfloored greedy restart
        # loop used to end strictly below the pass/fail dictionary.
        for seed in (99, 878, 1099, 1541, 1603):
            table = random_table(3 + seed % 10, 1 + seed % 5, 2, seed=seed)
            passfail = PassFailDictionary(table)
            with scoped_registry():
                _, report = build_sd(table, calls=2, seed=seed)
            assert (
                report.distinguished_procedure1
                >= passfail.distinguished_pairs()
            )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_faults=st.integers(min_value=2, max_value=14),
    n_tests=st.integers(min_value=1, max_value=7),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
def test_resolution_chain(seed, n_faults, n_tests, density):
    """``passfail <= s/d(P1) <= s/d(P2) <= full`` on any response table.

    An implementation invariant, not a tendency: the restart fold is
    seeded with the all-PASS assignment and Procedure 2 only keeps strict
    improvements, so hypothesis hunts for a table where it fails.
    """
    table = random_table(n_faults, n_tests, 2, seed=seed, density=density)
    passfail = PassFailDictionary(table).distinguished_pairs()
    full = total_pairs(n_faults) - FullDictionary(table).indistinguished_pairs()
    with scoped_registry():
        dictionary, report = build_sd(table, calls=3, seed=seed)
    assert passfail <= report.distinguished_procedure1
    assert report.distinguished_procedure1 <= report.distinguished_procedure2
    assert report.distinguished_procedure2 <= full
    # The reported Procedure 2 count is the dictionary actually returned.
    assert dictionary.indistinguished_pairs() == report.indistinguished_procedure2
