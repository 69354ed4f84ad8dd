"""Differential property tests: every backend vs the naive reference.

Every public kernel primitive must be *byte-identical* across backends —
not statistically close, not equal-up-to-tie-breaks.  Hypothesis hunts
for a response table where any primitive (candidate scoring, the full
Procedure 1 run, pair counting, Procedure 2) disagrees between ``naive``
and any of: ``packed``, ``vector`` (numpy path), or ``vector`` built
with numpy blocked, which runs its pure-Python ``array`` path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DictionaryConfig, build
from repro.partition import Partition
from repro.kernels import get_backend
from repro.obs import scoped_registry
from repro.sim import PASS
from tests.util import (
    distinct_table,
    fallback_vector_registered,
    numpy_free_vector_backend,
    random_table,
)

NAIVE = get_backend("naive")
PACKED = get_backend("packed")
VECTOR = get_backend("vector")
VECTOR_FALLBACK = numpy_free_vector_backend()

#: Every backend that must match the reference, differential-test order.
OTHERS = (PACKED, VECTOR, VECTOR_FALLBACK)


def _backend_id(backend):
    if backend is VECTOR_FALLBACK:
        return "vector-fallback"
    return backend.name


@st.composite
def tables(draw, min_faults=0, max_faults=14, min_tests=0, max_tests=7):
    n_faults = draw(st.integers(min_value=min_faults, max_value=max_faults))
    n_tests = draw(st.integers(min_value=min_tests, max_value=max_tests))
    n_outputs = draw(st.integers(min_value=1, max_value=3))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_table(n_faults, n_tests, n_outputs, seed, density=density)


def _run_tuple(run):
    return (run.baselines, run.distinguished, run.evaluated, run.cutoffs,
            run.winners)


@settings(max_examples=40, deadline=None)
@given(table=tables(), lower=st.sampled_from([1, 2, 10, 10**9]))
def test_procedure1_identical(table, lower):
    """Same baselines, counts, evaluation totals, cutoffs and winners."""
    order = range(table.n_tests)
    reference = _run_tuple(NAIVE.procedure1(table, order, lower))
    for other in OTHERS:
        assert _run_tuple(other.procedure1(table, order, lower)) == reference, (
            _backend_id(other)
        )


@settings(max_examples=25, deadline=None)
@given(table=tables(min_faults=2), data=st.data())
def test_candidate_distances_identical(table, data):
    """dist(z) per candidate matches in value, signature and members."""
    # Compare both on the fresh partition and on a refined mid-run one.
    partition = Partition(range(table.n_faults))
    refined = NAIVE.procedure1(table, range(table.n_tests), 10).partition
    for p in (partition, refined):
        for j in range(table.n_tests):
            reference = NAIVE.candidate_distances(table, j, p)
            for other in OTHERS:
                assert other.candidate_distances(table, j, p) == reference, (
                    _backend_id(other)
                )


@settings(max_examples=25, deadline=None)
@given(table=tables())
def test_pair_counts_identical(table):
    baselines = NAIVE.procedure1(table, range(table.n_tests), 10).baselines
    # A baseline outside Z_j ∪ {PASS} must count like "splits nothing".
    junk = [(97, 98, 99)] * table.n_tests
    want_for = NAIVE.indistinguished_for(table, baselines)
    want_junk = NAIVE.indistinguished_for(table, junk)
    want_passfail = NAIVE.passfail_indistinguished(table)
    want_full = NAIVE.full_indistinguished(table)
    for other in OTHERS:
        name = _backend_id(other)
        assert other.indistinguished_for(table, baselines) == want_for, name
        assert other.indistinguished_for(table, junk) == want_junk, name
        assert other.passfail_indistinguished(table) == want_passfail, name
        assert other.full_indistinguished(table) == want_full, name


@settings(max_examples=20, deadline=None)
@given(table=tables(min_faults=2, min_tests=1), max_passes=st.sampled_from([1, 10]))
def test_replace_identical(table, max_passes):
    """Procedure 2: identical trajectory, not just an equal final count."""
    baselines = NAIVE.procedure1(table, range(table.n_tests), 10).baselines
    reference = NAIVE.replace(table, baselines, max_passes)
    for other in OTHERS:
        assert other.replace(table, baselines, max_passes) == reference, (
            _backend_id(other)
        )


def _strip_seconds(report_dict):
    return {k: v for k, v in report_dict.items() if not k.endswith("_seconds")}


def _kernel_counters(registry):
    counters = registry.snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(("procedure1.", "procedure2.", "build."))
    }


def _build_result(table, seed, backend_name):
    with scoped_registry() as registry:
        built = build(
            table,
            config=DictionaryConfig(seed=seed, calls1=3, backend=backend_name),
        )
        return (
            built.dictionary.baselines,
            [built.dictionary.row(i) for i in range(table.n_faults)],
            _strip_seconds(built.report.as_dict()),
            _kernel_counters(registry),
        )


@settings(max_examples=10, deadline=None)
@given(table=tables(), seed=st.integers(min_value=0, max_value=10**4))
def test_full_build_identical(table, seed):
    """End-to-end via repro.api.build: dictionary, report and metrics."""
    reference = _build_result(table, seed, "naive")
    assert _build_result(table, seed, "packed") == reference
    assert _build_result(table, seed, "vector") == reference
    with fallback_vector_registered():
        assert _build_result(table, seed, "vector") == reference


class TestDegenerateTables:
    """The shapes most likely to trip backend bookkeeping, pinned explicitly."""

    def test_no_tests(self):
        table = random_table(6, 0, 2, seed=1)
        for backend in (NAIVE,) + OTHERS:
            run = backend.procedure1(table, range(0), 10)
            assert run.baselines == [] and run.distinguished == 0
            assert backend.full_indistinguished(table) == 15  # C(6, 2)

    def test_too_few_faults(self):
        for n_faults in (0, 1):
            table = random_table(n_faults, 4, 2, seed=2)
            reference = _run_tuple(NAIVE.procedure1(table, range(4), 10))
            for backend in OTHERS:
                run = backend.procedure1(table, range(4), 10)
                assert _run_tuple(run) == reference, _backend_id(backend)
                assert run.distinguished == 0

    def test_all_identical_column(self):
        # density=1.0 with one output: every fault fails every test with
        # the same signature, so no candidate ever splits anything.
        table = random_table(8, 3, 1, seed=3, density=1.0)
        for j in range(table.n_tests):
            assert len(table.failing_signatures(j)) <= 1
        reference = _run_tuple(NAIVE.procedure1(table, range(3), 10))
        for backend in OTHERS:
            run = backend.procedure1(table, range(3), 10)
            assert _run_tuple(run) == reference, _backend_id(backend)
            assert run.winners == []
            assert run.baselines == [PASS] * 3 or all(
                b == run.baselines[0] for b in run.baselines
            )


class TestAdversarialShapes:
    """Satellite shapes every backend must agree on, build included."""

    BACKENDS = ("naive", "packed", "vector")

    def _builds_agree(self, table, calls=3, seed=0):
        reference = _build_result(table, seed, "naive")
        for name in ("packed", "vector"):
            assert _build_result(table, seed, name) == reference, name
        with fallback_vector_registered():
            assert _build_result(table, seed, "vector") == reference
        return reference

    def test_zero_tests_build(self):
        self._builds_agree(random_table(7, 0, 2, seed=11))

    def test_single_fault(self):
        table = random_table(1, 5, 2, seed=12, density=0.7)
        reference = _run_tuple(NAIVE.procedure1(table, range(5), 10))
        for backend in OTHERS:
            assert _run_tuple(backend.procedure1(table, range(5), 10)) == (
                reference
            ), _backend_id(backend)
        self._builds_agree(table)

    def test_all_pass_columns(self):
        # density=0: no fault ever fails, every candidate set is {PASS}.
        table = random_table(9, 4, 2, seed=13, density=0.0)
        for backend in (NAIVE,) + OTHERS:
            run = backend.procedure1(table, range(4), 10)
            assert run.baselines == [PASS] * 4
            assert run.distinguished == 0 and run.winners == []
            assert backend.passfail_indistinguished(table) == 36  # C(9, 2)
        self._builds_agree(table)

    def test_every_signature_distinct_columns(self):
        table = distinct_table(6, 3)
        for j in range(3):
            assert len(table.failing_signatures(j)) == 6
        reference = _run_tuple(NAIVE.procedure1(table, range(3), 10))
        # Each test's winning candidate splits one singleton off the big
        # class: 5 + 4 + 3 pairs over the three tests.
        assert reference[1] == 12
        for backend in OTHERS:
            assert _run_tuple(backend.procedure1(table, range(3), 10)) == (
                reference
            ), _backend_id(backend)
        self._builds_agree(table)

    def test_restart_ceiling_early_exit_build(self):
        # Enough distinct-signature tests to resolve every pair: the very
        # first restart reaches the ceiling and the restart driver must
        # stop early — identically under every backend.
        table = distinct_table(4, 4)
        reference = self._builds_agree(table, seed=4)
        report = reference[2]
        assert report["procedure1_calls"] < 3, (
            "ceiling early-exit did not trigger; the shape is wrong"
        )
