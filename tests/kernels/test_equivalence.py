"""Differential property tests: the packed kernels vs the naive oracle.

Every public kernel primitive must be *byte-identical* across the two —
not statistically close, not equal-up-to-tie-breaks.  Hypothesis hunts
for a response table where any primitive (candidate scoring, the full
Procedure 1 run, pair counting, Procedure 2) disagrees between ``naive``
and ``packed``, including tables shaped so that packed's Procedure 1
hands over from its entry-major to its class-major phase at the first
test, in mid-order, or never, and Procedure 2 runs that start from
random baselines.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DictionaryConfig, build
from repro.dictionaries import select_baselines
from repro.faults import Fault
from repro.partition import FaultPartition
from repro.kernels.packed import HANDOVER_RATIO
from repro.obs import scoped_registry
from repro.sim import PASS, ResponseTable, TestSet
from tests.util import KERNELS, distinct_table, random_table, use_kernel

NAIVE = KERNELS["naive"]
PACKED = KERNELS["packed"]

#: Every kernel that must match the reference, differential-test order.
OTHERS = (PACKED,)


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


def _table(failing, n_tests, n_outputs):
    """A response table of per-fault ``{test: signature}`` dicts."""
    return ResponseTable(
        tuple(f"z{o}" for o in range(n_outputs)),
        [Fault(f"f{i}", 0) for i in range(len(failing))],
        TestSet(("i0",), [0] * n_tests),
        failing,
        {f"z{o}": 0 for o in range(n_outputs)},
    )


@settings(max_examples=40, deadline=None)
@given(table=tables(), lower=st.sampled_from([1, 2, 10, 10**9]))
def test_procedure1_identical(table, lower):
    """Same baselines, counts, evaluation totals, cutoffs and winners."""
    order = range(table.n_tests)
    reference = _run_tuple(NAIVE.procedure1(table, order, lower))
    for other in OTHERS:
        assert _run_tuple(other.procedure1(table, order, lower)) == reference, (
            other.name
        )


@st.composite
def handover_tables(draw):
    """``(shape, order, quiet, table)``: packed's Procedure 1 hand-over placed.

    Packed scores entry-major while the faults in classes of size >= 2
    number more than ``HANDOVER_RATIO`` times the current test's detected
    entries.  ``"first"`` makes the first test of ``order`` detect every
    fault; ``"mid"`` does that for a later test; ``"never"`` leaves so
    many faults (``quiet`` of them) undetected by every test that they
    stay one live class too large for any test's entries to reach.
    """
    shape = draw(st.sampled_from(["first", "mid", "never"]))
    n_faults = draw(st.integers(min_value=2, max_value=14))
    n_tests = draw(st.integers(min_value=1, max_value=7))
    n_outputs = draw(st.integers(min_value=1, max_value=3))
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    order = draw(st.permutations(range(n_tests)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    dense = None  # the order position of the test that detects every fault
    if shape == "first":
        dense = 0
    elif shape == "mid":
        dense = draw(st.integers(min_value=min(1, n_tests - 1),
                                 max_value=n_tests - 1))
    quiet = 0
    if shape == "never":
        quiet = HANDOVER_RATIO * n_faults // (HANDOVER_RATIO + 1) + 1
    failing = [{} for _ in range(n_faults)]
    for position, j in enumerate(order):
        # Before a mid-order dense test, tests detect little, so the
        # hand-over waits for it.
        sparse = dense is not None and position < dense
        for i in range(quiet, n_faults):
            if position == dense or rng.random() < (0.1 if sparse else density):
                outputs = rng.sample(range(n_outputs), rng.randint(1, n_outputs))
                failing[i][j] = tuple(sorted(outputs))
    return shape, order, quiet, _table(failing, n_tests, n_outputs)


@settings(max_examples=60, deadline=None)
@given(case=handover_tables(), lower=st.sampled_from([1, 2, 10, 10**9]))
def test_procedure1_identical_across_the_handover(case, lower):
    """Same baselines, counts, winners and evaluated/cutoffs totals,
    wherever the entry-major phase hands over."""
    shape, order, quiet, table = case
    entries = [len(faults) for faults, _ in table.interned.entries]
    if shape == "first":
        assert entries[order[0]] == table.n_faults
    elif shape == "never":
        assert HANDOVER_RATIO * max(entries) < quiet
    reference = _run_tuple(NAIVE.procedure1(table, order, lower))
    assert _run_tuple(PACKED.procedure1(table, order, lower)) == reference


@settings(max_examples=25, deadline=None)
@given(table=tables(min_faults=2), data=st.data())
def test_candidate_distances_identical(table, data):
    """dist(z) per candidate matches in value, signature and members."""
    # Compare both on the fresh partition and on a refined mid-run one.
    partition = FaultPartition(range(table.n_faults))
    _, refined, _ = select_baselines(table)
    for p in (partition, refined):
        for j in range(table.n_tests):
            reference = NAIVE.candidate_distances(table, j, p)
            for other in OTHERS:
                assert other.candidate_distances(table, j, p) == reference, (
                    other.name
                )


@settings(max_examples=25, deadline=None)
@given(table=tables())
def test_pair_counts_identical(table):
    want_passfail = NAIVE.passfail_indistinguished(table)
    want_full = NAIVE.full_indistinguished(table)
    for other in OTHERS:
        name = other.name
        assert other.passfail_indistinguished(table) == want_passfail, name
        assert other.full_indistinguished(table) == want_full, name


def _random_baselines(table, rng):
    """One baseline per test, drawn uniformly from its ``Z_j``."""
    return [
        rng.choice(table.candidate_signatures(j)) for j in range(table.n_tests)
    ]


def _replace_agrees(table, baselines, max_passes=10):
    """``(baselines, distinguished, passes, replacements, attempts)``,
    asserted identical across the kernels."""
    reference = NAIVE.replace(table, baselines, max_passes)
    for other in OTHERS:
        assert other.replace(table, baselines, max_passes) == reference, (
            other.name
        )
    return reference


@settings(max_examples=40, deadline=None)
@given(
    table=tables(min_faults=2, min_tests=1),
    max_passes=st.sampled_from([1, 10]),
    start=st.sampled_from(["procedure1", "random"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_replace_identical(table, max_passes, start, seed):
    """Procedure 2: identical trajectory, not just an equal final count.

    It starts from Procedure 1's baselines, or from baselines drawn at
    random from each ``Z_j``: a failing signature as the current
    baseline, replacements mid-pass and several passes.
    """
    if start == "procedure1":
        baselines = NAIVE.procedure1(table, range(table.n_tests), 10).baselines
    else:
        baselines = _random_baselines(table, random.Random(seed))
    _replace_agrees(table, baselines, max_passes)


@settings(max_examples=40, deadline=None)
@given(
    table=tables(min_faults=2, min_tests=1),
    max_passes=st.sampled_from([1, 10]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_replace_identical_from_baselines_outside_z(table, max_passes, seed):
    """Procedure 2 from baselines outside ``Z_j`` on random tests: such a
    baseline splits nothing, every member of ``Z_j`` is an attempt, and
    one that is not replaced comes back as given."""
    rng = random.Random(seed)
    outside = (table.n_outputs,)  # an output index past the last one
    baselines = [
        outside if rng.random() < 0.5 else b
        for b in _random_baselines(table, rng)
    ]
    final, *_ = _replace_agrees(table, baselines, max_passes)
    assert len(final) == table.n_tests


class TestReplaceShapes:
    """Procedure 2 shapes the random tables rarely or never draw, each
    from Procedure 1's baselines and from random ones."""

    def _starts(self, table, seeds=range(4)):
        yield NAIVE.procedure1(table, range(table.n_tests), 10).baselines
        for seed in seeds:
            yield _random_baselines(table, random.Random(seed))

    def test_random_start_replaces_over_several_passes(self):
        # The property test's random start reaches the paths a Procedure 1
        # start seldom does: at least two replacements and a second pass.
        table = random_table(14, 6, 3, seed=5)
        final, _, passes, replacements, _ = _replace_agrees(
            table, _random_baselines(table, random.Random(1))
        )
        assert passes >= 2 and replacements >= 2
        assert any(b != PASS for b in final)

    def test_two_byte_column(self):
        # Test 0 answers with 290 distinct signatures (|Z_0| = 291), so its
        # column and its entries' ids are two-byte arrays.
        rng = random.Random(7)
        failing = []
        for i in range(600):
            row = {} if i % 7 == 0 else {0: (i % 290,)}
            for j in (1, 2, 3):
                if rng.random() < 0.5:
                    row[j] = (290 + rng.randrange(3),)
            failing.append(row)
        table = _table(failing, 4, 293)
        assert table.interned.cols[0].typecode == "H"
        assert table.interned.entries[0][1].typecode == "H"
        for baselines in self._starts(table):
            _replace_agrees(table, baselines)

    def test_a_test_that_detects_no_fault(self):
        # Test 2 detects nothing: |Z_2| = 1 and its entries are empty.
        rng = random.Random(8)
        failing = [
            {j: (rng.randrange(3),) for j in (0, 1, 3) if rng.random() < 0.6}
            for _ in range(16)
        ]
        table = _table(failing, 4, 3)
        assert len(table.interned.entries[2][0]) == 0
        for baselines in self._starts(table):
            final, *_ = _replace_agrees(table, baselines)
            assert final[2] == PASS

    def test_a_test_that_detects_every_fault(self):
        # Test 1 detects all 16 faults: the fault-free baseline splits
        # nothing there, only its failing candidates can.
        rng = random.Random(9)
        failing = []
        for _ in range(16):
            row = {j: (rng.randrange(3),) for j in (0, 2) if rng.random() < 0.5}
            row[1] = (rng.randrange(3),)
            failing.append(row)
        table = _table(failing, 3, 3)
        assert len(table.interned.entries[1][0]) == table.n_faults
        for baselines in self._starts(table):
            _replace_agrees(table, baselines)


def _strip_seconds(report_dict):
    return {k: v for k, v in report_dict.items() if not k.endswith("_seconds")}


def _kernel_counters(registry):
    counters = registry.snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(("procedure1.", "procedure2.", "build."))
    }


def _build_result(table, seed, leg):
    with scoped_registry() as registry, use_kernel(leg):
        built = build(table, config=DictionaryConfig(seed=seed, calls1=3))
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
                assert _run_tuple(run) == reference, backend.name
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
            assert _run_tuple(run) == reference, backend.name
            assert run.winners == []
            assert run.baselines == [PASS] * 3 or all(
                b == run.baselines[0] for b in run.baselines
            )


class TestAdversarialShapes:
    """Satellite shapes every backend must agree on, build included."""

    def _builds_agree(self, table, calls=3, seed=0):
        reference = _build_result(table, seed, "naive")
        assert _build_result(table, seed, "packed") == reference
        return reference

    def test_zero_tests_build(self):
        self._builds_agree(random_table(7, 0, 2, seed=11))

    def test_single_fault(self):
        table = random_table(1, 5, 2, seed=12, density=0.7)
        reference = _run_tuple(NAIVE.procedure1(table, range(5), 10))
        for backend in OTHERS:
            assert _run_tuple(backend.procedure1(table, range(5), 10)) == (
                reference
            ), backend.name
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
            ), backend.name
        self._builds_agree(table)

    def test_two_byte_columns_pair_counts(self):
        # 600 faults in 300 identical pairs: |Z_j| = 301 needs two-byte
        # columns, and every pair stays indistinguished.
        n = 600
        table = ResponseTable(
            tuple(f"z{o}" for o in range(n // 2)),
            [Fault(f"f{i}", 0) for i in range(n)],
            TestSet(("i0",), [0, 0]),
            [{0: (i // 2,), 1: ((i // 2 + 1) % (n // 2),)} for i in range(n)],
            {f"z{o}": 0 for o in range(n // 2)},
        )
        assert {col.typecode for col in table.interned.cols} == {"H"}
        for backend in (NAIVE,) + OTHERS:
            assert backend.full_indistinguished(table) == n // 2, backend.name

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
