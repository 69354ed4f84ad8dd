"""DiagnosisSession on per-test fault masks, against the per-cell session.

A session holds its candidates as one int bitmask and narrows and scores
them on the dictionary's per-test value masks.  The reference here is
the per-cell session those masks replaced: it reads every surviving
candidate's stored value at every test and groups the values in dicts
(:class:`ReferenceSession`, kept verbatim in behaviour).  Both are driven
through the same observation sequences — repeats, contradictions and,
for full dictionaries, signatures outside ``Z_j`` — and must agree on
the candidate list, the ranked list, the history, ``converged`` and both
strategies' suggestions after every step.
"""

from __future__ import annotations

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DictionaryConfig, build
from repro.dictionaries.compressed import CountDictionary
from repro.dictionaries.full import FullDictionary
from repro.dictionaries.passfail import PassFailDictionary
from repro.dictionaries.samediff import SameDifferentDictionary
from repro.faults import Fault
from repro.obs import scoped_registry
from repro.serve import (
    DiagnoseRequest,
    DiagnosisServer,
    DiagnosisSession,
    ServeConfig,
)
from repro.sim import ResponseTable, TestSet
from repro.sim.responses import PASS
from repro.store import load_artifact, save_artifact
from tests.util import random_table


class ReferenceSession:
    """The per-cell session: one stored-value read per (candidate, test)."""

    def __init__(self, dictionary, *, stall_after=3, flip_budget=0):
        self.dictionary = dictionary
        self.table = dictionary.table
        self.stall_after = stall_after
        self.flip_budget = flip_budget
        self.candidates = list(range(self.table.n_faults))
        self.history = []
        self._observed = {}
        self._mismatches = {}
        self._stalled = 0

    def _stored_value(self, fault_index, test_index):
        dictionary = self.dictionary
        if isinstance(dictionary, SameDifferentDictionary):
            return (dictionary.row(fault_index) >> test_index) & 1
        if isinstance(dictionary, PassFailDictionary):
            return self.table.signature(fault_index, test_index) != PASS
        return self.table.signature(fault_index, test_index)

    def _observed_value(self, test_index, signature):
        dictionary = self.dictionary
        if isinstance(dictionary, SameDifferentDictionary):
            return 0 if signature == dictionary.baselines[test_index] else 1
        if isinstance(dictionary, PassFailDictionary):
            return signature != PASS
        return signature

    def observe(self, test_index, signature):
        signature = tuple(signature)
        before = len(self.candidates)
        want = self._observed_value(test_index, signature)
        survivors = []
        for i in self.candidates:
            if self._stored_value(i, test_index) != want:
                misses = self._mismatches.get(i, 0) + 1
                self._mismatches[i] = misses
                if misses > self.flip_budget:
                    continue
            survivors.append(i)
        self.candidates = survivors
        after = len(survivors)
        self._observed[test_index] = signature
        self._stalled = 0 if after < before else self._stalled + 1
        self.history.append(
            (test_index, signature, before, after, self._stalled)
        )

    @property
    def converged(self):
        return (
            len(self.candidates) <= 1
            or self._stalled >= self.stall_after
            or len(self._observed) >= self.table.n_tests
        )

    def ranked_candidates(self):
        return sorted(
            ((i, self._mismatches.get(i, 0)) for i in self.candidates),
            key=lambda item: (item[1], item[0]),
        )

    def _column_groups(self, test_index):
        groups = {}
        for i in self.candidates:
            value = self._stored_value(i, test_index)
            groups[value] = groups.get(value, 0) + 1
        return groups

    @staticmethod
    def _split_pairs(total, groups):
        return (total * (total - 1) - sum(
            size * (size - 1) for size in groups.values()
        )) // 2

    def suggest_next_test(self, strategy="greedy"):
        if len(self.candidates) <= 1:
            return None
        total = len(self.candidates)
        best_test = None
        if strategy == "greedy":
            best_score = 0
            for j in range(self.table.n_tests):
                if j in self._observed:
                    continue
                split = self._split_pairs(total, self._column_groups(j))
                if split > best_score:
                    best_test, best_score = j, split
            return best_test
        best_key = None
        for j in range(self.table.n_tests):
            if j in self._observed:
                continue
            groups = self._column_groups(j)
            if len(groups) <= 1:
                continue
            expected = sum(
                size * math.log2(size) for size in groups.values() if size > 1
            ) / total
            key = (expected, -self._split_pairs(total, groups), j)
            if best_key is None or key < best_key:
                best_test, best_key = j, key
        return best_test


def assert_same(session, reference):
    """Every observable of the two sessions agrees."""
    assert session.candidates == reference.candidates
    assert session.ranked_candidates() == reference.ranked_candidates()
    assert [
        (u.test_index, u.signature, u.before, u.after, u.stalled)
        for u in session.history
    ] == reference.history
    assert session.converged == reference.converged
    for strategy in ("greedy", "entropy"):
        assert session.suggest_next_test(strategy) == (
            reference.suggest_next_test(strategy)
        )


def make_dictionary(kind, table, data=None):
    """A dictionary of one kind over ``table``.  Same/different baselines
    are drawn from ``Z_j`` or from outside it, or without ``data`` are
    each test's last failing response."""
    if kind == "full":
        return FullDictionary(table)
    if kind == "count":  # an organisation on the exact-signature fallback
        return CountDictionary(table)
    if kind == "pass/fail":
        return PassFailDictionary(table)
    outside = (table.n_outputs,)  # an output index past the last one
    baselines = []
    for j in range(table.n_tests):
        choices = table.candidate_signatures(j)
        baselines.append(
            data.draw(st.sampled_from(choices + [outside]), label=f"z_bl,{j}")
            if data is not None else choices[-1]
        )
    return SameDifferentDictionary(table, baselines)


@st.composite
def session_tables(draw):
    n_faults = draw(st.integers(min_value=1, max_value=28))
    n_tests = draw(st.integers(min_value=1, max_value=8))
    n_outputs = draw(st.integers(min_value=1, max_value=3))
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_table(n_faults, n_tests, n_outputs, seed, density=density)


def draw_observation(data, table, fault_index):
    """Mostly the fault's own response; sometimes another fault's, PASS,
    or a signature outside ``Z_j``."""
    j = data.draw(st.integers(0, table.n_tests - 1), label="test")
    choice = data.draw(st.integers(0, 3), label="source")
    if choice == 0:
        return j, table.signature(fault_index, j)
    if choice == 1:
        other = data.draw(st.integers(0, table.n_faults - 1), label="other")
        return j, table.signature(other, j)
    if choice == 2:
        return j, PASS
    # Any output subset; reversed, a subset of two or more outputs is a
    # valid observation that no fault's (sorted) signature can equal.
    subset = tuple(
        o for o in range(table.n_outputs) if data.draw(st.booleans(), label=f"o{o}")
    )
    return j, subset[::-1] if data.draw(st.booleans(), label="reverse") else subset


@settings(max_examples=150, deadline=None)
@given(
    table=session_tables(),
    kind=st.sampled_from(["same/different", "pass/fail", "full", "count"]),
    flip_budget=st.integers(0, 2),
    data=st.data(),
)
def test_mask_session_matches_the_per_cell_session(table, kind, flip_budget, data):
    dictionary = make_dictionary(kind, table, data)
    fault = data.draw(st.integers(0, table.n_faults - 1), label="fault")
    steps = data.draw(st.integers(0, 2 * table.n_tests + 2), label="steps")
    with scoped_registry():
        session = DiagnosisSession(dictionary, flip_budget=flip_budget)
        reference = ReferenceSession(dictionary, flip_budget=flip_budget)
        assert_same(session, reference)
        for _ in range(steps):
            if data.draw(st.booleans(), label="follow suggestion"):
                strategy = data.draw(st.sampled_from(["greedy", "entropy"]))
                j = session.suggest_next_test(strategy)
                if j is None:
                    continue
                signature = table.signature(fault, j)
            else:
                j, signature = draw_observation(data, table, fault)
            session.observe(j, signature)
            reference.observe(j, signature)
            assert_same(session, reference)


def test_entropy_sum_runs_in_first_member_order():
    """Equal entropies up to float rounding: the order of the sum decides.

    Both tests split the 15 faults into groups of 7, 5 and 3, so the
    split counts tie and the exact entropies are equal.  In float,
    ``7·log2 7 + 5·log2 5 + 3·log2 3`` rounds one ulp above
    ``3·log2 3 + 5·log2 5 + 7·log2 7``.  At test 0 the group of 3 is the
    fault-free response: it holds id 0 but its first member comes last.
    Summed in first-member order (the per-cell session's dict order),
    test 0 reads 7, 5, 3 and test 1 reads 3, 5, 7, so test 1 wins.
    Summed in id order, test 0 would read 3, 7, 5, tie with test 1 and
    win on its lower index.
    """
    test0 = [(0,)] * 7 + [(1,)] * 5 + [PASS] * 3
    test1 = [(0,)] * 3 + [(1,)] * 5 + [(2,)] * 7
    faults = [Fault(f"f{i}", 0) for i in range(15)]
    failing = [
        {j: sig for j, sig in enumerate(pair) if sig != PASS}
        for pair in zip(test0, test1)
    ]
    table = ResponseTable(
        ("z0", "z1", "z2"), faults, TestSet(("i0",), [0, 0]), failing,
        {"z0": 0, "z1": 0, "z2": 0},
    )

    def entropy_sum(sizes):
        return sum(n * math.log2(n) for n in sizes)

    assert entropy_sum([7, 5, 3]) > entropy_sum([3, 5, 7])
    assert entropy_sum([3, 7, 5]) == entropy_sum([3, 5, 7])
    dictionary = FullDictionary(table)
    with scoped_registry():
        session = DiagnosisSession(dictionary)
        assert ReferenceSession(dictionary).suggest_next_test("entropy") == 1
        assert session.suggest_next_test("entropy") == 1
        assert session.suggest_next_test("greedy") == 0


def drive_both(dictionary, observations, flip_budget=0):
    with scoped_registry():
        session = DiagnosisSession(dictionary, flip_budget=flip_budget)
        reference = ReferenceSession(dictionary, flip_budget=flip_budget)
        assert_same(session, reference)
        for j, signature in observations:
            session.observe(j, signature)
            reference.observe(j, signature)
            assert_same(session, reference)
    return session


def test_same_different_baseline_outside_z_j():
    """A baseline no fault produces sets the row bit of every fault, so
    its test splits nothing and every modelled observation there reads
    "different" and keeps every candidate."""
    table = random_table(20, 6, 3, seed=4)
    outside = (table.n_outputs,)
    baselines = [
        outside if j % 2 == 0 else table.candidate_signatures(j)[-1]
        for j in range(table.n_tests)
    ]
    dictionary = SameDifferentDictionary(table, baselines)
    assert all(dictionary.row(i) & 0b010101 == 0b010101 for i in range(20))
    with scoped_registry():
        assert DiagnosisSession(dictionary).suggest_next_test() % 2 == 1
    observations = [(j, table.signature(3, j)) for j in (0, 2, 4, 1, 0)]
    for budget in (0, 1):
        session = drive_both(dictionary, observations, flip_budget=budget)
        assert [u.after for u in session.history][:3] == [20, 20, 20]


def test_session_on_a_loaded_artifact(tmp_path):
    table = random_table(40, 12, 3, seed=8)
    built = build(table, config=DictionaryConfig(seed=0, calls1=3))
    save_artifact(built, tmp_path / "a.rfd")
    loaded = load_artifact(tmp_path / "a.rfd").dictionary
    row = table.full_row(5)
    observations = [(j, row[j]) for j in (3, 0, 7, 7, 11)]
    for budget in (0, 1):
        drive_both(loaded, observations, flip_budget=budget)
        drive_both(built.dictionary, observations, flip_budget=budget)


def test_session_on_an_in_memory_build():
    table = random_table(60, 16, 4, seed=12, density=0.4)
    built = build(table, config=DictionaryConfig(seed=1, calls1=5))
    row = table.full_row(17)
    with scoped_registry():
        session = DiagnosisSession(built.dictionary)
        reference = ReferenceSession(built.dictionary)
        while (j := reference.suggest_next_test()) is not None:
            assert session.suggest_next_test() == j
            session.observe(j, row[j])
            reference.observe(j, row[j])
            assert_same(session, reference)
    assert 17 in session.candidates


def test_serving_a_loaded_artifact_reuses_masks_and_skips_det_words(artifact_a):
    """Lookups and sessions on a loaded same/different artifact never
    derive the pass/fail words, and every session on the pooled
    dictionary — each JSONL ``observations`` request opens a fresh one —
    reads the masks the first one derived."""
    path, built = artifact_a
    server = DiagnosisServer(ServeConfig(), default_artifact=str(path))
    row = built.table.full_row(2)
    observations = tuple((j, row[j]) for j in (0, 3, 5))
    with scoped_registry():
        [lookup, first, second] = server.diagnose_batch([
            DiagnoseRequest(request_id="lookup", fault="f2/sa0"),
            DiagnoseRequest(request_id="s1", observations=observations),
            DiagnoseRequest(request_id="s2", observations=observations[:1]),
        ])
        dictionary = server.pool.get(str(path)).built.dictionary
        masks = dictionary.value_masks()
        session = server.session()
        session.observe(*observations[0])
        session.suggest_next_test("entropy")
    assert [o.code for o in (lookup, first, second)] == ["ok"] * 3
    assert "f2/sa0" in first.exact
    assert session._masks is masks
    assert dictionary.value_masks() is masks
    assert "_det_words" not in dictionary.table.interned.__dict__


def suggestion_trace(dictionary, fault):
    """The greedy then entropy suggestions of one session driven to its end."""
    row = dictionary.table.full_row(fault)
    session = DiagnosisSession(dictionary)
    trace = []
    while (j := session.suggest_next_test()) is not None:
        trace.append((j, session.suggest_next_test("entropy")))
        session.observe(j, row[j])
    trace.append(tuple(session.candidates))
    return trace


def test_threads_racing_the_first_mask_derivation():
    """Sessions opened concurrently on one fresh dictionary share the
    masks whichever thread derived them, and suggest what serial
    sessions suggest.  Eight threads (more than the cores a CI host
    has) start together, with the interpreter switching threads every
    microsecond so the derivations interleave."""
    table = random_table(200, 24, 4, seed=21)
    faults = list(range(0, 200, 7))
    chunks = [faults[t::THREADS] for t in range(THREADS)]
    with scoped_registry():
        for kind in ("full", "same/different"):
            expected = {
                f: suggestion_trace(make_dictionary(kind, table), f)
                for f in faults
            }
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(3):
                    dictionary = make_dictionary(kind, table)  # no masks yet
                    start = threading.Barrier(THREADS)

                    def run(chunk):
                        start.wait(timeout=10)
                        return [suggestion_trace(dictionary, f) for f in chunk]

                    with ThreadPoolExecutor(max_workers=THREADS) as pool:
                        got = list(pool.map(run, chunks, timeout=60))
                    assert got == [[expected[f] for f in c] for c in chunks]
            finally:
                sys.setswitchinterval(interval)


THREADS = 8
