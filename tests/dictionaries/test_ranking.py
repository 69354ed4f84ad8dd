"""Ranking int rows: one integer key per fault, against per-fault objects.

Same/different and pass/fail dictionaries store one bit per test, so
their ranking (:func:`~repro.dictionaries.base.rank_int_rows`) scores a
fault by a popcount and keeps the best ``limit`` with ``heapq``.  The
reference is the ranking it replaced: one :class:`ScoredCandidate` per
fault, every one sorted by score descending, then fault index, then
sliced to ``limit`` (a negative limit drops that many from the end).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionaries.base import ScoredCandidate
from repro.dictionaries.passfail import PassFailDictionary
from repro.dictionaries.samediff import SameDifferentDictionary
from tests.util import random_table


def reference_ranking(dictionary, observed, limit):
    scored = [
        ScoredCandidate(index, dictionary.match_score(index, observed))
        for index in range(dictionary.table.n_faults)
    ]
    scored.sort(key=lambda c: (-c.score, c.fault_index))
    return scored[:limit]


@settings(max_examples=80, deadline=None)
@given(
    n_faults=st.integers(1, 40),
    n_tests=st.integers(0, 6),
    density=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_ranking_matches_the_per_fault_sort(n_faults, n_tests, density, seed, data):
    # Few tests over up to 40 faults: most scores are tied.
    table = random_table(n_faults, n_tests, 2, seed, density=density)
    source = data.draw(st.integers(0, n_faults - 1), label="observed fault")
    observed = [
        data.draw(st.sampled_from(table.candidate_signatures(j)), label=f"z{j}")
        if data.draw(st.booleans(), label=f"noisy{j}")
        else table.signature(source, j)
        for j in range(n_tests)
    ]
    baselines = [table.candidate_signatures(j)[-1] for j in range(n_tests)]
    for dictionary in (
        SameDifferentDictionary(table, baselines),
        PassFailDictionary(table),
    ):
        for limit in (0, 1, 10, n_faults + 1, -1):
            assert dictionary.ranked_candidates(observed, limit) == (
                reference_ranking(dictionary, observed, limit)
            )
