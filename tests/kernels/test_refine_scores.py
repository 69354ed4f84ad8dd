"""Differential tests for the class-major ``refine_scores`` primitive.

The packed ``refine_scores`` must be byte-identical to the naive
reference, and to the eager ``candidate_distances`` dists it replaces.  Partitions
are driven to arbitrary refinement depths first, so the equality holds
mid-build, not just on the trivial one-class state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionaries.samediff import _candidate_distances, _refine_scores
from repro.partition import FaultPartition
from tests.util import KERNELS, random_table


def _partition_at_depth(table, depth: int) -> FaultPartition:
    """The partition after refining by the first ``depth`` interned columns."""
    partition = FaultPartition(range(table.n_faults))
    interned = table.interned
    for j in range(min(depth, table.n_tests)):
        partition.refine(interned.cols[j])
    return partition


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_faults=st.integers(min_value=2, max_value=14),
    n_tests=st.integers(min_value=1, max_value=6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
    depth=st.integers(min_value=0, max_value=6),
)
def test_refine_scores_matches_reference_everywhere(
    seed, n_faults, n_tests, density, depth
):
    table = random_table(n_faults, n_tests, 2, seed=seed, density=density)
    partition = _partition_at_depth(table, depth)
    for j in range(n_tests):
        reference = _refine_scores(table, j, partition)
        # The eager reference computes the same dists with member lists.
        eager = [d for d, _, _ in _candidate_distances(table, j, partition)]
        assert reference == eager
        for name, kernel in KERNELS.items():
            got = list(kernel.refine_scores(table, j, partition))
            assert got == reference, f"{name} disagrees on test {j}"


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_refine_scores_on_singleton_partition(name):
    """A fully-refined partition scores zero everywhere, on either kernel."""
    table = random_table(6, 3, 2, seed=9, density=0.9)
    partition = FaultPartition(range(6))
    partition.refine(list(range(6)))
    assert partition.all_singletons
    for j in range(table.n_tests):
        scores = list(KERNELS[name].refine_scores(table, j, partition))
        assert scores == [0] * len(scores)
