"""Tests for partition-refinement pair accounting."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.dictionaries import (
    FaultPartition,
    indistinguished_pairs,
    pairs_within,
    refine,
    total_pairs,
)


class TestCounting:
    def test_pairs_within(self):
        assert pairs_within(0) == 0
        assert pairs_within(1) == 0
        assert pairs_within(2) == 1
        assert pairs_within(5) == 10

    def test_total_pairs(self):
        assert total_pairs(4) == 6

    def test_indistinguished(self):
        assert indistinguished_pairs([[1, 2, 3], [4], [5, 6]]) == 4


class TestRefine:
    def test_refine_by_parity(self):
        partition = [[0, 1, 2, 3], [4, 5]]
        refined = refine(partition, key=lambda i: i % 2)
        assert sorted(map(sorted, refined)) == [[0, 2], [1, 3], [4], [5]]

    def test_partition_by_key_preserves_order(self):
        from repro.partition import partition_by_key

        groups = partition_by_key([3, 1, 4, 1, 5], key=lambda i: i % 2)
        assert groups == [[3, 1, 1, 5], [4]]


class TestPartition:
    def test_initial_state(self):
        partition = FaultPartition(range(5))
        assert partition.indistinguished() == 10
        assert partition.distinguished() == 0
        assert len(partition.nontrivial_classes()) == 1

    def test_split_returns_newly_distinguished(self):
        partition = FaultPartition(range(4))
        gained = partition.split([0, 1])
        assert gained == 4  # {0,1} x {2,3}
        assert partition.indistinguished() == 2

    def test_split_noop_when_whole_class(self):
        partition = FaultPartition(range(3))
        assert partition.split([0, 1, 2]) == 0
        assert partition.indistinguished() == 3

    def test_from_groups(self):
        partition = FaultPartition.from_groups([[0, 1], [2]])
        assert partition.indistinguished() == 1
        assert partition.class_of[2] != partition.class_of[0]

    def test_copy_independent(self):
        partition = FaultPartition(range(4))
        clone = partition.copy()
        clone.split([0])
        assert partition.indistinguished() == 6
        assert clone.indistinguished() == 3


@given(
    splits=st.lists(
        st.sets(st.integers(min_value=0, max_value=11), max_size=12),
        min_size=1,
        max_size=6,
    )
)
def test_partition_matches_brute_force(splits):
    """Property: split-based accounting equals explicit pair bookkeeping."""
    n = 12
    partition = FaultPartition(range(n))
    rows = {i: [] for i in range(n)}  # explicit per-fault row of split bits
    for chosen in splits:
        partition.split(sorted(chosen))
        for i in range(n):
            rows[i].append(i in chosen)
    brute = sum(
        1 for a, b in itertools.combinations(range(n), 2) if rows[a] == rows[b]
    )
    assert partition.indistinguished() == brute


@given(
    splits=st.lists(
        st.sets(st.integers(min_value=0, max_value=9), max_size=10),
        min_size=1,
        max_size=5,
    )
)
def test_split_gain_sums_to_distinguished(splits):
    """Property: the sum of split() returns equals the distinguished total."""
    partition = FaultPartition(range(10))
    gained = sum(partition.split(sorted(chosen)) for chosen in splits)
    assert gained == partition.distinguished()
