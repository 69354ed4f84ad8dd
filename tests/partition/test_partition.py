"""Unit tests for the canonical partition-refinement engine."""

from __future__ import annotations

import pytest

from repro.partition import (
    FaultPartition,
    indistinguished_after_split,
    indistinguished_pairs,
    pairs_within,
    partition_by_key,
    refine,
    rows_indistinguished,
    total_pairs,
)


class TestPairMath:
    def test_pairs_within(self):
        assert [pairs_within(n) for n in range(5)] == [0, 0, 1, 3, 6]

    def test_total_pairs_is_pairs_within(self):
        assert total_pairs(10) == pairs_within(10) == 45

    def test_indistinguished_pairs_sums_classes(self):
        assert indistinguished_pairs([[0, 1, 2], [3, 4], [5]]) == 3 + 1 + 0

    def test_rows_indistinguished_groups_equal_rows(self):
        assert rows_indistinguished(["a", "b", "a", "a", "b"]) == 3 + 1

    def test_indistinguished_after_split(self):
        # One class of 4 with 1 member matching: C(1,2)+C(3,2)-C(4,2) = -3.
        assert indistinguished_after_split([(0, 1)], [4], base=6) == 3

    def test_partition_by_key_preserves_first_seen_order(self):
        groups = partition_by_key([3, 1, 4, 1, 5], key=lambda i: i % 2)
        assert groups == [[3, 1, 1, 5], [4]]

    def test_refine_passes_singletons_through(self):
        refined = refine([[0], [1, 2, 3]], key=lambda i: i % 2)
        assert refined == [[0], [1, 3], [2]]


class TestFaultPartition:
    def test_starts_as_one_class(self):
        partition = FaultPartition(range(4))
        assert partition.n_classes == 1
        assert partition.indistinguished() == 6
        assert partition.distinguished() == 0
        assert not partition.all_singletons

    def test_split_returns_exact_delta(self):
        partition = FaultPartition(range(5))
        assert partition.split([0, 1]) == 2 * 3
        assert partition.indistinguished() == total_pairs(5) - 6
        assert sorted(partition.sizes(), reverse=True) == [3, 2]

    def test_split_noop_when_whole_class_moves(self):
        partition = FaultPartition(range(4))
        assert partition.split([0, 1, 2, 3]) == 0
        assert partition.n_classes == 1

    def test_split_keeps_member_lists_ascending(self):
        # Even when ``inside`` arrives unsorted (the fault-free
        # candidate's member list is concatenated per group, not sorted),
        # every class stays a sorted index list.
        partition = FaultPartition(range(8))
        partition.split([6, 1, 5])
        partition.split([5, 2])
        for members in partition.classes:
            assert members == sorted(members)

    def test_refine_with_value_is_binary_split(self):
        column = [0, 1, 0, 1, 1]
        binary = FaultPartition(range(5))
        delta = binary.refine(column, value=1)
        split = FaultPartition(range(5))
        assert delta == split.split([1, 3, 4])
        assert binary.sizes() == split.sizes()

    def test_refine_multiway_splits_all_classes_at_once(self):
        column = [0, 1, 2, 0, 1, 2]
        partition = FaultPartition(range(6))
        delta = partition.refine(column)
        assert partition.n_classes == 3
        assert partition.sizes() == [2, 2, 2]
        assert delta == total_pairs(6) - 3 * pairs_within(2)

    def test_all_singletons_terminal(self):
        partition = FaultPartition(range(3))
        partition.refine([0, 1, 2])
        assert partition.all_singletons
        assert partition.indistinguished() == 0
        assert partition.refine([7, 8, 9]) == 0

    def test_n_classes_ignores_dead_remnants(self):
        partition = FaultPartition(range(3))
        partition.split([0])
        partition.split([1])
        assert partition.n_classes == 3
        assert sum(len(m) for m in partition.classes) == 3

    def test_copy_is_independent(self):
        partition = FaultPartition(range(6))
        partition.split([0, 1])
        clone = partition.copy()
        clone.split([0])
        assert clone.indistinguished() < partition.indistinguished()
        assert partition.sizes() == [4, 2]

    def test_from_groups(self):
        partition = FaultPartition.from_groups([[0, 2], [1], [3, 4, 5]])
        assert partition.n_classes == 3
        assert partition.indistinguished() == 1 + 0 + 3
        assert partition.class_of[2] == partition.class_of[0]

    def test_nontrivial_classes(self):
        partition = FaultPartition.from_groups([[0, 2], [1], [3, 4]])
        assert partition.nontrivial_classes() == [[0, 2], [3, 4]]


class TestSnapshots:
    def test_round_trip(self):
        partition = FaultPartition(range(7))
        partition.refine([0, 1, 0, 2, 1, 0, 2])
        restored = FaultPartition.from_doc(partition.to_doc())
        assert restored.sizes() == partition.sizes()
        assert restored.indistinguished() == partition.indistinguished()
        assert sorted(map(sorted, restored.classes)) == sorted(
            sorted(m) for m in partition.classes if m
        )

    def test_doc_is_independent_of_split_history(self):
        # Same final classes through different refinement orders.
        a = FaultPartition(range(6))
        a.split([0, 1])
        a.split([4, 5])
        b = FaultPartition(range(6))
        b.split([2, 3, 4, 5])
        b.split([4, 5])
        assert a.to_doc() == b.to_doc()

    def test_doc_version_pinned(self):
        assert FaultPartition(range(2)).to_doc()["version"] == 1

    def test_from_doc_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            FaultPartition.from_doc({"version": 99, "indices": [], "labels": []})

    def test_from_doc_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            FaultPartition.from_doc(
                {"version": 1, "indices": [0, 1], "labels": [0]}
            )

    def test_from_doc_rejects_out_of_order_labels(self):
        with pytest.raises(ValueError, match="first-use order"):
            FaultPartition.from_doc(
                {"version": 1, "indices": [0, 1, 2], "labels": [0, 2, 1]}
            )
