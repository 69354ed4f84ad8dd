"""Test selection for small dictionaries.

The size of every dictionary organisation is linear in the number of
tests ``k``, so the classical way to shrink a dictionary (the paper's
refs [9], [12]) is to keep only a subset of tests that preserves a chosen
property.  Greedy forward selection plus a reverse pruning pass, with two
preservable properties:

* **detection** — every fault detected by the full test set stays
  detected (enough for pass/fail go/no-go use);
* **resolution** — the full-dictionary partition of the faults is
  unchanged: every pair the whole test set distinguishes is still
  distinguished (what diagnosis actually needs).

The selected test indices can then be fed to
:meth:`repro.sim.responses.ResponseTable.subset` and any dictionary built
on the result.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..sim.responses import ResponseTable
from ..partition import FaultPartition


def select_tests_preserving_detection(table: ResponseTable) -> List[int]:
    """Minimal-ish test subset keeping every detected fault detected.

    Greedy set cover (largest number of newly covered faults first, ties
    to the earlier test) followed by reverse pruning of redundant picks.
    """
    detectors: List[Set[int]] = [
        set(table.detected_indices(j)) for j in range(table.n_tests)
    ]
    must_cover: Set[int] = set().union(*detectors) if detectors else set()
    chosen: List[int] = []
    uncovered = set(must_cover)
    while uncovered:
        best = max(range(table.n_tests), key=lambda j: (len(detectors[j] & uncovered), -j))
        gained = detectors[best] & uncovered
        if not gained:
            break
        chosen.append(best)
        uncovered -= gained
    return _prune(chosen, lambda kept: set().union(*(detectors[j] for j in kept)) >= must_cover if kept else not must_cover)


def select_tests_preserving_resolution(table: ResponseTable) -> List[int]:
    """Test subset preserving the full-dictionary diagnostic resolution.

    Greedy: repeatedly take the test whose response signatures split the
    most still-indistinguished pairs, until the partition equals the one
    induced by all tests; then reverse-prune.  Detection is preserved as a
    side effect (an undetected-vs-detected split is a split).
    """
    target = _full_partition_classes(table)
    target_count = len(target)

    partition = FaultPartition(range(table.n_faults))
    chosen: List[int] = []
    remaining = set(range(table.n_tests))
    while len(partition.classes) < target_count and remaining:
        best_j, best_gain = -1, 0
        for j in sorted(remaining):
            gain = _split_gain(table, j, partition)
            if gain > best_gain:
                best_j, best_gain = j, gain
        if best_gain == 0:
            break
        chosen.append(best_j)
        remaining.discard(best_j)
        for group in table.failing_groups(best_j):
            partition.split(group)

    def preserves(kept: Sequence[int]) -> bool:
        return len(_partition_classes_for(table, kept)) == target_count

    return _prune(chosen, preserves)


def _prune(chosen: List[int], preserves) -> List[int]:
    kept = list(chosen)
    for candidate in reversed(list(kept)):
        trial = [j for j in kept if j != candidate]
        if preserves(trial):
            kept = trial
    return sorted(kept)


def _split_gain(
    table: ResponseTable, test_index: int, partition: FaultPartition
) -> int:
    gain = 0
    class_of = partition.class_of
    classes = partition.classes
    counts: Dict[Tuple[int, int], int] = {}
    for sig_id, group in enumerate(table.failing_groups(test_index)):
        for index in group:
            key = (class_of[index], sig_id)
            counts[key] = counts.get(key, 0) + 1
    per_class: Dict[int, List[int]] = {}
    for (cid, _), count in counts.items():
        per_class.setdefault(cid, []).append(count)
    for cid, split_sizes in per_class.items():
        size = len(classes[cid])
        rest = size - sum(split_sizes)
        sizes = split_sizes + ([rest] if rest else [])
        gain += _pairs(size) - sum(_pairs(s) for s in sizes)
    return gain


def _pairs(size: int) -> int:
    return size * (size - 1) // 2


def _full_partition_classes(table: ResponseTable) -> List[Tuple[int, ...]]:
    return _partition_classes_for(table, range(table.n_tests))


def _partition_classes_for(
    table: ResponseTable, tests: Sequence[int]
) -> List[Tuple[int, ...]]:
    groups: Dict[tuple, List[int]] = {}
    for index in range(table.n_faults):
        key = tuple(table.signature(index, j) for j in tests)
        groups.setdefault(key, []).append(index)
    return [tuple(members) for members in groups.values()]
