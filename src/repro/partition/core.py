"""The canonical partition-refinement engine.

The paper's Procedures 1 and 2 are written over the set ``P`` of
still-indistinguished fault pairs.  Materialising ``P`` costs
``O(F^2)`` memory and time; this module is the repo's single home for
the observation that makes large builds possible: two faults remain in
``P`` exactly when their dictionary rows so far are identical, so ``P``
is the set of within-class pairs of an *equivalence partition* of the
faults, and every pair count the procedures need — ``dist(z)``,
indistinguished totals, split deltas — is a function of class sizes,
computable in ``O(F)``.

Contents:

* the pair arithmetic (:func:`pairs_within`, :func:`total_pairs`,
  :func:`indistinguished_pairs`, :func:`indistinguished_after_split`,
  :func:`rows_indistinguished`);
* the grouping helpers (:func:`partition_by_key`, :func:`refine`);
* :class:`FaultPartition` — the mutable refinement engine the build
  stack runs on: interned integer class ids, an incrementally maintained
  indistinguished-pair count, column-driven :meth:`FaultPartition.refine`
  returning split deltas, a class-size multiset, and a stable canonical
  serialisation (:meth:`FaultPartition.to_doc`) used by the ``RFDC``
  build checkpoints.

``repro.dictionaries`` re-exports the pair-count helpers and
``Partition``, an alias of :class:`FaultPartition`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence


def pairs_within(size: int) -> int:
    """Number of unordered pairs inside one class: C(size, 2)."""
    return size * (size - 1) // 2


def indistinguished_pairs(partition: Iterable[Sequence[int]]) -> int:
    """Total within-class pairs of a partition (the paper's indistinguished count)."""
    return sum(pairs_within(len(members)) for members in partition)


def total_pairs(n_faults: int) -> int:
    """All unordered fault pairs C(n, 2) — the initial size of ``P``."""
    return pairs_within(n_faults)


def indistinguished_after_split(
    counts: Sequence[tuple], class_sizes: Sequence[int], base: int
) -> int:
    """Indistinguished pairs when classes split by a candidate's counts.

    ``base`` is the indistinguished count with no split anywhere; a class
    of size ``s`` with ``a`` members matching the candidate contributes
    ``C(a,2) + C(s-a,2)`` instead of ``C(s,2)``.  ``counts`` lists
    ``(class_id, a)`` pairs for the classes the candidate touches.
    """
    indist = base
    for cid, a in counts:
        size = class_sizes[cid]
        indist += pairs_within(a) + pairs_within(size - a) - pairs_within(size)
    return indist


def rows_indistinguished(rows: Iterable[Hashable]) -> int:
    """Indistinguished pairs of faults whose encoded rows are equal.

    The canonical form of the helper previously private to
    ``dictionaries.samediff`` (``_partition_indistinguished``): group by
    row value, sum within-group pairs.
    """
    groups: Dict[Hashable, int] = {}
    for row in rows:
        groups[row] = groups.get(row, 0) + 1
    return sum(pairs_within(count) for count in groups.values())


def partition_by_key(indices: Sequence[int], key) -> List[List[int]]:
    """Group ``indices`` by ``key(index)``, preserving first-seen order."""
    groups: Dict[Hashable, List[int]] = {}
    for index in indices:
        groups.setdefault(key(index), []).append(index)
    return list(groups.values())


def refine(partition: Sequence[Sequence[int]], key) -> List[List[int]]:
    """Split every class of ``partition`` by ``key``; singletons pass through."""
    refined: List[List[int]] = []
    for members in partition:
        if len(members) == 1:
            refined.append(list(members))
        else:
            refined.extend(partition_by_key(members, key))
    return refined


class FaultPartition:
    """A mutable partition of fault indices with O(1) class lookup.

    The engine behind baseline selection, checkpoint snapshots and the
    scale path: ``class_of[i]`` gives the interned class id of fault
    ``i`` and ``classes[cid]`` its member list.  Split classes keep
    their surviving members under the old id; the split-off part gets a
    fresh id, so ids are stable enough to use as dict keys within one
    operation.

    The still-indistinguished pair count is maintained *incrementally*
    from class sizes: :meth:`split` and :meth:`refine` adjust it by the
    exact delta they distinguish, so :meth:`indistinguished` is O(1)
    regardless of fault count — the property the 10k-fault builds rely
    on.
    """

    def __init__(self, indices: Sequence[int]) -> None:
        self.classes: List[List[int]] = [list(indices)]
        self.class_of: Dict[int, int] = {i: 0 for i in indices}
        self._indistinguished = pairs_within(len(self.classes[0]))

    @classmethod
    def from_groups(cls, groups: Sequence[Sequence[int]]) -> "FaultPartition":
        partition = cls([])
        partition.classes = [list(g) for g in groups]
        partition.class_of = {
            i: cid for cid, members in enumerate(partition.classes) for i in members
        }
        partition._indistinguished = indistinguished_pairs(partition.classes)
        return partition

    @property
    def n_indices(self) -> int:
        return len(self.class_of)

    @property
    def n_classes(self) -> int:
        """Number of non-empty classes (dead split remnants excluded)."""
        return sum(1 for members in self.classes if members)

    def sizes(self) -> List[int]:
        """The class-size multiset, descending (non-empty classes only)."""
        return sorted(
            (len(members) for members in self.classes if members), reverse=True
        )

    def indistinguished(self) -> int:
        return self._indistinguished

    def distinguished(self) -> int:
        return total_pairs(self.n_indices) - self._indistinguished

    @property
    def all_singletons(self) -> bool:
        """True when no pair is left to distinguish (refinement can stop)."""
        return self._indistinguished == 0

    def nontrivial_classes(self) -> List[List[int]]:
        return [members for members in self.classes if len(members) > 1]

    def split(self, inside: Iterable[int]) -> int:
        """Split every class into (members in ``inside``) / (the rest).

        Returns the number of pairs distinguished by the split, i.e. the
        decrease of :meth:`indistinguished`.
        """
        inside_by_class: Dict[int, List[int]] = {}
        for index in inside:
            inside_by_class.setdefault(self.class_of[index], []).append(index)
        distinguished = 0
        for cid, moved in inside_by_class.items():
            members = self.classes[cid]
            if len(moved) == len(members):
                continue
            distinguished += len(moved) * (len(members) - len(moved))
            moved_set = set(moved)
            # Both halves keep the class's existing member order, so
            # ascending lists stay ascending no matter how ``inside``
            # was ordered: callers always read a class as a sorted
            # index list.
            remaining = [i for i in members if i not in moved_set]
            moved = [i for i in members if i in moved_set]
            self.classes[cid] = remaining
            new_cid = len(self.classes)
            self.classes.append(moved)
            for index in moved:
                self.class_of[index] = new_cid
        self._indistinguished -= distinguished
        return distinguished

    def refine(self, column: Sequence, value=None) -> int:
        """Refine by a response column; returns the pairs distinguished.

        With ``value`` given this is the binary split of :meth:`split`
        over ``column[i] == value`` (the same/different row bit of one
        test under one baseline).  Without it every class splits
        *multiway* by its members' column values — one pass over the
        live classes instead of one pass per candidate, which is how the
        checkpoint snapshots and class-trajectory counts stay cheap.
        """
        if value is not None:
            return self.split(
                [i for members in self.classes for i in members if column[i] == value]
            )
        distinguished = 0
        for cid in range(len(self.classes)):
            members = self.classes[cid]
            size = len(members)
            if size < 2:
                continue
            buckets: Dict[Hashable, List[int]] = {}
            for i in members:
                buckets.setdefault(column[i], []).append(i)
            if len(buckets) == 1:
                continue
            parts = list(buckets.values())
            distinguished += pairs_within(size) - sum(
                pairs_within(len(part)) for part in parts
            )
            self.classes[cid] = parts[0]
            for part in parts[1:]:
                new_cid = len(self.classes)
                self.classes.append(part)
                for i in part:
                    self.class_of[i] = new_cid
        self._indistinguished -= distinguished
        return distinguished

    def copy(self) -> "FaultPartition":
        clone = type(self)([])
        clone.classes = [list(members) for members in self.classes]
        clone.class_of = dict(self.class_of)
        clone._indistinguished = self._indistinguished
        return clone

    # ------------------------------------------------------------------
    # stable serialisation (RFDC checkpoint snapshots)
    # ------------------------------------------------------------------
    def to_doc(self) -> Dict[str, object]:
        """A canonical JSON-ready snapshot, independent of split history.

        Class labels are renumbered by first appearance over the sorted
        fault indices, so two partitions with the same classes serialise
        identically no matter how they were refined.
        """
        indices = sorted(self.class_of)
        remap: Dict[int, int] = {}
        labels = [
            remap.setdefault(self.class_of[i], len(remap)) for i in indices
        ]
        return {"version": 1, "indices": indices, "labels": labels}

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "FaultPartition":
        if doc.get("version") != 1:
            raise ValueError(
                f"unknown partition snapshot version {doc.get('version')!r}"
            )
        indices = doc["indices"]
        labels = doc["labels"]
        if len(indices) != len(labels):
            raise ValueError(
                f"{len(indices)} indices but {len(labels)} class labels"
            )
        groups: List[List[int]] = []
        seen = -1
        for index, label in zip(indices, labels):
            if label == seen + 1:
                groups.append([])
                seen = label
            elif label > seen:
                raise ValueError(
                    "class labels must appear in first-use order "
                    f"(saw {label} after {seen})"
                )
            groups[label].append(index)
        return cls.from_groups(groups)
