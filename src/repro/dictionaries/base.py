"""Shared dictionary framework: the size model and the common interface.

Sizes follow Section 2 of the paper exactly, for ``k`` tests, ``n`` faults
and ``m`` outputs:

* full dictionary: ``k * n * m`` bits,
* pass/fail dictionary: ``k * n`` bits,
* same/different dictionary: ``k * (n + m)`` bits (the ``k * m`` extra
  bits store one baseline output vector per test).

The fault-free response (``k * m`` bits) is needed by every scheme and is
not charged to any of them, again following the paper.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..faults.model import Fault
from ..sim.responses import ResponseTable, Signature
from ..partition import indistinguished_pairs, total_pairs


@dataclass(frozen=True)
class DictionarySizes:
    """Bit sizes of the three dictionary organisations for one experiment."""

    n_faults: int
    n_tests: int
    n_outputs: int

    @property
    def full(self) -> int:
        return self.n_tests * self.n_faults * self.n_outputs

    @property
    def pass_fail(self) -> int:
        return self.n_tests * self.n_faults

    @property
    def same_different(self) -> int:
        return self.n_tests * (self.n_faults + self.n_outputs)

    @classmethod
    def of(cls, table: ResponseTable) -> "DictionarySizes":
        return cls(table.n_faults, table.n_tests, table.n_outputs)


class FaultDictionary(abc.ABC):
    """A precomputed cause-effect diagnosis structure.

    Concrete dictionaries store per-fault *rows* in some encoding, can
    encode an observed response into the same row space, and report their
    diagnostic resolution as the number of fault pairs their rows leave
    indistinguished.
    """

    def __init__(self, table: ResponseTable) -> None:
        self.table = table
        self.faults: Sequence[Fault] = table.faults
        self._row_index: Optional[Dict[object, List[int]]] = None
        self._value_masks: Optional[List[List[int]]] = None

    # -- identity ------------------------------------------------------
    @property
    @abc.abstractmethod
    def kind(self) -> str:
        """Short scheme name ('full', 'pass/fail', 'same/different')."""

    @property
    @abc.abstractmethod
    def size_bits(self) -> int:
        """Storage size of this dictionary in bits (paper's size model)."""

    # -- rows ------------------------------------------------------------
    @abc.abstractmethod
    def row(self, fault_index: int):
        """The stored row of one fault (hashable)."""

    @abc.abstractmethod
    def encode_response(self, signatures: Sequence[Signature]):
        """Encode an observed response (one signature per test) as a row."""

    # -- resolution --------------------------------------------------------
    def _rows_by_value(self) -> Dict[object, List[int]]:
        """Fault indices keyed by stored row, built once and cached.

        Rows are immutable after construction, so the index doubles as the
        row partition (insertion order = first-seen order) and as the
        exact-match lookup table for diagnosis.
        """
        if self._row_index is None:
            index: Dict[object, List[int]] = {}
            for i in range(self.table.n_faults):
                index.setdefault(self.row(i), []).append(i)
            self._row_index = index
        return self._row_index

    def row_partition(self) -> List[List[int]]:
        """Fault indices grouped by identical rows."""
        return [list(members) for members in self._rows_by_value().values()]

    def indistinguished_pairs(self) -> int:
        """Fault pairs this dictionary cannot tell apart (lower is better)."""
        return indistinguished_pairs(self.row_partition())

    def distinguished_pairs(self) -> int:
        return total_pairs(self.table.n_faults) - self.indistinguished_pairs()

    # -- per-test value masks (adaptive sessions) --------------------------
    def value_masks(self) -> List[List[int]]:
        """Per test ``j``: one fault bitmask per value the rows store at ``j``.

        Bit ``i`` of a mask is set when fault ``i`` stores that value, so
        each test's masks partition the faults.  Derived one interned
        column at a time on first use and cached on the dictionary; two
        threads racing the first use each store an equal list, and either
        one serves.
        """
        masks = self._value_masks
        if masks is None:
            interned = self.table.interned
            masks = self._value_masks = [
                self._column_masks(interned, j) for j in range(interned.n_tests)
            ]
        return masks

    def _column_masks(self, interned, test_index: int) -> List[int]:
        """The masks of one test, one per signature id of ``Z_j``: exact
        response agreement, the conservative choice for an organisation
        that does not refine it (it never widens a set a coarser
        encoding would keep)."""
        return interned.id_masks(test_index)

    def match_mask(self, test_index: int, signature: Signature) -> int:
        """The faults whose stored value at one test equals the value an
        observed ``signature`` encodes to (``0`` when none can)."""
        sid = self.table.interned.sig_ids[test_index].get(signature)
        return 0 if sid is None else self.value_masks()[test_index][sid]

    # -- diagnosis ---------------------------------------------------------
    def exact_candidates(self, signatures: Sequence[Signature]) -> List[int]:
        """Faults whose stored row matches the observed response exactly.

        One hash lookup against the cached row index instead of a linear
        scan over every stored row.
        """
        observed = self.encode_response(signatures)
        return list(self._rows_by_value().get(observed, ()))

    @abc.abstractmethod
    def match_score(self, fault_index: int, signatures: Sequence[Signature]) -> int:
        """Number of tests on which the stored row agrees with the response."""

    def ranked_candidates(
        self, signatures: Sequence[Signature], limit: int = 10
    ) -> List["ScoredCandidate"]:
        """Best-matching faults by per-test agreement, descending."""
        scored = [
            ScoredCandidate(index, self.match_score(index, signatures))
            for index in range(self.table.n_faults)
        ]
        scored.sort(key=lambda c: (-c.score, c.fault_index))
        return scored[:limit]


@dataclass(frozen=True)
class ScoredCandidate:
    """One ranked diagnosis candidate: fault index and its agreement score."""

    fault_index: int
    score: int


def rank_int_rows(
    rows: Sequence[int], observed: int, n_tests: int, limit: int
) -> List[ScoredCandidate]:
    """:meth:`FaultDictionary.ranked_candidates` for one-bit-per-test rows.

    A row disagrees with the observed word on ``(row ^ observed).bit_count()``
    tests.  Each fault folds into one int key, ``disagreements·n + index``,
    and ``heapq.nsmallest`` keeps the best ``limit``: score descending,
    then fault index ascending, with no object per fault.
    """
    n = len(rows)
    disagreements = map(int.bit_count, map(observed.__xor__, rows))
    keys = [misses * n + index for index, misses in enumerate(disagreements)]
    best = heapq.nsmallest(limit, keys) if limit >= 0 else sorted(keys)[:limit]
    return [
        ScoredCandidate(index, n_tests - misses)
        for misses, index in (divmod(key, n) for key in best)
    ]
