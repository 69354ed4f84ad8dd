"""The full fault dictionary: complete output vectors for every (fault, test).

Provides the highest possible diagnostic resolution for a given test set —
every pair the test set can distinguish at all is distinguished — at
``k * n * m`` bits of storage.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import kernels
from ..sim.responses import ResponseTable, Signature
from .base import FaultDictionary


class FullDictionary(FaultDictionary):
    """Stores the complete response row of every fault."""

    def __init__(self, table: ResponseTable) -> None:
        super().__init__(table)
        self._rows: Optional[List[Tuple[Signature, ...]]] = None

    def _full_rows(self) -> List[Tuple[Signature, ...]]:
        """Every fault's full row, built on first use.

        :meth:`indistinguished_pairs` never reads them.  Two threads
        racing the first use each store an equal list; either one serves.
        """
        rows = self._rows
        if rows is None:
            table = self.table
            rows = self._rows = [
                table.full_row(index) for index in range(table.n_faults)
            ]
        return rows

    @property
    def kind(self) -> str:
        return "full"

    @property
    def size_bits(self) -> int:
        return self.table.n_tests * self.table.n_faults * self.table.n_outputs

    def indistinguished_pairs(self) -> int:
        return kernels.KERNEL.full_indistinguished(self.table)

    def row(self, fault_index: int) -> Tuple[Signature, ...]:
        return self._full_rows()[fault_index]

    def encode_response(self, signatures: Sequence[Signature]) -> Tuple[Signature, ...]:
        if len(signatures) != self.table.n_tests:
            raise ValueError(
                f"response has {len(signatures)} tests, dictionary has {self.table.n_tests}"
            )
        return tuple(tuple(s) for s in signatures)

    def match_score(self, fault_index: int, signatures: Sequence[Signature]) -> int:
        row = self._full_rows()[fault_index]
        return sum(1 for j, sig in enumerate(signatures) if row[j] == tuple(sig))
