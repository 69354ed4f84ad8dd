"""The pass/fail fault dictionary.

One bit per (fault, test): 1 when the test detects the fault, i.e. when the
faulty response differs from the *fault-free* response.  ``k * n`` bits.
This is the baseline the same/different dictionary improves on.
"""

from __future__ import annotations

from typing import List, Sequence

from ..kernels import get_backend
from ..sim.responses import PASS, ResponseTable, Signature
from .base import FaultDictionary


class PassFailDictionary(FaultDictionary):
    """Stores each fault's detection word (bit ``j`` = detected by test ``j``)."""

    def __init__(self, table: ResponseTable) -> None:
        super().__init__(table)
        self._rows: List[int] = table.interned.det_words

    @property
    def kind(self) -> str:
        return "pass/fail"

    @property
    def size_bits(self) -> int:
        return self.table.n_tests * self.table.n_faults

    def indistinguished_pairs(self) -> int:
        return get_backend().passfail_indistinguished(self.table)

    def row(self, fault_index: int) -> int:
        return self._rows[fault_index]

    def encode_response(self, signatures: Sequence[Signature]) -> int:
        if len(signatures) != self.table.n_tests:
            raise ValueError(
                f"response has {len(signatures)} tests, dictionary has {self.table.n_tests}"
            )
        word = 0
        for j, sig in enumerate(signatures):
            if tuple(sig) != PASS:
                word |= 1 << j
        return word

    def match_score(self, fault_index: int, signatures: Sequence[Signature]) -> int:
        disagree = bin(self._rows[fault_index] ^ self.encode_response(signatures))
        return self.table.n_tests - disagree.count("1")
