"""The naive reference kernels: the original pure-Python paths.

:class:`NaiveBackend` delegates to (or re-expresses) the
signature-at-a-time code in :mod:`repro.dictionaries.samediff` that
predates the kernel layer.  It is the differential oracle for
:class:`~repro.kernels.packed.PackedBackend` and the simplest possible
statement of the procedures' semantics: the packed kernels must match it
bit for bit.  Production never imports it; the tests swap it in for
:data:`repro.kernels.KERNEL`.

The imports of ``samediff`` internals happen inside method bodies:
``samediff`` itself imports :mod:`repro.kernels` at module level, and a
top-level import back would cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.responses import ResponseTable, Signature
from .base import Procedure1Run


class NaiveBackend:
    """Reference implementations (see the module docstring)."""

    name = "naive"

    def procedure1(
        self,
        table: ResponseTable,
        order: Sequence[int],
        lower: int,
        timings: Optional[Dict[str, float]] = None,
    ) -> Procedure1Run:
        from ..dictionaries.samediff import _select_naive

        return _select_naive(table, order, lower, timings)

    def candidate_distances(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[Tuple[int, Signature, List[int]]]:
        from ..dictionaries.samediff import _candidate_distances

        return _candidate_distances(table, test_index, partition)

    def refine_scores(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[int]:
        from ..dictionaries.samediff import _refine_scores

        return _refine_scores(table, test_index, partition)

    def passfail_indistinguished(self, table: ResponseTable) -> int:
        from ..partition import rows_indistinguished

        return rows_indistinguished(
            table.detection_word(index) for index in range(table.n_faults)
        )

    def full_indistinguished(self, table: ResponseTable) -> int:
        from ..partition import rows_indistinguished

        return rows_indistinguished(
            table.full_row(index) for index in range(table.n_faults)
        )

    def replace(
        self,
        table: ResponseTable,
        baselines: Sequence[Signature],
        max_passes: int,
    ) -> Tuple[List[Signature], int, int, int, int]:
        from ..dictionaries.samediff import _replace_naive

        return _replace_naive(table, baselines, max_passes)
