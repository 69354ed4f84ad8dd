"""The kernel interface the dictionary procedures call.

:class:`~repro.kernels.packed.PackedBackend` implements it for every
build; :class:`~repro.kernels.naive.NaiveBackend` implements it as the
differential oracle the tests swap in for :data:`repro.kernels.KERNEL`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..sim.responses import ResponseTable, Signature


@dataclass
class Procedure1Run:
    """Outcome of one Procedure 1 call.

    ``winners`` records, per test that split anything, ``(test_index,
    candidate_index)`` of the selected baseline (candidate 0 is the
    fault-free response) — enough to replay the splits into a
    :class:`~repro.partition.FaultPartition` when a caller needs
    the final partition, without paying for it on the restart hot path.
    """

    baselines: List[Signature]
    distinguished: int
    evaluated: int
    cutoffs: int
    winners: List[Tuple[int, int]] = field(default_factory=list)


class KernelBackend(Protocol):
    """The pair-counting primitives of the dictionary procedures.

    All methods must return values identical to the naive reference for
    the same inputs — the packed kernels trade time, never results.
    """

    name: str

    def procedure1(
        self,
        table: ResponseTable,
        order: Sequence[int],
        lower: int,
        timings: Optional[Dict[str, float]] = None,
    ) -> Procedure1Run:
        """Greedy per-test baseline selection over one test order.

        ``timings``, when a dict is passed, accumulates the seconds spent
        in the candidate-scoring loop under key ``"scoring"`` (bench
        instrumentation; pass ``None`` in production).
        """
        ...

    def candidate_distances(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[Tuple[int, Signature, List[int]]]:
        """``(dist, signature, members)`` per candidate of ``Z_j``, eagerly."""
        ...

    def refine_scores(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[int]:
        """Class-major ``dist(z)`` per candidate id of ``Z_j`` (0 = fault-free).

        One pass over the live classes of ``partition`` (a
        :class:`~repro.partition.FaultPartition`) scores *every* candidate
        of the test at once; ``dist[sid]`` is the number of
        still-indistinguished pairs candidate ``sid`` would split.  The
        member lists of :meth:`candidate_distances` are not computed —
        this is the refinement-delta primitive the selection loops drive.
        """
        ...

    def passfail_indistinguished(self, table: ResponseTable) -> int:
        """Indistinguished pairs of the pass/fail dictionary."""
        ...

    def full_indistinguished(self, table: ResponseTable) -> int:
        """Indistinguished pairs of the full dictionary."""
        ...

    def replace(
        self,
        table: ResponseTable,
        baselines: Sequence[Signature],
        max_passes: int,
    ) -> Tuple[List[Signature], int, int, int, int]:
        """Procedure 2 hill-climb.

        Returns ``(baselines, distinguished, passes, replacements,
        attempts)``.
        """
        ...
