"""Partition refinement: the class-based pair state of the build core.

One canonical home for the pair arithmetic and the refinement engine
that the dictionary procedures, kernels, checkpoint records and
scale benchmarks all share.  See :mod:`repro.partition.core` for the
representation argument and ``docs/scaling.md`` for how it changes the
memory story at ITC-99 scale.
"""

from .core import (
    FaultPartition,
    indistinguished_after_split,
    indistinguished_pairs,
    pairs_within,
    partition_by_key,
    refine,
    rows_indistinguished,
    total_pairs,
)
from .reference import MaterializedPairPartition

#: Historical name, kept as a true alias: ``Partition`` grew into
#: :class:`FaultPartition`.
Partition = FaultPartition

__all__ = [
    "FaultPartition",
    "MaterializedPairPartition",
    "Partition",
    "indistinguished_after_split",
    "indistinguished_pairs",
    "pairs_within",
    "partition_by_key",
    "refine",
    "rows_indistinguished",
    "total_pairs",
]
