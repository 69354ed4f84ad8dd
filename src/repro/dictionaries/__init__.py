"""Fault dictionaries: full, pass/fail, and same/different."""

from .base import DictionarySizes, FaultDictionary, ScoredCandidate
from .compressed import (
    CountDictionary,
    DropOnDetectDictionary,
    FirstFailDictionary,
)
from .full import FullDictionary
from .passfail import PassFailDictionary
from ..partition import (
    Partition,
    indistinguished_pairs,
    pairs_within,
    refine,
    total_pairs,
)
from .testselect import (
    select_tests_preserving_detection,
    select_tests_preserving_resolution,
)
from .storage import (
    PackedDictionary,
    pack_full,
    pack_passfail,
    pack_samediff,
    unpack_full,
    unpack_passfail,
    unpack_samediff,
)
from .samediff import (
    BuildReport,
    MultiBaselineDictionary,
    SameDifferentDictionary,
    add_secondary_baselines,
    replace_baselines,
    select_baselines,
)

__all__ = [
    "BuildReport",
    "CountDictionary",
    "DictionarySizes",
    "DropOnDetectDictionary",
    "FirstFailDictionary",
    "FaultDictionary",
    "FullDictionary",
    "MultiBaselineDictionary",
    "PackedDictionary",
    "Partition",
    "PassFailDictionary",
    "SameDifferentDictionary",
    "ScoredCandidate",
    "add_secondary_baselines",
    "indistinguished_pairs",
    "pack_full",
    "pack_passfail",
    "pack_samediff",
    "pairs_within",
    "refine",
    "replace_baselines",
    "select_baselines",
    "select_tests_preserving_detection",
    "select_tests_preserving_resolution",
    "total_pairs",
    "unpack_full",
    "unpack_passfail",
    "unpack_samediff",
]
