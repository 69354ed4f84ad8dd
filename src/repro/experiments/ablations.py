"""Ablation studies for the design choices the paper discusses.

* :func:`lower_sweep` — the ``LOWER`` early-termination constant
  (Section 3: "the highest values of dist(z) are typically found after the
  first few output vectors").
* :func:`calls_sweep` — the number of random-restart calls of Procedure 1
  (``CALLS1``).
* :func:`multi_baseline_study` — the Section 2 remark that more than one
  baseline vector can be selected per test.
* :func:`mixed_storage_study` — the Section 2 remark that tests whose
  baseline is the fault-free vector need not store it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..api import DictionaryConfig, build as build_dictionary
from ..dictionaries import add_secondary_baselines, select_baselines
from ..obs import get_default_registry
from ..sim.responses import PASS
from .table6 import response_table_for


@dataclass
class LowerPoint:
    lower: int
    distinguished: int
    seconds: float


def lower_sweep(
    circuit: str,
    test_type: str = "diag",
    lowers: Sequence[int] = (1, 2, 5, 10, 20, 10**9),
    seed: int = 0,
) -> List[LowerPoint]:
    """Distinguished pairs and runtime of one Procedure 1 call per ``LOWER``.

    The last (huge) value disables the cutoff entirely and is the
    exhaustive reference.
    """
    _, table = response_table_for(circuit, test_type, seed)
    timer = get_default_registry().timer("ablations.lower_sweep_seconds")
    points = []
    for lower in lowers:
        with timer.time() as stopwatch:
            _, _, distinguished = select_baselines(table, lower=lower)
        points.append(LowerPoint(lower, distinguished, stopwatch.elapsed))
    return points


@dataclass
class CallsPoint:
    calls: int
    distinguished_procedure1: int
    procedure1_calls: int


def calls_sweep(
    circuit: str,
    test_type: str = "diag",
    calls_values: Sequence[int] = (1, 5, 20, 100),
    seed: int = 0,
    cache_dir=None,
) -> List[CallsPoint]:
    """Best Procedure 1 result as a function of the restart budget.

    ``cache_dir`` makes repeat sweeps reuse stored builds — each distinct
    ``calls`` value hashes to its own cache entry (see docs/artifacts.md).
    """
    _, table = response_table_for(circuit, test_type, seed)
    points = []
    for calls in calls_values:
        report = build_dictionary(
            table,
            config=DictionaryConfig(seed=seed, calls1=calls, procedure2=False),
            cache_dir=cache_dir,
        ).report
        points.append(
            CallsPoint(calls, report.distinguished_procedure1, report.procedure1_calls)
        )
    return points


@dataclass
class MultiBaselinePoint:
    baselines_per_test: int
    size_bits: int
    indistinguished: int


def multi_baseline_study(
    circuit: str,
    test_type: str = "diag",
    max_extra: int = 2,
    seed: int = 0,
    calls: int = 20,
    cache_dir=None,
) -> List[MultiBaselinePoint]:
    """Resolution/size trade-off of 1, 2, … baselines per test."""
    _, table = response_table_for(circuit, test_type, seed)
    dictionary = build_dictionary(
        table, config=DictionaryConfig(seed=seed, calls1=calls),
        cache_dir=cache_dir,
    ).dictionary
    points = [
        MultiBaselinePoint(1, dictionary.size_bits, dictionary.indistinguished_pairs())
    ]
    for extra in range(1, max_extra + 1):
        multi = add_secondary_baselines(table, dictionary, extra_per_test=extra)
        points.append(
            MultiBaselinePoint(
                1 + extra, multi.size_bits, multi.indistinguished_pairs()
            )
        )
    return points


@dataclass
class MixedStorageResult:
    plain_size_bits: int
    mixed_size_bits: int
    fault_free_baselines: int
    n_tests: int


def mixed_storage_study(
    circuit: str, test_type: str = "diag", seed: int = 0, calls: int = 20,
    cache_dir=None,
) -> MixedStorageResult:
    """How much the mixed (fault-free where possible) storage remark saves."""
    _, table = response_table_for(circuit, test_type, seed)
    dictionary = build_dictionary(
        table, config=DictionaryConfig(seed=seed, calls1=calls),
        cache_dir=cache_dir,
    ).dictionary
    fault_free = sum(1 for b in dictionary.baselines if b == PASS)
    return MixedStorageResult(
        plain_size_bits=dictionary.size_bits,
        mixed_size_bits=dictionary.mixed_size_bits(),
        fault_free_baselines=fault_free,
        n_tests=table.n_tests,
    )
