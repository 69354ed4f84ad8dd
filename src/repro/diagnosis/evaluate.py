"""Defect-injection campaigns: how resolution translates into diagnosis quality.

Two campaigns:

* :func:`single_fault_campaign` injects modelled single stuck-at faults and
  measures the candidate set each dictionary reports — the realized
  diagnostic resolution (a dictionary with fewer indistinguished pairs
  yields smaller candidate sets).
* :func:`double_fault_campaign` injects defects *outside* the model (two
  simultaneous stuck-at faults) and checks whether a constituent fault
  still surfaces among the top ranked candidates — the robustness check a
  cause-effect flow needs in practice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..atpg.distinguish import injected_copy
from ..circuit.netlist import Netlist
from ..dictionaries.base import FaultDictionary
from ..sim.patterns import TestSet
from .engine import Diagnoser, observe_defect, observe_fault


@dataclass
class CampaignResult:
    """Aggregated diagnosis quality for one dictionary."""

    kind: str
    injections: int = 0
    unique: int = 0
    candidate_sizes: List[int] = field(default_factory=list)
    hits_at_1: int = 0
    hits_at_10: int = 0

    @property
    def unique_fraction(self) -> float:
        return self.unique / self.injections if self.injections else 0.0

    @property
    def mean_candidates(self) -> float:
        if not self.candidate_sizes:
            return 0.0
        return sum(self.candidate_sizes) / len(self.candidate_sizes)

    @property
    def top1_accuracy(self) -> float:
        return self.hits_at_1 / self.injections if self.injections else 0.0

    @property
    def top10_accuracy(self) -> float:
        return self.hits_at_10 / self.injections if self.injections else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Fields plus derived rates, for JSON export.

        Mirrors :meth:`repro.dictionaries.samediff.BuildReport.as_dict`:
        the dict carries a ``"schema": 2`` layout marker.
        """
        return {
            "kind": self.kind,
            "injections": self.injections,
            "unique": self.unique,
            "candidate_sizes": list(self.candidate_sizes),
            "hits_at_1": self.hits_at_1,
            "hits_at_10": self.hits_at_10,
            "unique_fraction": self.unique_fraction,
            "mean_candidates": self.mean_candidates,
            "top1_accuracy": self.top1_accuracy,
            "top10_accuracy": self.top10_accuracy,
            "schema": 2,
        }


def single_fault_campaign(
    netlist: Netlist,
    tests: TestSet,
    dictionaries: Sequence[FaultDictionary],
    sample: int = 50,
    seed: int = 0,
) -> Dict[str, CampaignResult]:
    """Inject sampled modelled faults; report exact-candidate statistics."""
    rng = random.Random(seed)
    table = dictionaries[0].table
    indices = list(range(table.n_faults))
    rng.shuffle(indices)
    chosen = indices[: min(sample, len(indices))]
    results = {d.kind: CampaignResult(d.kind) for d in dictionaries}
    for index in chosen:
        observed = observe_fault(netlist, tests, table.faults[index])
        for dictionary in dictionaries:
            diagnosis = Diagnoser(dictionary).diagnose(observed)
            result = results[dictionary.kind]
            result.injections += 1
            result.candidate_sizes.append(diagnosis.candidate_count)
            if diagnosis.is_unique and diagnosis.exact[0] == table.faults[index]:
                result.unique += 1
            truth = table.faults[index]
            ranked_faults = [fault for fault, _ in diagnosis.ranked]
            if ranked_faults and ranked_faults[0] == truth:
                result.hits_at_1 += 1
            if truth in ranked_faults[:10]:
                result.hits_at_10 += 1
    return results


def double_fault_campaign(
    netlist: Netlist,
    tests: TestSet,
    dictionaries: Sequence[FaultDictionary],
    sample: int = 25,
    seed: int = 0,
) -> Dict[str, CampaignResult]:
    """Inject pairs of simultaneous faults (a non-modelled defect).

    A diagnosis "hits" when some constituent of the injected pair appears
    first (top-1) or among the first ten ranked candidates (top-10).
    """
    rng = random.Random(seed ^ 0xD0B1)
    table = dictionaries[0].table
    results = {d.kind: CampaignResult(d.kind) for d in dictionaries}
    n = table.n_faults
    if n < 2:
        return results
    for _ in range(sample):
        a, b = rng.sample(range(n), 2)
        try:
            defective = injected_copy(netlist, table.faults[a])
            defective = injected_copy(defective, table.faults[b])
        except ValueError:
            # The two faults collide structurally (same pin); skip the draw.
            continue
        observed = observe_defect(netlist, defective, tests)
        truth = {table.faults[a], table.faults[b]}
        for dictionary in dictionaries:
            diagnosis = Diagnoser(dictionary).diagnose(observed)
            result = results[dictionary.kind]
            result.injections += 1
            result.candidate_sizes.append(diagnosis.candidate_count)
            ranked_faults = [fault for fault, _ in diagnosis.ranked]
            if ranked_faults and ranked_faults[0] in truth:
                result.hits_at_1 += 1
            if truth & set(ranked_faults[:10]):
                result.hits_at_10 += 1
    return results
