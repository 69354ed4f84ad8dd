"""Diagnostic test set generation.

A diagnostic test set aims to *distinguish* every distinguishable fault
pair, not merely detect every fault.  The driver keeps a partition of the
target faults into response classes (faults with identical full-response
rows under the tests so far) and refines it in three stages:

1. a 1-detection test set seeds the partition;
2. a random phase keeps any random vector that splits some class;
3. the SAT engine (:meth:`~repro.atpg.satatpg.SatAtpg.distinguish`)
   decides the remaining pairs exactly on cone-shared miters.  Pairs it
   proves equivalent are settled permanently — functional
   indistinguishability is transitive, so only adjacent pairs of a class
   ever need to be tried.

Every added test is simulated once against the faults of the classes
that can still split (those with more than one member; a singleton's
signature is never read) and the partition is split in place, so no full
dictionary rebuild happens in the loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..circuit.netlist import Netlist
from ..faults.model import Fault
from ..obs import get_default_registry, trace_span
from ..sim.patterns import TestSet
from ..sim.responses import ResponseTable
from .detect import GenerationReport, generate_detection_tests
from .podem import Status
from .satatpg import SatAtpg


@dataclass
class DiagnosticReport:
    """Outcome of diagnostic test generation."""

    generation: GenerationReport
    #: Pairs proven indistinguishable by any input vector.
    equivalent_pairs: List[Tuple[Fault, Fault]] = field(default_factory=list)
    #: Pairs left unresolved because the SAT search hit its conflict budget.
    aborted_pairs: List[Tuple[Fault, Fault]] = field(default_factory=list)
    #: Tests contributed by the random splitting phase.
    random_tests: int = 0
    #: Tests contributed by the miter phase.
    miter_tests: int = 0


def response_classes(
    netlist: Netlist, faults: Sequence[Fault], tests: TestSet
) -> List[List[int]]:
    """Partition fault indices by their full response rows under ``tests``.

    Faults in the same class are indistinguishable by the current test set
    even with a full fault dictionary.
    """
    if not len(tests):
        return [list(range(len(faults)))] if faults else []
    table = ResponseTable.build(netlist, faults, tests)
    classes: Dict[tuple, List[int]] = {}
    for index in range(len(faults)):
        classes.setdefault(table.full_row(index), []).append(index)
    return sorted(classes.values(), key=lambda members: members[0])


def _live_responses(
    netlist: Netlist,
    faults: Sequence[Fault],
    partition: List[List[int]],
    tests: TestSet,
) -> "tuple[ResponseTable, Dict[int, int]]":
    """Responses to ``tests`` of the faults in ``partition``'s multi-fault
    classes, and the map from a fault index to its row in that table."""
    live = [index for members in partition if len(members) > 1 for index in members]
    table = ResponseTable.build(netlist, [faults[index] for index in live], tests)
    return table, {index: row for row, index in enumerate(live)}


def _split_by_new_test(
    netlist: Netlist,
    faults: Sequence[Fault],
    partition: List[List[int]],
    vector: int,
) -> List[List[int]]:
    """Refine ``partition`` by the faults' signatures under one new test."""
    single = TestSet(netlist.inputs, [vector])
    table, row = _live_responses(netlist, faults, partition, single)
    refined: List[List[int]] = []
    for members in partition:
        if len(members) == 1:
            refined.append(members)
            continue
        groups: Dict[tuple, List[int]] = {}
        for index in members:
            groups.setdefault(table.signature(row[index], 0), []).append(index)
        refined.extend(groups.values())
    return refined


def generate_diagnostic_tests(
    netlist: Netlist,
    faults: Sequence[Fault],
    seed: int = 0,
    backtrack_limit: int = 512,
    random_batch: int = 64,
    max_stale_batches: int = 4,
    skip_undetected: bool = True,
) -> "tuple[TestSet, DiagnosticReport]":
    """Generate a test set distinguishing every distinguishable fault pair.

    With ``skip_undetected`` (default) faults the detection phase proved
    untestable or aborted on are left out of the pair targets: an
    undetectable fault produces the fault-free response under every test
    and cannot be meaningfully diagnosed.

    Each remaining pair is decided by the CDCL solver — equivalence proofs
    included; a pair whose search runs out of conflicts is reported in
    ``aborted_pairs`` and left indistinguished.
    """
    rng = random.Random(seed ^ 0xD1A6)
    tests, generation = generate_detection_tests(
        netlist, faults, seed=seed, backtrack_limit=backtrack_limit
    )
    report = DiagnosticReport(generation)
    if skip_undetected:
        detected = set(generation.detected)
        targets = [f for f in faults if f in detected]
    else:
        targets = list(faults)

    partition = response_classes(netlist, targets, tests)

    # --- random splitting phase -----------------------------------------
    stale = 0
    with trace_span("atpg.diagnostic.random_phase", targets=len(targets)):
        while stale < max_stale_batches and any(len(c) > 1 for c in partition):
            batch = TestSet.random(
                netlist.inputs, random_batch, seed=rng.getrandbits(32)
            )
            table, row = _live_responses(netlist, targets, partition, batch)
            progressed = False
            for j in range(len(batch)):
                refined: List[List[int]] = []
                split_here = False
                for members in partition:
                    if len(members) == 1:
                        refined.append(members)
                        continue
                    groups: Dict[tuple, List[int]] = {}
                    for index in members:
                        groups.setdefault(table.signature(row[index], j), []).append(index)
                    if len(groups) > 1:
                        split_here = True
                    refined.extend(groups.values())
                if split_here:
                    tests.append(batch[j])
                    report.random_tests += 1
                    partition = refined
                    progressed = True
            stale = 0 if progressed else stale + 1

    # --- exact miter phase -----------------------------------------------
    distinguisher = SatAtpg(netlist, rng=rng)
    settled: Set[FrozenSet[int]] = set()
    work = [members for members in partition if len(members) > 1]
    singletons = [members for members in partition if len(members) == 1]
    with trace_span("atpg.diagnostic.miter_phase", classes=len(work)):
        while work:
            members = work.pop()
            open_pair = None
            for left, right in zip(members, members[1:]):
                if frozenset((left, right)) not in settled:
                    open_pair = (left, right)
                    break
            if open_pair is None:
                singletons.append(members)  # fully settled class
                continue
            left, right = open_pair
            outcome = distinguisher.distinguish(targets[left], targets[right])
            if outcome.distinguished:
                single = TestSet(netlist.inputs)
                single.append_assignment(outcome.test)
                tests.append(single[0])
                report.miter_tests += 1
                refined = _split_by_new_test(
                    netlist, targets, work + [members], single[0]
                )
                work = [c for c in refined if len(c) > 1]
                singletons.extend(c for c in refined if len(c) == 1)
            else:
                settled.add(frozenset((left, right)))
                record = (targets[left], targets[right])
                if outcome.status is Status.UNTESTABLE:
                    report.equivalent_pairs.append(record)
                else:
                    report.aborted_pairs.append(record)
                work.append(members)
    registry = get_default_registry()
    registry.counter("atpg.diagnostic.random_tests").inc(report.random_tests)
    registry.counter("atpg.diagnostic.miter_tests").inc(report.miter_tests)
    registry.counter("atpg.diagnostic.equivalent_pairs").inc(
        len(report.equivalent_pairs)
    )
    registry.counter("atpg.diagnostic.aborted_pairs").inc(len(report.aborted_pairs))
    return tests.deduplicated(), report
