"""The same/different fault dictionary (the paper's contribution).

Like a pass/fail dictionary it stores one bit per (fault, test), but the
bit compares the faulty response against a freely chosen *baseline* output
vector ``z_bl,j`` instead of the fault-free response: ``b[i][j] = 0`` iff
``z_i,j == z_bl,j``.  Baselines are chosen per test from the set ``Z_j`` of
responses modelled faults can actually produce (any other choice makes the
test useless for diagnosis).

This module implements:

* **Procedure 1** (:func:`select_baselines`): greedy per-test selection of
  the candidate distinguishing the most target pairs, with the ``LOWER``
  early-termination heuristic;
* the **random-restart driver** (:func:`_build_impl`, reached through
  :func:`repro.api.build`): Procedure 1 re-run over shuffled test orders
  until ``calls`` consecutive calls bring no improvement (the paper's
  ``CALLS1``); restarts derive their test orders from per-restart seed
  streams and fold into a :class:`~repro.dictionaries.restarts.RestartFold`;
* **Procedure 2** (:func:`replace_baselines`): a hill-climbing pass that
  tries every alternative baseline for every test against the *global*
  distinguished-pair count;
* the paper's two remarks as working extensions: more than one baseline
  per test (:func:`add_secondary_baselines`) and the mixed storage scheme
  that keeps the fault-free vector where the baseline equals it
  (:meth:`SameDifferentDictionary.mixed_size_bits`).

The inner loops run on :data:`repro.kernels.KERNEL`, the interned-column
:class:`~repro.kernels.packed.PackedBackend`.  The reference code kept in
this module is the naive oracle (:mod:`repro.kernels.naive`) the tests
hold those kernels to, bit for bit.

Tuning comes from a :class:`~repro.api.DictionaryConfig`
(``config=``); :func:`repro.api.build` is the one public entry point for
a whole build.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import kernels
from ..kernels import Procedure1Run
from ..obs import NullProgress, ProgressReporter, get_default_registry, trace_span
from ..partition import (
    FaultPartition,
    indistinguished_after_split,
    pairs_within,
    rows_indistinguished,
    total_pairs,
)
from ..sim.responses import PASS, ResponseTable, Signature
from .base import FaultDictionary, rank_int_rows
from .restarts import RestartFold, restart_order


class SameDifferentDictionary(FaultDictionary):
    """A same/different dictionary for a fixed baseline assignment."""

    def __init__(
        self,
        table: ResponseTable,
        baselines: Sequence[Signature],
        rows: Optional[List[int]] = None,
    ) -> None:
        """``rows``, when given, are :func:`_rows_under` ``baselines``
        already built by the caller; they are not recomputed."""
        super().__init__(table)
        if len(baselines) != table.n_tests:
            raise ValueError(
                f"{len(baselines)} baselines for {table.n_tests} tests"
            )
        self.baselines: Tuple[Signature, ...] = tuple(tuple(b) for b in baselines)
        self._rows: List[int] = (
            rows if rows is not None else _rows_under(table, self.baselines)
        )

    @property
    def kind(self) -> str:
        return "same/different"

    @property
    def size_bits(self) -> int:
        """``k * (n + m)``: the bit matrix plus one baseline vector per test."""
        return self.table.n_tests * (self.table.n_faults + self.table.n_outputs)

    def mixed_size_bits(self) -> int:
        """Size under the paper's mixed storage remark.

        Tests whose baseline *is* the fault-free vector reuse the stored
        fault-free response instead of a private baseline vector, at the
        cost of one flag bit per test.
        """
        stored = sum(1 for baseline in self.baselines if baseline != PASS)
        return (
            self.table.n_tests * (self.table.n_faults + 1)
            + stored * self.table.n_outputs
        )

    def row(self, fault_index: int) -> int:
        return self._rows[fault_index]

    def encode_response(self, signatures: Sequence[Signature]) -> int:
        if len(signatures) != self.table.n_tests:
            raise ValueError(
                f"response has {len(signatures)} tests, dictionary has {self.table.n_tests}"
            )
        word = 0
        for j, sig in enumerate(signatures):
            if tuple(sig) != self.baselines[j]:
                word |= 1 << j
        return word

    def match_score(self, fault_index: int, signatures: Sequence[Signature]) -> int:
        disagree = bin(self._rows[fault_index] ^ self.encode_response(signatures))
        return self.table.n_tests - disagree.count("1")

    def ranked_candidates(self, signatures: Sequence[Signature], limit: int = 10):
        return rank_int_rows(
            self._rows, self.encode_response(signatures), self.table.n_tests, limit
        )

    def _column_masks(self, interned, test_index: int) -> List[int]:
        """``[same, different]``: the row bit ``j`` is the value."""
        return interned.split_masks(
            test_index, interned.sig_ids[test_index].get(self.baselines[test_index])
        )

    def match_mask(self, test_index: int, signature: Signature) -> int:
        return self.value_masks()[test_index][
            signature != self.baselines[test_index]
        ]

    def baseline_vector(self, test_index: int) -> str:
        """The stored baseline output vector of one test, as a bit string."""
        return self.table.signature_to_vector(self.baselines[test_index], test_index)


@dataclass
class BuildReport:
    """Statistics of one same/different construction run."""

    n_faults: int
    #: Distinguished pairs after the best Procedure 1 run (paper's "s/d rand").
    distinguished_procedure1: int = 0
    #: Distinguished pairs after Procedure 2 (paper's "s/d repl").
    distinguished_procedure2: int = 0
    #: Procedure 1 restarts folded into the result.
    procedure1_calls: int = 0
    procedure2_passes: int = 0
    replacements: int = 0
    #: Wall-clock seconds of the restart loop (all Procedure 1 calls).
    procedure1_seconds: float = 0.0
    #: Wall-clock seconds of Procedure 2 (0.0 when it did not run).
    procedure2_seconds: float = 0.0
    #: Partition classes (groups of mutually indistinguished faults) after
    #: the best Procedure 1 run / after Procedure 2 — the class-count
    #: trajectory alongside the pair counts.  ``n_faults`` means fully
    #: distinguished; 0 on degenerate tables with nothing to partition.
    classes_after_procedure1: int = 0
    classes_after_procedure2: int = 0

    def as_dict(self) -> Dict[str, object]:
        """All fields plus the derived counts, for JSON export.

        Carries a ``"schema": 3`` layout marker for ``--metrics-out``
        consumers.  Artifacts and :func:`~repro.store.semantic_digest`
        embed this dict, so its keys (marker included) are part of every
        artifact's identity.
        """
        data = asdict(self)
        data["indistinguished_procedure1"] = self.indistinguished_procedure1
        data["indistinguished_procedure2"] = self.indistinguished_procedure2
        data["procedure2_improved"] = self.procedure2_improved
        data["schema"] = 3
        return data

    @property
    def indistinguished_procedure1(self) -> int:
        return total_pairs(self.n_faults) - self.distinguished_procedure1

    @property
    def indistinguished_procedure2(self) -> int:
        return total_pairs(self.n_faults) - self.distinguished_procedure2

    @property
    def procedure2_improved(self) -> bool:
        return self.distinguished_procedure2 > self.distinguished_procedure1


# ----------------------------------------------------------------------
# Procedure 1
# ----------------------------------------------------------------------
def _candidate_distances(
    table: ResponseTable, test_index: int, partition: FaultPartition
) -> List[Tuple[int, Signature, List[int]]]:
    """(dist, signature, members) per candidate of ``Z_j``, in ``Z_j`` order.

    ``dist(z)`` is the number of still-indistinguished pairs split by
    ``z``: for each partition class ``c`` with ``a`` members responding
    ``z``, the split separates ``a * (|c| - a)`` pairs.  The fault-free
    candidate comes first, its member list given as the *detected* faults
    (splitting on the complement is the same split).

    This is the naive reference scoring; the packed kernels reproduce it
    from interned columns (see :mod:`repro.kernels`).
    """
    classes = partition.classes
    class_of = partition.class_of
    groups = table.failing_groups(test_index)
    signatures = table.failing_signatures(test_index)

    detected_by_class: Dict[int, int] = {}
    for group in groups:
        for index in group:
            cid = class_of[index]
            detected_by_class[cid] = detected_by_class.get(cid, 0) + 1
    pass_dist = sum(
        count * (len(classes[cid]) - count)
        for cid, count in detected_by_class.items()
    )
    detected = [index for group in groups for index in group]
    candidates = [(pass_dist, PASS, detected)]

    for signature, group in zip(signatures, groups):
        counts: Dict[int, int] = {}
        for index in group:
            cid = class_of[index]
            counts[cid] = counts.get(cid, 0) + 1
        dist = sum(
            count * (len(classes[cid]) - count) for cid, count in counts.items()
        )
        candidates.append((dist, signature, group))
    return candidates


def _refine_scores(
    table: ResponseTable, test_index: int, partition: FaultPartition
) -> List[int]:
    """``dist`` per candidate id of ``Z_j`` (0 = fault-free), class-major.

    One pass over the live classes scores every candidate at once: a
    class of size ``s`` with ``a`` members responding ``z`` contributes
    ``a * (s - a)`` to ``dist(z)`` — including the fault-free candidate,
    whose ``a`` is the class's pass count.  The values equal the dists
    of :func:`_candidate_distances` entry for entry; this is the
    refinement-delta scoring the selection loop drives, with no member
    lists materialised for losing candidates.
    """
    signatures = table.failing_signatures(test_index)
    ids = {sig: sid for sid, sig in enumerate(signatures, 1)}
    dist = [0] * (len(signatures) + 1)
    for members in partition.classes:
        s = len(members)
        if s < 2:
            continue
        counts: Dict[Signature, int] = {}
        for i in members:
            sig = table.signature(i, test_index)
            if sig != PASS:
                counts[sig] = counts.get(sig, 0) + 1
        failing = 0
        for sig, a in counts.items():
            failing += a
            dist[ids[sig]] += a * (s - a)
        if failing:
            dist[0] += failing * (s - failing)
    return dist


def _candidate_members(
    table: ResponseTable, test_index: int, candidate_index: int
) -> List[int]:
    """Member list of candidate ``candidate_index`` of ``Z_j`` (0 = fault-free)."""
    if candidate_index == 0:
        return table.detected_indices(test_index)
    return table.failing_groups(test_index)[candidate_index - 1]


def _replay_partition(
    table: ResponseTable, winners: Sequence[Tuple[int, int]]
) -> FaultPartition:
    """Rebuild the Procedure 1 partition from recorded (test, candidate) wins.

    Splitting on the same member lists in the same order reproduces the
    reference partition exactly — including class order — so kernels
    whose internal partition bookkeeping differs (the packed one) can
    still hand callers the canonical object.
    """
    partition = FaultPartition(range(table.n_faults))
    for test_index, candidate_index in winners:
        partition.split(_candidate_members(table, test_index, candidate_index))
    return partition


def _select_naive(
    table: ResponseTable,
    order: Sequence[int],
    lower: int,
    timings: Optional[Dict[str, float]] = None,
) -> Procedure1Run:
    """The reference Procedure 1 loop (the naive kernel's).

    Each test is scored by one class-major :func:`_refine_scores` pass;
    the winner's split is then applied as a refinement delta
    (:meth:`~repro.partition.FaultPartition.split` returns the
    distinguished-pair decrease).  Selection semantics — first maximum
    wins, ``LOWER`` consecutive non-improvements cut off — are the
    paper's, byte-identical to the pre-refactor per-candidate walk.
    """
    partition = FaultPartition(range(table.n_faults))
    baselines: List[Signature] = [PASS] * table.n_tests
    distinguished = 0
    evaluated = 0
    cutoffs = 0
    winners: List[Tuple[int, int]] = []
    for j in order:
        if timings is not None:
            t0 = time.perf_counter()
            dist = _refine_scores(table, j, partition)
            timings["scoring"] = timings.get("scoring", 0.0) + (
                time.perf_counter() - t0
            )
        else:
            dist = _refine_scores(table, j, partition)
        best_dist = -1
        best_index = 0
        consecutive_lower = 0
        for index, d in enumerate(dist):
            evaluated += 1
            if d > best_dist:
                best_dist = d
                best_index = index
                consecutive_lower = 0
            elif d < best_dist:
                consecutive_lower += 1
                if consecutive_lower >= lower:
                    cutoffs += 1
                    break
        baselines[j] = (
            PASS
            if best_index == 0
            else table.failing_signatures(j)[best_index - 1]
        )
        if best_dist > 0:
            winners.append((j, best_index))
            distinguished += partition.split(_candidate_members(table, j, best_index))
    return Procedure1Run(baselines, distinguished, evaluated, cutoffs, winners)


def _flush_procedure1(run: Procedure1Run) -> None:
    """One metrics flush per Procedure 1 call, identical for every kernel."""
    registry = get_default_registry()
    registry.counter("procedure1.calls").inc()
    registry.counter("procedure1.candidates_evaluated").inc(run.evaluated)
    registry.counter("procedure1.lower_cutoffs").inc(run.cutoffs)
    registry.counter("procedure1.pairs_distinguished").inc(run.distinguished)


def select_baselines(
    table: ResponseTable,
    order: Optional[Sequence[int]] = None,
    *,
    lower: int = 10,
) -> Tuple[List[Signature], FaultPartition, int]:
    """Procedure 1: greedy baseline selection over one test order.

    Returns the baselines (indexed by *test*, not by order position), the
    final partition of fault indices (the kernel's winners replayed), and
    the distinguished-pair count.  ``lower`` is the paper's ``LOWER``
    constant: candidate evaluation for a test stops after that many
    consecutive candidates fail to beat the best ``dist`` seen so far.
    """
    if order is None:
        order = range(table.n_tests)
    run = kernels.KERNEL.procedure1(table, order, lower)
    _flush_procedure1(run)
    return run.baselines, _replay_partition(table, run.winners), run.distinguished


def _build_impl(
    table: ResponseTable,
    config,
    progress: Optional[ProgressReporter] = None,
    checkpoint=None,
) -> Tuple[SameDifferentDictionary, BuildReport]:
    """The paper's full flow: restarted Procedure 1, then Procedure 2.

    This is the construction engine behind :func:`repro.api.build`.
    Procedure 1 runs first on the natural test order, then on random
    shuffles, until ``calls1`` consecutive runs fail to improve the
    distinguished-pair count (``CALLS1``).  Restarts also stop early when
    a run distinguishes every pair that remains distinguishable.  With
    ``procedure2`` the best baselines then go through Procedure 2.

    Every restart's test order is derived from a per-restart seed stream
    (:func:`~repro.dictionaries.restarts.restart_order`), so a restart
    can be recomputed from ``(seed, restart)`` alone.  The result never
    falls below the pass/fail dictionary: the restart fold is seeded with
    the all-PASS assignment.

    Degenerate tables (``n_tests == 0`` or ``n_faults < 2``) have nothing
    to select or distinguish; they return an all-PASS dictionary without
    running any restart.

    ``progress`` receives one event per folded restart (stage
    ``"build.procedure1"``, with the stale streak, current best and an
    ETA) and one around Procedure 2.

    ``checkpoint``, when a bound
    :class:`~repro.store.checkpoint.CheckpointSession` is passed, is
    observed after every folded restart (writing ``RFDC`` snapshots) and,
    if it carries resume state from a killed build, restores the restart
    fold before any restart runs — the loop continues from
    ``fold.calls_made``, the checkpoint's seed-stream position, so the
    resumed build is byte-identical to an uninterrupted one.
    """
    calls = config.calls1
    lower = config.lower
    seed = config.seed
    if calls < 1:
        raise ValueError(f"calls (CALLS1) must be >= 1, got {calls}")
    kernel = kernels.KERNEL
    registry = get_default_registry()
    progress = progress if progress is not None else NullProgress()
    report = BuildReport(n_faults=table.n_faults)

    if table.n_tests == 0 or table.n_faults < 2:
        # No test to pick a baseline for, or no pair to distinguish.
        return SameDifferentDictionary(table, [PASS] * table.n_tests), report

    # The fold's floor is the all-PASS assignment: the pass/fail rows.
    ceiling = total_pairs(table.n_faults) - kernel.full_indistinguished(table)
    fold = RestartFold(
        calls=calls,
        ceiling=ceiling,
        baselines=[PASS] * table.n_tests,
        distinguished=total_pairs(table.n_faults)
        - kernel.passfail_indistinguished(table),
        progress=progress,
        observer=checkpoint.on_fold if checkpoint is not None else None,
    )
    if checkpoint is not None:
        checkpoint.bind(table)
        if checkpoint.restore_into(fold):
            progress.report(
                "build.resume",
                fold.calls_made,
                stale=fold.stale,
                best=fold.best_distinguished,
            )
    with registry.timer("build.procedure1_seconds").time() as phase1:
        with trace_span("build.procedure1", calls=calls, lower=lower):
            # Restarts fold in index order from 0, so a fold restored from
            # a checkpoint names the first restart still to evaluate.
            restart = fold.calls_made
            while not fold.done:
                order = restart_order(seed, restart, table.n_tests)
                with trace_span("procedure1.call", restart=restart):
                    # The partition is not materialised: the fold only
                    # consumes (distinguished, baselines).
                    run = kernel.procedure1(table, order, lower)
                    _flush_procedure1(run)
                fold.consume(run.distinguished, run.baselines)
                restart += 1
    best_baselines = fold.best_baselines
    best_distinguished = fold.best_distinguished
    report.procedure1_calls = fold.calls_made
    report.procedure1_seconds = phase1.elapsed
    report.distinguished_procedure1 = best_distinguished
    report.distinguished_procedure2 = best_distinguished
    rows = _rows_under(table, best_baselines)
    report.classes_after_procedure1 = len(set(rows))
    report.classes_after_procedure2 = report.classes_after_procedure1
    registry.counter("build.restarts").inc(report.procedure1_calls)
    registry.gauge("build.stale_streak").set(fold.stale)

    if config.procedure2 and best_distinguished < ceiling:
        with registry.timer("build.procedure2_seconds").time() as phase2:
            with trace_span("build.procedure2"):
                replaced, improved, passes, replacements = replace_baselines(
                    table, best_baselines
                )
        report.procedure2_seconds = phase2.elapsed
        report.distinguished_procedure2 = improved
        report.procedure2_passes = passes
        report.replacements = replacements
        if replaced != list(best_baselines):
            best_baselines = replaced
            rows = _rows_under(table, best_baselines)
            report.classes_after_procedure2 = len(set(rows))
        progress.report("build.procedure2", passes, replacements=replacements)
    if checkpoint is not None:
        checkpoint.complete()
    return SameDifferentDictionary(table, best_baselines, rows), report


def _partition_under(
    table: ResponseTable, baselines: Sequence[Signature]
) -> FaultPartition:
    """The fault partition (distinct same/different rows) under ``baselines``.

    One binary refinement per test — same as the baseline vs different —
    over its interned column, with an early exit once every class is a
    singleton.  This is the class-based pair state the ``RFDC``
    checkpoint layer snapshots.
    """
    partition = FaultPartition(range(table.n_faults))
    interned = table.interned
    for j, baseline in enumerate(baselines):
        if partition.all_singletons:
            break
        bid = interned.sig_ids[j].get(tuple(baseline))
        if bid is not None:  # a baseline outside Z_j splits nothing
            partition.refine(interned.cols[j], value=bid)
    return partition


def _rows_under(table: ResponseTable, baselines: Sequence[Signature]) -> List[int]:
    """Same/different rows under ``baselines``, read off the interned columns.

    A baseline outside ``Z_j`` matches no fault: it sets bit ``j`` of
    every row.
    """
    interned = table.interned
    return interned.rows(
        [interned.sig_ids[j].get(tuple(b)) for j, b in enumerate(baselines)]
    )


# ----------------------------------------------------------------------
# Procedure 2
# ----------------------------------------------------------------------
def replace_baselines(
    table: ResponseTable,
    baselines: Sequence[Signature],
    max_passes: int = 10,
) -> Tuple[List[Signature], int, int, int]:
    """Procedure 2: hill-climb individual baselines against the global count.

    Returns ``(baselines, distinguished, passes, replacements)``.  At most
    ``max_passes`` passes run.  See :func:`_replace_naive` for the exact
    semantics.
    """
    run = kernels.KERNEL.replace(table, baselines, max_passes)
    current, distinguished, passes, replacements, attempts = run
    registry = get_default_registry()
    registry.counter("procedure2.passes").inc(passes)
    registry.counter("procedure2.attempts").inc(attempts)
    registry.counter("procedure2.replacements").inc(replacements)
    return current, distinguished, passes, replacements


def _replace_naive(
    table: ResponseTable,
    baselines: Sequence[Signature],
    max_passes: int,
) -> Tuple[List[Signature], int, int, int, int]:
    """The reference Procedure 2 hill-climb (metrics-free kernel).

    For every test ``j`` and every candidate ``z`` in ``Z_j``, the global
    number of distinguished pairs with ``z_bl,j = z`` is evaluated exactly:
    faults are grouped by their rows *excluding* test ``j`` (one mask
    operation per fault), and within each such group by their response to
    ``t_j``; the candidate determines how every group splits.  Replacements
    are kept when they strictly increase the count; passes repeat until a
    fixpoint or ``max_passes``.

    Returns ``(baselines, distinguished, passes, replacements, attempts)``.
    """
    k = table.n_tests
    n = table.n_faults
    current: List[Signature] = [tuple(b) for b in baselines]
    rows: List[int] = _rows_for(table, current)
    replacements = 0
    passes = 0
    attempts = 0
    for _ in range(max_passes):
        passes += 1
        improved = False
        for j in range(k):
            mask = ((1 << k) - 1) ^ (1 << j)
            outside: Dict[int, List[int]] = {}
            for index in range(n):
                outside.setdefault(rows[index] & mask, []).append(index)
            # Within each outside-class, count members per response to t_j.
            class_sizes: List[int] = []
            per_signature: Dict[Signature, List[Tuple[int, int]]] = {}
            base_indist = 0
            for cid, members in enumerate(outside.values()):
                size = len(members)
                class_sizes.append(size)
                base_indist += pairs_within(size)
                counts: Dict[Signature, int] = {}
                for index in members:
                    sig = table.signature(index, j)
                    if sig != PASS:
                        counts[sig] = counts.get(sig, 0) + 1
                for sig, count in counts.items():
                    per_signature.setdefault(sig, []).append((cid, count))
                pass_count = size - sum(counts.values())
                if pass_count:
                    per_signature.setdefault(PASS, []).append((cid, pass_count))
            best_sig = current[j]
            best_indist = indistinguished_after_split(
                per_signature.get(best_sig, ()), class_sizes, base_indist
            )
            for sig in [PASS] + table.failing_signatures(j):
                if sig == current[j]:
                    continue
                attempts += 1
                indist = indistinguished_after_split(
                    per_signature.get(sig, ()), class_sizes, base_indist
                )
                if indist < best_indist:
                    best_indist = indist
                    best_sig = sig
            if best_sig != current[j]:
                improved = True
                replacements += 1
                current[j] = best_sig
                bit = 1 << j
                for index in range(n):
                    if table.signature(index, j) != best_sig:
                        rows[index] |= bit
                    else:
                        rows[index] &= mask
        if not improved:
            break
    distinguished = total_pairs(n) - rows_indistinguished(rows)
    return current, distinguished, passes, replacements, attempts


def _rows_for(table: ResponseTable, baselines: Sequence[Signature]) -> List[int]:
    rows = [0] * table.n_faults
    for index in range(table.n_faults):
        word = 0
        for j, baseline in enumerate(baselines):
            if table.signature(index, j) != baseline:
                word |= 1 << j
        rows[index] = word
    return rows


# ----------------------------------------------------------------------
# Extension: several baselines per test (Section 2 remark)
# ----------------------------------------------------------------------
@dataclass
class MultiBaselineDictionary:
    """A same/different dictionary with ``b_j >= 1`` baselines per test.

    Each baseline of each test contributes one bit column (``n`` bits) and
    one stored vector (``m`` bits) — secondary baselines are charged
    exactly like the first one, so the size generalises the paper's
    ``k * (n + m)`` to ``sum_j b_j * (n + m)``.  Rows are tuples of
    per-test bit tuples.
    """

    table: ResponseTable
    baselines: Tuple[Tuple[Signature, ...], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.baselines) != self.table.n_tests:
            raise ValueError("one baseline tuple required per test")
        self._rows = [
            tuple(
                tuple(
                    int(self.table.signature(i, j) != baseline)
                    for baseline in self.baselines[j]
                )
                for j in range(self.table.n_tests)
            )
            for i in range(self.table.n_faults)
        ]

    @property
    def size_bits(self) -> int:
        n, m = self.table.n_faults, self.table.n_outputs
        return sum(len(per_test) * (n + m) for per_test in self.baselines)

    def mixed_size_bits(self) -> int:
        """Size under the mixed storage remark, generalised to ``b_j >= 1``.

        Every baseline column still costs ``n`` bits plus one flag bit,
        but only baselines that differ from the fault-free response store
        a private ``m``-bit vector — PASS baselines (primary *or*
        secondary) reuse the fault-free response.
        """
        n, m = self.table.n_faults, self.table.n_outputs
        columns = sum(len(per_test) for per_test in self.baselines)
        stored = sum(
            1
            for per_test in self.baselines
            for baseline in per_test
            if baseline != PASS
        )
        return columns * (n + 1) + stored * m

    def row(self, fault_index: int):
        return self._rows[fault_index]

    def indistinguished_pairs(self) -> int:
        groups: Dict[tuple, int] = {}
        for row in self._rows:
            groups[row] = groups.get(row, 0) + 1
        return sum(pairs_within(count) for count in groups.values())


def add_secondary_baselines(
    table: ResponseTable,
    dictionary: SameDifferentDictionary,
    extra_per_test: int = 1,
    lower: int = 10,
) -> MultiBaselineDictionary:
    """Greedily add up to ``extra_per_test`` more baselines to every test.

    Starting from a single-baseline dictionary, each round walks the tests
    in order and picks, per test, the candidate from ``Z_j`` that splits
    the most currently indistinguished pairs (skipping candidates already
    used by that test).  Tests where no candidate helps keep their
    baseline count.
    """
    kernel = kernels.KERNEL
    per_test: List[List[Signature]] = [[b] for b in dictionary.baselines]
    partition = FaultPartition.from_groups(dictionary.row_partition())
    for _ in range(extra_per_test):
        for j in range(table.n_tests):
            used = set(per_test[j])
            best = None
            best_dist = 0
            consecutive_lower = 0
            for dist, signature, members in kernel.candidate_distances(
                table, j, partition
            ):
                if signature in used:
                    continue
                if dist > best_dist:
                    best_dist = dist
                    best = (signature, members)
                    consecutive_lower = 0
                elif dist < best_dist:
                    consecutive_lower += 1
                    if consecutive_lower >= lower:
                        break
            if best is not None and best_dist > 0:
                signature, members = best
                per_test[j].append(signature)
                partition.split(members)
    return MultiBaselineDictionary(table, tuple(tuple(b) for b in per_test))
