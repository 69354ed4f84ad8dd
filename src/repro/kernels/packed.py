"""The packed kernels: interned columns, counted scoring.

Where the naive reference walks every candidate's member list with
per-fault dict lookups, these kernels score from interned integer
columns (:mod:`repro.kernels.interning`) and counts with C-level
:class:`collections.Counter` histograms.

**Procedure 1** runs each restart in two phases, and the restart's own
state picks the moment it switches:

* *entry-major* while the faults still in classes of size >= 2 number
  more than :data:`HANDOVER_RATIO` times test ``j``'s detected entries
  — early, while classes are few and large.  One pass over those
  ``(fault, id)`` entries (:attr:`~repro.kernels.interning.InternedTable.entries`)
  reads a class label per fault, and a histogram of ``(class, id)``
  pairs gives every candidate's ``dist`` at once — the fault-free
  candidate from the per-class detected counts.  A split relabels the
  moved entries; no member lists exist in this phase.
* *class-major* from the first test where that no longer holds.  The
  class member lists are built from the labels once, and the rest of the
  restart walks the unresolved classes:

  - each class keeps a cached :func:`operator.itemgetter` over its
    members, so gathering its responses under a test is a single C call;
  - one pass over a class accumulates ``a * (s - a)`` into the dist of
    *every* candidate at once, with C-level fast paths for the all-same
    and two-distinct cases;
  - each class carries a *detection-union word* (the OR of its members'
    pass/fail rows, exact for small classes): one shift-and-mask decides
    whether a test can touch the class at all, which is what makes the
    late refinement stages — where almost every class is settled for
    almost every test — cheap.

**Procedure 2** counts, per test ``j``, the classes of rows with bit
``j`` masked out and the ``(class, id)`` pairs inside them, then reads
every candidate's split from one pass over those counts.

Selection-loop semantics (best/``LOWER``-cutoff bookkeeping, tie-breaks,
split conditions) replicate :func:`repro.dictionaries.samediff.select_baselines`
exactly; the differential and property tests in ``tests/kernels`` hold
them byte-identical to the naive reference.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import reduce
from itertools import compress
from operator import itemgetter, not_, or_
from typing import Dict, List, Optional, Sequence, Tuple

from ..partition import pairs_within
from ..sim.responses import PASS, ResponseTable, Signature
from .base import Procedure1Run

#: Classes at or below this size keep an exact detection-union word
#: (recomputed on split); larger classes use the inherited superset,
#: which is almost always all-ones anyway and not worth maintaining.
EXACT_UNION_LIMIT = 16

#: Procedure 1 scores entry-major while the faults in classes of size
#: >= 2 number more than this many times the test's detected entries.
#: 2 timed best, or within noise, on every table measured
#: (docs/kernels.md); 1 keeps a table whose never-split faults outnumber
#: every test's entries in the sweep for the whole restart.
HANDOVER_RATIO = 2


def _select(dist: List[int], lower: int) -> Tuple[int, int, int, int]:
    """The selection loop, bit-for-bit as in the naive path.

    First maximum wins; ``lower`` consecutive non-improvements cut off.
    Returns ``(best, best_index, evaluated, cutoffs)``.
    """
    best = -1
    best_index = 0
    consecutive = 0
    for t, d in enumerate(dist):
        if d > best:
            best = d
            best_index = t
            consecutive = 0
        elif d < best:
            consecutive += 1
            if consecutive >= lower:
                return best, best_index, t + 1, 1
    return best, best_index, len(dist), 0


class PackedBackend:
    """Interned-column kernels (see the module docstring)."""

    name = "packed"

    def prepare(self, table: ResponseTable) -> None:
        """Materialise the interned columns and their detected entries
        (idempotent, cached on the table)."""
        table.interned.entries  # noqa: B018 - touch to materialise the cache

    # ------------------------------------------------------------------
    # Procedure 1
    # ------------------------------------------------------------------
    def procedure1(
        self,
        table: ResponseTable,
        order: Sequence[int],
        lower: int,
        timings: Optional[Dict[str, float]] = None,
    ) -> Procedure1Run:
        it = table.interned
        n, cols, sigs, entries = it.n_faults, it.cols, it.sigs, it.entries
        order = list(order)

        distinguished = 0
        evaluated = 0
        cutoffs = 0
        baselines: List[Signature] = [PASS] * it.n_tests
        winners: List[Tuple[int, int]] = []

        # Entry-major phase: a class label per fault and a size per label.
        # Label 0 collects the faults split off alone, so their entries
        # drop out of the counts; a fault left behind alone keeps its
        # label, whose size 1 makes it score nothing.
        labels = [1 if n >= 2 else 0] * n
        sizes = [0, n]
        live_faults = n if n >= 2 else 0
        label_of = labels.__getitem__
        handover = len(order)
        for position, j in enumerate(order):
            faults, ids = entries[j]
            if live_faults <= HANDOVER_RATIO * len(faults):
                handover = position
                break
            if timings is not None:
                t0 = time.perf_counter()
            gathered = list(map(label_of, faults))
            class_counts = Counter(filter(None, gathered))
            pair_counts = Counter(compress(zip(gathered, ids), gathered))
            dist = [0] * len(sigs[j])
            for (c, sid), a in pair_counts.items():
                dist[sid] += a * (sizes[c] - a)
            pass_dist = 0
            for c, d in class_counts.items():
                pass_dist += d * (sizes[c] - d)
            dist[0] = pass_dist
            if timings is not None:
                timings["scoring"] = timings.get("scoring", 0.0) + (
                    time.perf_counter() - t0
                )

            best, best_index, seen, cut = _select(dist, lower)
            evaluated += seen
            cutoffs += cut
            baselines[j] = sigs[j][best_index]
            if best <= 0:
                continue
            winners.append((j, best_index))
            if best_index:
                moving = {
                    c: a for (c, sid), a in pair_counts.items() if sid == best_index
                }
                movers = compress(
                    zip(faults, gathered), map(best_index.__eq__, ids)
                )
            else:
                moving = class_counts
                movers = zip(faults, gathered)
            new_label: Dict[int, int] = {}
            for c, a in moving.items():
                s = sizes[c]
                if a == s:
                    continue
                distinguished += a * (s - a)
                sizes[c] = s - a
                if a == 1:
                    new_label[c] = 0
                else:
                    new_label[c] = len(sizes)
                    sizes.append(a)
                live_faults -= (a == 1) + (s - a == 1)
            for i, c in movers:
                label = new_label.get(c)
                if label is not None:
                    labels[i] = label

        if handover == len(order):
            return Procedure1Run(
                baselines, distinguished, evaluated, cutoffs, winners
            )

        # Hand-over: the member lists of the live classes, built once.
        det_get = it.det_words.__getitem__
        classes: List[List[int]] = [[] for _ in sizes]
        for i, c in enumerate(labels):
            classes[c].append(i)
        live = [c for c, members in enumerate(classes) if c and len(members) >= 2]
        getters: List[Optional[itemgetter]] = [None] * len(classes)
        duws = [0] * len(classes)
        for c in live:
            getters[c] = itemgetter(*classes[c])
            duws[c] = reduce(or_, map(det_get, classes[c]), 0)
        dead = 0

        for j in order[handover:]:
            colj = cols[j]
            dist = [0] * len(sigs[j])
            split_info: List[Tuple[int, tuple]] = []
            si_append = split_info.append

            if timings is not None:
                t0 = time.perf_counter()
            for c in live:
                if not duws[c] >> j & 1:
                    continue
                members = classes[c]
                s = len(members)
                if s == 2:
                    su, sv = getters[c](colj)
                    if su != sv:
                        dist[su] += 1
                        dist[sv] += 1
                        si_append((c, (su, sv)))
                elif s > 2:
                    tup = getters[c](colj)
                    first = tup[0]
                    a0 = tup.count(first)
                    if a0 != s:
                        last = tup[-1]
                        if last != first and a0 + (a1 := tup.count(last)) == s:
                            split_pairs = a0 * a1
                            dist[first] += split_pairs
                            dist[last] += split_pairs
                        else:
                            counts: Dict[int, int] = {}
                            for sid in tup:
                                counts[sid] = counts.get(sid, 0) + 1
                            for sid, a in counts.items():
                                dist[sid] += a * (s - a)
                        si_append((c, tup))
            if timings is not None:
                timings["scoring"] = timings.get("scoring", 0.0) + (
                    time.perf_counter() - t0
                )

            best, best_index, seen, cut = _select(dist, lower)
            evaluated += seen
            cutoffs += cut
            baselines[j] = sigs[j][best_index]

            if best > 0:
                winners.append((j, best_index))
                for c, tup in split_info:
                    members = classes[c]
                    s = len(members)
                    if best_index:
                        a = tup.count(best_index)
                        if a == 0 or a == s:
                            continue
                        inside = map(best_index.__eq__, tup)
                        moved = list(compress(members, inside))
                        outside = map(best_index.__ne__, tup)
                        remaining = list(compress(members, outside))
                    else:
                        a = s - tup.count(0)
                        if a == 0 or a == s:
                            continue
                        moved = list(compress(members, tup))
                        remaining = list(compress(members, map(not_, tup)))
                    distinguished += a * (s - a)
                    classes[c] = remaining
                    new_cid = len(classes)
                    classes.append(moved)
                    n_remaining = len(remaining)
                    n_moved = len(moved)
                    old_union = duws[c]
                    if n_remaining >= 2:
                        getters[c] = itemgetter(*remaining)
                        if n_remaining <= EXACT_UNION_LIMIT:
                            duws[c] = reduce(or_, map(det_get, remaining), 0)
                    else:
                        dead += 1
                    if n_moved >= 2:
                        getters.append(itemgetter(*moved))
                        live.append(new_cid)
                        duws.append(
                            reduce(or_, map(det_get, moved), 0)
                            if n_moved <= EXACT_UNION_LIMIT
                            else old_union
                        )
                    else:
                        getters.append(None)
                        duws.append(0)
                if dead * 2 > len(live):
                    live = [c for c in live if len(classes[c]) >= 2]
                    dead = 0

        return Procedure1Run(baselines, distinguished, evaluated, cutoffs, winners)

    # ------------------------------------------------------------------
    # dist(z) against an externally maintained partition
    # ------------------------------------------------------------------
    def refine_scores(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[int]:
        it = table.interned
        colj = it.cols[test_index]
        dist = [0] * it.n_candidates(test_index)
        for members in partition.classes:
            s = len(members)
            if s < 2:
                continue
            values = [colj[i] for i in members]
            if values.count(values[0]) == s:
                continue
            for sid, a in Counter(values).items():
                dist[sid] += a * (s - a)
        return dist

    def candidate_distances(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[Tuple[int, Signature, List[int]]]:
        it = table.interned
        dist = self.refine_scores(table, test_index, partition)
        groups = table.failing_groups(test_index)
        detected = [i for group in groups for i in group]
        candidates = [(dist[0], PASS, detected)]
        for sid, group in enumerate(groups, 1):
            candidates.append((dist[sid], it.sigs[test_index][sid], group))
        return candidates

    # ------------------------------------------------------------------
    # indistinguished-pair counts
    # ------------------------------------------------------------------
    def passfail_indistinguished(self, table: ResponseTable) -> int:
        return _grouped_pairs(table.interned.det_words)

    def full_indistinguished(self, table: ResponseTable) -> int:
        it = table.interned
        if not it.cols:
            return pairs_within(it.n_faults)
        # Every byte lane of every column as a string of one character per
        # fault: a fault's full row becomes one short string, which counts
        # in a third of the memory a tuple of ids takes.
        planes = []
        for col in it.cols:
            raw = col.tobytes()
            planes.extend(
                raw[lane :: col.itemsize].decode("latin-1")
                for lane in range(col.itemsize)
            )
        return _grouped_pairs(map("".join, zip(*planes)))

    # ------------------------------------------------------------------
    # Procedure 2
    # ------------------------------------------------------------------
    def replace(
        self,
        table: ResponseTable,
        baselines: Sequence[Signature],
        max_passes: int,
    ) -> Tuple[List[Signature], int, int, int, int]:
        it = table.interned
        k, n = it.n_tests, it.n_faults
        current_ids = [
            it.sig_ids[j].get(tuple(baseline), -1)
            for j, baseline in enumerate(baselines)
        ]
        if any(sid < 0 for sid in current_ids):
            # A baseline outside Z_j can't be expressed as an interned id;
            # fall back to the reference implementation (it never improves
            # anything Procedure 2 wouldn't also find from Z_j, but the
            # public function accepts arbitrary baselines).  Imported here:
            # samediff imports this package at module level.
            from ..dictionaries.samediff import _replace_naive

            return _replace_naive(table, baselines, max_passes)

        rows = it.rows(current_ids)
        replacements = 0
        passes = 0
        attempts = 0
        for _ in range(max_passes):
            passes += 1
            improved = False
            for j in range(k):
                colj = it.cols[j]
                mask = ((1 << k) - 1) ^ (1 << j)
                # Classes of the rows with bit j masked out; a class of
                # size s with a members answering id z loses a * (s - a)
                # indistinguished pairs when z is test j's baseline.
                outside = list(map(mask.__and__, rows))
                class_sizes = Counter(outside)
                dist = [0] * it.n_candidates(j)
                for (key, sid), a in Counter(zip(outside, colj)).items():
                    dist[sid] += a * (class_sizes[key] - a)
                best_id = current_ids[j]
                best_dist = dist[best_id]
                for sid, d in enumerate(dist):
                    if sid == current_ids[j]:
                        continue
                    attempts += 1
                    if d > best_dist:
                        best_dist = d
                        best_id = sid
                if best_id != current_ids[j]:
                    improved = True
                    replacements += 1
                    current_ids[j] = best_id
                    bit = 1 << j
                    rows = [
                        row & mask if sid == best_id else row | bit
                        for row, sid in zip(rows, colj)
                    ]
            if not improved:
                break
        distinguished = pairs_within(n) - _grouped_pairs(rows)
        final = [it.sigs[j][current_ids[j]] for j in range(k)]
        return final, distinguished, passes, replacements, attempts


def _grouped_pairs(rows) -> int:
    """Indistinguished pairs of equal rows: ``sum C(count, 2)``."""
    return sum(pairs_within(count) for count in Counter(rows).values())
