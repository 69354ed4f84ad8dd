"""The vector kernel backend: batched word-array candidate scoring.

Where ``packed`` walks each unresolved class with per-class tuple
gathers, this backend scores *every* candidate of a test in one batched
sweep over the flat word-array layout
(:class:`~repro.kernels.interning.VectorLayout`):

* the detected (test, fault) entries of test ``j`` are one contiguous
  CSR slice — no per-class member lists on the hot path;
* each live (unresolved, size >= 2) class has a dense row index; one
  gather maps every detected fault to ``dense_class * ncand + sid`` and
  one histogram of those keys yields the full ``(class, candidate)``
  count matrix, from which every ``dist(z)`` drops out as
  ``sum_c a * (s - a)`` in a single vectorized expression;
* splits reuse the same counts: the winning candidate's column says how
  many members leave each class, so relabelling is one masked scatter.

Numpy drives the sweep when it is importable; otherwise a
dependency-free pure-Python path runs the *same algorithm* over the
stdlib :mod:`array` buffers.  Which one runs is decided once, when the
backend instance is built, by whether ``import numpy`` succeeds.  Both
paths are byte-identical to ``naive`` and ``packed``: same baselines,
counts, winners and metrics, held together by the differential harness
in ``tests/kernels``.

Procedure 2 (:meth:`VectorBackend.replace`) delegates to the packed
implementation: its inner loop is an id-at-a-time scan over one test at
a time by construction, and sharing the implementation keeps the
replacement trajectory trivially identical across backends.

Selection-loop semantics (first maximum wins, ``LOWER`` consecutive
non-improvements cut off) replicate
:func:`repro.dictionaries.samediff.select_baselines` exactly.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..partition import pairs_within
from ..sim.responses import PASS, ResponseTable, Signature
from .base import Procedure1Run
from .packed import PackedBackend

#: Dense count matrices at or below this many cells always use one
#: ``bincount``; larger ones fall back to a sparse ``unique`` histogram
#: unless the entry count justifies the dense allocation.
_DENSE_MIN_CELLS = 1 << 16


def _np_views(layout):
    """Zero-copy numpy views of a layout's stdlib-array buffers, cached.

    The cache key starts with ``_`` so :meth:`VectorLayout.__getstate__`
    strips it — only the compact stdlib arrays ship to restart workers.
    """
    views = layout.__dict__.get("_np_views")
    if views is None:
        import numpy as np

        views = layout.__dict__["_np_views"] = {
            "col": np.frombuffer(layout.col_words, dtype=np.int32).reshape(
                layout.n_tests, layout.n_faults
            ),
            "offsets": np.frombuffer(layout.det_offsets, dtype=np.int64),
            "det_index": np.frombuffer(layout.det_index, dtype=np.int32),
            "det_sid": np.frombuffer(layout.det_sid, dtype=np.int32),
            "blocks": np.frombuffer(layout.det_blocks, dtype=np.uint64).reshape(
                layout.n_faults, layout.det_width
            ),
        }
    return views


class VectorBackend:
    """Batched word-array kernels (see the module docstring)."""

    name = "vector"

    def __init__(self) -> None:
        try:
            import numpy

            self._np = numpy
        except ImportError:
            self._np = None
        self.uses_numpy = self._np is not None
        self._packed = PackedBackend()

    # ------------------------------------------------------------------
    # preparation
    # ------------------------------------------------------------------
    def prepare(self, table: ResponseTable) -> None:
        """Materialise the interned view and its word-array layout."""
        layout = table.interned.vector
        if self.uses_numpy:
            _np_views(layout)

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
        if self._np is None:
            return self._procedure1_python(table, order, lower, timings)
        return self._procedure1_numpy(table, order, lower, timings)

    def _procedure1_numpy(self, table, order, lower, timings):
        np = self._np
        it = table.interned
        views = _np_views(it.vector)
        offsets = views["offsets"]
        det_index = views["det_index"]
        det_sid = views["det_sid"]
        sigs = it.sigs
        n = it.n_faults

        baselines: List[Signature] = [PASS] * it.n_tests
        winners: List[Tuple[int, int]] = []
        distinguished = 0
        evaluated = 0
        cutoffs = 0

        # Class state: every fault starts in class 0; each split allocates
        # one new id, so at most n ids ever exist.  ``lmap`` maps a class
        # id to its dense row in the live (size >= 2) set, -1 when dead.
        labels = np.zeros(n, dtype=np.int64)
        cap = n + 2
        sizes = np.zeros(cap, dtype=np.int64)
        lmap = np.full(cap, -1, dtype=np.int64)
        if n >= 2:
            sizes[0] = n
            lmap[0] = 0
            live_ids = np.zeros(1, dtype=np.int64)
            live_sizes = np.array([n], dtype=np.int64)
        else:
            live_ids = np.zeros(0, dtype=np.int64)
            live_sizes = np.zeros(0, dtype=np.int64)
        nclasses = 1

        for j in order:
            ncand = len(sigs[j])
            nlive = live_ids.size
            lo = int(offsets[j])
            hi = int(offsets[j + 1])
            counts = None
            sparse = None
            d_per = None
            if nlive and hi > lo:
                if timings is not None:
                    t0 = time.perf_counter()
                di = det_index[lo:hi]
                ds = det_sid[lo:hi]
                # Dead classes bucket into a trash row past the live ones,
                # dropped by the slice below — no boolean filter needed.
                dlab = lmap[labels[di]]
                dlab = np.where(dlab < 0, nlive, dlab)
                key = dlab * ncand + ds
                length = (nlive + 1) * ncand
                if length <= _DENSE_MIN_CELLS or length <= 4 * (hi - lo):
                    counts_flat = np.bincount(key, minlength=length)
                    counts = counts_flat[: nlive * ncand].reshape(nlive, ncand)
                    d_per = counts.sum(axis=1)
                    dist_arr = (counts * (live_sizes[:, None] - counts)).sum(
                        axis=0
                    )
                    dist_arr[0] = (d_per * (live_sizes - d_per)).sum()
                else:
                    # Sparse histogram: the dense (live, candidate) matrix
                    # would be huge and almost empty.
                    ids, cnt = np.unique(key, return_counts=True)
                    keep = ids < nlive * ncand
                    ids = ids[keep]
                    cnt = cnt[keep]
                    cls = ids // ncand
                    sid = ids - cls * ncand
                    sparse = (cls, sid, cnt)
                    dist_arr = np.zeros(ncand, dtype=np.int64)
                    np.add.at(dist_arr, sid, cnt * (live_sizes[cls] - cnt))
                    d_per = np.zeros(nlive, dtype=np.int64)
                    np.add.at(d_per, cls, cnt)
                    dist_arr[0] = (d_per * (live_sizes - d_per)).sum()
                dist = dist_arr.tolist()
                if timings is not None:
                    timings["scoring"] = timings.get("scoring", 0.0) + (
                        time.perf_counter() - t0
                    )
            else:
                dist = [0] * ncand

            # The selection loop, bit-for-bit as in the naive path: first
            # maximum wins, LOWER consecutive non-improvements cut off.
            best = -1
            best_index = 0
            consecutive = 0
            for t in range(ncand):
                evaluated += 1
                d = dist[t]
                if d > best:
                    best = d
                    best_index = t
                    consecutive = 0
                elif d < best:
                    consecutive += 1
                    if consecutive >= lower:
                        cutoffs += 1
                        break
            baselines[j] = sigs[j][best_index]

            if best > 0:
                winners.append((j, best_index))
                bi = best_index
                if bi:
                    member_mask = ds == bi
                    if counts is not None:
                        a_dense = counts[:, bi]
                    else:
                        cls, sid, cnt = sparse
                        a_dense = np.zeros(nlive, dtype=np.int64)
                        sel = sid == bi
                        a_dense[cls[sel]] = cnt[sel]
                else:
                    member_mask = None  # every detected entry
                    a_dense = d_per
                split = (a_dense > 0) & (a_dense < live_sizes)
                if split.any():
                    distinguished += int(
                        (a_dense * (live_sizes - a_dense))[split].sum()
                    )
                    nsplit = int(split.sum())
                    # Dense row -> freshly allocated class id (valid only
                    # where ``split``; other rows never get read).
                    newid = np.cumsum(split) + (nclasses - 1)
                    split_ext = np.append(split, False)  # trash row: no move
                    move = split_ext[dlab]
                    if member_mask is not None:
                        move &= member_mask
                    labels[di[move]] = newid[dlab[move]]
                    a_split = a_dense[split]
                    sizes[nclasses:nclasses + nsplit] = a_split
                    sizes[live_ids[split]] -= a_split
                    nclasses += nsplit
                    live_ids = np.nonzero(sizes[:nclasses] >= 2)[0]
                    lmap[:nclasses] = -1
                    lmap[live_ids] = np.arange(live_ids.size)
                    live_sizes = sizes[live_ids]

        return Procedure1Run(baselines, distinguished, evaluated, cutoffs, winners)

    def _procedure1_python(self, table, order, lower, timings):
        it = table.interned
        layout = it.vector
        offsets = layout.det_offsets
        det_index = layout.det_index
        det_sid = layout.det_sid
        sigs = it.sigs
        n = it.n_faults

        baselines: List[Signature] = [PASS] * it.n_tests
        winners: List[Tuple[int, int]] = []
        distinguished = 0
        evaluated = 0
        cutoffs = 0

        labels = array("q", bytes(8 * n))  # class id per fault, all zero
        sizes = [n]  # class id -> member count
        nclasses = 1

        for j in order:
            ncand = len(sigs[j])
            lo = offsets[j]
            hi = offsets[j + 1]
            dist = [0] * ncand
            if timings is not None:
                t0 = time.perf_counter()
            pair_counts: Dict[int, int] = {}
            det_counts: Dict[int, int] = {}
            for pos in range(lo, hi):
                c = labels[det_index[pos]]
                if sizes[c] < 2:
                    continue
                key = c * ncand + det_sid[pos]
                pair_counts[key] = pair_counts.get(key, 0) + 1
                det_counts[c] = det_counts.get(c, 0) + 1
            for key, a in pair_counts.items():
                c, sid = divmod(key, ncand)
                dist[sid] += a * (sizes[c] - a)
            total0 = 0
            for c, d in det_counts.items():
                total0 += d * (sizes[c] - d)
            dist[0] = total0
            if timings is not None:
                timings["scoring"] = timings.get("scoring", 0.0) + (
                    time.perf_counter() - t0
                )

            best = -1
            best_index = 0
            consecutive = 0
            for t in range(ncand):
                evaluated += 1
                d = dist[t]
                if d > best:
                    best = d
                    best_index = t
                    consecutive = 0
                elif d < best:
                    consecutive += 1
                    if consecutive >= lower:
                        cutoffs += 1
                        break
            baselines[j] = sigs[j][best_index]

            if best > 0:
                winners.append((j, best_index))
                bi = best_index
                moved: Dict[int, List[int]] = {}
                for pos in range(lo, hi):
                    if bi and det_sid[pos] != bi:
                        continue
                    i = det_index[pos]
                    c = labels[i]
                    if sizes[c] < 2:
                        continue
                    moved.setdefault(c, []).append(i)
                for c, members in moved.items():
                    s = sizes[c]
                    a = len(members)
                    if a == s:
                        continue
                    distinguished += a * (s - a)
                    new_id = nclasses
                    nclasses += 1
                    sizes.append(a)
                    sizes[c] = s - a
                    for i in members:
                        labels[i] = new_id

        return Procedure1Run(baselines, distinguished, evaluated, cutoffs, winners)

    # ------------------------------------------------------------------
    # dist(z) against an externally maintained partition
    # ------------------------------------------------------------------
    def refine_scores(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[int]:
        """Class-major ``dist(z)``, batched over the word-array layout."""
        if self._np is None:
            return self._packed.refine_scores(table, test_index, partition)
        np = self._np
        it = table.interned
        n = it.n_faults
        ncand = it.n_candidates(test_index)
        views = _np_views(it.vector)
        colj = views["col"][test_index]
        dist = [0] * ncand
        if n:
            labels = np.zeros(n, dtype=np.int64)
            sizes_list = []
            dense = 0
            for members in partition.classes:
                if len(members) < 2:
                    continue
                labels[members] = dense
                sizes_list.append(len(members))
                dense += 1
            if dense:
                # Faults in dead (size < 2) classes keep label 0; mask
                # them out by size: a singleton contributes a == s == 1
                # only to its own class, never to row 0 — so filter by
                # membership instead.
                member_mask = np.zeros(n, dtype=bool)
                for members in partition.classes:
                    if len(members) >= 2:
                        member_mask[members] = True
                sizes_np = np.array(sizes_list, dtype=np.int64)
                keep = member_mask & (colj != 0)
                cls = labels[keep]
                sid = colj[keep].astype(np.int64)
                key = cls * ncand + sid
                counts = np.bincount(key, minlength=dense * ncand).reshape(
                    dense, ncand
                )
                d_per = counts.sum(axis=1)
                dist_arr = (counts * (sizes_np[:, None] - counts)).sum(axis=0)
                dist_arr[0] = (d_per * (sizes_np - d_per)).sum()
                dist = dist_arr.tolist()
        return dist

    def candidate_distances(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[Tuple[int, Signature, List[int]]]:
        if self._np is None:
            return self._packed.candidate_distances(table, test_index, partition)
        it = table.interned
        dist = self.refine_scores(table, test_index, partition)
        groups = table.failing_groups(test_index)
        detected = [i for group in groups for i in group]
        candidates = [(dist[0], PASS, detected)]
        for sid, group in enumerate(groups, 1):
            candidates.append((dist[sid], it.sigs[test_index][sid], group))
        return candidates

    # ------------------------------------------------------------------
    # indistinguished-pair counts via row grouping
    # ------------------------------------------------------------------
    def indistinguished_for(
        self, table: ResponseTable, baselines: Sequence[Signature]
    ) -> int:
        if self._np is None:
            return self._packed.indistinguished_for(table, baselines)
        np = self._np
        it = table.interned
        n = it.n_faults
        if n < 2:
            return 0
        k = len(baselines)
        if k == 0:
            return pairs_within(n)
        bids = np.array(
            [
                it.sig_ids[j].get(tuple(baseline), -1)
                for j, baseline in enumerate(baselines)
            ],
            dtype=np.int32,
        ).reshape(k, 1)
        colmat = _np_views(it.vector)["col"][:k]
        # A baseline outside Z_j (id -1) sets every row bit: no split.
        rows = np.packbits((colmat != bids).T, axis=1)
        return _group_pairs(np, rows)

    def passfail_indistinguished(self, table: ResponseTable) -> int:
        if self._np is None:
            return self._packed.passfail_indistinguished(table)
        it = table.interned
        if it.n_tests == 0:
            return pairs_within(it.n_faults)
        return _group_pairs(self._np, _np_views(it.vector)["blocks"])

    def full_indistinguished(self, table: ResponseTable) -> int:
        if self._np is None:
            return self._packed.full_indistinguished(table)
        it = table.interned
        if it.n_tests == 0:
            return pairs_within(it.n_faults)
        return _group_pairs(self._np, _np_views(it.vector)["col"].T)

    # ------------------------------------------------------------------
    # Procedure 2
    # ------------------------------------------------------------------
    def replace(
        self,
        table: ResponseTable,
        baselines: Sequence[Signature],
        max_passes: int,
    ) -> Tuple[List[Signature], int, int, int, int]:
        # Shared with packed on purpose — see the module docstring.
        return self._packed.replace(table, baselines, max_passes)


def _group_pairs(np, mat) -> int:
    """Indistinguished pairs of a row matrix: ``sum C(group, 2)``."""
    if mat.shape[0] < 2:
        return 0
    if mat.shape[1] == 0:
        return pairs_within(mat.shape[0])
    _, counts = np.unique(mat, axis=0, return_counts=True)
    return sum(pairs_within(int(c)) for c in counts.tolist())
