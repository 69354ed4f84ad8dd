"""Column interning: the packed representation of a response table.

A :class:`~repro.sim.responses.ResponseTable` stores per-fault sparse
signature dicts — ideal for construction, terrible for the inner loops,
which compare tuple signatures one pair at a time.  Interning replaces
every signature with a small integer id *per test column*:

* ``cols[j][i]`` is the id of fault ``i``'s response under test ``j``;
  id ``0`` is always the fault-free response, ids ``1..`` enumerate the
  distinct failing signatures in the order
  :meth:`~repro.sim.responses.ResponseTable.failing_signatures` reports
  them (first-fault order), so candidate index == signature id.  Each
  column is an unsigned :class:`array.array` of the narrowest lane that
  holds its ids (:func:`id_typecode`): one byte while ``|Z_j| <= 256``.
* ``sigs[j]`` maps ids back to signatures (``sigs[j][0] is PASS``).
* ``det_words[i]`` packs fault ``i``'s pass/fail row into one int (bit
  ``j`` set when test ``j`` detects it) — the word layer the packed
  kernels popcount and mask against.

Dictionary rows are read off the columns one column at a time
(:meth:`InternedTable.rows`): the same/different row of every fault
under a baseline id per test, with ``det_words`` as the all-PASS special
case.  The transpose — fault bitmasks per test — comes off the same
columns (:meth:`InternedTable.split_masks`, :meth:`InternedTable.id_masks`);
adaptive sessions narrow and score on those.
:attr:`InternedTable.entries` lists each test's detected ``(fault, id)``
entries, the input of the entry-major Procedure 1 sweep.

Everything is stdlib lists, dicts, ints and arrays.  Interning time
lands in the ``kernel.pack_seconds`` timer.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import get_default_registry
from ..sim.responses import PASS, ResponseTable, Signature


def id_typecode(n_ids: int) -> str:
    """The unsigned :mod:`array` typecode of a column holding ids ``< n_ids``.

    The lane is the narrowest power-of-two byte width that holds
    ``n_ids - 1`` — the same lanes the artifact loader decodes into.
    """
    bits = max(n_ids - 1, 0).bit_length()
    for code in "BHIQ":
        if 8 * array(code).itemsize >= bits:
            return code
    raise OverflowError(f"{n_ids} ids do not fit a 64-bit lane")


@dataclass
class InternedTable:
    """The packed-column view of one response table."""

    n_faults: int
    n_tests: int
    #: Per test: signature id per fault (0 = fault-free), an unsigned array.
    cols: List[array]
    #: Per test: id -> signature (index 0 is PASS), i.e. the candidate set Z_j.
    sigs: List[List[Signature]]
    #: Per test: signature -> id (includes PASS -> 0).
    sig_ids: List[Dict[Signature, int]]

    def n_candidates(self, test_index: int) -> int:
        """``|Z_j|``: the fault-free response plus the distinct failing ones."""
        return len(self.sigs[test_index])

    @classmethod
    def from_columns(
        cls, n_faults: int, cols: List[array], sigs: List[List[Signature]]
    ) -> "InternedTable":
        """The view of id columns and their candidate sets alone: ``sig_ids``
        are derived from them, ``det_words`` on first use."""
        return cls(
            n_faults,
            len(cols),
            cols,
            sigs,
            [{sig: sid for sid, sig in enumerate(sigs_j)} for sigs_j in sigs],
        )

    @property
    def det_words(self) -> List[int]:
        """Per fault: detection word (bit ``j`` set when test ``j`` detects it).

        Interning lays them out; a view made :meth:`from_columns` derives
        them on first use as ``rows([0] * n_tests)`` — a loaded
        same/different artifact serves without ever reading them.  Cached
        on the instance like :attr:`entries`.
        """
        words = self.__dict__.get("_det_words")
        if words is None:
            words = self.__dict__["_det_words"] = self.rows([0] * self.n_tests)
        return words

    def _plane(self, test_index: int, flags: Sequence[str]) -> str:
        """Column ``test_index`` as one character per fault, fault order:
        ``flags[id]`` (``'0'`` or ``'1'``) for each fault's id.

        A one-byte column is mapped by one ``bytes.translate``; wider
        lanes go through the id -> flag table one id at a time.
        """
        col = self.cols[test_index]
        if col.typecode == "B":
            table = "".join(flags).encode().ljust(256, b"0")
            return col.tobytes().translate(table).decode()
        return "".join(map(flags.__getitem__, col))

    def rows(self, baseline_ids: Sequence[Optional[int]]) -> List[int]:
        """Per fault: bit ``j`` set when ``cols[j][i] != baseline_ids[j]``.

        These are the same/different rows under one baseline id per test;
        ``rows([0] * n_tests) == det_words``.  A ``None`` id (a baseline
        outside ``Z_j``) sets bit ``j`` for every fault.  Each column
        becomes one ``'0'``/``'1'`` string through an id -> flag table;
        the strings are then read across, one fault at a time, into an
        int row — no Python-level step per (fault, test) cell.
        """
        if not self.cols:
            return [0] * self.n_faults
        planes = [  # test 0 is the lowest bit
            self._differ_plane(j, baseline_ids[j])
            for j in range(self.n_tests - 1, -1, -1)
        ]
        return list(map(int, map("".join, zip(*planes)), repeat(2)))

    def _differ_plane(self, test_index: int, same_id: Optional[int]) -> str:
        """``'1'`` for each fault whose id at ``test_index`` is not
        ``same_id`` (every fault, for ``None``), ``'0'`` for the rest."""
        flags = ["1"] * len(self.sigs[test_index])
        if same_id is not None:
            flags[same_id] = "0"
        return self._plane(test_index, flags)

    @staticmethod
    def _mask(plane: str) -> int:
        """A plane read as one int, bit ``i`` for fault ``i``."""
        return int(plane[::-1], 2) if plane else 0

    def split_masks(self, test_index: int, same_id: Optional[int]) -> List[int]:
        """``[same, different]``: the faults whose id at ``test_index`` is
        ``same_id``, and the rest — bit ``test_index`` of :meth:`rows`
        under that id, transposed into one int per side.  A ``None`` id
        puts every fault on the different side."""
        different = self._mask(self._differ_plane(test_index, same_id))
        return [different ^ ((1 << self.n_faults) - 1), different]

    def id_masks(self, test_index: int) -> List[int]:
        """Per id of ``Z_j``, in id order: the faults responding with it
        (bit ``i`` set when ``cols[j][i] == id``).

        Built from the ids' bit planes, high bit first: each level splits
        every id range in two with one AND and one XOR, so a column costs
        about ``4·|Z_j|`` big-int operations and ``log2 |Z_j|`` string
        passes, with no step per (fault, id) pair.
        """
        z = len(self.sigs[test_index])
        masks = [(1 << self.n_faults) - 1]
        for b in range((z - 1).bit_length() - 1, -1, -1):
            plane = self._mask(
                self._plane(test_index, ["01"[v >> b & 1] for v in range(z)])
            )
            halves: List[int] = []
            for mask in masks:
                high = mask & plane
                halves += (mask ^ high, high)
            masks = halves[: -(-z >> b)]  # the ranges that start below z
        return masks

    @property
    def entries(self) -> List[Tuple[array, array]]:
        """Per test: ``(faults, ids)`` of its detected entries, fault order.

        ``faults`` holds the indices of the faults test ``j`` detects and
        ``ids`` their (non-zero) signature ids.  Interning lays them out;
        a view made :meth:`from_columns` derives them on first use.  They
        are cached on the instance, outside the dataclass fields.
        """
        entries = self.__dict__.get("_entries")
        if entries is None:
            index_code = id_typecode(self.n_faults)
            every = range(self.n_faults)
            entries = self.__dict__["_entries"] = [
                (array(index_code, compress(every, col)),
                 array(col.typecode, filter(None, col)))
                for col in self.cols
            ]
        return entries


def intern_response_table(table: ResponseTable) -> InternedTable:
    """Intern every column of ``table`` (see the module docstring).

    One walk over each fault's failing dict, in fault order: a signature
    not seen before under its test takes the next id, which is exactly
    first-fault order.  The walk visits each test's detected entries in
    fault order, so it lays out :attr:`InternedTable.entries` too, and
    the columns are filled from them.
    """
    registry = get_default_registry()
    with registry.timer("kernel.pack_seconds").time():
        n, k = table.n_faults, table.n_tests
        sigs: List[List[Signature]] = [[PASS] for _ in range(k)]
        sig_ids: List[Dict[Signature, int]] = [{PASS: 0} for _ in range(k)]
        hit_faults: List[List[int]] = [[] for _ in range(k)]
        hit_ids: List[List[int]] = [[] for _ in range(k)]
        det_words = [0] * n
        for i in range(n):
            word = 0
            for j, sig in table.failing_map(i).items():
                sid = sig_ids[j].get(sig)
                if sid is None:
                    sid = sig_ids[j][sig] = len(sigs[j])
                    sigs[j].append(sig)
                hit_faults[j].append(i)
                hit_ids[j].append(sid)
                word |= 1 << j
            det_words[i] = word
        index_code = id_typecode(n)
        cols: List[array] = []
        entries: List[Tuple[array, array]] = []
        for sigs_j, faults, ids in zip(sigs, hit_faults, hit_ids):
            code = id_typecode(len(sigs_j))
            col = array(code, [0]) * n
            for i, sid in zip(faults, ids):
                col[i] = sid
            cols.append(col)
            entries.append((array(index_code, faults), array(code, ids)))
        interned = InternedTable(n, k, cols, sigs, sig_ids)
        interned.__dict__["_det_words"] = det_words
        interned.__dict__["_entries"] = entries
        registry.counter("kernel.tables_packed").inc()
    return interned
