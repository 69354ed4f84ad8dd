"""Column interning: the packed representation of a response table.

A :class:`~repro.sim.responses.ResponseTable` stores per-fault sparse
signature dicts — ideal for construction, terrible for the inner loops,
which compare tuple signatures one pair at a time.  Interning replaces
every signature with a small integer id *per test column*:

* ``cols[j][i]`` is the id of fault ``i``'s response under test ``j``;
  id ``0`` is always the fault-free response, ids ``1..`` enumerate the
  distinct failing signatures in the order
  :meth:`~repro.sim.responses.ResponseTable.failing_signatures` reports
  them (first-fault order), so candidate index == signature id.
* ``sigs[j]`` maps ids back to signatures (``sigs[j][0] is PASS``).
* ``det_words[i]`` packs fault ``i``'s pass/fail row into one int (bit
  ``j`` set when test ``j`` detects it) — the uint64-style word layer the
  packed kernels popcount and mask against.

Dictionary rows are read off the columns one column at a time
(:meth:`InternedTable.rows`): the same/different row of every fault
under a baseline id per test, with ``det_words`` as the all-PASS special
case.

Everything is plain lists/dicts/ints, so an interned table pickles with
its :class:`ResponseTable` and ships to restart worker processes as-is.
Interning time lands in the ``kernel.pack_seconds`` timer.

On top of the interned view, :func:`build_vector_layout` derives the
*word-array layout* the ``vector`` backend sweeps: the same ids laid out
as flat, contiguous machine-word blocks (stdlib :mod:`array` storage, so
the layout pickles with the table; numpy views are derived zero-copy at
compute time and never pickled):

* ``col_words`` — every column concatenated test-major
  (``col_words[j * n + i] == cols[j][i]``), 32-bit;
* ``det_offsets`` / ``det_index`` / ``det_sid`` — a CSR encoding of the
  detected (test, fault) entries: for test ``j``, positions
  ``det_offsets[j]:det_offsets[j + 1]`` list the detected fault indices
  and their signature ids in ascending fault order;
* ``det_blocks`` — the pass/fail rows as fault-major 64-bit words
  (``W = ceil(n_tests / 64)`` words per fault, bit ``j`` of word
  ``j // 64`` set when test ``j`` detects the fault) — ``det_words``
  re-expressed as fixed-width blocks.

Layout-building time lands in ``kernel.vector_pack_seconds`` and counts
``kernel.vector_layouts``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import get_default_registry
from ..sim.responses import PASS, ResponseTable, Signature

#: Bits per ``det_blocks`` word.
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


@dataclass
class InternedTable:
    """The packed-column view of one response table."""

    n_faults: int
    n_tests: int
    #: Per test: signature id per fault (0 = fault-free).
    cols: List[List[int]]
    #: Per test: id -> signature (index 0 is PASS), i.e. the candidate set Z_j.
    sigs: List[List[Signature]]
    #: Per test: signature -> id (includes PASS -> 0).
    sig_ids: List[Dict[Signature, int]]
    #: Per fault: detection word (bit j = detected by test j).
    det_words: List[int]

    def n_candidates(self, test_index: int) -> int:
        """``|Z_j|``: the fault-free response plus the distinct failing ones."""
        return len(self.sigs[test_index])

    @classmethod
    def from_columns(
        cls, n_faults: int, cols: List[List[int]], sigs: List[List[Signature]]
    ) -> "InternedTable":
        """The view of id columns and their candidate sets alone: ``sig_ids``
        and ``det_words`` are derived from them."""
        table = cls(
            n_faults,
            len(cols),
            cols,
            sigs,
            [{sig: sid for sid, sig in enumerate(sigs_j)} for sigs_j in sigs],
            [],
        )
        table.det_words = table.rows([0] * len(cols))
        return table

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
        planes = []
        for j in range(self.n_tests - 1, -1, -1):  # test 0 is the lowest bit
            flags = ["1"] * len(self.sigs[j])
            if baseline_ids[j] is not None:
                flags[baseline_ids[j]] = "0"
            planes.append("".join(map(flags.__getitem__, self.cols[j])))
        return list(map(int, map("".join, zip(*planes)), repeat(2)))

    @property
    def vector(self) -> "VectorLayout":
        """The word-array layout (:class:`VectorLayout`), built lazily.

        Cached on the instance (outside the dataclass fields) so it
        pickles along with the interned view to restart workers.
        """
        layout = self.__dict__.get("_vector")
        if layout is None:
            layout = self.__dict__["_vector"] = build_vector_layout(self)
        return layout


def intern_response_table(table: ResponseTable) -> InternedTable:
    """Intern every column of ``table`` (see the module docstring)."""
    registry = get_default_registry()
    with registry.timer("kernel.pack_seconds").time():
        n = table.n_faults
        cols: List[List[int]] = []
        sigs: List[List[Signature]] = []
        sig_ids: List[Dict[Signature, int]] = []
        det_words = [0] * n
        for j in range(table.n_tests):
            failing = table.failing_signatures(j)
            groups = table.failing_groups(j)
            col = [0] * n
            bit = 1 << j
            for sid, group in enumerate(groups, 1):
                for i in group:
                    col[i] = sid
                    det_words[i] |= bit
            cols.append(col)
            sigs.append([PASS] + list(failing))
            sig_ids.append(
                {sig: sid for sid, sig in enumerate([PASS] + list(failing))}
            )
        registry.counter("kernel.tables_packed").inc()
    return InternedTable(n, table.n_tests, cols, sigs, sig_ids, det_words)


@dataclass
class VectorLayout:
    """Flat word-array view of an :class:`InternedTable` (module docstring).

    All storage is stdlib :class:`array.array` — ``'i'`` (32-bit signed)
    for ids and indices, ``'q'`` for offsets, ``'Q'`` for detection
    words — so the layout pickles compactly with its table.  Numpy
    consumers view the buffers zero-copy (``numpy.frombuffer``); those
    views are cached privately and stripped from the pickled state.
    """

    n_faults: int
    n_tests: int
    #: Words per fault in ``det_blocks``: ``ceil(n_tests / WORD_BITS)``.
    det_width: int
    #: Test-major flat columns: ``col_words[j * n_faults + i]``.
    col_words: array
    #: CSR offsets (length ``n_tests + 1``) into ``det_index``/``det_sid``.
    det_offsets: array
    #: Detected fault index per (test, fault) entry, ascending per test.
    det_index: array
    #: Failing-signature id (>= 1) per detected entry.
    det_sid: array
    #: Fault-major detection words: ``det_blocks[i * det_width + w]``.
    det_blocks: array

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __setstate__(self, state):
        self.__dict__.update(state)


def build_vector_layout(interned: InternedTable) -> VectorLayout:
    """Lay ``interned`` out as contiguous word arrays (module docstring).

    Uses numpy when it is importable and a pure-Python loop otherwise.
    Both paths produce byte-identical arrays — the round-trip property
    tests in ``tests/kernels/test_vector_layout.py`` hold them together.
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        build = _build_layout_python
    else:
        build = _build_layout_numpy
    registry = get_default_registry()
    with registry.timer("kernel.vector_pack_seconds").time():
        n, k = interned.n_faults, interned.n_tests
        width = (k + WORD_BITS - 1) // WORD_BITS
        layout = build(interned, n, k, width)
        registry.counter("kernel.vector_layouts").inc()
    return layout


def _build_layout_python(interned, n, k, width):
    col_words = array("i")
    det_offsets = array("q", bytes(8 * (k + 1)))
    det_index = array("i")
    det_sid = array("i")
    pos = 0
    for j, col in enumerate(interned.cols):
        col_words.extend(col)
        for i, sid in enumerate(col):
            if sid:
                det_index.append(i)
                det_sid.append(sid)
                pos += 1
        det_offsets[j + 1] = pos
    det_blocks = array("Q", bytes(8 * n * width))
    for i, word in enumerate(interned.det_words):
        base = i * width
        w = 0
        while word:
            det_blocks[base + w] = word & _WORD_MASK
            word >>= WORD_BITS
            w += 1
    return VectorLayout(
        n, k, width, col_words, det_offsets, det_index, det_sid, det_blocks
    )


def _build_layout_numpy(interned, n, k, width):
    import numpy as np

    colmat = np.zeros((k, n), dtype=np.int32)
    for j, col in enumerate(interned.cols):
        colmat[j] = col
    j_idx, i_idx = np.nonzero(colmat)  # row-major: test-major, faults ascending
    det_offsets_np = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(colmat, axis=1), out=det_offsets_np[1:])
    det_index_np = i_idx.astype(np.int32)
    det_sid_np = colmat[j_idx, i_idx]
    bits = (colmat != 0).T  # (n, k) pass/fail rows
    padded = np.zeros((n, width * WORD_BITS), dtype=np.uint8)
    if k:
        padded[:, :k] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")  # (n, width * 8)
    blocks_np = np.zeros((n, width), dtype=np.uint64)
    for byte in range(8):
        blocks_np |= packed[:, byte::8].astype(np.uint64) << np.uint64(8 * byte)

    def as_array(typecode, np_arr, dtype):
        out = array(typecode)
        out.frombytes(np.ascontiguousarray(np_arr, dtype=dtype).tobytes())
        return out

    return VectorLayout(
        n,
        k,
        width,
        as_array("i", colmat.reshape(-1), np.int32),
        as_array("q", det_offsets_np, np.int64),
        as_array("i", det_index_np, np.int32),
        as_array("i", det_sid_np, np.int32),
        as_array("Q", blocks_np.reshape(-1), np.uint64),
    )


def unpack_vector_layout(layout: VectorLayout) -> Tuple[List[List[int]], List[int]]:
    """Invert the packing: ``(cols, det_words)`` as plain lists/ints.

    Rebuilds the per-test id columns from ``col_words`` and the
    arbitrary-precision detection words from ``det_blocks`` — the
    round-trip property tests assert these equal the source
    :class:`InternedTable` exactly, and that the CSR entries agree with
    the rebuilt columns.
    """
    n, k, width = layout.n_faults, layout.n_tests, layout.det_width
    cols = [
        list(layout.col_words[j * n:(j + 1) * n]) for j in range(k)
    ]
    det_words = []
    for i in range(n):
        word = 0
        for w in range(width - 1, -1, -1):
            word = (word << WORD_BITS) | layout.det_blocks[i * width + w]
        det_words.append(word)
    return cols, det_words
