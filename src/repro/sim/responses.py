"""Full-response capture: the ``z_i,j`` output vectors of every fault.

The response of fault ``f_i`` under test ``t_j`` is stored as its
*signature*: the sorted tuple of primary-output indices at which the faulty
response differs from the fault-free response.  Two faults produce the same
output vector under ``t_j`` exactly when their signatures are equal, and
the fault-free response is the empty signature — so signatures are a sparse
lossless stand-in for the full output vectors the paper compares
(``z_i,j = z_ff,j`` with the failing bits flipped).

A :class:`ResponseTable` is the substrate shared by every dictionary type:
the full dictionary stores all signatures, the pass/fail dictionary only
``signature != ()``, and the same/different dictionary compares signatures
against a chosen baseline signature per test.  Its one stored form is the
interned columns of :class:`InternedTable`: per test, the candidate set
``Z_j`` and one small id per fault.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuit.netlist import Netlist
from ..faults.model import Fault
from ..obs import get_default_registry
from .bits import iter_bits
from .faultsim import FaultSimulator
from .patterns import TestSet

Signature = Tuple[int, ...]

#: The fault-free signature: no failing outputs.
PASS: Signature = ()


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
    """The interned columns of one response table.

    * ``cols[j][i]`` is the id of fault ``i``'s response under test ``j``;
      id ``0`` is always the fault-free response, ids ``1..`` enumerate
      the distinct failing signatures in first-fault order, so candidate
      index == signature id.  Each column is an unsigned
      :class:`array.array` of the narrowest lane that holds its ids
      (:func:`id_typecode`): one byte while ``|Z_j| <= 256``.
    * ``sigs[j]`` maps ids back to signatures (``sigs[j][0] is PASS``).
    * ``det_words[i]`` packs fault ``i``'s pass/fail row into one int
      (bit ``j`` set when test ``j`` detects it).
    * ``entries[j]`` lists test ``j``'s detected ``(fault, id)`` entries,
      the input of the entry-major Procedure 1 sweep.

    Dictionary rows are read off the columns one column at a time
    (:meth:`rows`); the transpose — fault bitmasks per test — comes off
    the same columns (:meth:`split_masks`, :meth:`id_masks`).
    """

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
    def intern(
        cls, n_faults: int, n_tests: int, failing: Sequence[Dict[int, Signature]]
    ) -> "InternedTable":
        """Intern per-fault ``test -> signature`` dicts of detecting tests.

        One walk over the dicts in fault order: a signature not seen
        before under its test takes the next id, which is exactly
        first-fault order.  The walk visits each test's detected entries
        in fault order, so it lays out :attr:`entries` and
        :attr:`det_words` too, and the columns are filled from the
        entries.  Timed under ``kernel.pack_seconds``.
        """
        if len(failing) != n_faults:
            raise ValueError(f"{len(failing)} failing rows for {n_faults} faults")
        registry = get_default_registry()
        with registry.timer("kernel.pack_seconds").time():
            sigs: List[List[Signature]] = [[PASS] for _ in range(n_tests)]
            sig_ids: List[Dict[Signature, int]] = [{PASS: 0} for _ in range(n_tests)]
            hit_faults: List[List[int]] = [[] for _ in range(n_tests)]
            hit_ids: List[List[int]] = [[] for _ in range(n_tests)]
            det_words = [0] * n_faults
            for i, row in enumerate(failing):
                word = 0
                for j, sig in row.items():
                    sid = sig_ids[j].get(sig)
                    if sid is None:
                        sid = sig_ids[j][sig] = len(sigs[j])
                        sigs[j].append(sig)
                    hit_faults[j].append(i)
                    hit_ids[j].append(sid)
                    word |= 1 << j
                det_words[i] = word
            index_code = id_typecode(n_faults)
            cols: List[array] = []
            entries: List[Tuple[array, array]] = []
            for sigs_j, faults, ids in zip(sigs, hit_faults, hit_ids):
                code = id_typecode(len(sigs_j))
                col = array(code, [0]) * n_faults
                for i, sid in zip(faults, ids):
                    col[i] = sid
                cols.append(col)
                entries.append((array(index_code, faults), array(code, ids)))
            interned = cls(n_faults, n_tests, cols, sigs, sig_ids)
            interned.__dict__["_det_words"] = det_words
            interned.__dict__["_entries"] = entries
            registry.counter("kernel.tables_packed").inc()
        return interned

    @classmethod
    def from_columns(
        cls, n_faults: int, cols: List[array], sigs: List[List[Signature]]
    ) -> "InternedTable":
        """The view of id columns and their candidate sets alone: ``sig_ids``
        are derived from them, ``det_words`` and ``entries`` on first use."""
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


class ResponseTable:
    """Responses of a fault list under a test set, as interned columns."""

    def __init__(
        self,
        outputs: Sequence[str],
        faults: Sequence[Fault],
        tests: TestSet,
        failing: Sequence[Dict[int, Signature]],
        good_output_words: Dict[str, int],
    ) -> None:
        """``failing[i]`` maps each test that detects fault ``i`` to its
        signature.  The dicts are interned (:meth:`InternedTable.intern`)
        and not kept."""
        faults = tuple(faults)
        self._init(
            outputs, faults, tests, good_output_words,
            InternedTable.intern(len(faults), len(tests), failing),
        )

    @classmethod
    def from_columns(
        cls,
        outputs: Sequence[str],
        faults: Sequence[Fault],
        tests: TestSet,
        cols: List[array],
        sigs: List[List[Signature]],
        good_output_words: Dict[str, int],
    ) -> "ResponseTable":
        """A table of id columns and their candidate sets, as the artifact
        loader decodes them or :meth:`subset` selects them: nothing is
        interned."""
        faults = tuple(faults)
        table = cls.__new__(cls)
        table._init(
            outputs, faults, tests, good_output_words,
            InternedTable.from_columns(len(faults), cols, sigs),
        )
        return table

    def _init(self, outputs, faults, tests, good_output_words, interned) -> None:
        self.outputs: Tuple[str, ...] = tuple(outputs)
        self.faults: Tuple[Fault, ...] = faults
        self.tests = tests
        self.good_output_words = dict(good_output_words)
        #: The stored form (:class:`InternedTable`).
        self.interned = interned
        # Its lists, bound here: a per-cell accessor then takes one
        # attribute hop per list, as cheap as a dict lookup per cell.
        self._cols, self._sigs = interned.cols, interned.sigs
        self._groups_cache: Dict[int, List[List[int]]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, netlist: Netlist, faults: Sequence[Fault], tests: TestSet) -> "ResponseTable":
        """Fault-simulate every fault against every test and record signatures."""
        simulator = FaultSimulator(netlist, tests)
        outputs = list(enumerate(netlist.compiled().outputs))
        failing: List[Dict[int, Signature]] = []
        for fault in faults:
            per_test: Dict[int, List[int]] = {}
            diffs = simulator.position_diffs(fault)
            # Outputs are visited in index order so each per-test list of
            # failing outputs is built already sorted.
            for o, position in outputs:
                word = diffs.get(position)
                if not word:
                    continue
                for j in iter_bits(word):
                    per_test.setdefault(j, []).append(o)
            failing.append({j: tuple(outs) for j, outs in per_test.items()})
        good = {net: simulator.good_values[net] for net in netlist.outputs}
        return cls(netlist.outputs, faults, tests, failing, good)

    # ------------------------------------------------------------------
    # dimensions
    # ------------------------------------------------------------------
    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @property
    def n_tests(self) -> int:
        return len(self.tests)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    # ------------------------------------------------------------------
    # per-(fault, test) access
    # ------------------------------------------------------------------
    def signature(self, fault_index: int, test_index: int) -> Signature:
        """Failing-output signature of fault ``fault_index`` under test ``test_index``."""
        return self._sigs[test_index][self._cols[test_index][fault_index]]

    def detects(self, test_index: int, fault_index: int) -> bool:
        return self._cols[test_index][fault_index] != 0

    def detection_word(self, fault_index: int) -> int:
        """Bit ``j`` set when test ``j`` detects the fault (the pass/fail row)."""
        return self.interned.det_words[fault_index]

    def full_row(self, fault_index: int) -> Tuple[Signature, ...]:
        """All signatures of one fault in test order (the full-dictionary row)."""
        return tuple(
            sigs[col[fault_index]] for col, sigs in zip(self._cols, self._sigs)
        )

    def response_vector(self, fault_index: int, test_index: int) -> str:
        """The faulty output vector ``z_i,j`` as a '0'/'1' string."""
        flips = set(self.signature(fault_index, test_index))
        bits = []
        for o, net in enumerate(self.outputs):
            good_bit = (self.good_output_words[net] >> test_index) & 1
            bits.append("1" if good_bit ^ (o in flips) else "0")
        return "".join(bits)

    def good_vector(self, test_index: int) -> str:
        """The fault-free output vector ``z_ff,j`` as a '0'/'1' string."""
        return "".join(
            "1" if (self.good_output_words[net] >> test_index) & 1 else "0"
            for net in self.outputs
        )

    def signature_to_vector(self, signature: Signature, test_index: int) -> str:
        """Convert a signature back to the concrete output vector under a test."""
        flips = set(signature)
        return "".join(
            "1" if ((self.good_output_words[net] >> test_index) & 1) ^ (o in flips) else "0"
            for o, net in enumerate(self.outputs)
        )

    # ------------------------------------------------------------------
    # per-test grouping (the candidate sets Z_j)
    # ------------------------------------------------------------------
    def failing_signatures(self, test_index: int) -> List[Signature]:
        """Distinct non-pass signatures under a test, in first-fault order.

        Together with the implicit fault-free signature these are the
        candidate baseline responses ``Z_j`` of the paper.
        """
        return self.interned.sigs[test_index][1:]

    def failing_groups(self, test_index: int) -> List[List[int]]:
        """Fault indices per distinct signature, aligned with
        :meth:`failing_signatures`: one pass over the test's detected
        entries, cached on the table."""
        groups = self._groups_cache.get(test_index)
        if groups is None:
            it = self.interned
            groups = [[] for _ in range(it.n_candidates(test_index) - 1)]
            for i, sid in zip(*it.entries[test_index]):
                groups[sid - 1].append(i)
            self._groups_cache[test_index] = groups
        return groups

    def candidate_signatures(self, test_index: int) -> List[Signature]:
        """The full candidate set ``Z_j``: the fault-free response plus every
        distinct faulty response."""
        return list(self.interned.sigs[test_index])

    def detected_indices(self, test_index: int) -> List[int]:
        """Indices of all faults detected by a test, grouped by signature."""
        return [i for group in self.failing_groups(test_index) for i in group]

    # ------------------------------------------------------------------
    def subset(self, test_indices: Sequence[int]) -> "ResponseTable":
        """Restriction of the table to the given tests (reindexed in order).

        The chosen columns are kept as they are: ids stay in first-fault
        order per test.
        """
        it = self.interned
        return ResponseTable.from_columns(
            self.outputs,
            self.faults,
            self.tests.subset(test_indices),
            [it.cols[j] for j in test_indices],
            [it.sigs[j] for j in test_indices],
            {
                net: _gather_bits(word, test_indices)
                for net, word in self.good_output_words.items()
            },
        )

    def __repr__(self) -> str:
        return (
            f"ResponseTable({self.n_faults} faults x {self.n_tests} tests, "
            f"{self.n_outputs} outputs)"
        )


def _gather_bits(word: int, indices: Iterable[int]) -> int:
    gathered = 0
    for new, old in enumerate(indices):
        if (word >> old) & 1:
            gathered |= 1 << new
    return gathered
