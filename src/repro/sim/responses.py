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
against a chosen baseline signature per test.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..circuit.netlist import Netlist
from ..faults.model import Fault
from .bits import iter_bits
from .faultsim import FaultSimulator
from .patterns import TestSet

Signature = Tuple[int, ...]

#: The fault-free signature: no failing outputs.
PASS: Signature = ()


class ResponseTable:
    """Responses of a fault list under a test set, in signature form."""

    def __init__(
        self,
        outputs: Sequence[str],
        faults: Sequence[Fault],
        tests: TestSet,
        failing: List[Dict[int, Signature]],
        good_output_words: Dict[str, int],
    ) -> None:
        self.outputs: Tuple[str, ...] = tuple(outputs)
        self.faults: Tuple[Fault, ...] = tuple(faults)
        self.tests = tests
        self._failing = failing
        self.good_output_words = dict(good_output_words)
        self._groups_cache: Dict[int, List[List[int]]] = {}
        self._signature_cache: Dict[int, List[Signature]] = {}
        self._interned = None

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
        return self._failing[fault_index].get(test_index, PASS)

    def detects(self, test_index: int, fault_index: int) -> bool:
        return test_index in self._failing[fault_index]

    def detection_word(self, fault_index: int) -> int:
        """Bit ``j`` set when test ``j`` detects the fault (the pass/fail row)."""
        word = 0
        for j in self._failing[fault_index]:
            word |= 1 << j
        return word

    def failing_map(self, fault_index: int) -> Dict[int, Signature]:
        """``test -> signature`` of every test that detects the fault.

        The table's own dict, in insertion order; callers must not mutate it.
        """
        return self._failing[fault_index]

    def failing_items(self, fault_index: int) -> List[Tuple[int, Signature]]:
        """``(test, signature)`` of every test that detects the fault, in test order."""
        return sorted(self._failing[fault_index].items())

    def full_row(self, fault_index: int) -> Tuple[Signature, ...]:
        """All signatures of one fault in test order (the full-dictionary row)."""
        row = self._failing[fault_index]
        return tuple(row.get(j, PASS) for j in range(self.n_tests))

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
    def _group(self, test_index: int) -> None:
        interned = self._interned
        if interned is not None:
            # Interned ids are already in first-fault order: one pass over
            # the test's detected entries instead of one lookup per fault.
            signatures = interned.sigs[test_index][1:]
            members: List[List[int]] = [[] for _ in signatures]
            for i, sid in zip(*interned.entries[test_index]):
                members[sid - 1].append(i)
            self._signature_cache[test_index] = signatures
            self._groups_cache[test_index] = members
            return
        groups: Dict[Signature, List[int]] = {}
        for i, row in enumerate(self._failing):
            sig = row.get(test_index)
            if sig is not None:
                groups.setdefault(sig, []).append(i)
        ordered = sorted(groups.items(), key=lambda item: item[1][0])
        self._signature_cache[test_index] = [sig for sig, _ in ordered]
        self._groups_cache[test_index] = [members for _, members in ordered]

    def failing_signatures(self, test_index: int) -> List[Signature]:
        """Distinct non-pass signatures under a test, in first-fault order.

        Together with the implicit fault-free signature these are the
        candidate baseline responses ``Z_j`` of the paper.
        """
        if test_index not in self._signature_cache:
            self._group(test_index)
        return self._signature_cache[test_index]

    def failing_groups(self, test_index: int) -> List[List[int]]:
        """Fault indices per distinct signature, aligned with
        :meth:`failing_signatures`."""
        if test_index not in self._groups_cache:
            self._group(test_index)
        return self._groups_cache[test_index]

    def candidate_signatures(self, test_index: int) -> List[Signature]:
        """The full candidate set ``Z_j``: the fault-free response plus every
        distinct faulty response."""
        return [PASS] + self.failing_signatures(test_index)

    def detected_indices(self, test_index: int) -> List[int]:
        """Indices of all faults detected by a test."""
        return [i for group in self.failing_groups(test_index) for i in group]

    # ------------------------------------------------------------------
    # packed-kernel view
    # ------------------------------------------------------------------
    @property
    def interned(self):
        """The packed-column view (:class:`~repro.kernels.interning.InternedTable`).

        Computed lazily and cached; plain lists and ints, so it pickles
        with the table to restart worker processes.
        """
        if self._interned is None:
            from ..kernels import intern_response_table

            self._interned = intern_response_table(self)
        return self._interned

    def adopt_interned(self, interned) -> None:
        """Install a precomputed packed view instead of deriving one.

        The artifact loader calls this with the deserialised columns so a
        restored table serves the packed kernels without re-interning.
        """
        if interned.n_faults != self.n_faults or interned.n_tests != self.n_tests:
            raise ValueError(
                f"interned view is {interned.n_faults}x{interned.n_tests}, "
                f"table is {self.n_faults}x{self.n_tests}"
            )
        self._interned = interned

    # ------------------------------------------------------------------
    def subset(self, test_indices: Sequence[int]) -> "ResponseTable":
        """Restriction of the table to the given tests (reindexed in order)."""
        remap = {old: new for new, old in enumerate(test_indices)}
        failing = [
            {remap[j]: sig for j, sig in row.items() if j in remap}
            for row in self._failing
        ]
        tests = self.tests.subset(test_indices)
        good = {
            net: _gather_bits(word, test_indices)
            for net, word in self.good_output_words.items()
        }
        return ResponseTable(self.outputs, self.faults, tests, failing, good)

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
