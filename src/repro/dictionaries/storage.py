"""Bit-packed serialization of fault dictionaries.

The paper argues about dictionary *sizes in bits*; this module makes those
numbers concrete: each dictionary serialises to a byte blob whose payload
bit count equals the size model of Section 2 exactly (headers, fault names
and test vectors are shared catalogue data that every organisation needs
and are therefore excluded from the comparison, like the fault-free
response in the paper).

Formats
-------
* pass/fail: the ``k x n`` bit matrix, row-major per fault.
* same/different: the ``k x n`` bit matrix plus ``k`` baseline output
  vectors of ``m`` bits.
* full: ``k x n`` output vectors of ``m`` bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List

from ..sim.responses import ResponseTable, Signature
from .full import FullDictionary
from .passfail import PassFailDictionary
from .samediff import SameDifferentDictionary


class BitWriter:
    """Accumulates values LSB-first into a byte buffer.

    Whole bytes are flushed into a ``bytearray`` as soon as they are
    complete, so memory stays proportional to the packed *byte* count —
    the earlier per-bit ``List[int]`` accumulator cost ~28 bytes of list
    slot per payload bit, which dominated packing of large dictionaries.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._pending = 0
        self._pending_bits = 0

    def write(self, value: int, width: int) -> None:
        """Append the low ``width`` bits of ``value``."""
        self._pending |= (value & ((1 << width) - 1)) << self._pending_bits
        self._pending_bits += width
        if self._pending_bits >= 8:
            whole = self._pending_bits // 8
            self._buffer += (self._pending & ((1 << (whole * 8)) - 1)).to_bytes(
                whole, "little"
            )
            self._pending >>= whole * 8
            self._pending_bits -= whole * 8

    @property
    def bit_count(self) -> int:
        return len(self._buffer) * 8 + self._pending_bits

    def to_bytes(self) -> bytes:
        out = bytes(self._buffer)
        if self._pending_bits:
            out += self._pending.to_bytes(1, "little")
        return out


class BitReader:
    """Reads back values written by :class:`BitWriter`, LSB-first."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0

    @property
    def bit_position(self) -> int:
        return self._position

    def read(self, width: int) -> int:
        start = self._position
        end = start + width
        if width and (end + 7) // 8 > len(self._data):
            raise ValueError(
                f"bit stream exhausted: read of {width} bits at bit {start} "
                f"overruns the {len(self._data)}-byte payload"
            )
        word = int.from_bytes(
            self._data[start // 8 : (end + 7) // 8], "little"
        )
        self._position = end
        return (word >> (start % 8)) & ((1 << width) - 1)


def _signature_to_bits(table: ResponseTable, signature: Signature, test_index: int) -> int:
    """Baseline/response vector as an integer over the m output bits."""
    vector = table.signature_to_vector(signature, test_index)
    return int(vector[::-1], 2) if vector else 0


def _bits_to_signature(table: ResponseTable, bits: int, test_index: int) -> Signature:
    good = table.good_vector(test_index)
    flips = tuple(
        o for o in range(len(good)) if ((bits >> o) & 1) != int(good[o])
    )
    return flips


@dataclass
class PackedDictionary:
    """A serialised dictionary: payload bits + enough context to restore it."""

    kind: str
    n_faults: int
    n_tests: int
    n_outputs: int
    payload: bytes
    payload_bits: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "n_faults": self.n_faults,
                "n_tests": self.n_tests,
                "n_outputs": self.n_outputs,
                "payload_bits": self.payload_bits,
                "payload_hex": self.payload.hex(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PackedDictionary":
        raw = json.loads(text)
        return cls(
            kind=raw["kind"],
            n_faults=raw["n_faults"],
            n_tests=raw["n_tests"],
            n_outputs=raw["n_outputs"],
            payload=bytes.fromhex(raw["payload_hex"]),
            payload_bits=raw["payload_bits"],
        )


def pack_passfail(dictionary: PassFailDictionary) -> PackedDictionary:
    table = dictionary.table
    writer = BitWriter()
    for i in range(table.n_faults):
        writer.write(dictionary.row(i), table.n_tests)
    assert writer.bit_count == dictionary.size_bits
    return PackedDictionary(
        "pass/fail", table.n_faults, table.n_tests, table.n_outputs,
        writer.to_bytes(), writer.bit_count,
    )


def unpack_passfail(packed: PackedDictionary, table: ResponseTable) -> PassFailDictionary:
    if packed.kind != "pass/fail":
        raise ValueError(f"expected pass/fail payload, got {packed.kind!r}")
    reader = BitReader(packed.payload)
    dictionary = PassFailDictionary(table)
    for i in range(table.n_faults):
        row = reader.read(table.n_tests)
        if row != dictionary.row(i):
            raise ValueError(f"payload row {i} does not match the response table")
    return dictionary


def pack_samediff(dictionary: SameDifferentDictionary) -> PackedDictionary:
    table = dictionary.table
    writer = BitWriter()
    for j in range(table.n_tests):
        writer.write(
            _signature_to_bits(table, dictionary.baselines[j], j), table.n_outputs
        )
    for i in range(table.n_faults):
        writer.write(dictionary.row(i), table.n_tests)
    assert writer.bit_count == dictionary.size_bits
    return PackedDictionary(
        "same/different", table.n_faults, table.n_tests, table.n_outputs,
        writer.to_bytes(), writer.bit_count,
    )


def unpack_samediff(packed: PackedDictionary, table: ResponseTable) -> SameDifferentDictionary:
    if packed.kind != "same/different":
        raise ValueError(f"expected same/different payload, got {packed.kind!r}")
    reader = BitReader(packed.payload)
    baselines: List[Signature] = []
    for j in range(table.n_tests):
        baselines.append(_bits_to_signature(table, reader.read(table.n_outputs), j))
    dictionary = SameDifferentDictionary(table, baselines)
    for i in range(table.n_faults):
        row = reader.read(table.n_tests)
        if row != dictionary.row(i):
            raise ValueError(f"payload row {i} does not match the response table")
    return dictionary


def pack_full(dictionary: FullDictionary) -> PackedDictionary:
    table = dictionary.table
    writer = BitWriter()
    for i in range(table.n_faults):
        for j in range(table.n_tests):
            writer.write(
                _signature_to_bits(table, table.signature(i, j), j), table.n_outputs
            )
    assert writer.bit_count == dictionary.size_bits
    return PackedDictionary(
        "full", table.n_faults, table.n_tests, table.n_outputs,
        writer.to_bytes(), writer.bit_count,
    )


def unpack_full(packed: PackedDictionary, table: ResponseTable) -> FullDictionary:
    if packed.kind != "full":
        raise ValueError(f"expected full payload, got {packed.kind!r}")
    reader = BitReader(packed.payload)
    for i in range(table.n_faults):
        for j in range(table.n_tests):
            bits = reader.read(table.n_outputs)
            if _bits_to_signature(table, bits, j) != table.signature(i, j):
                raise ValueError(
                    f"payload response ({i}, {j}) does not match the table"
                )
    return FullDictionary(table)
