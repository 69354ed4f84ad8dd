"""Three-valued (0/1/X) logic used by PODEM.

PODEM tracks, for every net, a pair of three-valued values: the fault-free
(good) value and the faulty value.  The composite five-valued alphabet of
the D-algorithm falls out of the pairing: ``D`` is good 1 / faulty 0 and
``D'`` is good 0 / faulty 1.

:func:`evaluate3` is the plain per-machine reference.  PODEM itself packs
both values of a net into one small int of four *rails* (see
:func:`pack`) and evaluates both machines at once with
:func:`evaluate_packed`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..circuit import compiled as C
from ..circuit.gates import GateType

ZERO = 0
ONE = 1
X = 2

_NOT3 = (ONE, ZERO, X)


def not3(value: int) -> int:
    return _NOT3[value]


def and3(values: Sequence[int]) -> int:
    result = ONE
    for value in values:
        if value == ZERO:
            return ZERO
        if value == X:
            result = X
    return result


def or3(values: Sequence[int]) -> int:
    result = ZERO
    for value in values:
        if value == ONE:
            return ONE
        if value == X:
            result = X
    return result


def xor3(values: Sequence[int]) -> int:
    result = ZERO
    for value in values:
        if value == X:
            return X
        result ^= value
    return result


def evaluate3(gate_type: GateType, values: Sequence[int]) -> int:
    """Three-valued evaluation of one gate."""
    if gate_type is GateType.AND:
        return and3(values)
    if gate_type is GateType.NAND:
        return not3(and3(values))
    if gate_type is GateType.OR:
        return or3(values)
    if gate_type is GateType.NOR:
        return not3(or3(values))
    if gate_type is GateType.XOR:
        return xor3(values)
    if gate_type is GateType.XNOR:
        return not3(xor3(values))
    if gate_type is GateType.NOT:
        return not3(values[0])
    if gate_type is GateType.BUF:
        return values[0]
    if gate_type is GateType.CONST0:
        return ZERO
    if gate_type is GateType.CONST1:
        return ONE
    raise ValueError(f"cannot evaluate gate type {gate_type.value}")


def to_symbol(good: int, faulty: int) -> str:
    """Render a (good, faulty) pair in D-notation for debugging."""
    if good == X or faulty == X:
        return "X"
    if good == faulty:
        return str(good)
    return "D" if good == ONE else "D'"


# ---------------------------------------------------------------------------
# Packed (good, faulty) pairs
# ---------------------------------------------------------------------------
# A packed state has four rails: bit 0 "good can be 0", bit 1 "good can be
# 1", bit 2 "faulty can be 0" and bit 3 "faulty can be 1".  A value v is the
# rail pair v + 1: ZERO sets only can-be-0, ONE only can-be-1, X both.

#: The can-be-0 rails of both machines.
LOW = 0b0101
#: The can-be-1 rails of both machines.
HIGH = 0b1010
#: Both machines X: every rail set.
PACKED_X = 0b1111


def pack(good: int, faulty: int) -> int:
    """The packed state of a (good, faulty) pair of three-valued values."""
    return (good + 1) | (faulty + 1) << 2


def good_value(state: int) -> int:
    return (state & 3) - 1


def faulty_value(state: int) -> int:
    return (state >> 2) - 1


#: States of a net whose machines are known and differ: D and D'.
DIFFERS: Tuple[bool, ...] = tuple(
    s in (pack(ONE, ZERO), pack(ZERO, ONE)) for s in range(16)
)
#: States with X in either machine.
HAS_X: Tuple[bool, ...] = tuple((s & 3) == 3 or (s & 12) == 12 for s in range(16))


def _swap(state: int) -> int:
    """Invert both machines: exchange each can-be-0 rail with its can-be-1."""
    return (state & LOW) << 1 | (state & HIGH) >> 1


def _monotone_table(and_like: bool, inverted: bool) -> Tuple[int, ...]:
    """Output state per ``(a << 4) | o``, where ``a`` and ``o`` are the
    bitwise AND and OR of the fan-in states.

    An AND output can be 1 only when every input can be 1 (the AND of the
    can-be-1 rails) and can be 0 when some input can be 0 (the OR of the
    can-be-0 rails); an OR output is the dual.
    """
    table = []
    for index in range(256):
        a, o = index >> 4, index & 15
        state = (a & HIGH) | (o & LOW) if and_like else (o & HIGH) | (a & LOW)
        table.append(_swap(state) if inverted else state)
    return tuple(table)


def _xor_table() -> Tuple[int, ...]:
    """XOR of two states per ``(x << 4) | y``, rail by rail per machine.

    The output can be 0 when both inputs can take one same value, and can
    be 1 when they can take different ones.
    """
    table = []
    for index in range(256):
        x, y = index >> 4, index & 15
        state = 0
        for shift in (0, 2):
            p, q = (x >> shift) & 3, (y >> shift) & 3
            rails = (1 if p & q else 0) | (2 if p & _swap(q) else 0)
            state |= rails << shift
        table.append(state)
    return tuple(table)


_AND, _NAND = _monotone_table(True, False), _monotone_table(True, True)
_OR, _NOR = _monotone_table(False, False), _monotone_table(False, True)

#: Per gate code, the table a monotone gate reads its output from, indexed
#: by ``(a << 4) | o`` over its fan-in states; None for the rest.  NOT is a
#: one-input NAND and BUF a one-input AND; over an empty fan-in (``a`` all
#: ones, ``o`` zero) AND gives 1 and OR gives 0, so the constants are the
#: empty AND and OR.
MONOTONE: Tuple[Optional[Tuple[int, ...]], ...] = tuple(
    {
        C.AND: _AND, C.NAND: _NAND, C.OR: _OR, C.NOR: _NOR,
        C.NOT: _NAND, C.BUF: _AND, C.CONST0: _OR, C.CONST1: _AND,
    }.get(code)
    for code in range(len(C.GATE_TYPES))
)

#: XOR of two states, indexed by ``(x << 4) | y``.
XOR2 = _xor_table()

#: Per gate code, the state a parity gate folds its fan-in into with
#: :data:`XOR2` (XNOR starts from 1); None for the rest.
PARITY_SEED: Tuple[Optional[int], ...] = tuple(
    {C.XOR: pack(ZERO, ZERO), C.XNOR: pack(ONE, ONE)}.get(code)
    for code in range(len(C.GATE_TYPES))
)


def evaluate_packed(kind: int, states: Sequence[int]) -> int:
    """Both machines of one gate at once: packed fan-in states to packed output.

    ``kind`` is a gate-type code of :mod:`repro.circuit.compiled`.  Decoded,
    the result equals :func:`evaluate3` applied to each machine.
    """
    table = MONOTONE[kind]
    if table is not None:
        a, o = PACKED_X, 0
        for state in states:
            a &= state
            o |= state
        return table[a << 4 | o]
    value = PARITY_SEED[kind]
    if value is None:
        raise ValueError(f"cannot evaluate gate type {C.GATE_TYPES[kind].value}")
    for state in states:
        value = XOR2[value << 4 | state]
    return value
