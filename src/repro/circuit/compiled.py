"""The compiled view of a netlist: flat integer arrays for the inner loops.

:class:`~repro.circuit.netlist.Netlist` is the editable form that parsing,
scan insertion and the transforms work on, keyed by net name.  PODEM and
the simulators instead walk one fixed structure over and over, so
:meth:`Netlist.compiled` lowers it once into a :class:`CompiledNetlist`:
every net gets an integer id, its position in the netlist's topological
order, and the structure becomes tuples indexed by that id.  The view is
immutable apart from its memo of fan-out cones; editing the netlist drops
it, and the next :meth:`Netlist.compiled` call builds a fresh one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .gates import EVALUATORS as _EVALUATORS_BY_TYPE
from .gates import GateType

if TYPE_CHECKING:
    from .netlist import Netlist

#: Gate-type codes, one small int per :class:`GateType` member.
INPUT, AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF, DFF, CONST0, CONST1 = range(12)

#: The gate type behind each code: ``GATE_TYPES[code]``.
GATE_TYPES: Tuple[GateType, ...] = (
    GateType.INPUT,
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
    GateType.DFF,
    GateType.CONST0,
    GateType.CONST1,
)

#: The code of each gate type.
CODES: Dict[GateType, int] = {
    gate_type: code for code, gate_type in enumerate(GATE_TYPES)
}

#: The bit-parallel evaluator of :mod:`repro.circuit.gates` per code; None
#: for the pattern sources (INPUT, DFF).
EVALUATORS: Tuple[Optional[Callable[[Sequence[int], int], int]], ...] = tuple(
    _EVALUATORS_BY_TYPE.get(gate_type) for gate_type in GATE_TYPES
)


class CompiledNetlist:
    """A netlist's structure as tuples indexed by topological position.

    ``names[i]`` is the net at position ``i`` and ``position`` inverts it.
    ``kinds[i]`` is its gate-type code, ``fanin[i]`` and ``fanout[i]`` the
    positions it reads and feeds (in the netlist's own orders).  ``inputs``
    and ``outputs`` hold the positions of the primary inputs and outputs in
    declaration order, and ``is_output[i]`` flags the latter.  Every fan-in
    position is smaller than the gate's own, except a DFF's, whose output
    is a pattern source.
    """

    __slots__ = (
        "names", "position", "kinds", "fanin", "fanout",
        "inputs", "outputs", "is_output", "_cones",
    )

    def __init__(self, netlist: "Netlist") -> None:
        names = tuple(netlist.topological_order())
        position = {net: i for i, net in enumerate(names)}
        gates = netlist.gates
        fanout = netlist.fanout_map()
        self.names: Tuple[str, ...] = names
        self.position: Dict[str, int] = position
        self.kinds: Tuple[int, ...] = tuple(
            CODES[gates[net].gate_type] for net in names
        )
        self.fanin: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(position[i] for i in gates[net].inputs) for net in names
        )
        self.fanout: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(position[s] for s in fanout[net]) for net in names
        )
        self.inputs: Tuple[int, ...] = tuple(position[net] for net in netlist.inputs)
        self.outputs: Tuple[int, ...] = tuple(position[net] for net in netlist.outputs)
        flags = [False] * len(names)
        for o in self.outputs:
            flags[o] = True
        self.is_output: Tuple[bool, ...] = tuple(flags)
        self._cones: Dict[int, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.names)

    def cone(self, origin: int) -> Tuple[int, ...]:
        """The fan-out cone of position ``origin``, ascending (cached).

        The cone includes ``origin`` itself, which therefore comes first.
        It stops at DFF boundaries: a DFF input is in the cone but the
        DFF's output is not, matching single-time-frame simulation.
        """
        cached = self._cones.get(origin)
        if cached is None:
            fanout, kinds = self.fanout, self.kinds
            seen = {origin}
            stack: List[int] = [origin]
            while stack:
                for successor in fanout[stack.pop()]:
                    if successor not in seen and kinds[successor] != DFF:
                        seen.add(successor)
                        stack.append(successor)
            cached = self._cones[origin] = tuple(sorted(seen))
        return cached
