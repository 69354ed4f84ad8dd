"""Gate-level netlist representation.

A :class:`Netlist` is a named directed acyclic graph of :class:`Gate`
objects.  Each gate drives exactly one net, identified by the gate's name
(the ISCAS convention).  Primary inputs are gates of type ``INPUT``; primary
outputs are a list of net names.  Sequential circuits use ``DFF`` gates; the
full-scan transform in :mod:`repro.circuit.scan` converts them into
pseudo-inputs/pseudo-outputs before test generation and simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .compiled import CompiledNetlist
from .gates import GateType


class NetlistError(ValueError):
    """Raised for structurally invalid netlists."""


@dataclass
class Gate:
    """One gate: drives the net named ``name`` from the nets in ``inputs``."""

    name: str
    gate_type: GateType
    inputs: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        n = len(self.inputs)
        lo = self.gate_type.min_inputs
        hi = self.gate_type.max_inputs
        if n < lo or (hi >= 0 and n > hi):
            raise NetlistError(
                f"gate {self.name!r} of type {self.gate_type.value} has {n} "
                f"inputs (expected {lo}{'+' if hi < 0 else f'..{hi}'})"
            )


class Netlist:
    """A combinational or sequential gate-level circuit.

    Gates must be added before they are referenced only in the sense that
    the final structure is checked by :meth:`validate`; construction order
    is free.  All analysis results (levels, fan-out, the compiled view) are
    computed lazily and cached; adding a gate or an output invalidates the
    caches.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.gates: Dict[str, Gate] = {}
        self.outputs: List[str] = []
        self._invalidate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_gate(self, name: str, gate_type: GateType, inputs: Sequence[str] = ()) -> Gate:
        """Add a gate driving net ``name``; returns the new :class:`Gate`."""
        if name in self.gates:
            raise NetlistError(f"net {name!r} is driven twice")
        gate = Gate(name, gate_type, tuple(inputs))
        self.gates[name] = gate
        self._invalidate()
        return gate

    def add_input(self, name: str) -> Gate:
        return self.add_gate(name, GateType.INPUT)

    def add_output(self, name: str) -> None:
        """Mark net ``name`` as a primary output (may be declared early)."""
        if name in self.outputs:
            raise NetlistError(f"output {name!r} declared twice")
        self.outputs.append(name)
        self._invalidate()

    def _invalidate(self) -> None:
        self._order: Optional[List[str]] = None
        self._levels: Optional[Dict[str, int]] = None
        self._fanout: Optional[Dict[str, Tuple[str, ...]]] = None
        self._compiled: Optional[CompiledNetlist] = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> List[str]:
        """Primary input net names, in insertion order."""
        return [g.name for g in self.gates.values() if g.gate_type is GateType.INPUT]

    @property
    def flip_flops(self) -> List[str]:
        """DFF output net names, in insertion order."""
        return [g.name for g in self.gates.values() if g.gate_type is GateType.DFF]

    @property
    def is_combinational(self) -> bool:
        return not self.flip_flops

    @property
    def num_gates(self) -> int:
        """Number of logic gates (excludes INPUT pseudo-gates)."""
        return sum(1 for g in self.gates.values() if g.gate_type is not GateType.INPUT)

    def __contains__(self, net: str) -> bool:
        return net in self.gates

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates.values())

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity; raises :class:`NetlistError` on problems.

        Checks that every referenced net is driven, every output exists, and
        the combinational part is acyclic (DFF outputs break cycles).
        """
        for gate in self.gates.values():
            for net in gate.inputs:
                if net not in self.gates:
                    raise NetlistError(f"gate {gate.name!r} reads undriven net {net!r}")
        for net in self.outputs:
            if net not in self.gates:
                raise NetlistError(f"primary output {net!r} is not driven")
        if not self.outputs:
            raise NetlistError("netlist has no primary outputs")
        self.topological_order()  # raises on combinational cycles

    # ------------------------------------------------------------------
    # structural analysis
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Net names in a combinational topological order.

        INPUT and DFF gates (the pattern sources) come first; every other
        gate appears after all of its fan-in.  DFF *inputs* are ordinary
        combinational nets, so sequential loops through DFFs are legal.
        """
        if self._order is not None:
            return self._order
        indegree: Dict[str, int] = {}
        for gate in self.gates.values():
            if gate.gate_type in (GateType.INPUT, GateType.DFF):
                indegree[gate.name] = 0
            else:
                indegree[gate.name] = len(gate.inputs)
        fanout = self.fanout_map()
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: List[str] = []
        while ready:
            net = ready.pop()
            order.append(net)
            for successor in fanout[net]:
                if self.gates[successor].gate_type is GateType.DFF:
                    continue
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self.gates):
            cyclic = sorted(set(self.gates) - set(order))
            raise NetlistError(f"combinational cycle involving nets {cyclic[:5]}")
        self._order = order
        return order

    def compiled(self) -> CompiledNetlist:
        """The flat, integer-indexed view of this netlist (built once, cached).

        Editing the netlist drops the view; the next call compiles afresh.
        """
        if self._compiled is None:
            self._compiled = CompiledNetlist(self)
        return self._compiled

    def levelize(self) -> Dict[str, int]:
        """Level of each net: 0 for sources, 1 + max(fan-in levels) otherwise."""
        if self._levels is not None:
            return self._levels
        levels: Dict[str, int] = {}
        for net in self.topological_order():
            gate = self.gates[net]
            if gate.gate_type in (GateType.INPUT, GateType.DFF) or not gate.inputs:
                levels[net] = 0
            else:
                levels[net] = 1 + max(levels[i] for i in gate.inputs)
        self._levels = levels
        return levels

    def fanout_map(self) -> Dict[str, Tuple[str, ...]]:
        """Map each net to the names of the gates it feeds."""
        if self._fanout is not None:
            return self._fanout
        fanout: Dict[str, List[str]] = {name: [] for name in self.gates}
        for gate in self.gates.values():
            for net in gate.inputs:
                if net in fanout:
                    fanout[net].append(gate.name)
        self._fanout = {name: tuple(sinks) for name, sinks in fanout.items()}
        return self._fanout

    def output_cone(self, net: str) -> Set[str]:
        """Transitive combinational fan-out of ``net`` (including ``net``).

        The cone stops at DFF boundaries: a DFF input is in the cone but
        the DFF's output is not, matching single-time-frame simulation.
        Read from the compiled view's cone cache.
        """
        view = self.compiled()
        return {view.names[i] for i in view.cone(view.position[net])}

    def input_cone(self, net: str) -> Set[str]:
        """Transitive fan-in of ``net`` (including ``net``), stopping at sources."""
        cone: Set[str] = {net}
        stack = [net]
        while stack:
            gate = self.gates[stack.pop()]
            if gate.gate_type is GateType.DFF:
                continue
            for predecessor in gate.inputs:
                if predecessor not in cone:
                    cone.add(predecessor)
                    stack.append(predecessor)
        return cone

    # ------------------------------------------------------------------
    # editing
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Deep copy, optionally renamed."""
        clone = Netlist(name or self.name)
        for gate in self.gates.values():
            clone.add_gate(gate.name, gate.gate_type, gate.inputs)
        for net in self.outputs:
            clone.add_output(net)
        return clone

    def with_line_tied(self, net: str, value: int, name: Optional[str] = None) -> "Netlist":
        """Copy of this netlist with ``net`` replaced by a constant driver.

        Used by diagnostic ATPG: injecting fault ``f2`` (``net`` stuck at
        ``value``) structurally lets PODEM target ``f1`` in the faulty
        machine, so a generated test tells the two faults apart.
        """
        if net not in self.gates:
            raise NetlistError(f"cannot tie unknown net {net!r}")
        if value not in (0, 1):
            raise ValueError(f"tie value must be 0 or 1, got {value!r}")
        clone = Netlist(name or f"{self.name}__{net}_sa{value}")
        const = GateType.CONST1 if value else GateType.CONST0
        for gate in self.gates.values():
            if gate.name == net:
                clone.add_gate(gate.name, const, ())
            else:
                clone.add_gate(gate.name, gate.gate_type, gate.inputs)
        for out in self.outputs:
            clone.add_output(out)
        return clone

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Summary counts used in reports: inputs, outputs, DFFs, gates, depth."""
        levels = self.levelize()
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "flip_flops": len(self.flip_flops),
            "gates": self.num_gates,
            "depth": max(levels.values()) if levels else 0,
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Netlist({self.name!r}, inputs={s['inputs']}, outputs={s['outputs']}, "
            f"flip_flops={s['flip_flops']}, gates={s['gates']})"
        )


def from_gates(
    name: str,
    inputs: Iterable[str],
    gates: Iterable[Tuple[str, GateType, Sequence[str]]],
    outputs: Iterable[str],
) -> Netlist:
    """Convenience constructor from plain tuples; validates the result."""
    netlist = Netlist(name)
    for net in inputs:
        netlist.add_input(net)
    for net, gate_type, fanin in gates:
        netlist.add_gate(net, gate_type, fanin)
    for net in outputs:
        netlist.add_output(net)
    netlist.validate()
    return netlist
