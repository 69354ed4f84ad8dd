"""Exact fault-pair distinguishing via a miter construction.

A test ``t`` distinguishes faults ``f1`` and ``f2`` when the two faulty
machines respond differently: ``z_1(t) != z_2(t)``.  We build a *miter*
whose single output is 1 exactly on distinguishing tests, so PODEM
targeting ``miter_output stuck-at-0`` either returns a distinguishing
test or — when it exhausts the search space — proves the pair
indistinguishable by any test (the pair is *functionally equivalent* as
observed machines).  The SAT engine decides the same miter.

The miter shares everything the two machines share: the fault-free logic
appears once, each fault adds a faulty copy of only its fan-out cone, and
only the outputs some cone reaches are XORed.  The solver therefore never
has to prove that nets outside both cones agree.

This machinery powers the diagnostic test generator and doubles as an
equivalence checker for fault pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist
from ..faults.model import Fault
from .podem import Podem, Status

MITER_OUTPUT = "__miter"


def _cone_origin(netlist: Netlist, fault: Fault) -> str:
    """The net ``fault``'s effect spreads from: the faulty stem, or the
    sink gate of a pin fault.  Raises ValueError for a fault not on
    ``netlist``."""
    if fault.line not in netlist.gates:
        raise ValueError(f"cannot inject {fault}: net {fault.line!r} not found")
    if fault.is_stem:
        return fault.line
    sink = netlist.gates.get(fault.input_of)
    if sink is None or fault.line not in sink.inputs:
        raise ValueError(f"cannot inject {fault}: pin not found")
    return fault.input_of


def inject_fault(netlist: Netlist, fault: Fault) -> None:
    """Structurally inject ``fault`` into ``netlist`` (in place).

    Stem faults tie the whole net to a constant.  Pin faults splice a
    fresh constant net into the sink gate's fan-in, leaving the stem
    intact for its other branches.
    """
    _cone_origin(netlist, fault)
    const = GateType.CONST1 if fault.stuck_at else GateType.CONST0
    line = fault.line
    if fault.is_stem:
        gate = netlist.gates[line]
        if gate.gate_type is GateType.INPUT:
            # Keep the INPUT gate so the circuit interface (and therefore
            # test-vector alignment) is unchanged; redirect all consumers
            # to a constant stand-in instead.
            stub = f"{line}__stuck{fault.stuck_at}"
            netlist.add_gate(stub, const, ())
            for name, sink in list(netlist.gates.items()):
                if line in sink.inputs and name != stub:
                    new_inputs = tuple(stub if i == line else i for i in sink.inputs)
                    netlist.gates[name] = type(sink)(name, sink.gate_type, new_inputs)
            netlist.outputs = [stub if o == line else o for o in netlist.outputs]
        else:
            netlist.gates[line] = type(gate)(line, const, ())
        netlist._invalidate()
        return
    sink_name = fault.input_of
    sink = netlist.gates[sink_name]
    stub = f"{line}__pin_sa{fault.stuck_at}__{sink_name}"
    netlist.add_gate(stub, const, ())
    new_inputs = tuple(stub if i == line else i for i in sink.inputs)
    netlist.gates[sink_name] = type(sink)(sink_name, sink.gate_type, new_inputs)
    netlist._invalidate()


def injected_copy(netlist: Netlist, fault: Fault) -> Netlist:
    """A copy of ``netlist`` with ``fault`` structurally present."""
    clone = netlist.copy(f"{netlist.name}__{fault}")
    inject_fault(clone, fault)
    clone.validate()
    return clone


def _add_copy(miter: Netlist, netlist: Netlist, prefix: str) -> None:
    """Add a prefixed copy of ``netlist`` to ``miter``, PIs read through BUFs."""
    for gate in netlist:
        name = prefix + gate.name
        if gate.gate_type is GateType.INPUT:
            miter.add_gate(name, GateType.BUF, (gate.name,))
        else:
            miter.add_gate(name, gate.gate_type, tuple(prefix + i for i in gate.inputs))


def _add_difference_output(miter: Netlist, pairs: Sequence[Tuple[str, str]]) -> None:
    """Drive :data:`MITER_OUTPUT` with the OR of the pairs' XORs.

    Pairwise XORs feed a balanced OR tree; with no pairs the output is a
    constant 0 (no test can tell the machines apart).
    """
    if not pairs:
        miter.add_gate(MITER_OUTPUT, GateType.CONST0, ())
        miter.add_output(MITER_OUTPUT)
        return
    frontier = []
    for index, (left, right) in enumerate(pairs):
        name = f"__xor{index}"
        miter.add_gate(name, GateType.XOR, (left, right))
        frontier.append(name)
    level = 0
    while len(frontier) > 1:
        merged = []
        for i in range(0, len(frontier) - 1, 2):
            name = f"__or{level}_{i // 2}"
            miter.add_gate(name, GateType.OR, (frontier[i], frontier[i + 1]))
            merged.append(name)
        if len(frontier) % 2:
            merged.append(frontier[-1])
        frontier = merged
        level += 1
    miter.add_gate(MITER_OUTPUT, GateType.BUF, (frontier[0],))
    miter.add_output(MITER_OUTPUT)


def build_difference_miter(netlist_a: Netlist, netlist_b: Netlist) -> Netlist:
    """A miter of two same-interface machines.

    Output net :data:`MITER_OUTPUT` is 1 under exactly the input vectors
    where the two machines produce different output vectors.  Both
    netlists must be combinational with identical input and output lists.
    """
    if not netlist_a.is_combinational or not netlist_b.is_combinational:
        raise ValueError("miter construction requires combinational netlists")
    if list(netlist_a.inputs) != list(netlist_b.inputs) or list(
        netlist_a.outputs
    ) != list(netlist_b.outputs):
        raise ValueError("miter operands must share inputs and outputs")
    miter = Netlist(f"{netlist_a.name}__vs__{netlist_b.name}")
    for net in netlist_a.inputs:
        miter.add_input(net)
    _add_copy(miter, netlist_a, "A__")
    _add_copy(miter, netlist_b, "B__")
    _add_difference_output(
        miter, [(f"A__{out}", f"B__{out}") for out in netlist_a.outputs]
    )
    miter.validate()
    return miter


def _faulty_copy(
    netlist: Netlist, fault: Fault, cone: Set[str], prefix: str
) -> List[Tuple[str, GateType, Tuple[str, ...]]]:
    """The faulty machine's gates over ``cone``, in topological order.

    Copies are named ``prefix + net`` and read nets outside the cone
    under their fault-free names.  The faulty net itself, or the pin's
    stand-in, is a constant.
    """
    const = GateType.CONST1 if fault.stuck_at else GateType.CONST0
    stub = f"{prefix}{fault.line}__sa{fault.stuck_at}"
    gates = []
    for name in netlist.topological_order():
        if name not in cone:
            continue
        if fault.is_stem and name == fault.line:
            gates.append((prefix + name, const, ()))
            continue
        gate = netlist.gates[name]
        inputs = tuple(prefix + i if i in cone else i for i in gate.inputs)
        if name == fault.input_of:
            gates.append((stub, const, ()))
            inputs = tuple(stub if i == fault.line else i for i in inputs)
        gates.append((prefix + name, gate.gate_type, inputs))
    return gates


def build_miter(
    netlist: Netlist, fault_a: Fault, fault_b: Optional[Fault] = None
) -> Netlist:
    """The cone-shared difference miter of two faulty machines.

    Output net :data:`MITER_OUTPUT` is 1 under exactly the input vectors
    where the machine with ``fault_a`` and the machine with ``fault_b``
    (the fault-free machine when ``None``) produce different output
    vectors.  The fault-free logic appears once; each fault adds a faulty
    copy of only its fan-out cone; only the outputs a cone reaches are
    XORed; and only the fault-free gates that feed what remains are kept.
    When no cone reaches an output the miter output is constant 0.
    """
    if not netlist.is_combinational:
        raise ValueError("miter construction requires a combinational netlist")
    cone_a = netlist.output_cone(_cone_origin(netlist, fault_a))
    copies = _faulty_copy(netlist, fault_a, cone_a, "A__")
    cone_b: Set[str] = set()
    if fault_b is not None:
        cone_b = netlist.output_cone(_cone_origin(netlist, fault_b))
        copies += _faulty_copy(netlist, fault_b, cone_b, "B__")
    pairs = [
        ("A__" + out if out in cone_a else out, "B__" + out if out in cone_b else out)
        for out in netlist.outputs
        if out in cone_a or out in cone_b
    ]
    # The fault-free nets the copies and XORs read, closed over fan-in.
    copied = {name for name, _, _ in copies}
    stack = [net for _, _, inputs in copies for net in inputs if net not in copied]
    stack.extend(net for pair in pairs for net in pair if net not in copied)
    needed: Set[str] = set()
    while stack:
        net = stack.pop()
        if net not in needed:
            needed.add(net)
            stack.extend(netlist.gates[net].inputs)

    miter = Netlist(f"{netlist.name}__miter")
    for net in netlist.inputs:
        miter.add_input(net)
    for net in netlist.topological_order():
        gate = netlist.gates[net]
        if net in needed and gate.gate_type is not GateType.INPUT:
            miter.add_gate(net, gate.gate_type, gate.inputs)
    for name, gate_type, inputs in copies:
        miter.add_gate(name, gate_type, inputs)
    _add_difference_output(miter, pairs)
    miter.validate()
    return miter


@dataclass
class DistinguishResult:
    """Outcome of one pair-distinguishing attempt."""

    status: Status
    fault_a: Fault
    fault_b: Fault
    #: A full input vector distinguishing the pair (only when DETECTED).
    test: Optional[Dict[str, int]] = None

    @property
    def distinguished(self) -> bool:
        return self.status is Status.DETECTED

    @property
    def proven_equivalent(self) -> bool:
        return self.status is Status.UNTESTABLE


class Distinguisher:
    """Generates tests that tell fault pairs of one netlist apart."""

    def __init__(
        self,
        netlist: Netlist,
        backtrack_limit: int = 512,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self.rng = rng or random.Random(0)

    def distinguish(self, fault_a: Fault, fault_b: Fault) -> DistinguishResult:
        """Find a test with ``z_a != z_b``, or prove none exists."""
        miter = build_miter(self.netlist, fault_a, fault_b)
        engine = Podem(miter, backtrack_limit=self.backtrack_limit, rng=self.rng)
        result = engine.generate(Fault(MITER_OUTPUT, 0))
        if not result.detected:
            return DistinguishResult(result.status, fault_a, fault_b)
        vector = engine.fill(result, self.rng)
        return DistinguishResult(Status.DETECTED, fault_a, fault_b, vector)
