"""Bit-parallel fault-free logic simulation.

Each net's value over all patterns is a single Python integer with one bit
per pattern, so the simulation cost is one bitwise operation per gate
regardless of the number of tests.  The simulation walks the netlist's
compiled view and keeps the words in a plain list indexed by position; the
name-keyed results are built from that list.  Only combinational (or
full-scan) netlists are simulated; sequential circuits must go through
:func:`repro.circuit.scan.prepare_for_test` first.
"""

from __future__ import annotations

from typing import Dict, List

from ..circuit import compiled as C
from ..circuit.netlist import Netlist
from .patterns import TestSet


class SimulationError(RuntimeError):
    """Raised for simulation misuse (sequential netlist, missing inputs)."""


def position_words(
    netlist: Netlist, input_words: Dict[str, int], num_patterns: int
) -> List[int]:
    """Simulate all patterns at once; the word of every net, by compiled position.

    ``input_words`` maps every primary input net to its pattern word.
    """
    if not netlist.is_combinational:
        raise SimulationError(
            f"netlist {netlist.name!r} is sequential; apply full scan first"
        )
    view = netlist.compiled()
    mask = (1 << num_patterns) - 1
    values = [0] * len(view)
    for position in view.inputs:
        net = view.names[position]
        try:
            values[position] = input_words[net] & mask
        except KeyError:
            raise SimulationError(f"no stimulus for primary input {net!r}")
    evaluators, fanin = C.EVALUATORS, view.fanin
    for i, kind in enumerate(view.kinds):
        if kind != C.INPUT:
            values[i] = evaluators[kind]([values[j] for j in fanin[i]], mask)
    return values


def simulate_words(
    netlist: Netlist, input_words: Dict[str, int], num_patterns: int
) -> Dict[str, int]:
    """Simulate all patterns at once; returns the word of every net.

    ``input_words`` maps every primary input net to its pattern word.
    """
    values = position_words(netlist, input_words, num_patterns)
    return dict(zip(netlist.compiled().names, values))


def simulate_positions(netlist: Netlist, tests: TestSet) -> List[int]:
    """Simulate a :class:`TestSet`; the word of every net, by compiled position."""
    if tuple(tests.inputs) != tuple(netlist.inputs):
        missing = set(netlist.inputs) - set(tests.inputs)
        if missing:
            raise SimulationError(f"test set lacks inputs {sorted(missing)}")
    return position_words(netlist, tests.input_words(), len(tests))


def simulate(netlist: Netlist, tests: TestSet) -> Dict[str, int]:
    """Simulate a :class:`TestSet`; returns the pattern word of every net."""
    return dict(zip(netlist.compiled().names, simulate_positions(netlist, tests)))


def output_words(netlist: Netlist, tests: TestSet) -> Dict[str, int]:
    """Pattern words of the primary outputs only."""
    values = simulate(netlist, tests)
    return {net: values[net] for net in netlist.outputs}


def output_vectors(netlist: Netlist, tests: TestSet) -> List[str]:
    """Per-test output response strings, ``result[j][o]`` for output ``o``."""
    words = output_words(netlist, tests)
    vectors = []
    for pattern in range(len(tests)):
        vectors.append(
            "".join("1" if (words[o] >> pattern) & 1 else "0" for o in netlist.outputs)
        )
    return vectors


def simulate_single(netlist: Netlist, assignment: Dict[str, int]) -> Dict[str, int]:
    """Scalar convenience: simulate one input assignment, {net: 0/1} out."""
    tests = TestSet(netlist.inputs)
    tests.append_assignment(assignment)
    values = simulate(netlist, tests)
    return {net: value & 1 for net, value in values.items()}
