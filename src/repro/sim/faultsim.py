"""Bit-parallel single stuck-at fault simulation.

For each fault, all test patterns are simulated simultaneously (one bit per
pattern) and re-evaluation is restricted to the fault's fan-out cone, with
event-driven pruning: a gate is re-evaluated only when one of its fan-ins
actually changed on some pattern.  This is the parallel-pattern
single-fault propagation (PPSFP) scheme of Waicukauski et al., adapted to
arbitrary-precision integers.

The simulator indexes plain lists by the netlist's compiled positions and
reads each fault's cone from the compiled view, whose cone cache every
simulator of that netlist shares.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from ..circuit import compiled as C
from ..circuit.netlist import Netlist
from ..faults.model import Fault
from ..obs import get_default_registry
from .bits import iter_bits  # noqa: F401 - re-exported for compatibility
from .logicsim import SimulationError, simulate_positions
from .patterns import TestSet


class FaultSimulator:
    """Simulates single stuck-at faults against a fixed test set.

    The fault-free simulation is computed once; each :meth:`output_diffs`
    call then costs one bitwise pass over the (pruned) fan-out cone of the
    fault.
    """

    def __init__(self, netlist: Netlist, tests: TestSet) -> None:
        if not netlist.is_combinational:
            raise SimulationError(
                f"netlist {netlist.name!r} is sequential; apply full scan first"
            )
        self.netlist = netlist
        self.tests = tests
        self.num_patterns = len(tests)
        self.mask = (1 << self.num_patterns) - 1
        self._view = netlist.compiled()
        self._good = simulate_positions(netlist, tests)

    @cached_property
    def good_values(self) -> Dict[str, int]:
        """The fault-free pattern word of every net, by name."""
        return dict(zip(self._view.names, self._good))

    # ------------------------------------------------------------------
    def _activation(self, fault: Fault) -> Tuple[int, int]:
        """The position where the fault first takes effect and its faulty word.

        For a stem fault that is the fault line itself.  For a pin fault it
        is the *sink gate's output*, re-evaluated with the stuck value
        substituted on the faulty pin only.
        """
        view = self._view
        line = view.position.get(fault.line)
        if line is None:
            raise ValueError(f"fault on unknown net: {fault}")
        stuck = self.mask if fault.stuck_at else 0
        if fault.is_stem:
            return line, stuck
        sink = view.position.get(fault.input_of)
        if sink is None or line not in view.fanin[sink]:
            raise ValueError(f"fault on unknown pin: {fault}")
        fanin = [stuck if j == line else self._good[j] for j in view.fanin[sink]]
        return sink, C.EVALUATORS[view.kinds[sink]](fanin, self.mask)

    # ------------------------------------------------------------------
    def position_diffs(self, fault: Fault) -> Dict[int, int]:
        """:meth:`output_diffs` keyed by the outputs' compiled positions."""
        registry = get_default_registry()
        registry.counter("faultsim.faults_simulated").inc()
        registry.counter("faultsim.patterns_applied").inc(self.num_patterns)
        origin, faulty_word = self._activation(fault)
        good = self._good
        initial_diff = faulty_word ^ good[origin]
        diffs: Dict[int, int] = {}
        if not initial_diff:
            # The fault never activates under these patterns: its effect is
            # dropped at the origin before any propagation work happens.
            registry.counter("faultsim.dropped_faults").inc()
            return diffs
        view = self._view
        fanin, fanout, kinds = view.fanin, view.fanout, view.kinds
        is_output, mask = view.is_output, self.mask
        # ``faulty`` holds the nets whose faulty word differs from the good
        # one, ``pending`` the gates that read one of them.
        faulty: Dict[int, int] = {origin: faulty_word}
        pending = set(fanout[origin])
        if is_output[origin]:
            diffs[origin] = initial_diff
        for i in view.cone(origin)[1:]:
            if i not in pending:
                continue
            # AND, NAND, OR and NOR inline; the rest through their evaluator.
            kind = kinds[i]
            if kind == C.AND or kind == C.NAND:
                value = mask
                for j in fanin[i]:
                    value &= faulty[j] if j in faulty else good[j]
                if kind == C.NAND:
                    value ^= mask
            elif kind == C.OR or kind == C.NOR:
                value = 0
                for j in fanin[i]:
                    value |= faulty[j] if j in faulty else good[j]
                if kind == C.NOR:
                    value ^= mask
            else:
                value = C.EVALUATORS[kind](
                    [faulty[j] if j in faulty else good[j] for j in fanin[i]], mask
                )
            diff = value ^ good[i]
            if diff:
                faulty[i] = value
                pending.update(fanout[i])
                if is_output[i]:
                    diffs[i] = diff
        return diffs

    def output_diffs(self, fault: Fault) -> Dict[str, int]:
        """Per-output difference words; only outputs with some difference appear.

        Bit ``p`` of ``result[o]`` is set when output ``o`` differs from the
        fault-free value under pattern ``p`` in the presence of ``fault``.
        """
        names = self._view.names
        return {names[i]: diff for i, diff in self.position_diffs(fault).items()}

    def detection_word(self, fault: Fault) -> int:
        """Bit ``p`` set when pattern ``p`` detects ``fault`` at any output."""
        word = 0
        for diff in self.position_diffs(fault).values():
            word |= diff
        return word

    def detects(self, pattern_index: int, fault: Fault) -> bool:
        """Does the single test ``pattern_index`` detect ``fault``?"""
        return bool((self.detection_word(fault) >> pattern_index) & 1)

    def detected_faults(self, faults: Sequence[Fault]) -> List[Fault]:
        """The subset of ``faults`` detected by at least one test."""
        return [fault for fault in faults if self.detection_word(fault)]

    def coverage(self, faults: Sequence[Fault]) -> float:
        """Fraction of ``faults`` detected by the test set."""
        if not faults:
            return 1.0
        return len(self.detected_faults(faults)) / len(faults)

    def detection_counts(self, faults: Sequence[Fault]) -> Dict[Fault, int]:
        """Number of detecting tests per fault (for n-detection drivers)."""
        counts = {}
        for fault in faults:
            word = self.detection_word(fault)
            counts[fault] = bin(word).count("1")
        return counts
