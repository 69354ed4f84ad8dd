"""PODEM test generation for single stuck-at faults.

A straightforward, complete implementation of Goel's PODEM: decisions are
made only on primary inputs, each decision is followed by a forward
three-valued implication of the good and faulty machines, and the search
backtracks when the fault can no longer be activated or no X-path remains
from the D-frontier to an output.  Within the backtrack limit the algorithm
is complete: ``UNTESTABLE`` results are proofs of combinational redundancy.

Implication is event-driven.  One full dual pass builds each fault's
initial state (every input X); after that a decision propagates only from
the input it set, gate by gate in topological order, stopping wherever
neither machine's value changes.  Every overwritten value goes on an undo
trail, and each decision remembers the trail length before it, so a
backtrack pops the trail back to the flipped decision's mark instead of
re-simulating.  Only nets in the fault's fan-out cone can carry a
difference, so the D-frontier scan and the detection check look at the
cone alone.

Decisions are guided by SCOAP controllability (easiest input for a
controlling objective, hardest for an all-inputs objective); pass
``randomize=True`` to scramble those choices, which is how the n-detection
driver obtains different tests for the same fault.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist
from ..faults.model import Fault
from ..obs import get_default_registry
from .testability import controllability
from .values import ONE, X, ZERO, evaluate3, not3


class Status(enum.Enum):
    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    """Outcome of one PODEM run.

    ``assignment`` maps the primary inputs that the search actually
    constrained to 0/1; unconstrained inputs are free and are filled by
    :meth:`Podem.fill` when a concrete vector is needed.
    """

    status: Status
    fault: Fault
    assignment: Optional[Dict[str, int]] = None
    backtracks: int = 0

    @property
    def detected(self) -> bool:
        return self.status is Status.DETECTED


class Podem:
    """Reusable PODEM engine for one (combinational) netlist."""

    def __init__(
        self,
        netlist: Netlist,
        backtrack_limit: int = 256,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not netlist.is_combinational:
            raise ValueError("PODEM requires a combinational (full-scan) netlist")
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self.rng = rng or random.Random(0)

        order = netlist.topological_order()
        self._position: Dict[str, int] = {net: i for i, net in enumerate(order)}
        self._names: List[str] = order
        self._kinds: List[GateType] = []
        self._fanin: List[Tuple[int, ...]] = []
        for net in order:
            gate = netlist.gates[net]
            self._kinds.append(gate.gate_type)
            self._fanin.append(tuple(self._position[i] for i in gate.inputs))
        fanout = netlist.fanout_map()
        self._fanout: List[Tuple[int, ...]] = [
            tuple(self._position[s] for s in fanout[net]) for net in order
        ]
        self._is_output = [False] * len(order)
        for net in netlist.outputs:
            self._is_output[self._position[net]] = True
        self._output_positions = [self._position[net] for net in netlist.outputs]
        self._pi_positions = [
            i for i, kind in enumerate(self._kinds) if kind is GateType.INPUT
        ]
        measures = controllability(netlist)
        self._cc: List[Tuple[int, int]] = [measures[net] for net in order]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self, fault: Fault, randomize: bool = False) -> PodemResult:
        """Search for a test for ``fault``; complete within the backtrack limit."""
        result = self._generate(fault, randomize)
        registry = get_default_registry()
        registry.counter("atpg.podem.calls").inc()
        registry.counter("atpg.podem.backtracks").inc(result.backtracks)
        registry.counter(f"atpg.podem.{result.status.value}").inc()
        return result

    def _generate(self, fault: Fault, randomize: bool) -> PodemResult:
        site, pin_sink = self._fault_site(fault)
        cone = self._cone_positions(site if pin_sink is None else pin_sink)
        cone_order = sorted(cone)
        cone_outputs = [o for o in self._output_positions if o in cone]
        good, faulty = self._imply({}, fault, site, pin_sink, cone)
        # Undo trail of (position, old good, old faulty) records.
        trail: List[Tuple[int, int, int]] = []

        def assign(pi: int, value: int) -> None:
            self._assign(good, faulty, trail, pi, value, fault, site, pin_sink, cone)

        # Decision stack entries: [pi position, value, already flipped,
        # trail length before the decision was assigned].
        stack: List[List[int]] = []
        backtracks = 0

        while True:
            if any(
                good[o] != X and faulty[o] != X and good[o] != faulty[o]
                for o in cone_outputs
            ):
                named = {self._names[pi]: v for pi, v, _, _ in stack}
                return PodemResult(Status.DETECTED, fault, named, backtracks)

            objective = self._objective(
                fault, site, pin_sink, good, faulty, cone_order
            )
            decision = None
            if objective is not None:
                decision = self._backtrace(objective, good, faulty, randomize)
            if decision is None:
                # Dead end: flip the most recent unflipped decision.
                backtracks += 1
                if backtracks > self.backtrack_limit:
                    return PodemResult(Status.ABORTED, fault, None, backtracks)
                while stack and stack[-1][2]:
                    stack.pop()
                if not stack:
                    return PodemResult(Status.UNTESTABLE, fault, None, backtracks)
                top = stack[-1]
                self._undo(good, faulty, trail, top[3])
                top[1] ^= 1
                top[2] = 1
                assign(top[0], top[1])
            else:
                pi, value = decision
                stack.append([pi, value, 0, len(trail)])
                assign(pi, value)

    def fill(self, result: PodemResult, rng: Optional[random.Random] = None) -> Dict[str, int]:
        """Complete a detected result's assignment into a full input vector."""
        if not result.detected:
            raise ValueError(f"cannot fill a {result.status.value} result")
        rng = rng or self.rng
        vector = dict(result.assignment)
        for pi in self._pi_positions:
            vector.setdefault(self._names[pi], rng.getrandbits(1))
        return vector

    # ------------------------------------------------------------------
    # fault plumbing
    # ------------------------------------------------------------------
    def _fault_site(self, fault: Fault) -> Tuple[int, Optional[int]]:
        """Positions of the fault line and (for pin faults) the sink gate."""
        if fault.line not in self._position:
            raise ValueError(f"fault on unknown net: {fault}")
        site = self._position[fault.line]
        if fault.is_stem:
            return site, None
        if fault.input_of not in self._position:
            raise ValueError(f"fault on unknown pin: {fault}")
        sink = self._position[fault.input_of]
        if site not in self._fanin[sink]:
            raise ValueError(f"pin fault on non-edge: {fault}")
        return site, sink

    def _cone_positions(self, origin: int) -> Set[int]:
        """Positions reachable from ``origin`` (the fault-effect cone)."""
        cone = {origin}
        stack = [origin]
        while stack:
            current = stack.pop()
            for successor in self._fanout[current]:
                if successor not in cone:
                    cone.add(successor)
                    stack.append(successor)
        return cone

    # ------------------------------------------------------------------
    # implication (forward 3-valued dual simulation)
    # ------------------------------------------------------------------
    def _imply(
        self,
        assignment: Dict[int, int],
        fault: Fault,
        site: int,
        pin_sink: Optional[int],
        cone: Set[int],
    ) -> Tuple[List[int], List[int]]:
        """Good and faulty values of every net under ``assignment``, in one pass.

        The search calls this once per fault, on the empty assignment, to
        build the initial state that :meth:`_assign` then updates; it is
        also the oracle the incremental state is tested against.  Fault
        rules: a stem fault's site keeps its stuck value (a primary input
        included); a pin fault's stuck value is seen only by the sink gate,
        whose cone excludes the site; outside the cone faulty equals good.
        """
        size = len(self._names)
        good = [X] * size
        faulty = [X] * size
        stuck = fault.stuck_at
        for i in range(size):
            kind = self._kinds[i]
            if kind is GateType.INPUT:
                value = assignment.get(i, X)
                good[i] = value
            else:
                good[i] = evaluate3(kind, [good[j] for j in self._fanin[i]])
            if i not in cone:
                faulty[i] = good[i]
                continue
            if pin_sink is None and i == site:
                faulty[i] = stuck
            elif kind is GateType.INPUT:
                faulty[i] = good[i]
            else:
                fanin_faulty = [faulty[j] for j in self._fanin[i]]
                if i == pin_sink:
                    fanin_faulty = [
                        stuck if j == site else faulty[j]
                        for j in self._fanin[i]
                    ]
                faulty[i] = evaluate3(kind, fanin_faulty)
        return good, faulty

    def _assign(
        self,
        good: List[int],
        faulty: List[int],
        trail: List[Tuple[int, int, int]],
        pi: int,
        value: int,
        fault: Fault,
        site: int,
        pin_sink: Optional[int],
        cone: Set[int],
    ) -> None:
        """Set input ``pi`` to ``value`` and propagate the change forward.

        Gates are evaluated from a heap of topological positions, so each
        is evaluated once, after all its changed fan-ins have settled; the
        event stops at a gate whose good and faulty values both stay put.
        Every overwritten value is pushed on ``trail``.  The fault rules are
        :meth:`_imply`'s, so the result equals a full pass over the new
        assignment.
        """
        stuck = fault.stuck_at
        trail.append((pi, good[pi], faulty[pi]))
        good[pi] = value
        if pin_sink is not None or pi != site:
            faulty[pi] = value
        kinds, fanin, fanout = self._kinds, self._fanin, self._fanout
        queued = set(fanout[pi])
        heap = sorted(queued)
        while heap:
            i = heappop(heap)
            kind = kinds[i]
            g = evaluate3(kind, [good[j] for j in fanin[i]])
            if i not in cone:
                f = g
            elif i == site and pin_sink is None:
                f = stuck
            elif i == pin_sink:
                f = evaluate3(kind, [stuck if j == site else faulty[j] for j in fanin[i]])
            else:
                f = evaluate3(kind, [faulty[j] for j in fanin[i]])
            if g == good[i] and f == faulty[i]:
                continue
            trail.append((i, good[i], faulty[i]))
            good[i] = g
            faulty[i] = f
            for successor in fanout[i]:
                if successor not in queued:
                    queued.add(successor)
                    heappush(heap, successor)

    @staticmethod
    def _undo(
        good: List[int],
        faulty: List[int],
        trail: List[Tuple[int, int, int]],
        mark: int,
    ) -> None:
        """Pop ``trail`` back to length ``mark``, restoring what it overwrote."""
        while len(trail) > mark:
            i, g, f = trail.pop()
            good[i] = g
            faulty[i] = f

    # ------------------------------------------------------------------
    # objective selection
    # ------------------------------------------------------------------
    def _objective(
        self,
        fault: Fault,
        site: int,
        pin_sink: Optional[int],
        good: List[int],
        faulty: List[int],
        cone_order: Sequence[int],
    ) -> Optional[Tuple[int, int]]:
        """Next (net position, value) goal, or None when the state is a dead end."""
        desired = 1 - fault.stuck_at
        if good[site] == X:
            return site, desired
        if good[site] != desired:
            return None  # activation impossible under current assignment
        frontier = self._d_frontier(good, faulty, cone_order)
        if (
            pin_sink is not None
            and (good[pin_sink] == X or faulty[pin_sink] == X)
            and pin_sink not in frontier
        ):
            # A pin fault's difference originates inside the sink gate (the
            # substituted pin differs from the activated stem), which the
            # net-based D-frontier scan cannot see.
            frontier.insert(0, pin_sink)
        if not frontier:
            return None
        if not self._x_path_exists(frontier, good, faulty):
            return None
        # Prefer the frontier gate with the cheapest X side input to set.
        # Inputs unknown in *either* machine qualify: a known-good input
        # whose faulty value is still X is resolved by backtracing through
        # composite-X nets just the same.
        for gate in frontier:
            kind = self._kinds[gate]
            noncontrolling = _NONCONTROLLING.get(kind, ZERO)
            candidates = [
                j for j in self._fanin[gate] if good[j] == X or faulty[j] == X
            ]
            if candidates:
                easiest = min(
                    candidates,
                    key=lambda j: self._cc[j][noncontrolling],
                )
                return easiest, noncontrolling
        return None

    def _d_frontier(
        self, good: List[int], faulty: List[int], cone_order: Sequence[int]
    ) -> List[int]:
        """Gates, ascending, with an X output and a known-difference fan-in.

        Only cone nets can differ, and the cone is closed under fan-out, so
        scanning ``cone_order`` (the cone's positions, ascending) finds the
        same gates in the same order as a scan of the whole netlist.
        """
        frontier = []
        for i in cone_order:
            kind = self._kinds[i]
            if kind is GateType.INPUT or (good[i] != X and faulty[i] != X):
                continue
            for j in self._fanin[i]:
                if good[j] != X and faulty[j] != X and good[j] != faulty[j]:
                    frontier.append(i)
                    break
        return frontier

    def _x_path_exists(self, frontier: Sequence[int], good: List[int], faulty: List[int]) -> bool:
        seen: Set[int] = set()
        stack = list(frontier)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if self._is_output[current]:
                return True
            for successor in self._fanout[current]:
                if successor not in seen and (good[successor] == X or faulty[successor] == X):
                    stack.append(successor)
        return False

    # ------------------------------------------------------------------
    # backtrace
    # ------------------------------------------------------------------
    def _backtrace(
        self,
        objective: Tuple[int, int],
        good: List[int],
        faulty: List[int],
        randomize: bool,
    ) -> Optional[Tuple[int, int]]:
        """Map an objective to a PI assignment through composite-X nets.

        Every net unknown in some machine has a fan-in net unknown in some
        machine, and an unknown INPUT is an unassigned PI, so the walk
        always terminates at a fresh decision variable.  The value chosen
        along the way is a heuristic; soundness rests on the implication
        step and the exhaustive decision stack.
        """
        net, value = objective
        for _ in range(len(self._names) + 1):
            kind = self._kinds[net]
            if kind is GateType.INPUT:
                return net, value
            if kind.is_constant:
                return None
            if kind is GateType.NOT:
                net, value = self._fanin[net][0], not3(value)
                continue
            if kind is GateType.BUF:
                net = self._fanin[net][0]
                continue
            x_inputs = [
                j for j in self._fanin[net] if good[j] == X or faulty[j] == X
            ]
            if not x_inputs:
                return None
            if kind in (GateType.XOR, GateType.XNOR):
                chosen = self.rng.choice(x_inputs) if randomize else x_inputs[0]
                cc0, cc1 = self._cc[chosen]
                net, value = chosen, (ZERO if cc0 <= cc1 else ONE)
                continue
            inverted = kind in (GateType.NAND, GateType.NOR)
            core = not3(value) if inverted else value
            controlling = ZERO if kind in (GateType.AND, GateType.NAND) else ONE
            if core == controlling:
                # One controlling input suffices: take the easiest.
                key = lambda j: self._cc[j][controlling]
                chosen = (
                    self.rng.choice(x_inputs) if randomize else min(x_inputs, key=key)
                )
                net, value = chosen, controlling
            else:
                # All inputs must be non-controlling: take the hardest first.
                noncontrolling = 1 - controlling
                key = lambda j: self._cc[j][noncontrolling]
                chosen = (
                    self.rng.choice(x_inputs) if randomize else max(x_inputs, key=key)
                )
                net, value = chosen, noncontrolling
        return None


_NONCONTROLLING = {
    GateType.AND: ONE,
    GateType.NAND: ONE,
    GateType.OR: ZERO,
    GateType.NOR: ZERO,
    GateType.XOR: ZERO,
    GateType.XNOR: ZERO,
    GateType.NOT: ZERO,
    GateType.BUF: ZERO,
}
