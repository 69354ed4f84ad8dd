"""PODEM test generation for single stuck-at faults.

A straightforward, complete implementation of Goel's PODEM: decisions are
made only on primary inputs, each decision is followed by a forward
three-valued implication of the good and faulty machines, and the search
backtracks when the fault can no longer be activated or no X-path remains
from the D-frontier to an output.  Within the backtrack limit the algorithm
is complete: ``UNTESTABLE`` results are proofs of combinational redundancy.

The engine reads the netlist's compiled view (integer positions in
topological order, gate-type codes, fan-in and fan-out tuples, cached
cones) and keeps one state list: each net's good and faulty values packed
into one small int of can-be-0/can-be-1 rails (:func:`~.values.pack`).
One evaluation per gate serves both machines; an AND, NAND, OR or NOR is
one ``&`` and one ``|`` over its fan-in states and a table lookup.  A gate
outside the fault's cone needs no special case, because its fan-ins
already carry equal good and faulty rails; only the fault site (a stem
fault) or the sink gate (a pin fault) overrides the faulty rails.

Implication is event-driven.  The fault-free state with every input X is
computed once per engine; each fault starts from a copy of it, injects
itself at its own net and propagates from there.  After that a decision
propagates only from the input it set, gate by gate in topological order,
stopping wherever neither machine's value changes.  Every overwritten state goes on an undo
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

from ..circuit import compiled as C
from ..circuit.netlist import Netlist
from ..faults.model import Fault
from ..obs import get_default_registry
from .testability import controllability
from .values import (
    DIFFERS,
    HAS_X,
    MONOTONE,
    ONE,
    PACKED_X,
    X,
    ZERO,
    evaluate_packed,
    good_value,
    not3,
    pack,
)


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
        self._view = view = netlist.compiled()
        #: Each gate's :data:`~.values.MONOTONE` table (None for parity gates).
        self._tables = [MONOTONE[kind] for kind in view.kinds]
        measures = controllability(netlist)
        self._cc: List[Tuple[int, int]] = [measures[net] for net in view.names]
        # The fault-free state with every input X (position -1 is no net).
        self._all_x = self._imply({}, -1, None, ZERO)

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
        view = self._view
        site, pin_sink = self._fault_site(fault)
        stuck = fault.stuck_at
        cone_order = view.cone(site if pin_sink is None else pin_sink)
        cone_outputs = [o for o in cone_order if view.is_output[o]]
        state = self._initial_state(site, pin_sink, stuck)
        # Undo trail of (position, old state) records.
        trail: List[Tuple[int, int]] = []

        def assign(pi: int, value: int) -> None:
            self._assign(state, trail, pi, value, site, pin_sink, stuck)

        # Decision stack entries: [pi position, value, already flipped,
        # trail length before the decision was assigned].
        stack: List[List[int]] = []
        backtracks = 0

        while True:
            if any(DIFFERS[state[o]] for o in cone_outputs):
                named = {view.names[pi]: v for pi, v, _, _ in stack}
                return PodemResult(Status.DETECTED, fault, named, backtracks)

            objective = self._objective(stuck, site, pin_sink, state, cone_order)
            decision = None
            if objective is not None:
                decision = self._backtrace(objective, state, randomize)
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
                self._undo(state, trail, top[3])
                top[1] ^= 1
                top[2] = 1
                assign(top[0], top[1])
            else:
                pi, value = decision
                stack.append([pi, value, 0, len(trail)])
                assign(pi, value)

    def fill(self, result: PodemResult, rng: Optional[random.Random] = None) -> Dict[str, int]:
        """Complete a detected result's assignment into a full input vector.

        Free inputs draw their bits in topological order.
        """
        if not result.detected:
            raise ValueError(f"cannot fill a {result.status.value} result")
        rng = rng or self.rng
        vector = dict(result.assignment)
        names = self._view.names
        for pi in sorted(self._view.inputs):
            vector.setdefault(names[pi], rng.getrandbits(1))
        return vector

    # ------------------------------------------------------------------
    # fault plumbing
    # ------------------------------------------------------------------
    def _fault_site(self, fault: Fault) -> Tuple[int, Optional[int]]:
        """Positions of the fault line and (for pin faults) the sink gate."""
        position = self._view.position
        if fault.line not in position:
            raise ValueError(f"fault on unknown net: {fault}")
        site = position[fault.line]
        if fault.is_stem:
            return site, None
        if fault.input_of not in position:
            raise ValueError(f"fault on unknown pin: {fault}")
        sink = position[fault.input_of]
        if site not in self._view.fanin[sink]:
            raise ValueError(f"pin fault on non-edge: {fault}")
        return site, sink

    def _inject(
        self,
        i: int,
        new: int,
        state: List[int],
        site: int,
        pin_sink: Optional[int],
        stuck: int,
    ) -> int:
        """Apply the fault to ``new``, the plain evaluation of its own net ``i``.

        A stem fault's site keeps its stuck value in the faulty machine (a
        primary input included); a pin fault's sink gate re-reads its
        fan-in with the stuck value on the faulty pin only.
        """
        stuck_rails = (stuck + 1) << 2
        if pin_sink is None:
            return (new & 3) | stuck_rails
        return evaluate_packed(
            self._view.kinds[i],
            [
                (state[j] & 3) | stuck_rails if j == site else state[j]
                for j in self._view.fanin[i]
            ],
        )

    # ------------------------------------------------------------------
    # implication (forward 3-valued dual simulation)
    # ------------------------------------------------------------------
    def _imply(
        self,
        assignment: Dict[int, int],
        site: int,
        pin_sink: Optional[int],
        stuck: int,
    ) -> List[int]:
        """Packed state of every net under ``assignment``, in one full pass.

        This is the oracle the event-driven state is tested against.  Fault
        rules (:meth:`_inject`): the fault acts only at its own net; every
        other net's faulty machine follows its fan-in, so outside the fault
        cone it equals the good machine.
        """
        view = self._view
        special = site if pin_sink is None else pin_sink
        state = [PACKED_X] * len(view)
        for i, kind in enumerate(view.kinds):
            if kind == C.INPUT:
                value = assignment.get(i, X)
                new = pack(value, value)
            else:
                new = evaluate_packed(kind, [state[j] for j in view.fanin[i]])
            if i == special:
                new = self._inject(i, new, state, site, pin_sink, stuck)
            state[i] = new
        return state

    def _initial_state(
        self, site: int, pin_sink: Optional[int], stuck: int
    ) -> List[int]:
        """The state with every input X, as :meth:`_imply` would compute it.

        The fault-free all-X state is the same for every fault, so it is
        computed once; each fault then injects itself at its own net and
        propagates from there.
        """
        state = self._all_x[:]
        special = site if pin_sink is None else pin_sink
        state[special] = self._inject(
            special, state[special], state, site, pin_sink, stuck
        )
        self._propagate(state, [], special, site, pin_sink, stuck)
        return state

    def _assign(
        self,
        state: List[int],
        trail: List[Tuple[int, int]],
        pi: int,
        value: int,
        site: int,
        pin_sink: Optional[int],
        stuck: int,
    ) -> None:
        """Set input ``pi`` to ``value`` and propagate the change forward.

        Every overwritten state is pushed on ``trail``; the result equals a
        full :meth:`_imply` pass over the new assignment.
        """
        trail.append((pi, state[pi]))
        new = pack(value, value)
        if pi == site and pin_sink is None:
            new = self._inject(pi, new, state, site, pin_sink, stuck)
        state[pi] = new
        self._propagate(state, trail, pi, site, pin_sink, stuck)

    def _propagate(
        self,
        state: List[int],
        trail: List[Tuple[int, int]],
        origin: int,
        site: int,
        pin_sink: Optional[int],
        stuck: int,
    ) -> None:
        """Re-evaluate the fan-out of ``origin``, whose state just changed.

        Gates are evaluated from a heap of topological positions, so each
        is evaluated once, after all its changed fan-ins have settled; the
        event stops at a gate whose state stays put.  A gate is pushed once
        per changed fan-in, and every push precedes its first pop (its
        fan-ins come earlier in the order), so its copies pop back to back
        and all but the first are skipped.  Every overwritten state is
        pushed on ``trail``.
        """
        special = site if pin_sink is None else pin_sink
        view = self._view
        tables, fanin, fanout = self._tables, view.fanin, view.fanout
        heap = sorted(fanout[origin])
        last = -1
        while heap:
            i = heappop(heap)
            if i == last:
                continue
            last = i
            table = tables[i]
            if table is None:
                new = evaluate_packed(view.kinds[i], [state[j] for j in fanin[i]])
            else:
                # evaluate_packed's monotone case, inlined.
                a, o = PACKED_X, 0
                for j in fanin[i]:
                    s = state[j]
                    a &= s
                    o |= s
                new = table[a << 4 | o]
            if i == special:
                new = self._inject(i, new, state, site, pin_sink, stuck)
            old = state[i]
            if new == old:
                continue
            trail.append((i, old))
            state[i] = new
            for successor in fanout[i]:
                heappush(heap, successor)

    @staticmethod
    def _undo(state: List[int], trail: List[Tuple[int, int]], mark: int) -> None:
        """Pop ``trail`` back to length ``mark``, restoring what it overwrote."""
        for i, old in reversed(trail[mark:]):
            state[i] = old
        del trail[mark:]

    # ------------------------------------------------------------------
    # objective selection
    # ------------------------------------------------------------------
    def _objective(
        self,
        stuck: int,
        site: int,
        pin_sink: Optional[int],
        state: List[int],
        cone_order: Sequence[int],
    ) -> Optional[Tuple[int, int]]:
        """Next (net position, value) goal, or None when the state is a dead end."""
        desired = 1 - stuck
        good = good_value(state[site])
        if good == X:
            return site, desired
        if good != desired:
            return None  # activation impossible under current assignment
        frontier = self._d_frontier(state, cone_order)
        if (
            pin_sink is not None
            and HAS_X[state[pin_sink]]
            and pin_sink not in frontier
        ):
            # A pin fault's difference originates inside the sink gate (the
            # substituted pin differs from the activated stem), which the
            # net-based D-frontier scan cannot see.
            frontier.insert(0, pin_sink)
        if not frontier:
            return None
        if not self._x_path_exists(frontier, state):
            return None
        # Prefer the frontier gate with the cheapest X side input to set.
        # Inputs unknown in *either* machine qualify: a known-good input
        # whose faulty value is still X is resolved by backtracing through
        # composite-X nets just the same.
        view = self._view
        for gate in frontier:
            noncontrolling = _NONCONTROLLING[view.kinds[gate]]
            candidates = [j for j in view.fanin[gate] if HAS_X[state[j]]]
            if candidates:
                easiest = min(
                    candidates,
                    key=lambda j: self._cc[j][noncontrolling],
                )
                return easiest, noncontrolling
        return None

    def _d_frontier(self, state: List[int], cone_order: Sequence[int]) -> List[int]:
        """Gates, ascending, with an X output and a known-difference fan-in.

        Only cone nets can differ, and the cone is closed under fan-out, so
        scanning ``cone_order`` (the cone's positions, ascending) finds the
        same gates in the same order as a scan of the whole netlist.
        """
        kinds, fanin = self._view.kinds, self._view.fanin
        frontier = []
        for i in cone_order:
            if kinds[i] == C.INPUT or not HAS_X[state[i]]:
                continue
            for j in fanin[i]:
                if DIFFERS[state[j]]:
                    frontier.append(i)
                    break
        return frontier

    def _x_path_exists(self, frontier: Sequence[int], state: List[int]) -> bool:
        is_output, fanout = self._view.is_output, self._view.fanout
        seen: Set[int] = set()
        stack = list(frontier)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if is_output[current]:
                return True
            for successor in fanout[current]:
                if successor not in seen and HAS_X[state[successor]]:
                    stack.append(successor)
        return False

    # ------------------------------------------------------------------
    # backtrace
    # ------------------------------------------------------------------
    def _backtrace(
        self,
        objective: Tuple[int, int],
        state: List[int],
        randomize: bool,
    ) -> Optional[Tuple[int, int]]:
        """Map an objective to a PI assignment through composite-X nets.

        Every net unknown in some machine has a fan-in net unknown in some
        machine, and an unknown INPUT is an unassigned PI, so the walk
        always terminates at a fresh decision variable.  The value chosen
        along the way is a heuristic; soundness rests on the implication
        step and the exhaustive decision stack.
        """
        kinds, fanin = self._view.kinds, self._view.fanin
        net, value = objective
        for _ in range(len(kinds) + 1):
            kind = kinds[net]
            if kind == C.INPUT:
                return net, value
            if kind == C.CONST0 or kind == C.CONST1:
                return None
            if kind == C.NOT:
                net, value = fanin[net][0], not3(value)
                continue
            if kind == C.BUF:
                net = fanin[net][0]
                continue
            x_inputs = [j for j in fanin[net] if HAS_X[state[j]]]
            if not x_inputs:
                return None
            if kind == C.XOR or kind == C.XNOR:
                chosen = self.rng.choice(x_inputs) if randomize else x_inputs[0]
                cc0, cc1 = self._cc[chosen]
                net, value = chosen, (ZERO if cc0 <= cc1 else ONE)
                continue
            inverted = kind == C.NAND or kind == C.NOR
            core = not3(value) if inverted else value
            controlling = ZERO if kind == C.AND or kind == C.NAND else ONE
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


#: The non-controlling value a D-frontier gate's side inputs need, by code.
_NONCONTROLLING: Tuple[int, ...] = tuple(
    ONE if code in (C.AND, C.NAND) else ZERO for code in range(len(C.GATE_TYPES))
)
