"""A small CDCL SAT solver.

Conflict-driven clause learning with two-watched-literal propagation,
first-UIP learning and activity-based (VSIDS-style) decisions, kept
compact.  It never restarts and never deletes a learnt clause, so one
:meth:`Solver.solve` call is a single deterministic search.  Used by the
SAT-based ATPG engine as an independent decision procedure for fault
detection and fault-pair equivalence, cross-checking PODEM.

Variables are positive integers; literals are non-zero integers with sign
for polarity (DIMACS convention).  Inside, literal ``v`` has code ``2v``
and literal ``-v`` code ``2v + 1``, so every per-literal table is a flat
list indexed by code and negation is ``code ^ 1``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Per-literal values: a literal is true, false or unassigned.
_TRUE, _FALSE, _UNSET = 1, -1, 0


def _code(literal: int) -> int:
    """The code of DIMACS literal ``literal``."""
    return 2 * literal if literal > 0 else 1 - 2 * literal


class Solver:
    """One-shot CDCL solver: add clauses, call :meth:`solve`."""

    def __init__(self) -> None:
        self.num_vars = 0
        #: Clauses as lists of literal codes; learnt clauses are appended.
        self._clauses: List[List[int]] = []
        # Per literal code: watching clause indices, and current value.
        self._watches: List[List[int]] = [[], []]
        self._value: List[int] = [_UNSET, _UNSET]
        # Per variable: decision level, reason clause index, activity.
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._activity_inc = 1.0
        # Decision order: a heap of (-activity, variable).  An entry is
        # current while its activity matches; ``_queued[v]`` is set while
        # ``v`` has a current entry, so every unassigned variable has one.
        self._heap: List[Tuple[float, int]] = []
        self._queued: List[bool] = [False]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._unsat = False
        #: Conflicts of the most recent :meth:`solve` call (observability).
        self.conflicts = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        self._grow(self.num_vars)
        return self.num_vars

    def _grow(self, variable: int) -> None:
        """Make every table hold variables up to ``variable``."""
        extra = variable + 1 - len(self._level)
        if extra <= 0:
            return
        self._watches.extend([] for _ in range(2 * extra))
        self._value.extend([_UNSET] * (2 * extra))
        self._level.extend([0] * extra)
        self._reason.extend([None] * extra)
        self._activity.extend([0.0] * extra)
        self._queued.extend([False] * extra)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add one clause (a disjunction of literals)."""
        unique = set(literals)
        clause = sorted(unique, key=abs)
        if not clause:
            self._unsat = True
            return
        for literal in clause:
            self.num_vars = max(self.num_vars, abs(literal))
            if literal > 0 and -literal in unique:
                self._grow(self.num_vars)
                return  # tautology
        self._grow(self.num_vars)
        codes = [_code(literal) for literal in clause]
        index = len(self._clauses)
        self._clauses.append(codes)
        if len(codes) == 1:
            # Defer: units are enqueued at solve() start (level 0).
            return
        self._watches[codes[0]].append(index)
        self._watches[codes[1]].append(index)

    # ------------------------------------------------------------------
    # assignment helpers
    # ------------------------------------------------------------------
    def _assign(self, code: int, reason: Optional[int]) -> None:
        """Make the unassigned literal ``code`` true at the current level."""
        self._value[code] = _TRUE
        self._value[code ^ 1] = _FALSE
        self._level[code >> 1] = len(self._trail_lim)
        self._reason[code >> 1] = reason
        self._trail.append(code)

    def _propagate(self) -> Optional[int]:
        """BCP; returns a conflicting clause index or None."""
        trail = self._trail
        clauses = self._clauses
        watches = self._watches
        value = self._value
        level = self._level
        reason = self._reason
        current_level = len(self._trail_lim)
        head = self._qhead
        while head < len(trail):
            falsified = trail[head] ^ 1
            head += 1
            watchers = watches[falsified]
            index = 0
            while index < len(watchers):
                clause_index = watchers[index]
                clause = clauses[clause_index]
                # Ensure the falsified literal sits in slot 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], falsified
                first = clause[0]
                first_value = value[first]
                if first_value == _TRUE:
                    index += 1
                    continue
                # Look for a replacement watch.
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if value[candidate] != _FALSE:
                        clause[1], clause[position] = candidate, clause[1]
                        watchers[index] = watchers[-1]
                        watchers.pop()
                        watches[candidate].append(clause_index)
                        break
                else:
                    # No replacement: clause is unit or conflicting.
                    if first_value == _FALSE:
                        self._qhead = len(trail)
                        return clause_index
                    # _assign inlined: this is the solver's innermost loop.
                    value[first] = _TRUE
                    value[first ^ 1] = _FALSE
                    level[first >> 1] = current_level
                    reason[first >> 1] = clause_index
                    trail.append(first)
                    index += 1
        self._qhead = head
        return None

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _bump(self, variable: int) -> None:
        activity = self._activity
        activity[variable] += self._activity_inc
        if activity[variable] > 1e100:
            for other in range(1, self.num_vars + 1):
                activity[other] *= 1e-100
            self._activity_inc *= 1e-100
            self._rebuild_heap()
        elif len(self._heap) > 4 * self.num_vars:
            self._rebuild_heap()  # drop the stale entries bumps leave behind
        else:
            heapq.heappush(self._heap, (-activity[variable], variable))
            self._queued[variable] = True

    def _analyse(self, conflict_index: int) -> "tuple[List[int], int]":
        """First-UIP learning: returns (learnt clause codes, backjump level)."""
        level = self._level
        trail = self._trail
        current_level = len(self._trail_lim)
        learnt: List[int] = []
        seen = set()
        counter = 0
        resolved = 0  # the variable resolved on; none before the first step
        reason_clause = self._clauses[conflict_index]
        trail_position = len(trail) - 1
        while True:
            for code in reason_clause:
                variable = code >> 1
                if variable == resolved or variable in seen or level[variable] == 0:
                    continue
                seen.add(variable)
                self._bump(variable)
                if level[variable] == current_level:
                    counter += 1
                else:
                    learnt.append(code)
            # Pick the next trail literal to resolve on.
            while trail[trail_position] >> 1 not in seen:
                trail_position -= 1
            literal = trail[trail_position] ^ 1
            resolved = literal >> 1
            seen.discard(resolved)
            counter -= 1
            trail_position -= 1
            if counter == 0:
                break
            reason_clause = self._clauses[self._reason[resolved]]
        learnt.insert(0, literal)
        if len(learnt) == 1:
            return learnt, 0
        backjump = max(level[code >> 1] for code in learnt[1:])
        return learnt, backjump

    def _backtrack(self, target: int) -> None:
        trail = self._trail
        value = self._value
        activity = self._activity
        queued = self._queued
        heap = self._heap
        while len(self._trail_lim) > target:
            limit = self._trail_lim.pop()
            while len(trail) > limit:
                code = trail.pop()
                value[code] = value[code ^ 1] = _UNSET
                variable = code >> 1
                if not queued[variable]:
                    heapq.heappush(heap, (-activity[variable], variable))
                    queued[variable] = True
        self._qhead = min(self._qhead, len(trail))

    def _rebuild_heap(self) -> None:
        """One current heap entry per unassigned variable, none else."""
        value = self._value
        activity = self._activity
        queued = self._queued
        queued[:] = [False] * len(queued)
        heap = self._heap
        heap.clear()
        for variable in range(1, self.num_vars + 1):
            if value[2 * variable] == _UNSET:
                heap.append((-activity[variable], variable))
                queued[variable] = True
        heapq.heapify(heap)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> Optional[Dict[int, bool]]:
        """Solve under optional assumptions.

        Returns a model ({variable: value}) when satisfiable, ``None``
        when unsatisfiable, and raises :class:`BudgetExceeded` when
        ``max_conflicts`` runs out before a decision is reached.
        Learnt clauses and activities carry over to the next call.
        """
        self.conflicts = 0
        if self._unsat:
            return None
        value = self._value
        self._qhead = 0
        self._trail.clear()
        self._trail_lim.clear()
        value[:] = [_UNSET] * len(value)
        self._rebuild_heap()
        # Level-0 units.
        for index, clause in enumerate(self._clauses):
            if len(clause) == 1:
                if value[clause[0]] == _FALSE:
                    return None
                if value[clause[0]] == _UNSET:
                    self._assign(clause[0], index)
        if self._propagate() is not None:
            return None
        for literal in assumptions:
            self._grow(abs(literal))
            code = _code(literal)
            if value[code] == _FALSE:
                return None
            if value[code] == _UNSET:
                self._trail_lim.append(len(self._trail))
                self._assign(code, None)
                if self._propagate() is not None:
                    return None
        assumption_levels = len(self._trail_lim)

        conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                self.conflicts = conflicts
                if max_conflicts is not None and conflicts > max_conflicts:
                    raise BudgetExceeded(conflicts)
                if len(self._trail_lim) <= assumption_levels:
                    return None
                learnt, backjump = self._analyse(conflict)
                self._backtrack(max(backjump, assumption_levels))
                index = len(self._clauses)
                self._clauses.append(learnt)
                if len(learnt) > 1:
                    self._watches[learnt[0]].append(index)
                    self._watches[learnt[1]].append(index)
                self._assign(learnt[0], index)
                self._activity_inc *= 1.05
            else:
                variable = self._pick_branch()
                if variable is None:
                    return {code >> 1: not code & 1 for code in self._trail}
                self._trail_lim.append(len(self._trail))
                # Negative-first polarity: cheap and effective on miters.
                self._assign(2 * variable + 1, None)

    def _pick_branch(self) -> Optional[int]:
        """The unassigned variable of highest activity, lowest index first."""
        heap = self._heap
        value = self._value
        activity = self._activity
        while heap:
            negative, variable = heapq.heappop(heap)
            if -negative != activity[variable]:
                continue  # stale: a later bump pushed a newer entry
            self._queued[variable] = False
            if value[2 * variable] == _UNSET:
                return variable
        return None


class BudgetExceeded(RuntimeError):
    """Raised when the conflict budget runs out (an ABORT, not an answer)."""

    def __init__(self, conflicts: int) -> None:
        super().__init__(f"conflict budget exceeded after {conflicts} conflicts")
        self.conflicts = conflicts
