"""SAT-based ATPG: an independent engine beside PODEM.

Fault detection and fault-pair distinguishing both reduce to "set this
miter output to 1": detection mitres the good machine against the faulty
machine, distinguishing mitres two faulty machines, both through the
cone-shared :func:`~repro.atpg.distinguish.build_miter`.  The CDCL solver
(:mod:`repro.atpg.sat`) decides the question exactly, which makes this
engine (a) a cross-check for PODEM on every fixture and (b) the pair
decision procedure of diagnostic test generation, including the
equivalence proofs PODEM's backtrack limit gives up on.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..circuit.netlist import Netlist
from ..faults.model import Fault
from ..obs import get_default_registry, trace_span
from .cnf import CnfEncoder
from .distinguish import MITER_OUTPUT, DistinguishResult, build_miter
from .podem import PodemResult, Status
from .sat import BudgetExceeded


class SatAtpg:
    """SAT-backed test generation for one combinational netlist."""

    def __init__(
        self,
        netlist: Netlist,
        max_conflicts: int = 50_000,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not netlist.is_combinational:
            raise ValueError("SAT ATPG requires a combinational (full-scan) netlist")
        self.netlist = netlist
        self.max_conflicts = max_conflicts
        self.rng = rng or random.Random(0)

    def _solve_miter(self, miter: Netlist) -> "tuple[Status, Optional[Dict[str, int]]]":
        registry = get_default_registry()
        registry.counter("atpg.sat.calls").inc()
        encoder = CnfEncoder(miter)
        encoder.solver.add_clause([encoder.literal(MITER_OUTPUT, 1)])
        with trace_span("atpg.sat.solve", variables=encoder.solver.num_vars):
            try:
                model = encoder.solver.solve(max_conflicts=self.max_conflicts)
            except BudgetExceeded as budget:
                registry.counter("atpg.sat.conflicts").inc(budget.conflicts)
                registry.counter("atpg.sat.aborts").inc()
                return Status.ABORTED, None
        registry.counter("atpg.sat.conflicts").inc(encoder.solver.conflicts)
        if model is None:
            registry.counter("atpg.sat.unsat").inc()
            return Status.UNTESTABLE, None
        registry.counter("atpg.sat.sat").inc()
        return Status.DETECTED, encoder.extract_inputs(model)

    def generate(self, fault: Fault) -> PodemResult:
        """A test for ``fault`` (or an untestability proof), via SAT.

        Returns the same :class:`PodemResult` shape as the PODEM engine so
        callers can swap engines freely; the assignment covers *all*
        primary inputs (SAT models are total).
        """
        status, assignment = self._solve_miter(build_miter(self.netlist, fault))
        return PodemResult(status, fault, assignment)

    def distinguish(self, fault_a: Fault, fault_b: Fault) -> DistinguishResult:
        """Exact distinguishability via SAT (the Distinguisher contract)."""
        miter = build_miter(self.netlist, fault_a, fault_b)
        status, assignment = self._solve_miter(miter)
        return DistinguishResult(status, fault_a, fault_b, assignment)

    def fill(self, result: PodemResult, rng: Optional[random.Random] = None) -> Dict[str, int]:
        """Match the PODEM engine's interface; SAT assignments are total."""
        if not result.detected:
            raise ValueError(f"cannot fill a {result.status.value} result")
        vector = dict(result.assignment)
        rng = rng or self.rng
        for net in self.netlist.inputs:
            vector.setdefault(net, rng.getrandbits(1))
        return vector
