"""Runtime scaling of the dictionary construction pipeline.

Measures how the cost of the pieces — fault simulation / response
capture, one Procedure 1 call, one Procedure 2 pass — grows with circuit
size across the benchmark proxies, confirming the complexity analysis in
DESIGN.md (everything is near-linear in faults × tests thanks to the
partition-refinement formulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..dictionaries import replace_baselines, select_baselines
from ..obs import get_default_registry
from ..faults.collapse import collapse
from ..sim.faultsim import FaultSimulator
from ..sim.patterns import TestSet
from ..sim.responses import ResponseTable
from ..circuit.library import load_circuit
from ..circuit.scan import prepare_for_test


@dataclass(frozen=True)
class ScalingPoint:
    """Measured costs for one circuit."""

    circuit: str
    gates: int
    faults: int
    tests: int
    build_table_seconds: float
    procedure1_seconds: float
    procedure2_seconds: float


def scaling_study(
    circuits: Sequence[str] = ("p208", "p298", "p344", "p641", "p1196"),
    tests_per_circuit: int = 128,
    seed: int = 0,
) -> List[ScalingPoint]:
    """Cost of each pipeline stage per circuit, with a fixed random test set."""
    registry = get_default_registry()
    points: List[ScalingPoint] = []
    for name in circuits:
        netlist = prepare_for_test(load_circuit(name))
        faults = collapse(netlist)
        tests = TestSet.random(netlist.inputs, tests_per_circuit, seed=seed)
        simulator = FaultSimulator(netlist, tests)
        detected = [f for f in faults if simulator.detection_word(f)]

        with registry.timer("scaling.build_table_seconds").time() as build:
            table = ResponseTable.build(netlist, detected, tests)

        with registry.timer("scaling.procedure1_seconds").time() as procedure1:
            baselines, _, _ = select_baselines(table)

        with registry.timer("scaling.procedure2_seconds").time() as procedure2:
            replace_baselines(table, baselines, max_passes=1)

        points.append(
            ScalingPoint(
                circuit=name,
                gates=netlist.num_gates,
                faults=len(detected),
                tests=tests_per_circuit,
                build_table_seconds=build.elapsed,
                procedure1_seconds=procedure1.elapsed,
                procedure2_seconds=procedure2.elapsed,
            )
        )
    return points
