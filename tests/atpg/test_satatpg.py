"""Cross-validation of SAT-based ATPG against PODEM and exhaustive truth."""

import itertools
import json
from pathlib import Path

import pytest

from repro.atpg import Distinguisher, Podem, Status
from repro.atpg.cnf import CnfEncoder, solve_output_one
from repro.atpg.satatpg import SatAtpg
from repro.circuit import full_scan, generate_netlist, load_circuit, prepare_for_test
from repro.faults import Fault, all_faults, collapse
from repro.sim import FaultSimulator, ResponseTable, TestSet
from tests.conftest import tiny_spec


class TestCnfEncoding:
    def test_circuit_consistency(self, c17):
        """Every SAT model of the encoding is a real simulation trace."""
        encoder = CnfEncoder(c17)
        # Force a specific input vector via assumptions; outputs must match.
        tests = TestSet.exhaustive(c17.inputs)
        from repro.sim import simulate

        words = simulate(c17, tests)
        for j in (0, 9, 21, 31):
            assumptions = [
                encoder.literal(net, tests.value(j, net)) for net in c17.inputs
            ]
            model = encoder.solver.solve(assumptions=assumptions)
            assert model is not None
            for net in c17.gates:
                expected = bool((words[net] >> j) & 1)
                assert model[encoder.variable[net]] == expected, net

    def test_sequential_rejected(self, s27):
        with pytest.raises(ValueError, match="combinational"):
            CnfEncoder(s27)

    def test_solve_output_one(self, c17):
        vector = solve_output_one(c17, "22")
        assert vector is not None
        from repro.sim import simulate_single

        assert simulate_single(c17, vector)["22"] == 1

    def test_solve_output_one_unsat(self):
        from repro.circuit import GateType, from_gates

        netlist = from_gates(
            "const0",
            inputs=["a"],
            gates=[
                ("na", GateType.NOT, ["a"]),
                ("y", GateType.AND, ["a", "na"]),
            ],
            outputs=["y"],
        )
        assert solve_output_one(netlist, "y") is None


class TestSatVsExhaustive:
    def test_c17(self, c17, c17_exhaustive_sim):
        engine = SatAtpg(c17)
        for fault in all_faults(c17):
            truth = c17_exhaustive_sim.detection_word(fault) != 0
            result = engine.generate(fault)
            assert result.status is not Status.ABORTED
            assert result.detected == truth, str(fault)
            if result.detected:
                vector = engine.fill(result)
                single = TestSet(c17.inputs)
                single.append_assignment(vector)
                assert FaultSimulator(c17, single).detection_word(fault) == 1

    @pytest.mark.parametrize("seed", range(2))
    def test_random_circuits_vs_podem(self, seed):
        netlist, _ = full_scan(generate_netlist(tiny_spec(seed + 900, gates=25)))
        sat_engine = SatAtpg(netlist)
        podem_engine = Podem(netlist, backtrack_limit=2000)
        for fault in collapse(netlist):
            sat_result = sat_engine.generate(fault)
            podem_result = podem_engine.generate(fault)
            assert sat_result.status is not Status.ABORTED
            if podem_result.status is not Status.ABORTED:
                assert sat_result.detected == podem_result.detected, str(fault)


class TestSatDistinguish:
    def test_matches_miter_podem_on_s27(self, s27_scan, s27_faults):
        sat_engine = SatAtpg(s27_scan)
        podem_engine = Distinguisher(s27_scan, backtrack_limit=5000)
        pairs = list(itertools.combinations(range(0, len(s27_faults), 4), 2))
        for a, b in pairs:
            sat_out = sat_engine.distinguish(s27_faults[a], s27_faults[b])
            podem_out = podem_engine.distinguish(s27_faults[a], s27_faults[b])
            assert sat_out.status is not Status.ABORTED
            if podem_out.status is not Status.ABORTED:
                assert sat_out.distinguished == podem_out.distinguished

    def test_distinguishing_vector_works(self, s27_scan, s27_faults):
        engine = SatAtpg(s27_scan)
        outcome = engine.distinguish(s27_faults[1], s27_faults[8])
        if outcome.distinguished:
            tests = TestSet(s27_scan.inputs)
            tests.append_assignment(outcome.test)
            table = ResponseTable.build(
                s27_scan, [s27_faults[1], s27_faults[8]], tests
            )
            assert table.signature(0, 0) != table.signature(1, 0)


GOLDEN_VERDICTS = json.loads(
    (Path(__file__).parent / "golden" / "miter_verdicts.json").read_text()
)


class TestGoldenVerdicts:
    """Every miter-phase pair decision of ``generate_diagnostic_tests`` at
    seed 0 on the golden circuits, as the two-copy miter decided it.

    Each pair is re-decided on its own: the verdict must be identical, and
    a distinguishing witness must really split the pair.
    """

    @pytest.mark.parametrize("circuit", sorted(GOLDEN_VERDICTS))
    def test_same_verdicts(self, circuit):
        netlist = prepare_for_test(load_circuit(circuit))
        engine = SatAtpg(netlist)
        for fault_a, fault_b, verdict in GOLDEN_VERDICTS[circuit]:
            fa, fb = Fault(*fault_a), Fault(*fault_b)
            outcome = engine.distinguish(fa, fb)
            assert outcome.status.value == verdict, (fa, fb)
            if outcome.distinguished:
                tests = TestSet(netlist.inputs)
                tests.append_assignment(outcome.test)
                table = ResponseTable.build(netlist, [fa, fb], tests)
                assert table.signature(0, 0) != table.signature(1, 0), (fa, fb)


class TestInterface:
    def test_fill_requires_detection(self, c17):
        from repro.atpg.podem import PodemResult
        from repro.faults import Fault

        engine = SatAtpg(c17)
        with pytest.raises(ValueError):
            engine.fill(PodemResult(Status.UNTESTABLE, Fault("10", 0)))

    def test_sequential_rejected(self, s27):
        with pytest.raises(ValueError, match="full-scan"):
            SatAtpg(s27)
