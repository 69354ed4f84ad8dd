"""Tests for the PODEM engine.

Ground truth: exhaustive fault simulation on small circuits.  Every fault
PODEM declares DETECTED must come with a vector that actually detects it,
and every UNTESTABLE claim must match exhaustive undetectability.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import Podem, Status
from repro.circuit import GateType, from_gates, full_scan, generate_netlist
from repro.faults import Fault, all_faults
from repro.sim import FaultSimulator, TestSet
from tests.conftest import tiny_spec


def check_against_exhaustive(netlist, backtrack_limit=1000):
    simulator = FaultSimulator(netlist, TestSet.exhaustive(netlist.inputs))
    engine = Podem(netlist, backtrack_limit=backtrack_limit)
    for fault in all_faults(netlist):
        truth = simulator.detection_word(fault) != 0
        result = engine.generate(fault)
        assert result.status is not Status.ABORTED, str(fault)
        assert result.detected == truth, str(fault)
        if result.detected:
            vector = engine.fill(result)
            single = TestSet(netlist.inputs)
            single.append_assignment(vector)
            assert FaultSimulator(netlist, single).detection_word(fault) == 1, str(fault)


class TestGroundTruth:
    def test_c17(self, c17):
        check_against_exhaustive(c17)

    def test_s27(self, s27_scan):
        check_against_exhaustive(s27_scan)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits(self, seed):
        netlist, _ = full_scan(generate_netlist(tiny_spec(seed + 200, gates=22)))
        check_against_exhaustive(netlist)


class TestRedundancy:
    def redundant_netlist(self):
        """y = AND(a, NOT(a)) is constant 0: its sa0 faults are untestable."""
        return from_gates(
            "red",
            inputs=["a", "b"],
            gates=[
                ("na", GateType.NOT, ["a"]),
                ("z", GateType.AND, ["a", "na"]),
                ("y", GateType.OR, ["z", "b"]),
            ],
            outputs=["y"],
        )

    def test_untestable_proof(self):
        netlist = self.redundant_netlist()
        engine = Podem(netlist)
        assert engine.generate(Fault("z", 0)).status is Status.UNTESTABLE
        assert engine.generate(Fault("z", 1)).status is Status.DETECTED

    def test_all_faults_classified(self):
        netlist = self.redundant_netlist()
        check_against_exhaustive(netlist)


class TestMechanics:
    def test_fill_completes_vector(self, c17):
        engine = Podem(c17)
        result = engine.generate(Fault("10", 1))
        vector = engine.fill(result)
        assert set(vector) == set(c17.inputs)
        assert all(value in (0, 1) for value in vector.values())

    def test_fill_rejects_failures(self, c17):
        engine = Podem(c17)
        from repro.atpg.podem import PodemResult

        with pytest.raises(ValueError):
            engine.fill(PodemResult(Status.ABORTED, Fault("10", 1)))

    def test_unknown_fault(self, c17):
        engine = Podem(c17)
        with pytest.raises(ValueError):
            engine.generate(Fault("ghost", 0))
        with pytest.raises(ValueError):
            engine.generate(Fault("10", 0, input_of="ghost"))
        with pytest.raises(ValueError):
            engine.generate(Fault("1", 0, input_of="23"))  # not an edge

    def test_sequential_rejected(self, s27):
        with pytest.raises(ValueError, match="combinational"):
            Podem(s27)

    def test_abort_on_tiny_limit(self, s27_scan):
        engine = Podem(s27_scan, backtrack_limit=0)
        statuses = {
            engine.generate(fault).status for fault in all_faults(s27_scan)
        }
        # With zero backtracks allowed some fault must abort, none may be
        # (wrongly) proven untestable: s27 has full fault coverage.
        assert Status.UNTESTABLE not in statuses

    def test_randomized_generation_varies(self, s27_scan):
        import random

        fault = Fault("G11", 0)
        vectors = set()
        for seed in range(8):
            engine = Podem(s27_scan, rng=random.Random(seed))
            result = engine.generate(fault, randomize=True)
            assert result.detected
            single = TestSet(s27_scan.inputs)
            single.append_assignment(engine.fill(result))
            vectors.add(single[0])
            assert FaultSimulator(s27_scan, single).detection_word(fault) == 1
        assert len(vectors) > 1

    def test_pin_fault_detection(self, c17):
        engine = Podem(c17)
        result = engine.generate(Fault("3", 0, input_of="10"))
        assert result.detected


@st.composite
def implication_walks(draw):
    """A random full-scan circuit, a stem or pin fault on it, and a walk
    of steps: ``("assign", k, value)`` sets the ``k``-th still-free input
    (modulo their number), ``("undo", k)`` pops back to before the ``k``-th
    live decision (modulo their number plus one)."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    gates = draw(st.integers(min_value=6, max_value=30))
    netlist, _ = full_scan(generate_netlist(tiny_spec(seed, gates=gates)))
    stem = draw(st.booleans())
    faults = [f for f in all_faults(netlist) if f.is_stem == stem]
    if not faults:
        faults = all_faults(netlist)
    fault = draw(st.sampled_from(faults))
    step = st.one_of(
        st.tuples(st.just("assign"), st.integers(0, 63), st.integers(0, 1)),
        st.tuples(st.just("undo"), st.integers(0, 63)),
    )
    return netlist, fault, draw(st.lists(step, max_size=24))


class TestIncrementalImplication:
    @settings(max_examples=200, deadline=None)
    @given(case=implication_walks())
    def test_incremental_state_equals_full_pass(self, case):
        """After every assignment and every undo to a decision's mark, the
        event-driven good/faulty arrays equal a full ``_imply`` pass over
        the current assignment."""
        netlist, fault, steps = case
        engine = Podem(netlist)
        site, pin_sink = engine._fault_site(fault)
        cone = engine._cone_positions(site if pin_sink is None else pin_sink)
        good, faulty = engine._imply({}, fault, site, pin_sink, cone)
        trail = []
        decisions = []  # (pi position, trail mark before it)
        assignment = {}
        for step in steps:
            if step[0] == "assign":
                free = [pi for pi in engine._pi_positions if pi not in assignment]
                if not free:
                    continue
                pi = free[step[1] % len(free)]
                decisions.append((pi, len(trail)))
                assignment[pi] = step[2]
                engine._assign(
                    good, faulty, trail, pi, step[2], fault, site, pin_sink, cone
                )
            else:
                depth = step[1] % (len(decisions) + 1)
                if depth == len(decisions):
                    continue
                engine._undo(good, faulty, trail, decisions[depth][1])
                for pi, _ in decisions[depth:]:
                    del assignment[pi]
                del decisions[depth:]
            expected = engine._imply(assignment, fault, site, pin_sink, cone)
            assert (good, faulty) == expected, (str(fault), step)
