"""Tests for fault injection, miters, and exact pair distinguishing."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.atpg import (
    Distinguisher,
    SatAtpg,
    Status,
    build_difference_miter,
    build_miter,
    injected_copy,
)
from repro.atpg.distinguish import MITER_OUTPUT
from repro.circuit import GateType, from_gates, full_scan, generate_netlist
from repro.faults import Fault, all_faults
from repro.sim import FaultSimulator, ResponseTable, TestSet, output_words, simulate
from tests.conftest import tiny_spec


class TestInjectFault:
    def test_stem_injection(self, c17):
        copy = injected_copy(c17, Fault("10", 1))
        assert copy.gates["10"].gate_type is GateType.CONST1
        assert c17.gates["10"].gate_type is GateType.NAND

    def test_pin_injection(self, c17):
        copy = injected_copy(c17, Fault("3", 0, input_of="10"))
        sink = copy.gates["10"]
        assert "3" not in sink.inputs
        stub = [net for net in sink.inputs if net != "1"][0]
        assert copy.gates[stub].gate_type is GateType.CONST0
        # The other branch (3 -> 11) is untouched.
        assert "3" in copy.gates["11"].inputs

    def test_pi_stem_preserves_interface(self, c17):
        copy = injected_copy(c17, Fault("1", 1))
        assert copy.inputs == c17.inputs
        assert copy.outputs == c17.outputs
        tests = TestSet.exhaustive(c17.inputs)
        words = simulate(copy, tests)
        stub = "1__stuck1"
        assert words[stub] == (1 << len(tests)) - 1

    def test_injection_semantics_match_fault_sim(self, c17):
        """The structurally injected circuit equals the simulated faulty machine."""
        tests = TestSet.exhaustive(c17.inputs)
        simulator = FaultSimulator(c17, tests)
        for fault in (Fault("16", 0), Fault("3", 1, input_of="11"), Fault("2", 0)):
            diffs = simulator.output_diffs(fault)
            good = output_words(c17, tests)
            bad = output_words(injected_copy(c17, fault), tests)
            for net in c17.outputs:
                assert good[net] ^ bad[net] == diffs.get(net, 0)

    def test_unknown_injection_rejected(self, c17):
        with pytest.raises(ValueError):
            injected_copy(c17, Fault("ghost", 0))
        with pytest.raises(ValueError):
            injected_copy(c17, Fault("3", 0, input_of="22"))


def fault_site_kind(netlist, fault):
    """Which kind of fault site ``fault`` sits on."""
    if not fault.is_stem:
        return "pin"
    if netlist.gates[fault.line].gate_type is GateType.INPUT:
        return "input stem"
    return "internal stem"


def reached_outputs(netlist, fault):
    """Positions of the outputs ``fault``'s fan-out cone reaches."""
    cone = netlist.output_cone(fault.line if fault.is_stem else fault.input_of)
    return {k for k, net in enumerate(netlist.outputs) if net in cone}


@st.composite
def miter_cases(draw):
    """A random full-scan circuit and a fault pair on it.

    The pair's first fault is drawn by site kind (input stem, internal
    stem, pin, or any fault on an output net); its partner is a random
    fault, the opposite stuck value on the same site, a fault whose cone
    reaches none of the first one's outputs, or the fault-free machine.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    gates = draw(st.integers(min_value=6, max_value=30))
    netlist, _ = full_scan(generate_netlist(tiny_spec(seed, gates=gates)))
    faults = all_faults(netlist)
    site = draw(st.sampled_from(["input stem", "internal stem", "pin", "output"]))
    if site == "output":
        candidates = [f for f in faults if f.line in netlist.outputs]
    else:
        candidates = [f for f in faults if fault_site_kind(netlist, f) == site]
    assume(candidates)
    fault_a = draw(st.sampled_from(candidates))
    partner = draw(st.sampled_from(["any", "opposite", "disjoint", "fault-free"]))
    if partner == "fault-free":
        return netlist, fault_a, None
    if partner == "opposite":
        flipped = Fault(fault_a.line, 1 - fault_a.stuck_at, fault_a.input_of)
        return netlist, fault_a, flipped
    if partner == "disjoint":
        reach = reached_outputs(netlist, fault_a)
        candidates = [f for f in faults if not reach & reached_outputs(netlist, f)]
        assume(candidates)
    else:
        candidates = faults
    return netlist, fault_a, draw(st.sampled_from(candidates))


class TestMiter:
    @settings(max_examples=150, deadline=None)
    @given(case=miter_cases())
    def test_miter_output_semantics(self, case):
        """The miter output is the OR over outputs of the two machines'
        output differences, exhaustively; it has fewer gates than the
        miter of two full copies whenever the cones miss an output."""
        netlist, fault_a, fault_b = case
        miter = build_miter(netlist, fault_a, fault_b)
        assert miter.outputs == [MITER_OUTPUT]
        assert miter.inputs == netlist.inputs
        tests = TestSet.exhaustive(netlist.inputs)
        machine_a = injected_copy(netlist, fault_a)
        machine_b = netlist if fault_b is None else injected_copy(netlist, fault_b)
        a_words = output_words(machine_a, tests)
        b_words = output_words(machine_b, tests)
        expected = 0
        # Outputs by position: a stuck input stem renames an output on it.
        for out_a, out_b in zip(machine_a.outputs, machine_b.outputs):
            expected |= a_words[out_a] ^ b_words[out_b]
        assert output_words(miter, tests)[MITER_OUTPUT] == expected

        reach = reached_outputs(netlist, fault_a)
        if fault_b is not None:
            reach |= reached_outputs(netlist, fault_b)
        if len(reach) < len(netlist.outputs):
            two_copies = build_difference_miter(machine_a, machine_b)
            assert miter.num_gates < two_copies.num_gates

    def test_unobservable_pair_gives_constant_zero(self):
        netlist = from_gates(
            "dangling",
            ["a", "b"],
            [("y", GateType.AND, ["a", "b"]), ("d", GateType.NOT, ["a"])],
            ["y"],
        )
        pair = (Fault("d", 0), Fault("d", 1))
        miter = build_miter(netlist, *pair)
        assert miter.gates[MITER_OUTPUT].gate_type is GateType.CONST0
        assert miter.inputs == ["a", "b"]
        assert Distinguisher(netlist).distinguish(*pair).proven_equivalent
        assert SatAtpg(netlist).distinguish(*pair).proven_equivalent

    def test_sequential_rejected(self, s27):
        with pytest.raises(ValueError):
            build_miter(s27, Fault("G10", 0), Fault("G11", 0))


class TestDistinguisher:
    def test_exact_on_c17(self, c17, c17_faults, c17_exhaustive_sim):
        tests = TestSet.exhaustive(c17.inputs)
        table = ResponseTable.build(c17, c17_faults, tests)
        distinguisher = Distinguisher(c17, backtrack_limit=2000)
        for a, b in itertools.combinations(range(len(c17_faults)), 2):
            truth = table.full_row(a) != table.full_row(b)
            outcome = distinguisher.distinguish(c17_faults[a], c17_faults[b])
            assert outcome.status is not Status.ABORTED
            assert outcome.distinguished == truth

    def test_returned_vector_distinguishes(self, s27_scan, s27_faults):
        distinguisher = Distinguisher(s27_scan, backtrack_limit=2000)
        fa, fb = s27_faults[0], s27_faults[5]
        outcome = distinguisher.distinguish(fa, fb)
        if outcome.distinguished:
            tests = TestSet(s27_scan.inputs)
            tests.append_assignment(outcome.test)
            table = ResponseTable.build(s27_scan, [fa, fb], tests)
            assert table.signature(0, 0) != table.signature(1, 0)

    def test_equivalent_pair_proven(self, s27_scan, s27_faults):
        """Functionally equivalent pairs (same rows exhaustively) are proven so."""
        tests = TestSet.exhaustive(s27_scan.inputs)
        table = ResponseTable.build(s27_scan, s27_faults, tests)
        rows = {}
        equivalent = None
        for i in range(len(s27_faults)):
            row = table.full_row(i)
            if row in rows:
                equivalent = (s27_faults[rows[row]], s27_faults[i])
                break
            rows[row] = i
        assert equivalent is not None, "fixture assumption: s27 has equivalent pairs"
        outcome = Distinguisher(s27_scan, backtrack_limit=5000).distinguish(*equivalent)
        assert outcome.proven_equivalent
