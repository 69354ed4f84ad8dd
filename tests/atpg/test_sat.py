"""Tests for the CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.cnf import CnfEncoder
from repro.atpg.distinguish import MITER_OUTPUT, build_difference_miter, injected_copy
from repro.atpg.sat import BudgetExceeded, Solver
from repro.circuit import full_scan, load_circuit
from repro.faults import Fault


def brute_force_sat(clauses, num_vars):
    for bits in itertools.product((False, True), repeat=num_vars):
        model = {v + 1: bits[v] for v in range(num_vars)}
        if all(
            any(model[abs(l)] == (l > 0) for l in clause) for clause in clauses
        ):
            return model
    return None


def check_model(clauses, model):
    for clause in clauses:
        assert any(model.get(abs(l), False) == (l > 0) for l in clause), clause


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve() == {}

    def test_unit_clauses(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-2])
        model = solver.solve()
        assert model[1] is True
        assert model[2] is False

    def test_contradiction(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() is None

    def test_empty_clause(self):
        solver = Solver()
        solver.add_clause([])
        assert solver.solve() is None

    def test_tautology_ignored(self):
        solver = Solver()
        solver.add_clause([1, -1])
        solver.add_clause([2])
        assert solver.solve()[2] is True

    def test_simple_implications(self):
        # (x1 -> x2) & (x2 -> x3) & x1 forces x3.
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([1])
        model = solver.solve()
        assert model[3] is True

    def test_requires_search(self):
        # XOR chain: x1 ^ x2 = 1, x2 ^ x3 = 1, x1 = x3 forced equal.
        clauses = [[1, 2], [-1, -2], [2, 3], [-2, -3]]
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        model = solver.solve()
        check_model(clauses, model)
        assert model[1] == model[3]


class TestPigeonhole:
    def pigeonhole(self, holes):
        """PHP(holes+1, holes): unsatisfiable, needs real search."""
        pigeons = holes + 1
        var = lambda p, h: p * holes + h + 1
        solver = Solver()
        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        return solver

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_unsat(self, holes):
        assert self.pigeonhole(holes).solve() is None

    def test_satisfiable_variant(self):
        # holes pigeons into holes holes: satisfiable.
        holes = 3
        var = lambda p, h: p * holes + h + 1
        solver = Solver()
        for p in range(holes):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(holes):
                for p2 in range(p1 + 1, holes):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert solver.solve() is not None


class TestAssumptions:
    def test_assumptions_restrict(self):
        solver = Solver()
        solver.add_clause([1, 2])
        model = solver.solve(assumptions=[-1])
        assert model[2] is True
        assert solver.solve(assumptions=[-1, -2]) is None

    def test_conflicting_assumption(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.solve(assumptions=[-1]) is None


class TestBudget:
    def test_budget_exceeded_raises(self):
        solver = TestPigeonhole().pigeonhole(5)
        with pytest.raises(BudgetExceeded):
            solver.solve(max_conflicts=3)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    num_vars=st.integers(min_value=1, max_value=8),
    num_clauses=st.integers(min_value=1, max_value=30),
)
def test_random_3sat_matches_brute_force(seed, num_vars, num_clauses):
    """Property: the solver agrees with exhaustive enumeration."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    solver = Solver()
    for clause in clauses:
        solver.add_clause(clause)
    model = solver.solve()
    reference = brute_force_sat(clauses, num_vars)
    assert (model is None) == (reference is None)
    if model is not None:
        check_model(clauses, model)


# ----------------------------------------------------------------------
# Pinned search: the conflicts and model of solve() on fixed formulas.
# The pins were recorded with the dict-based implementation of the same
# search, before the move to literal-code arrays; any change to clause
# literal order, watch order, learnt-clause order, decision order or
# polarity moves at least one of them.
# ----------------------------------------------------------------------


def random_3sat(seed, num_vars=40, num_clauses=175):
    """A seeded random 3-SAT instance near the satisfiability threshold."""
    rng = random.Random(seed)
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


def cnf_solver(clauses):
    solver = Solver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def miter_solver(machine_a, machine_b):
    """The SAT-ATPG question "can the two machines' outputs differ?"."""
    encoder = CnfEncoder(build_difference_miter(machine_a, machine_b))
    encoder.solver.add_clause([encoder.literal(MITER_OUTPUT, 1)])
    return encoder.solver


def pinned_model(bits):
    """A model pinned as one character per variable, ``1`` for true."""
    if bits is None:
        return None
    return {v + 1: bit == "1" for v, bit in enumerate(bits)}


def c17_miter(fault_a, fault_b=None):
    c17 = load_circuit("c17")
    machine_b = c17.copy() if fault_b is None else injected_copy(c17, fault_b)
    return miter_solver(injected_copy(c17, fault_a), machine_b)


def s27_miter(fault_a, fault_b=None):
    s27, _ = full_scan(load_circuit("s27"))
    machine_b = s27.copy() if fault_b is None else injected_copy(s27, fault_b)
    return miter_solver(injected_copy(s27, fault_a), machine_b)


MITERS = {
    "c17 16/sa0": lambda: c17_miter(Fault("16", 0)),
    "c17 1/sa1": lambda: c17_miter(Fault("1", 1)),
    "c17 3->11/sa1": lambda: c17_miter(Fault("3", 1, input_of="11")),
    "c17 10/sa1 vs 16/sa0": lambda: c17_miter(Fault("10", 1), Fault("16", 0)),
    "s27 G7/sa0": lambda: s27_miter(Fault("G7", 0)),
    "s27 G11->G10/sa0 vs G7/sa0": lambda: s27_miter(
        Fault("G11", 0, input_of="G10"), Fault("G7", 0)
    ),
    "s27 G12->G15/sa0 vs G3/sa0": lambda: s27_miter(
        Fault("G12", 0, input_of="G15"), Fault("G3", 0)
    ),
    "s27 G8/sa1 vs G9/sa0": lambda: s27_miter(Fault("G8", 1), Fault("G9", 0)),
}
REPEATED_CALLS = ((), (-1, 2), (3, -4, 5), (-3, 4), ())

PINNED_3SAT = {  # seed -> (conflicts, model bits or None)
    0: (52, None),
    1: (43, None),
    2: (45, None),
    3: (57, None),
    4: (27, "1000000000110100000000010110101001010000"),
    5: (40, None),
    6: (23, "0110101010000010010001010100000100101001"),
    7: (12, "0010011000101110001100100011101001011101"),
    8: (6, "0000110010001010101110110110010110001000"),
    9: (20, "0101001001000010011010001001011010000011"),
    10: (28, None),
    11: (2, "0001001000101001100101111111110000011110"),
    12: (30, None),
    13: (37, None),
    14: (56, None),
    15: (59, None),
    16: (50, None),
    17: (26, None),
    18: (3, "0000101110001000111001000000011111100011"),
    19: (2, "0000010010101001000111110000111010000000"),
    20: (0, "0001110100101101000111100010101101000010"),
    21: (13, "0100101001111110000101010000100001010010"),
    22: (31, None),
    23: (23, "1100010001001011011010001011100000111101"),
    24: (29, "1111100011110010000110111101000101001010"),
    25: (27, None),
    26: (41, None),
    27: (40, None),
    28: (48, None),
    29: (2, "0001000010111010001011011100000100000001"),
}
PINNED_MITERS = {  # name -> (conflicts, model bits or None)
    "c17 16/sa0": (0, "0000000001101110010100010011111"),
    "c17 1/sa1": (3, "10000001111111000100100100101110"),
    "c17 3->11/sa1": (6, "10001110100110110111010011010111"),
    "c17 10/sa1 vs 16/sa0": (0, "0100000000111011000101000111110"),
    "s27 G7/sa0": (16, "01111111110000000001010100111100010111100010010011"),
    "s27 G11->G10/sa0 vs G7/sa0": (
        12,
        "000000000001110000010010011001101001011011010000111",
    ),
    "s27 G12->G15/sa0 vs G3/sa0": (11, None),
    "s27 G8/sa1 vs G9/sa0": (8, None),
}
PINNED_PIGEONHOLE_4_CONFLICTS = 28
PINNED_REPEATED = {  # seed -> [(conflicts, model bits or None)] per call
    4: [
        (27, "1000000000110100000000010110101001010000"),
        (0, None),
        (3, None),
        (4, None),
        (0, "1000000000110100000000010110101001010000"),
    ],
    6: [
        (23, "0110101010000010010001010100000100101001"),
        (0, "0110101010000010010001010100000100101001"),
        (0, "0110101010000010010001010100000100101001"),
        (8, None),
        (3, "1111100011010001010100011000000100001001"),
    ],
    9: [
        (20, "0101001001000010011010001001011010000011"),
        (0, "0101001001000010011010001001011010000011"),
        (7, None),
        (0, "0101001001000010011010001001011010000011"),
        (2, "0101001001000010011010001001011010000011"),
    ],
    23: [
        (23, "1100010001001011011010001011100000111101"),
        (0, None),
        (0, None),
        (8, None),
        (1, "1100010001001011011010001011100000111101"),
    ],
    24: [
        (29, "1111100011110010000110111101000101001010"),
        (0, None),
        (3, None),
        (0, None),
        (0, "1111100011110010000110111101000101001010"),
    ],
}


class TestPinnedSearch:
    @pytest.mark.parametrize("seed", sorted(PINNED_3SAT))
    def test_random_3sat(self, seed):
        conflicts, bits = PINNED_3SAT[seed]
        solver = cnf_solver(random_3sat(seed))
        assert solver.solve() == pinned_model(bits)
        assert solver.conflicts == conflicts

    def test_pigeonhole_4(self):
        solver = TestPigeonhole().pigeonhole(4)
        assert solver.solve() is None
        assert solver.conflicts == PINNED_PIGEONHOLE_4_CONFLICTS

    @pytest.mark.parametrize("name", sorted(PINNED_MITERS))
    def test_atpg_miter(self, name):
        conflicts, bits = PINNED_MITERS[name]
        solver = MITERS[name]()
        assert solver.solve() == pinned_model(bits)
        assert solver.conflicts == conflicts

    @pytest.mark.parametrize("seed", sorted(PINNED_REPEATED))
    def test_repeated_solves_with_assumptions(self, seed):
        """Learnt clauses and activities carry from one call to the next."""
        solver = cnf_solver(random_3sat(seed))
        for assumptions, pin in zip(REPEATED_CALLS, PINNED_REPEATED[seed]):
            conflicts, bits = pin
            assert solver.solve(assumptions=assumptions) == pinned_model(bits)
            assert solver.conflicts == conflicts
