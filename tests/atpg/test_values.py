"""Tests for three-valued logic."""

import itertools

import pytest

from repro.atpg.values import (
    ONE,
    X,
    ZERO,
    evaluate3,
    evaluate_packed,
    faulty_value,
    good_value,
    not3,
    pack,
    to_symbol,
)
from repro.circuit import GateType
from repro.circuit.compiled import CODES
from repro.circuit.gates import evaluate_gate

_GATES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
]


class TestAgainstBinary:
    @pytest.mark.parametrize("gate_type", _GATES)
    def test_binary_inputs_match_binary_eval(self, gate_type):
        for bits in itertools.product((0, 1), repeat=3):
            expected = evaluate_gate(gate_type, list(bits), 1)
            assert evaluate3(gate_type, list(bits)) == expected

    def test_not_buf(self):
        assert evaluate3(GateType.NOT, [ZERO]) == ONE
        assert evaluate3(GateType.BUF, [ONE]) == ONE
        assert evaluate3(GateType.NOT, [X]) == X

    def test_constants(self):
        assert evaluate3(GateType.CONST0, []) == ZERO
        assert evaluate3(GateType.CONST1, []) == ONE


class TestXPropagation:
    @pytest.mark.parametrize("gate_type", _GATES)
    def test_x_soundness(self, gate_type):
        """Property: a known 3-valued output must hold for all X completions."""
        for values in itertools.product((ZERO, ONE, X), repeat=2):
            result = evaluate3(gate_type, list(values))
            if result == X:
                continue
            completions = [
                [v if v != X else choice[i] for i, v in enumerate(values)]
                for choice in itertools.product((0, 1), repeat=2)
            ]
            outcomes = {evaluate_gate(gate_type, c, 1) for c in completions}
            assert outcomes == {result}

    @pytest.mark.parametrize("gate_type", _GATES)
    def test_x_completeness(self, gate_type):
        """Property: an X output means both completions are possible."""
        for values in itertools.product((ZERO, ONE, X), repeat=2):
            result = evaluate3(gate_type, list(values))
            if result != X:
                continue
            completions = [
                [v if v != X else choice[i] for i, v in enumerate(values)]
                for choice in itertools.product((0, 1), repeat=2)
            ]
            outcomes = {evaluate_gate(gate_type, c, 1) for c in completions}
            assert outcomes == {0, 1}

    def test_controlling_value_dominates_x(self):
        assert evaluate3(GateType.AND, [ZERO, X]) == ZERO
        assert evaluate3(GateType.OR, [ONE, X]) == ONE
        assert evaluate3(GateType.NAND, [ZERO, X]) == ONE
        assert evaluate3(GateType.NOR, [ONE, X]) == ZERO
        assert evaluate3(GateType.XOR, [ONE, X]) == X


class TestHelpers:
    def test_not3(self):
        assert not3(ZERO) == ONE
        assert not3(ONE) == ZERO
        assert not3(X) == X

    def test_symbols(self):
        assert to_symbol(ONE, ONE) == "1"
        assert to_symbol(ZERO, ZERO) == "0"
        assert to_symbol(ONE, ZERO) == "D"
        assert to_symbol(ZERO, ONE) == "D'"
        assert to_symbol(X, ONE) == "X"

    def test_dff_not_evaluable(self):
        with pytest.raises(ValueError):
            evaluate3(GateType.DFF, [ONE])


_EVALUABLE = [t for t in GateType if t not in (GateType.INPUT, GateType.DFF)]


def _legal_fanins(gate_type):
    """Fan-in counts from 1 to 3 the gate takes (0 for the constants)."""
    hi = 3 if gate_type.max_inputs < 0 else gate_type.max_inputs
    return [n for n in range(gate_type.min_inputs, hi + 1) if n or hi == 0]


class TestPackedEvaluation:
    """The two-machine evaluation PODEM runs, against evaluate3 per machine."""

    def test_pack_round_trips(self):
        for good in (ZERO, ONE, X):
            for faulty in (ZERO, ONE, X):
                state = pack(good, faulty)
                assert (good_value(state), faulty_value(state)) == (good, faulty)

    @pytest.mark.parametrize("gate_type", _EVALUABLE, ids=lambda t: t.value)
    def test_exhaustive_against_evaluate3(self, gate_type):
        pairs = list(itertools.product((ZERO, ONE, X), repeat=2))
        checked = 0
        for n in _legal_fanins(gate_type):
            for fanin in itertools.product(pairs, repeat=n):
                state = evaluate_packed(
                    CODES[gate_type], [pack(g, f) for g, f in fanin]
                )
                goods = [g for g, _ in fanin]
                faults = [f for _, f in fanin]
                assert good_value(state) == evaluate3(gate_type, goods), fanin
                assert faulty_value(state) == evaluate3(gate_type, faults), fanin
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("gate_type", [GateType.INPUT, GateType.DFF])
    def test_sources_not_evaluable(self, gate_type):
        with pytest.raises(ValueError):
            evaluate_packed(CODES[gate_type], [pack(ONE, ONE)])
