"""Tests for diagnostic test set generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import generate_diagnostic_tests, response_classes
from repro.circuit import full_scan, generate_netlist
from repro.faults import collapse
from repro.sim import ResponseTable, TestSet
from tests.conftest import tiny_spec


def assert_exhaustive_resolution(netlist, faults, seed):
    """Pairs left together must be exactly the exhaustively equivalent ones."""
    tests, report = generate_diagnostic_tests(netlist, faults, seed=seed)
    assert not report.aborted_pairs
    achieved = response_classes(netlist, faults, tests)
    exhaustive = response_classes(
        netlist, faults, TestSet.exhaustive(netlist.inputs)
    )
    key = lambda classes: sorted(tuple(sorted(c)) for c in classes)
    assert key(achieved) == key(exhaustive)


class TestS27:
    def test_reaches_exhaustive_resolution(self, s27_scan, s27_faults):
        assert_exhaustive_resolution(s27_scan, s27_faults, seed=1)

    def test_equivalent_pairs_reported(self, s27_scan, s27_faults):
        _, report = generate_diagnostic_tests(s27_scan, s27_faults, seed=1)
        exhaustive = response_classes(
            s27_scan, s27_faults, TestSet.exhaustive(s27_scan.inputs)
        )
        expected_pairs = sum(len(c) - 1 for c in exhaustive if len(c) > 1)
        assert len(report.equivalent_pairs) >= expected_pairs


class TestRandomCircuits:
    @settings(max_examples=100, deadline=None)
    @given(
        circuit_seed=st.integers(min_value=0, max_value=10_000),
        gates=st.integers(min_value=6, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_reaches_exhaustive_resolution(self, circuit_seed, gates, seed):
        netlist, _ = full_scan(generate_netlist(tiny_spec(circuit_seed, gates=gates)))
        assert_exhaustive_resolution(netlist, collapse(netlist), seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_only_settled_pairs_remain(self, seed):
        netlist, _ = full_scan(generate_netlist(tiny_spec(seed + 400, gates=25)))
        faults = collapse(netlist)
        tests, report = generate_diagnostic_tests(netlist, faults, seed=seed)
        detected = set(report.generation.detected)
        targets = [f for f in faults if f in detected]
        classes = response_classes(netlist, targets, tests)
        settled = {
            frozenset(pair)
            for pair in report.equivalent_pairs + report.aborted_pairs
        }
        for members in classes:
            for left, right in zip(members, members[1:]):
                assert frozenset((targets[left], targets[right])) in settled


class TestResponseClasses:
    def test_empty_test_set_single_class(self, s27_faults, s27_scan):
        classes = response_classes(s27_scan, s27_faults, TestSet(s27_scan.inputs))
        assert classes == [list(range(len(s27_faults)))]

    def test_classes_partition(self, s27_scan, s27_faults):
        tests = TestSet.random(s27_scan.inputs, 8, seed=0)
        classes = response_classes(s27_scan, s27_faults, tests)
        flat = sorted(i for members in classes for i in members)
        assert flat == list(range(len(s27_faults)))

    def test_same_class_means_same_rows(self, s27_scan, s27_faults):
        tests = TestSet.random(s27_scan.inputs, 8, seed=0)
        table = ResponseTable.build(s27_scan, s27_faults, tests)
        for members in response_classes(s27_scan, s27_faults, tests):
            rows = {table.full_row(i) for i in members}
            assert len(rows) == 1


def test_deterministic(s27_scan, s27_faults):
    a, _ = generate_diagnostic_tests(s27_scan, s27_faults, seed=9)
    b, _ = generate_diagnostic_tests(s27_scan, s27_faults, seed=9)
    assert a == b
