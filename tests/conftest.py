"""Shared fixtures: circuits, fault lists and ground-truth simulators."""

from __future__ import annotations

import pytest

from repro.circuit import GeneratorSpec, full_scan, generate_netlist, load_circuit
from repro.faults import collapse
from repro.sim import FaultSimulator, TestSet
from tests.util import use_kernel


@pytest.fixture
def kernel_leg(request):
    """Run the test on the kernel leg named by its (indirect) parameter.

    ``"naive"`` swaps the production kernel for the naive oracle for the
    duration of the test; ``"packed"`` runs the production kernel.
    """
    with use_kernel(request.param):
        yield request.param


@pytest.fixture(scope="session")
def c17():
    return load_circuit("c17")


@pytest.fixture(scope="session")
def s27():
    return load_circuit("s27")


@pytest.fixture(scope="session")
def s27_scan(s27):
    scanned, _ = full_scan(s27)
    return scanned


@pytest.fixture(scope="session")
def c17_faults(c17):
    return collapse(c17)


@pytest.fixture(scope="session")
def s27_faults(s27_scan):
    return collapse(s27_scan)


@pytest.fixture(scope="session")
def c17_exhaustive_sim(c17):
    return FaultSimulator(c17, TestSet.exhaustive(c17.inputs))


@pytest.fixture(scope="session")
def s27_exhaustive_sim(s27_scan):
    return FaultSimulator(s27_scan, TestSet.exhaustive(s27_scan.inputs))


def tiny_spec(seed: int, gates: int = 30) -> GeneratorSpec:
    """A small synthetic circuit spec for randomized tests."""
    return GeneratorSpec(
        f"tiny{seed}",
        n_inputs=5,
        n_outputs=3,
        n_flip_flops=2,
        n_gates=gates,
        seed=seed,
    )


@pytest.fixture(scope="session")
def tiny_circuits():
    """A handful of small deterministic random circuits (scan view)."""
    circuits = []
    for seed in range(4):
        netlist = generate_netlist(tiny_spec(seed))
        scanned, _ = full_scan(netlist)
        circuits.append(scanned)
    return circuits
