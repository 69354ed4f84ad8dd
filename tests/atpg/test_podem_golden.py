"""Pinned PODEM decisions: the search contract, committed.

The fixture records two things:

* for ``generate_diagnostic_tests`` on p208 and p298 at seeds 0-4, the
  test vectors, the random- and miter-phase test counts, the number of
  equivalent pairs and the ``atpg.podem.calls`` / ``atpg.podem.backtracks``
  counters;
* for every collapsed fault of p208, and for the p641 sample
  ``faults[::17][:40]``, what ``Podem.generate`` returns: the status, the
  backtracks and the assignment as a cube over the inputs (``X`` where
  the search left an input free).  Both deterministically and with
  ``randomize=True`` under a seeded rng (the n-detection path).

Any change to how PODEM implies, picks objectives, backtraces or
backtracks moves a backtrack count or an assignment here, so a change to
PODEM's internals that keeps this fixture keeps every test set built on it.

Regenerate deliberately after an *intended* behavior change::

    PYTHONPATH=src python tests/atpg/test_podem_golden.py --regen
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "podem.json"

DIAGNOSTIC_CIRCUITS = ("p208", "p298")
DIAGNOSTIC_SEEDS = tuple(range(5))

#: Engine runs: circuit -> which of its collapsed faults to try.
ENGINE_SAMPLES = {
    "p208": lambda faults: faults,
    "p641": lambda faults: faults[::17][:40],
}
ENGINE_MODES = ("plain", "randomized")
RANDOMIZED_RNG_SEED = 7


def _netlist_and_faults(circuit):
    from repro.circuit import load_circuit, prepare_for_test
    from repro.faults import collapse

    netlist = prepare_for_test(load_circuit(circuit))
    return netlist, collapse(netlist)


def compute_diagnostic(circuit, seed):
    """Everything ``generate_diagnostic_tests`` decided for one cell."""
    from repro.atpg import generate_diagnostic_tests
    from repro.obs import scoped_registry

    netlist, faults = _netlist_and_faults(circuit)
    with scoped_registry() as registry:
        tests, report = generate_diagnostic_tests(netlist, faults, seed=seed)
    counters = registry.snapshot()["counters"]
    return {
        "tests": [tests.as_string(i) for i in range(len(tests))],
        "random_tests": report.random_tests,
        "miter_tests": report.miter_tests,
        "equivalent_pairs": len(report.equivalent_pairs),
        "podem_calls": counters["atpg.podem.calls"],
        "podem_backtracks": counters["atpg.podem.backtracks"],
    }


def compute_engine(circuit, mode):
    """``[fault, status, backtracks, cube]`` for each sampled fault."""
    from repro.atpg import Podem

    netlist, faults = _netlist_and_faults(circuit)
    randomize = mode == "randomized"
    engine = Podem(netlist, rng=random.Random(RANDOMIZED_RNG_SEED))
    records = []
    for fault in ENGINE_SAMPLES[circuit](faults):
        result = engine.generate(fault, randomize=randomize)
        cube = None
        if result.assignment is not None:
            cube = "".join(
                str(result.assignment.get(net, "X")) for net in netlist.inputs
            )
        records.append([
            [fault.line, fault.stuck_at, fault.input_of],
            result.status.value,
            result.backtracks,
            cube,
        ])
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["diagnostic"]) == sorted(DIAGNOSTIC_CIRCUITS)
    for circuit in DIAGNOSTIC_CIRCUITS:
        assert sorted(golden["diagnostic"][circuit]) == [
            str(seed) for seed in DIAGNOSTIC_SEEDS
        ]
    assert sorted(golden["engine"]) == sorted(ENGINE_SAMPLES)
    for circuit in ENGINE_SAMPLES:
        assert sorted(golden["engine"][circuit]) == sorted(ENGINE_MODES)


@pytest.mark.parametrize("seed", DIAGNOSTIC_SEEDS)
@pytest.mark.parametrize("circuit", DIAGNOSTIC_CIRCUITS)
def test_diagnostic_tests_match_pinned(golden, circuit, seed):
    got = compute_diagnostic(circuit, seed)
    want = golden["diagnostic"][circuit][str(seed)]
    assert got == want, (
        f"{circuit} seed {seed} drifted — if intended, regenerate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize("circuit", sorted(ENGINE_SAMPLES))
def test_engine_results_match_pinned(golden, circuit, mode):
    got = compute_engine(circuit, mode)
    want = golden["engine"][circuit][mode]
    assert len(got) == len(want)
    for record, pinned in zip(got, want):
        assert record == pinned, f"{circuit} {mode}: {record} != pinned {pinned}"


def _dump(doc) -> str:
    """Indented JSON, with each engine record kept on one line."""
    records = {}
    engine = {}
    for circuit, modes in doc["engine"].items():
        engine[circuit] = {}
        for mode, rows in modes.items():
            tokens = [f"@{circuit}/{mode}/{i}@" for i in range(len(rows))]
            records.update(zip(tokens, rows))
            engine[circuit][mode] = tokens
    text = json.dumps(
        {"diagnostic": doc["diagnostic"], "engine": engine}, indent=2, sort_keys=True
    )
    for token, record in records.items():
        text = text.replace(json.dumps(token), json.dumps(record))
    return text + "\n"


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    doc = {
        "diagnostic": {
            circuit: {
                str(seed): compute_diagnostic(circuit, seed)
                for seed in DIAGNOSTIC_SEEDS
            }
            for circuit in DIAGNOSTIC_CIRCUITS
        },
        "engine": {
            circuit: {mode: compute_engine(circuit, mode) for mode in ENGINE_MODES}
            for circuit in ENGINE_SAMPLES
        },
    }
    assert json.loads(_dump(doc)) == doc
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(_dump(doc))
    print(f"wrote {GOLDEN_PATH}")
