"""Pinned build digests: the byte-identity contract, committed.

The fixture records, per build, the :func:`~repro.store.semantic_digest`
(what the build produced: baselines, packed columns and the embedded
report minus its timings) and the :func:`~repro.store.table_content_hash`
(what it was built from) for ``repro.api.build`` at ``seed=0, calls=5``.
Every kernel backend must reproduce both values exactly, so a change to
the seed streams, the restart fold, Procedures 1/2, the interned columns
or the report layout fails here even when every backend drifts together.

Artifact file *bytes* are deliberately not pinned: the embedded report
carries ``procedure1_seconds``, which varies run to run.

Regenerate deliberately after an *intended* behavior change::

    PYTHONPATH=src python tests/store/test_digest_golden.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"

SEED = 0
CALLS = 5
KIND = "same-different"

#: Pinned builds: two bundled Table-6 cells and a small ITC-99 proxy.
CASES = ("p208-diag", "p208-10det", "b14p-2000x32")

#: Kernel legs: the reference and the production backend.
LEGS = ("naive", "packed")


def case_table(case):
    """A freshly built response table (no cached interned view)."""
    if case == "b14p-2000x32":
        from repro.circuit.generate import proxy_response_table

        return proxy_response_table("b14p", n_faults=2000, n_tests=32)
    from repro.experiments.table6 import response_table_for

    circuit, test_type = case.split("-")
    return response_table_for(circuit, test_type, SEED)[1]


def compute_case(case, backend="packed"):
    """``{"semantic_digest", "table_content_hash"}`` of one pinned build."""
    from repro.api import DictionaryConfig, build
    from repro.store import semantic_digest, table_content_hash

    table = case_table(case)
    config = DictionaryConfig(seed=SEED, calls1=CALLS, backend=backend)
    built = build(table, kind=KIND, config=config)
    return {
        "semantic_digest": semantic_digest(built),
        "table_content_hash": table_content_hash(table, KIND, config),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert golden["seed"] == SEED
    assert golden["calls"] == CALLS
    assert sorted(golden["builds"]) == sorted(CASES)


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("case", CASES)
def test_build_matches_pinned_digests(golden, case, leg):
    got = compute_case(case, leg)
    want = golden["builds"][case]
    assert got == want, (
        f"{case} under {leg} drifted (got {got}, pinned {want}) — if "
        f"intended, regenerate with `PYTHONPATH=src python {__file__} --regen`"
    )


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    doc = {
        "seed": SEED,
        "calls": CALLS,
        "builds": {case: compute_case(case) for case in CASES},
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
