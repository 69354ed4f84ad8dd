"""Golden regression for Table-6-style results on bundled small circuits.

The committed fixture pins dictionary sizes, indistinguished-pair counts
and the logical restart count for three (circuit, test-type) cells at
``seed=0, calls=5``.  Any drift — an accidental change to ATPG, fault
simulation, signature grouping, the seed streams, the restart fold or
Procedures 1/2 — fails here with a field-level diff.

Regenerate deliberately after an *intended* behavior change::

    PYTHONPATH=src python tests/experiments/test_golden.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "table6_small.json"

#: (circuit, test type) cells pinned by the fixture; small enough for
#: tier-1, spread over both test-set generators.
CELLS = (("p208", "diag"), ("p208", "10det"), ("p298", "diag"))
SEED = 0
CALLS = 5


def compute_rows():
    from repro.experiments import table6_row

    rows = []
    for circuit, test_type in CELLS:
        row = table6_row(circuit, test_type, seed=SEED, calls=CALLS)
        rows.append(
            {
                "circuit": circuit,
                "test_type": test_type,
                "n_tests": row.n_tests,
                "n_faults": row.n_faults,
                "n_outputs": row.n_outputs,
                "size_full": row.sizes.full,
                "size_passfail": row.sizes.pass_fail,
                "size_samediff": row.sizes.same_different,
                "indist_full": row.indist_full,
                "indist_passfail": row.indist_passfail,
                "indist_sd_random": row.indist_sd_random,
                "indist_sd_replace": row.indist_sd_replace,
                "procedure1_calls": row.build.procedure1_calls,
            }
        )
    return {"seed": SEED, "calls": CALLS, "rows": rows}


def _assert_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = compute_rows()
    assert current["seed"] == golden["seed"]
    assert current["calls"] == golden["calls"]
    for got, want in zip(current["rows"], golden["rows"]):
        mismatched = {
            key: (got[key], want[key])
            for key in want
            if got[key] != want[key]
        }
        assert not mismatched, (
            f"{want['circuit']}/{want['test_type']} drifted "
            f"(got, golden): {mismatched} — if intended, regenerate with "
            f"`PYTHONPATH=src python {__file__} --regen`"
        )
    assert len(current["rows"]) == len(golden["rows"])


@pytest.mark.parametrize("kernel_leg", ["packed", "naive"], indirect=True)
def test_table6_matches_golden(kernel_leg):
    """The production kernel and the naive oracle swapped in for it must
    both reproduce the fixture bit for bit."""
    _assert_matches_golden()


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_rows(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
