"""Regenerate the paper's Table 6.

Runs the complete evaluation — diagnostic and 10-detection test sets,
three dictionary organisations, Procedures 1 and 2 — for a set of
benchmark circuits and prints the table in the paper's layout.

Usage::

    python examples/reproduce_table6.py                 # default sweep
    python examples/reproduce_table6.py p208 p298       # chosen circuits
    REPRO_FULL_SWEEP=1 python examples/reproduce_table6.py   # + big proxies
    REPRO_EXAMPLES_QUICK=1 python examples/reproduce_table6.py  # seconds, one cell

Expect a few minutes for the default sweep (test generation dominates).
``REPRO_EXAMPLES_QUICK=1`` (the CI setting) shrinks the run to a single
small cell with a reduced restart budget so the script stays a smoke
test rather than the full evaluation.  Each row is built through
:func:`repro.api.build` with a ``DictionaryConfig`` — see that module for
the programmatic entry point.
"""

import os
import sys
import time

from repro.experiments import (
    DEFAULT_CIRCUITS,
    EXTENDED_CIRCUITS,
    render_table6,
    table6_row,
)


def main() -> None:
    quick = bool(os.environ.get("REPRO_EXAMPLES_QUICK"))
    if len(sys.argv) > 1:
        circuits = sys.argv[1:]
    elif quick:
        circuits = ["p208"]
    elif os.environ.get("REPRO_FULL_SWEEP"):
        circuits = list(DEFAULT_CIRCUITS) + list(EXTENDED_CIRCUITS)
    else:
        circuits = list(DEFAULT_CIRCUITS)

    calls = 5 if quick else 100
    test_types = ("diag",) if quick else ("diag", "10det")
    rows = []
    for circuit in circuits:
        for test_type in test_types:
            start = time.perf_counter()
            row = table6_row(circuit, test_type, seed=0, calls=calls)
            elapsed = time.perf_counter() - start
            rows.append(row)
            print(
                f"[{elapsed:7.1f}s] {circuit:>6} {test_type:>5}: |T|={row.n_tests:4d} "
                f"faults={row.n_faults:5d} ind p/f={row.indist_passfail:6d} "
                f"ind s/d={row.indist_sd_replace:6d} ind full={row.indist_full:6d}"
            )
    print()
    print(render_table6(rows))


if __name__ == "__main__":
    main()
