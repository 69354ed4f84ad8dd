"""Reproduction harness for the paper's Table 6.

For every circuit and both test-set types (``diag``: a diagnostic test
set; ``10det``: a 10-detection test set) the harness reports the sizes of
the full / pass-fail / same-different dictionaries and the number of fault
pairs each leaves indistinguished — including the same/different result
after Procedure 1 with random restarts ("s/d rand") and after Procedure 2
("s/d repl", omitted when Procedure 2 brings no improvement, as in the
paper).

Substitution note (see DESIGN.md): circuits are the deterministic
synthetic proxies ``p208`` … ``p9234`` standing in for ISCAS-89, and the
dictionary fault list is the set of collapsed faults *detected by the test
set* — undetectable faults respond fault-free everywhere and would only
add a constant clique to every column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..atpg.diagnostic import generate_diagnostic_tests
from ..atpg.ndetect import generate_ndetect_tests
from ..circuit.library import load_circuit
from ..circuit.netlist import Netlist
from ..circuit.scan import prepare_for_test
from ..api import DictionaryConfig, build as build_dictionary
from ..dictionaries import (
    BuildReport,
    DictionarySizes,
    FullDictionary,
    PassFailDictionary,
)
from ..faults.collapse import collapse
from ..obs import NullProgress, ProgressReporter, trace_span
from ..sim.faultsim import FaultSimulator
from ..sim.patterns import TestSet
from ..sim.responses import ResponseTable
from .reporting import format_table

#: Circuits of the default sweep (ordered as in the paper).
DEFAULT_CIRCUITS: Tuple[str, ...] = (
    "p208",
    "p298",
    "p344",
    "p382",
    "p386",
    "p400",
    "p420",
    "p510",
    "p526",
)

#: The larger proxies, enabled with ``REPRO_FULL_SWEEP=1`` in the benches.
EXTENDED_CIRCUITS: Tuple[str, ...] = (
    "p641",
    "p820",
    "p953",
    "p1196",
    "p1423",
    "p5378",
    "p9234",
)

TEST_TYPES: Tuple[str, ...] = ("diag", "10det")


@dataclass
class Table6Row:
    """One line of the reproduced Table 6."""

    circuit: str
    test_type: str
    n_tests: int
    n_faults: int
    n_outputs: int
    indist_full: int
    indist_passfail: int
    indist_sd_random: int
    indist_sd_replace: int
    build: BuildReport

    @property
    def sizes(self) -> DictionarySizes:
        return DictionarySizes(self.n_faults, self.n_tests, self.n_outputs)

    @property
    def sd_replace_or_none(self) -> Optional[int]:
        """Procedure 2 column, None when it brought no improvement (paper's '-')."""
        if self.indist_sd_replace < self.indist_sd_random:
            return self.indist_sd_replace
        return None


@lru_cache(maxsize=None)
def prepared_experiment(
    circuit: str, test_type: str, seed: int = 0
) -> Tuple[Netlist, TestSet]:
    """Scan-prepared netlist and generated test set for one table cell.

    Cached per process: the ``diag``/``10det`` generation dominates the
    cost of a row and is reused by ablations and benches.
    """
    netlist = prepare_for_test(load_circuit(circuit))
    faults = collapse(netlist)
    if test_type == "diag":
        tests, _ = generate_diagnostic_tests(netlist, faults, seed=seed)
    elif test_type == "10det":
        tests, _ = generate_ndetect_tests(netlist, faults, n=10, seed=seed)
    else:
        raise ValueError(f"unknown test type {test_type!r} (expected diag/10det)")
    return netlist, tests


def response_table_for(
    circuit: str, test_type: str, seed: int = 0
) -> "Tuple[Netlist, ResponseTable]":
    """The response table over the detected collapsed faults of one cell."""
    netlist, tests = prepared_experiment(circuit, test_type, seed)
    faults = collapse(netlist)
    simulator = FaultSimulator(netlist, tests)
    detected = [f for f in faults if simulator.detection_word(f)]
    return netlist, ResponseTable.build(netlist, detected, tests)


def table6_row(
    circuit: str,
    test_type: str,
    seed: int = 0,
    lower: int = 10,
    calls: int = 100,
    progress: Optional[ProgressReporter] = None,
    cache_dir=None,
    checkpoint_dir=None,
    resume: bool = False,
) -> Table6Row:
    """Compute one row of Table 6 (``LOWER`` and ``CALLS1`` as in the paper).

    ``cache_dir`` reuses a previously stored build of the same cell
    (see ``docs/artifacts.md``); repeat sweeps then skip Procedures 1/2.
    ``checkpoint_dir`` / ``resume`` make each cell's restart loop
    resumable after a kill (see ``docs/scaling.md``).
    """
    with trace_span("table6.row", circuit=circuit, ttype=test_type):
        with trace_span("table6.prepare"):
            _, table = response_table_for(circuit, test_type, seed)
        full = FullDictionary(table)
        passfail = PassFailDictionary(table)
        built = build_dictionary(
            table,
            config=DictionaryConfig(seed=seed, calls1=calls, lower=lower),
            progress=progress,
            cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
        build = built.report
    return Table6Row(
        circuit=circuit,
        test_type=test_type,
        n_tests=table.n_tests,
        n_faults=table.n_faults,
        n_outputs=table.n_outputs,
        indist_full=full.indistinguished_pairs(),
        indist_passfail=passfail.indistinguished_pairs(),
        indist_sd_random=build.indistinguished_procedure1,
        indist_sd_replace=build.indistinguished_procedure2,
        build=build,
    )


def run_table6(
    circuits: Sequence[str] = DEFAULT_CIRCUITS,
    test_types: Sequence[str] = TEST_TYPES,
    seed: int = 0,
    lower: int = 10,
    calls: int = 100,
    progress: Optional[ProgressReporter] = None,
    cache_dir=None,
    checkpoint_dir=None,
    resume: bool = False,
) -> List[Table6Row]:
    """All requested rows, circuit-major / test-type-minor like the paper."""
    progress = progress if progress is not None else NullProgress()
    cells = [(c, t) for c in circuits for t in test_types]
    rows = []
    for done, (circuit, test_type) in enumerate(cells):
        progress.report(
            "table6", done, len(cells), circuit=circuit, ttype=test_type
        )
        rows.append(
            table6_row(
                circuit, test_type, seed=seed, lower=lower, calls=calls,
                progress=progress, cache_dir=cache_dir,
                checkpoint_dir=checkpoint_dir, resume=resume,
            )
        )
    progress.report("table6", len(cells), len(cells))
    return rows


def render_table6(rows: Sequence[Table6Row]) -> str:
    """Render rows in the layout of the paper's Table 6."""
    headers = (
        "circuit",
        "Ttype",
        "|T|",
        "size full",
        "size p/f",
        "size s/d",
        "ind full",
        "ind p/f",
        "ind s/d rand",
        "ind s/d repl",
    )
    body = [
        (
            row.circuit,
            row.test_type,
            row.n_tests,
            row.sizes.full,
            row.sizes.pass_fail,
            row.sizes.same_different,
            row.indist_full,
            row.indist_passfail,
            row.indist_sd_random,
            row.sd_replace_or_none,
        )
        for row in rows
    ]
    return format_table(headers, body, "Table 6: Experimental results")
