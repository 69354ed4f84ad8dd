"""The paper's worked example (Section 2/3, Tables 1-5), reproduced exactly.

Four faults, two tests, two outputs.  The concrete output vectors are:

====  ====  ====
row   t0    t1
====  ====  ====
ff    00    11
f0    00    10
f1    10    11
f2    01    10
f3    01    01
====  ====  ====

With these responses the paper's narrative holds verbatim: the full
dictionary distinguishes all six pairs, the pass/fail dictionary misses
(f2, f3), the baseline candidates for t0 score dist(00)=3, dist(10)=3,
dist(01)=4 (Table 4), z_bl,0 = 01 is selected, z_bl,1 = 10 distinguishes
the remaining pairs (Table 5), and the resulting same/different dictionary
(Table 3) distinguishes every pair.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..dictionaries import (
    DictionarySizes,
    FaultPartition,
    FullDictionary,
    PassFailDictionary,
    SameDifferentDictionary,
    select_baselines,
)
from ..dictionaries.samediff import _candidate_distances
from ..faults.model import Fault
from ..sim.patterns import TestSet
from ..sim.responses import ResponseTable
from .reporting import format_table

#: The example's response matrix as output-vector strings.
EXAMPLE_RESPONSES: Dict[str, Tuple[str, str]] = {
    "ff": ("00", "11"),
    "f0": ("00", "10"),
    "f1": ("10", "11"),
    "f2": ("01", "10"),
    "f3": ("01", "01"),
}


def example_table() -> ResponseTable:
    """The worked example as a :class:`ResponseTable`."""
    faults = [Fault(f"f{i}", 0) for i in range(4)]
    tests = TestSet(("i0",), [0, 1])
    ff = EXAMPLE_RESPONSES["ff"]
    failing: List[Dict[int, tuple]] = []
    for i in range(4):
        vectors = EXAMPLE_RESPONSES[f"f{i}"]
        row: Dict[int, tuple] = {}
        for j in range(2):
            flips = tuple(
                o for o in range(2) if vectors[j][o] != ff[j][o]
            )
            if flips:
                row[j] = flips
        failing.append(row)
    good_words = {
        f"z{o}": sum(int(ff[j][o]) << j for j in range(2)) for o in range(2)
    }
    return ResponseTable(("z0", "z1"), faults, tests, failing, good_words)


def render_table1() -> str:
    """Table 1: the full fault dictionary (output vectors)."""
    rows = [
        (name, vectors[0], vectors[1])
        for name, vectors in EXAMPLE_RESPONSES.items()
    ]
    return format_table(("", "t0", "t1"), rows, "Table 1: A full fault dictionary")


def render_table2() -> str:
    """Table 2: the pass/fail fault dictionary."""
    table = example_table()
    dictionary = PassFailDictionary(table)
    rows = [("ff", 0, 0)]
    for i in range(4):
        word = dictionary.row(i)
        rows.append((f"f{i}", word & 1, (word >> 1) & 1))
    return format_table(("", "t0", "t1"), rows, "Table 2: A pass/fail fault dictionary")


def paper_baselines() -> SameDifferentDictionary:
    """The same/different dictionary with the paper's baselines (01, 10)."""
    table = example_table()
    baselines, _, _ = select_baselines(table)
    return SameDifferentDictionary(table, baselines)


def render_table3() -> str:
    """Table 3: the same/different fault dictionary."""
    dictionary = paper_baselines()
    rows = [("bl", dictionary.baseline_vector(0), dictionary.baseline_vector(1))]
    for i in range(4):
        word = dictionary.row(i)
        rows.append((f"f{i}", word & 1, (word >> 1) & 1))
    return format_table(
        ("", "t0", "t1"), rows, "Table 3: A same/different fault dictionary"
    )


def selection_trace(
    test_index: int, partition: FaultPartition
) -> List[Tuple[str, int]]:
    """dist(z) per candidate of ``Z_j`` against ``partition`` (Tables 4/5)."""
    table = example_table()
    trace = []
    for dist, signature, _ in _candidate_distances(table, test_index, partition):
        vector = table.signature_to_vector(signature, test_index)
        trace.append((vector, dist))
    return trace


def render_tables_4_and_5() -> str:
    """Tables 4 and 5: the baseline-selection traces for t0 and then t1."""
    table = example_table()
    partition = FaultPartition(range(table.n_faults))
    trace0 = selection_trace(0, partition)
    # Apply the t0 selection (z_bl,0 = 01) before tracing t1, as the paper does.
    best = max(trace0, key=lambda item: item[1])
    for dist, signature, members in _candidate_distances(table, 0, partition):
        if table.signature_to_vector(signature, 0) == best[0]:
            partition.split(members)
            break
    trace1 = selection_trace(1, partition)
    part4 = format_table(("z", "dist(z)"), trace0, "Table 4: Selection of z_bl,0")
    part5 = format_table(("z", "dist(z)"), trace1, "Table 5: Selection of z_bl,1")
    return part4 + "\n\n" + part5


def render_all() -> str:
    """All five example tables, plus the size comparison of Section 2."""
    table = example_table()
    sizes = DictionarySizes.of(table)
    full = FullDictionary(table)
    passfail = PassFailDictionary(table)
    samediff = paper_baselines()
    summary = format_table(
        ("dictionary", "size (bits)", "indistinguished pairs"),
        [
            ("full", sizes.full, full.indistinguished_pairs()),
            ("pass/fail", sizes.pass_fail, passfail.indistinguished_pairs()),
            ("same/different", sizes.same_different, samediff.indistinguished_pairs()),
        ],
        "Section 2 size/resolution comparison",
    )
    return "\n\n".join(
        (render_table1(), render_table2(), render_table3(), render_tables_4_and_5(), summary)
    )
