"""Dictionary rows read off the interned columns, against per-cell loops.

Same/different and pass/fail rows, and the class counts a build report
records, are derived one column at a time
(:meth:`~repro.sim.InternedTable.rows`).  The references
here are the per-(fault, test) loops that derivation replaced:

* ``encode_row`` compares every signature with its test's baseline;
* ``encode_row`` under all-PASS baselines gives the pass/fail row;
* ``_partition_under`` refines a partition one test at a time.

Baselines are drawn from ``Z_j`` or from outside it, where a baseline
matches no fault and so sets its bit in every row.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dictionaries import PassFailDictionary, SameDifferentDictionary
from repro.dictionaries.samediff import _partition_under, _rows_under
from repro.sim import PASS
from tests.util import random_table


def encode_row(table, baselines, fault_index):
    """The per-cell reference row of one fault."""
    word = 0
    for j, baseline in enumerate(baselines):
        if table.signature(fault_index, j) != baseline:
            word |= 1 << j
    return word


@st.composite
def tables(draw):
    n_faults = draw(st.integers(min_value=0, max_value=30))
    n_tests = draw(st.integers(min_value=0, max_value=10))
    n_outputs = draw(st.integers(min_value=1, max_value=6))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_table(n_faults, n_tests, n_outputs, seed, density=density)


def draw_baselines(data, table):
    """Per test, a member of ``Z_j`` or a signature no fault produces."""
    outside = (table.n_outputs,)  # an output index past the last one
    baselines = []
    for j in range(table.n_tests):
        candidates = table.candidate_signatures(j) + [outside]
        baselines.append(data.draw(st.sampled_from(candidates), label=f"z_bl,{j}"))
    return baselines


def wide_table():
    """More than 256 distinct failing signatures under one test."""
    return random_table(600, 2, 12, 7, density=1.0)


@settings(max_examples=80, deadline=None)
@given(table=tables(), data=st.data())
@example(table=random_table(0, 3, 2, 1), data=None)
@example(table=random_table(1, 3, 2, 1), data=None)
@example(table=random_table(4, 0, 2, 1), data=None)
@example(table=wide_table(), data=None)
def test_samediff_rows_equal_the_per_cell_loop(table, data):
    if data is None:  # explicit examples: every baseline outside Z_j, then PASS
        choices = [[(table.n_outputs,)] * table.n_tests, [()] * table.n_tests]
    else:
        choices = [draw_baselines(data, table)]
    for baselines in choices:
        dictionary = SameDifferentDictionary(table, baselines)
        assert [dictionary.row(i) for i in range(table.n_faults)] == [
            encode_row(table, baselines, i) for i in range(table.n_faults)
        ]
        partition = _partition_under(table, baselines)
        assert len(set(_rows_under(table, baselines))) == partition.n_classes


@settings(max_examples=60, deadline=None)
@given(table=tables())
@example(table=random_table(0, 3, 2, 1))
@example(table=random_table(4, 0, 2, 1))
@example(table=wide_table())
def test_passfail_rows_equal_detection_words(table):
    dictionary = PassFailDictionary(table)
    expected = [
        encode_row(table, [PASS] * table.n_tests, i) for i in range(table.n_faults)
    ]
    assert [table.detection_word(i) for i in range(table.n_faults)] == expected
    assert [dictionary.row(i) for i in range(table.n_faults)] == expected
    assert table.interned.rows([0] * table.n_tests) == expected
