"""Benchmark E12: dictionary shrinking via test selection.

The "small dictionaries" baseline the paper builds on (its refs [9],
[12]): instead of changing the dictionary *organisation*, drop tests that
carry no extra diagnostic information.  Records how far each criterion
shrinks a redundant test set and what each resulting dictionary costs —
the context in which the same/different organisation's k·m overhead is
negligible.
"""

import pytest

from benchmarks.util import build_sd
from repro.dictionaries import (
    FullDictionary,
    PassFailDictionary,
    select_tests_preserving_detection,
    select_tests_preserving_resolution,
)
from repro.experiments.table6 import response_table_for
from repro.kernels import PackedBackend


@pytest.fixture(scope="module")
def table():
    _, table = response_table_for("p208", "10det", seed=0)
    # Pack the table before the cases time the selections, as the
    # dictionary build does outside its timers.
    PackedBackend().prepare(table)
    return table


def test_select_detection(bench, table):
    case = bench.case("select_detection")
    chosen = case.run(lambda: select_tests_preserving_detection(table))
    case.info(tests_before=table.n_tests, tests_after=len(chosen))
    assert len(chosen) < table.n_tests


def test_select_resolution(bench, table):
    case = bench.case("select_resolution")
    chosen = case.run(lambda: select_tests_preserving_resolution(table))
    sub = table.subset(chosen)
    assert (
        FullDictionary(sub).indistinguished_pairs()
        == FullDictionary(table).indistinguished_pairs()
    )
    samediff, _ = build_sd(sub, calls=20, seed=0)
    case.info(
        tests_before=table.n_tests,
        tests_after=len(chosen),
        pf_bits_after=PassFailDictionary(sub).size_bits,
        sd_bits_after=samediff.size_bits,
        sd_indistinguished_after=samediff.indistinguished_pairs(),
    )
