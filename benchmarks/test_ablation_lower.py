"""Ablation bench E7: the LOWER early-termination constant.

Benchmarks one Procedure 1 call at several LOWER values and records the
resolution each achieves — quantifying the paper's observation that the
best dist(z) appears among the first few candidates of Z_j.
"""

import pytest

from repro.api import DictionaryConfig
from repro.dictionaries import select_baselines
from repro.experiments.table6 import response_table_for
from repro.kernels import PackedBackend

LOWERS = (1, 5, 10, 10**9)


@pytest.mark.parametrize("lower", LOWERS)
def test_lower_cutoff(bench, lower):
    _, table = response_table_for("p208", "diag", seed=0)
    # Pack the table before the timed call, as the dictionary build does
    # outside its timers: the case times one Procedure 1 call.
    PackedBackend().prepare(table)
    label = lower if lower < 10**9 else "inf"
    case = bench.case(f"lower_cutoff[{label}]", LOWER=label)

    _, _, distinguished = case.run(
        lambda: select_baselines(table, config=DictionaryConfig(lower=lower))
    )
    case.info(distinguished=distinguished)


def test_lower_cutoff_costs_little_resolution(bench):
    _, table = response_table_for("p208", "diag", seed=0)
    _, _, with_cutoff = select_baselines(table, config=DictionaryConfig(lower=10))
    _, _, exhaustive = select_baselines(
        table, config=DictionaryConfig(lower=10**9)
    )
    bench.case("cutoff_resolution_cost").info(
        with_cutoff=with_cutoff, exhaustive=exhaustive
    )
    assert with_cutoff >= 0.98 * exhaustive
