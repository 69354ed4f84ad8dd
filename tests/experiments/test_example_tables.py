"""The worked example must reproduce the paper's Tables 1-5 exactly."""

from repro.dictionaries import (
    DictionarySizes,
    FaultPartition,
    FullDictionary,
    PassFailDictionary,
)
from repro.experiments.example_tables import (
    EXAMPLE_RESPONSES,
    example_table,
    paper_baselines,
    render_all,
    render_table1,
    render_table2,
    render_table3,
    selection_trace,
)


class TestTable1:
    def test_full_dictionary_distinguishes_all(self):
        table = example_table()
        assert FullDictionary(table).indistinguished_pairs() == 0

    def test_responses_as_published(self):
        table = example_table()
        for i in range(4):
            for j in range(2):
                assert (
                    table.response_vector(i, j) == EXAMPLE_RESPONSES[f"f{i}"][j]
                )
        assert table.good_vector(0) == "00"
        assert table.good_vector(1) == "11"


class TestTable2:
    def test_passfail_misses_only_f2_f3(self):
        table = example_table()
        dictionary = PassFailDictionary(table)
        assert dictionary.indistinguished_pairs() == 1
        assert dictionary.row(2) == dictionary.row(3)
        assert dictionary.row(0) != dictionary.row(1)

    def test_paper_text_f0_f1_distinguished_by_t0(self):
        table = example_table()
        dictionary = PassFailDictionary(table)
        assert (dictionary.row(0) & 1) != (dictionary.row(1) & 1)


class TestTable3:
    def test_baselines_are_01_and_10(self):
        dictionary = paper_baselines()
        assert dictionary.baseline_vector(0) == "01"
        assert dictionary.baseline_vector(1) == "10"

    def test_all_pairs_distinguished(self):
        dictionary = paper_baselines()
        assert dictionary.indistinguished_pairs() == 0

    def test_f0_f1_and_f2_f3_distinguished_by_t1(self):
        dictionary = paper_baselines()
        bit = lambda i, j: (dictionary.row(i) >> j) & 1
        assert bit(0, 1) != bit(1, 1)
        assert bit(2, 1) != bit(3, 1)


class TestTables4And5:
    def test_table4_distances(self):
        table = example_table()
        partition = FaultPartition(range(4))
        trace = dict(selection_trace(0, partition))
        assert trace == {"00": 3, "10": 3, "01": 4}

    def test_table5_distances(self):
        table = example_table()
        partition = FaultPartition(range(4))
        # Apply the t0 selection first (split {f2, f3} from {f0, f1}).
        partition.split([2, 3])
        trace = dict(selection_trace(1, partition))
        assert trace == {"11": 1, "10": 2, "01": 1}


class TestSizes:
    def test_paper_size_comparison(self):
        sizes = DictionarySizes.of(example_table())
        assert sizes.full == 16
        assert sizes.pass_fail == 8
        assert sizes.same_different == 12


class TestRendering:
    def test_tables_render(self):
        assert "bl  01  10" in render_table3()
        assert "ff  00  11" in render_table1()
        assert "f3   1   1" in render_table2()

    def test_render_all_contains_every_table(self):
        text = render_all()
        for title in (
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Section 2",
        ):
            assert title in text
