"""The interned view: ids, compact columns and detected entries.

Interning walks each fault's failing dict once.  Its ids must still be
the first-fault order that :meth:`ResponseTable.failing_signatures`
reports, so candidate index == signature id for every backend, and the
detected entries it lays out must agree with the columns, whether they
come from interning or are derived from columns alone.  Once a table is
interned, its signature groups are read off those entries; they must
equal the groups of the signature walk.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import InternedTable, intern_response_table
from repro.sim import PASS, ResponseTable
from tests.util import distinct_table, random_table


@st.composite
def tables(draw):
    n_faults = draw(st.integers(min_value=0, max_value=30))
    n_tests = draw(st.integers(min_value=0, max_value=8))
    n_outputs = draw(st.integers(min_value=1, max_value=4))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_table(n_faults, n_tests, n_outputs, seed, density=density)


def _entries(interned):
    return [(list(faults), list(ids)) for faults, ids in interned.entries]


@settings(max_examples=40, deadline=None)
@given(table=tables())
def test_interning_matches_the_grouped_reference(table):
    assert table._interned is None  # so the groups come from the signatures
    interned = intern_response_table(table)
    for j in range(table.n_tests):
        assert interned.sigs[j] == [PASS] + table.failing_signatures(j)
        assert interned.sig_ids[j] == {
            sig: sid for sid, sig in enumerate(interned.sigs[j])
        }
        expected = [0] * table.n_faults
        for sid, group in enumerate(table.failing_groups(j), 1):
            for i in group:
                expected[i] = sid
        assert list(interned.cols[j]) == expected
    assert interned.det_words == [
        table.detection_word(i) for i in range(table.n_faults)
    ]


@settings(max_examples=40, deadline=None)
@given(table=tables())
def test_entries_are_each_tests_detected_cells(table):
    interned = intern_response_table(table)
    expected = [
        ([i for i, sid in enumerate(col) if sid], [sid for sid in col if sid])
        for col in interned.cols
    ]
    assert _entries(interned) == expected
    derived = InternedTable.from_columns(
        interned.n_faults, interned.cols, interned.sigs
    )
    assert _entries(derived) == expected


@settings(max_examples=40, deadline=None)
@given(table=tables())
def test_groups_read_off_the_interned_view_match_the_signature_walk(table):
    expected = [
        (table.failing_signatures(j), table.failing_groups(j))
        for j in range(table.n_tests)
    ]
    fresh = ResponseTable(
        table.outputs, table.faults, table.tests,
        [table.failing_map(i) for i in range(table.n_faults)],
        table.good_output_words,
    )
    fresh.interned  # noqa: B018 - groups are now read off the interned view
    assert [
        (fresh.failing_signatures(j), fresh.failing_groups(j))
        for j in range(fresh.n_tests)
    ] == expected


def test_entries_pickle_with_the_table():
    table = random_table(20, 5, 3, seed=4)
    table.interned.entries  # noqa: B018 - materialise before pickling
    restored = pickle.loads(pickle.dumps(table)).interned
    assert "_entries" in restored.__dict__, "entries must ship, not re-derive"
    assert _entries(restored) == _entries(table.interned)


def test_columns_take_the_narrowest_lane():
    # |Z_j| = n_faults + 1: 256 ids still fit one byte, 257 do not.
    assert {c.typecode for c in distinct_table(255, 2).interned.cols} == {"B"}
    assert {c.typecode for c in distinct_table(256, 2).interned.cols} == {"H"}
    assert {c.typecode for c in random_table(9, 3, 2, seed=1).interned.cols} == {
        "B"
    }


@settings(max_examples=40, deadline=None)
@given(table=tables())
def test_det_words_of_a_column_view_are_derived_on_first_use(table):
    interned = intern_response_table(table)
    derived = InternedTable.from_columns(
        interned.n_faults, interned.cols, interned.sigs
    )
    assert "_det_words" not in derived.__dict__
    assert derived.det_words == derived.rows([0] * derived.n_tests)
    assert derived.det_words == interned.det_words
    restored = pickle.loads(pickle.dumps(derived))
    assert restored.__dict__["_det_words"] == interned.det_words


def _wide_table():
    """More than 256 distinct failing signatures under one test."""
    return random_table(600, 2, 12, 7, density=1.0)


@settings(max_examples=40, deadline=None)
@given(table=st.one_of(tables(), st.just(_wide_table())), data=st.data())
def test_masks_are_the_columns_transposed(table, data):
    """``id_masks`` and ``split_masks`` against per-cell bit loops."""
    interned = table.interned
    for j, col in enumerate(interned.cols):
        z = interned.n_candidates(j)
        expected = [0] * z
        for i, sid in enumerate(col):
            expected[sid] |= 1 << i
        assert interned.id_masks(j) == expected
        same_id = data.draw(st.sampled_from([None, *range(z)]), label=f"id{j}")
        same = 0 if same_id is None else expected[same_id]
        assert interned.split_masks(j, same_id) == [
            same, ((1 << interned.n_faults) - 1) ^ same
        ]
