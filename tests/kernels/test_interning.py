"""The interned columns: a response table's one stored form.

A :class:`ResponseTable` interns the per-fault ``test -> signature``
dicts it is given and keeps only the columns.  Every accessor must still
answer what those dicts say, cell by cell, with ids in the first-fault
order that :meth:`ResponseTable.failing_signatures` reports, so that
candidate index == signature id for every kernel.  The detected entries
interning lays out must agree with the columns, whether they come from
interning or are derived from columns alone.
"""

from __future__ import annotations

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import Fault
from repro.sim import PASS, InternedTable, ResponseTable, TestSet
from tests.util import distinct_table, random_table


@st.composite
def tables(draw):
    n_faults = draw(st.integers(min_value=0, max_value=30))
    n_tests = draw(st.integers(min_value=0, max_value=8))
    n_outputs = draw(st.integers(min_value=1, max_value=4))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_table(n_faults, n_tests, n_outputs, seed, density=density)


@st.composite
def failing_tables(draw):
    """``(failing, table)``: per-fault dicts, in a random test order per
    fault, and the table built from them."""
    n_faults = draw(st.integers(min_value=0, max_value=30))
    n_tests = draw(st.integers(min_value=0, max_value=8))
    n_outputs = draw(st.integers(min_value=1, max_value=4))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    failing = []
    for _ in range(n_faults):
        detecting = [j for j in range(n_tests) if rng.random() < density]
        rng.shuffle(detecting)
        failing.append({
            j: tuple(sorted(rng.sample(range(n_outputs), rng.randint(1, n_outputs))))
            for j in detecting
        })
    return failing, _table(failing, n_tests, n_outputs)


def _table(failing, n_tests, n_outputs):
    return ResponseTable(
        tuple(f"z{o}" for o in range(n_outputs)),
        [Fault(f"f{i}", 0) for i in range(len(failing))],
        TestSet(tuple(f"i{b}" for b in range(4)), range(n_tests)),
        failing,
        {f"z{o}": o for o in range(n_outputs)},
    )


def _grouped(failing, test_index):
    """The reference ``Z_j`` less PASS: signature -> faults, in first-fault
    order, straight from the dicts."""
    groups = {}
    for i, row in enumerate(failing):
        if test_index in row:
            groups.setdefault(row[test_index], []).append(i)
    return groups


def _entries(interned):
    return [(list(faults), list(ids)) for faults, ids in interned.entries]


@settings(max_examples=60, deadline=None)
@given(case=failing_tables(), data=st.data())
def test_interning_matches_the_grouped_reference(case, data):
    failing, table = case
    interned = table.interned
    k = table.n_tests
    for j in range(k):
        groups = _grouped(failing, j)
        signatures = list(groups)
        assert table.failing_signatures(j) == signatures
        assert table.candidate_signatures(j) == [PASS] + signatures
        assert table.failing_groups(j) == list(groups.values())
        assert table.detected_indices(j) == [
            i for group in groups.values() for i in group
        ]
        assert interned.sigs[j] == [PASS] + signatures
        assert interned.sig_ids[j] == {
            sig: sid for sid, sig in enumerate(interned.sigs[j])
        }
        assert list(interned.cols[j]) == [
            signatures.index(row[j]) + 1 if j in row else 0 for row in failing
        ]
    for i, row in enumerate(failing):
        assert [table.signature(i, j) for j in range(k)] == [
            row.get(j, PASS) for j in range(k)
        ]
        assert [table.detects(j, i) for j in range(k)] == [j in row for j in range(k)]
        assert table.full_row(i) == tuple(row.get(j, PASS) for j in range(k))
        assert table.detection_word(i) == sum(1 << j for j in row)

    # A subset keeps the chosen columns, ids in first-fault order: the
    # table of the remapped dicts, cell for cell.
    chosen = data.draw(
        st.lists(st.sampled_from(range(k)), unique=True) if k else st.just([]),
        label="chosen",
    )
    sub = table.subset(chosen)
    fresh = _table(
        [{new: row[old] for new, old in enumerate(chosen) if old in row}
         for row in failing],
        len(chosen), table.n_outputs,
    )
    assert sub.interned.sigs == fresh.interned.sigs
    assert [list(c) for c in sub.interned.cols] == [
        list(c) for c in fresh.interned.cols
    ]
    assert _entries(sub.interned) == _entries(fresh.interned)
    assert list(sub.tests) == chosen
    for i in range(table.n_faults):
        assert sub.full_row(i) == fresh.full_row(i)
        assert sub.detection_word(i) == fresh.detection_word(i)
    for j in range(len(chosen)):
        assert sub.failing_groups(j) == fresh.failing_groups(j)


@settings(max_examples=40, deadline=None)
@given(table=tables())
def test_entries_are_each_tests_detected_cells(table):
    interned = table.interned
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
@given(case=failing_tables())
def test_groups_read_off_the_interned_view_match_the_signature_walk(case):
    """A table made from columns alone (the artifact loader's) derives its
    entries, and so its groups, from the columns: they must still be the
    dicts' signature groups."""
    failing, table = case
    loaded = ResponseTable.from_columns(
        table.outputs, table.faults, table.tests,
        table.interned.cols, table.interned.sigs, table.good_output_words,
    )
    assert "_entries" not in loaded.interned.__dict__
    for j in range(loaded.n_tests):
        groups = _grouped(failing, j)
        assert loaded.failing_signatures(j) == list(groups)
        assert loaded.failing_groups(j) == list(groups.values())
    assert [loaded.detection_word(i) for i in range(loaded.n_faults)] == [
        sum(1 << j for j in row) for row in failing
    ]


def test_entries_pickle_with_the_table():
    table = random_table(20, 5, 3, seed=4)
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
    interned = table.interned
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
