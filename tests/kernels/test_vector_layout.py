"""Property tests: interning → word-array packing → unpacking is exact.

The vector backend trusts :class:`~repro.kernels.interning.VectorLayout`
to be a lossless re-expression of the interned table.  Hypothesis builds
random tables and asserts, for **both** construction paths (numpy, and
pure-Python ``array`` — reached by blocking ``import numpy``), that

* the two paths produce byte-identical arrays,
* unpacking recovers ``cols`` and ``det_words`` exactly,
* the CSR detected-entry encoding agrees with the columns and the
  signature maps (``sigs``/``sig_ids``) entry for entry,
* the layout pickles with its table and sheds any cached numpy views.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import VectorBackend, build_vector_layout, unpack_vector_layout
from repro.kernels.interning import WORD_BITS
from tests.util import numpy_import_blocked, random_table


@st.composite
def tables(draw):
    n_faults = draw(st.integers(min_value=0, max_value=20))
    n_tests = draw(st.integers(min_value=0, max_value=9))
    n_outputs = draw(st.integers(min_value=1, max_value=3))
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_table(n_faults, n_tests, n_outputs, seed, density=density)


def _layout_fields(layout):
    return (
        layout.n_faults,
        layout.n_tests,
        layout.det_width,
        list(layout.col_words),
        list(layout.det_offsets),
        list(layout.det_index),
        list(layout.det_sid),
        list(layout.det_blocks),
    )


@settings(max_examples=50, deadline=None)
@given(table=tables())
def test_pack_unpack_round_trips_exactly(table):
    interned = table.interned
    with numpy_import_blocked():
        layout = build_vector_layout(interned)

    # Dimensions and invariants.
    k, n = interned.n_tests, interned.n_faults
    assert layout.det_width == (k + WORD_BITS - 1) // WORD_BITS
    assert len(layout.col_words) == n * k
    assert list(layout.det_offsets) == sorted(layout.det_offsets)
    assert len(layout.det_index) == len(layout.det_sid) == layout.det_offsets[k]

    # Ids and detection words come back exactly.
    cols, det_words = unpack_vector_layout(layout)
    assert cols == interned.cols
    assert det_words == interned.det_words

    # The CSR entries agree with the columns and the signature maps.
    for j in range(k):
        lo, hi = layout.det_offsets[j], layout.det_offsets[j + 1]
        entries = [
            (layout.det_index[pos], layout.det_sid[pos])
            for pos in range(lo, hi)
        ]
        expected = [(i, sid) for i, sid in enumerate(interned.cols[j]) if sid]
        assert entries == expected
        for i, sid in entries:
            signature = interned.sigs[j][sid]
            assert interned.sig_ids[j][signature] == sid
            assert signature != ()  # detected entries are failing


@settings(max_examples=50, deadline=None)
@given(table=tables())
def test_numpy_and_python_layouts_are_byte_identical(table):
    pytest.importorskip("numpy")
    interned = table.interned
    with numpy_import_blocked():
        via_python = build_vector_layout(interned)
    via_numpy = build_vector_layout(interned)
    assert _layout_fields(via_numpy) == _layout_fields(via_python)
    # And bytes, not just values: the buffers feed zero-copy numpy views.
    for field in ("col_words", "det_offsets", "det_index", "det_sid",
                  "det_blocks"):
        assert getattr(via_numpy, field).tobytes() == (
            getattr(via_python, field).tobytes()
        ), field


@settings(max_examples=25, deadline=None)
@given(table=tables())
def test_layout_pickles_with_table_and_sheds_views(table):
    backend = VectorBackend()
    backend.prepare(table)
    restored = pickle.loads(pickle.dumps(table))
    layout = restored.interned.vector
    assert "_np_views" not in layout.__dict__, (
        "cached numpy views must not ship in the pickle"
    )
    assert _layout_fields(layout) == _layout_fields(table.interned.vector)


def test_blocked_numpy_builds_the_same_layout_and_backend_falls_back():
    table = random_table(12, 6, 2, seed=9, density=0.4)
    reference = build_vector_layout(table.interned)
    with numpy_import_blocked():
        auto = build_vector_layout(table.interned)  # auto-detect: no numpy
        backend = VectorBackend()  # auto-detect: must fall back
    assert _layout_fields(auto) == _layout_fields(reference)
    assert not backend.uses_numpy
    run = backend.procedure1(table, range(table.n_tests), 10)
    from repro.kernels import get_backend

    want = get_backend("naive").procedure1(table, range(table.n_tests), 10)
    assert (run.baselines, run.distinguished, run.evaluated, run.cutoffs,
            run.winners) == (want.baselines, want.distinguished,
                             want.evaluated, want.cutoffs, want.winners)


def test_word_boundary_tables_round_trip():
    """n_tests at and across the 64-bit word boundary."""
    for k in (63, 64, 65):
        table = random_table(5, k, 2, seed=k, density=0.5)
        with numpy_import_blocked():
            layout = build_vector_layout(table.interned)
        assert layout.det_width == (k + 63) // 64
        cols, det_words = unpack_vector_layout(layout)
        assert cols == table.interned.cols
        assert det_words == table.interned.det_words
