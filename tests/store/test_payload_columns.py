"""The artifact payload codec against the per-cell reference.

:func:`~repro.store.artifact.pack_columns` builds the payload one column
at a time; the reference is the loop it replaced, one
:class:`~repro.dictionaries.storage.BitWriter` write per (fault, test)
cell.  The bytes must be equal, and
:func:`~repro.store.artifact.unpack_columns` must give the columns back.
The shapes cover zero-width columns (``|Z_j| == 1``), 0 and 1 faults,
0 tests, and columns of 9 and more bits.

The second half crafts artifacts whose checksum is valid but whose
columns are not, and checks that each is refused with
:class:`~repro.store.ArtifactFormatError`.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import DictionaryConfig, build
from repro.dictionaries.storage import BitWriter
from repro.faults.model import Fault
from repro.sim.patterns import TestSet
from repro.sim.responses import ResponseTable
from repro.store import ArtifactFormatError, load_artifact_buffer, save_artifact
from repro.store.artifact import (
    _HEADER_LEN,
    _PREAMBLE,
    FORMAT_VERSION,
    MAGIC,
    _widths,
    pack_columns,
    unpack_columns,
)
from tests.util import random_table


def bitwriter_payload(cols, widths):
    """The per-cell reference: one ``BitWriter.write`` per id."""
    writer = BitWriter()
    for col, width in zip(cols, widths):
        if not width:
            continue
        for sid in col:
            writer.write(sid, width)
    return writer.to_bytes(), writer.bit_count


@st.composite
def tables(draw):
    n_faults = draw(st.integers(min_value=0, max_value=40))
    n_tests = draw(st.integers(min_value=0, max_value=8))
    n_outputs = draw(st.integers(min_value=1, max_value=10))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_table(n_faults, n_tests, n_outputs, seed, density=density)


def wide_table():
    """More than 256 distinct failing signatures under each test."""
    table = random_table(600, 2, 12, 7, density=1.0)
    assert min(_widths(table.interned.sigs)) >= 9
    return table


def assert_codec_matches_reference(table):
    interned = table.interned
    widths = _widths(interned.sigs)
    payload, bits = pack_columns(interned.cols, widths)
    assert (payload, bits) == bitwriter_payload(interned.cols, widths)
    assert unpack_columns(payload, widths, interned.n_faults) == interned.cols


@settings(max_examples=80, deadline=None)
@given(table=tables())
@example(table=random_table(0, 4, 3, 1))
@example(table=random_table(1, 4, 3, 1))
@example(table=random_table(5, 0, 3, 1))
@example(table=random_table(6, 5, 3, 1, density=0.0))
def test_payload_equals_the_per_cell_bitwriter_bytes(table):
    assert_codec_matches_reference(table)


def test_columns_of_nine_bits_and_more():
    assert_codec_matches_reference(wide_table())


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_id_width_round_trips_at_any_bit_offset(data):
    # A leading column of ``lead`` bits per id starts the column under
    # test at every alignment within a byte; widths up to 20 bits reach
    # the 1-, 2- and 4-byte lanes of the decoder.
    n = data.draw(st.integers(min_value=1, max_value=30), label="faults")
    lead = data.draw(st.integers(min_value=0, max_value=9), label="lead")
    width = data.draw(st.integers(min_value=1, max_value=20), label="width")

    def ids(bits):
        return data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << bits) - 1),
                     min_size=n, max_size=n)
        )

    cols, widths = [ids(lead), ids(width)], [lead, width]
    payload, bits = pack_columns(cols, widths)
    assert (payload, bits) == bitwriter_payload(cols, widths)
    assert [list(col) for col in unpack_columns(payload, widths, n)] == cols


# ----------------------------------------------------------------------
# malformed columns under a valid checksum
# ----------------------------------------------------------------------
def three_fault_table():
    """One test, three candidates (``PASS``, ``(0,)``, ``(1,)``): 2-bit ids."""
    faults = [Fault(f"f{i}", 0) for i in range(3)]
    failing = [{}, {0: (0,)}, {0: (1,)}]
    return ResponseTable(
        ("z0", "z1"), faults, TestSet(("i0",), [0]), failing, {"z0": 0, "z1": 0}
    )


def saved_parts(tmp_path):
    built = build(three_fault_table(), config=DictionaryConfig(seed=0, calls1=2))
    path = tmp_path / "a.rfd"
    save_artifact(built, path)
    blob = path.read_bytes()
    (header_len,) = _HEADER_LEN.unpack_from(blob, _PREAMBLE.size)
    start = _PREAMBLE.size + _HEADER_LEN.size
    header = json.loads(blob[start : start + header_len])
    _, _, content_hash, _ = _PREAMBLE.unpack_from(blob)
    return content_hash, header, blob[start + header_len :]


def reassemble(content_hash, header, payload):
    """An artifact with a fresh, valid body checksum."""
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = _HEADER_LEN.pack(len(header_bytes)) + header_bytes + payload
    checksum = hashlib.sha256(body).digest()
    return _PREAMBLE.pack(MAGIC, FORMAT_VERSION, content_hash, checksum) + body


def test_untouched_parts_reassemble_to_a_loadable_artifact(tmp_path):
    content_hash, header, payload = saved_parts(tmp_path)
    assert header["payload_bits"] == 6
    loaded = load_artifact_buffer(reassemble(content_hash, header, payload))
    assert [list(col) for col in loaded.table.interned.cols] == [[0, 1, 2]]


def test_signature_id_out_of_range(tmp_path):
    content_hash, header, _ = saved_parts(tmp_path)
    payload, _ = pack_columns([[0, 1, 3]], [2])
    with pytest.raises(ArtifactFormatError, match="out of range"):
        load_artifact_buffer(reassemble(content_hash, header, payload))


def test_baseline_id_out_of_range(tmp_path):
    content_hash, header, payload = saved_parts(tmp_path)
    header["baselines"] = [3]
    with pytest.raises(ArtifactFormatError, match="baseline id"):
        load_artifact_buffer(reassemble(content_hash, header, payload))


def test_declared_bits_disagree_with_the_columns(tmp_path):
    content_hash, header, payload = saved_parts(tmp_path)
    header["payload_bits"] = 14
    with pytest.raises(ArtifactFormatError, match="bits of columns"):
        load_artifact_buffer(reassemble(content_hash, header, payload + b"\x00"))


def test_declared_bits_disagree_with_the_payload_length(tmp_path):
    content_hash, header, payload = saved_parts(tmp_path)
    with pytest.raises(ArtifactFormatError, match="bytes but header declares"):
        load_artifact_buffer(reassemble(content_hash, header, payload + b"\x00"))
