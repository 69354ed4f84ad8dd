"""Artifact format: round trips, degenerate shapes, strict validation."""

import struct

import pytest

from repro.api import DictionaryConfig, build
from repro.store import (
    FORMAT_VERSION,
    MAGIC,
    ArtifactError,
    ArtifactFormatError,
    ArtifactHashError,
    ArtifactVersionError,
    load_artifact,
    save_artifact,
    semantic_digest,
    table_content_hash,
)
from tests.util import distinct_table, random_table


def _built(n_faults=8, n_tests=6, n_outputs=3, seed=1, density=0.5,
           kind="same-different", calls=5):
    table = random_table(n_faults, n_tests, n_outputs, seed, density=density)
    return build(
        table, kind=kind, config=DictionaryConfig(seed=0, calls1=calls)
    )


def _assert_round_trip(built, path):
    save_artifact(built, path)
    loaded = load_artifact(path)
    assert loaded.kind == built.kind
    assert loaded.config == built.config
    assert loaded.table.faults == built.table.faults
    assert loaded.table.n_tests == built.table.n_tests
    assert loaded.table.outputs == built.table.outputs
    for i in range(built.table.n_faults):
        assert loaded.table.full_row(i) == built.table.full_row(i)
    assert loaded.table.good_output_words == built.table.good_output_words
    left, right = loaded.table.interned, built.table.interned
    assert left.cols == right.cols
    assert [c.typecode for c in left.cols] == [c.typecode for c in right.cols]
    assert left.sigs == right.sigs
    assert left.sig_ids == right.sig_ids
    assert left.det_words == right.det_words
    if built.kind == "same-different":
        assert loaded.dictionary.baselines == built.dictionary.baselines
        assert loaded.report.as_dict() == built.report.as_dict()
    return loaded


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["same-different", "pass-fail", "full"])
    def test_kinds(self, tmp_path, kind):
        loaded = _assert_round_trip(_built(kind=kind), tmp_path / "a.rfd")
        assert loaded.dictionary.kind == _built(kind=kind).dictionary.kind

    def test_content_hash_matches_recomputation(self, tmp_path):
        built = _built()
        written = save_artifact(built, tmp_path / "a.rfd")
        assert written == table_content_hash(built.table, built.kind, built.config)
        # Loading with the right expected hash succeeds...
        load_artifact(tmp_path / "a.rfd", expected_hash=written)
        # ...and with a wrong one refuses.
        with pytest.raises(ArtifactHashError):
            load_artifact(tmp_path / "a.rfd", expected_hash="0" * 64)

    @pytest.mark.parametrize("n_ids, typecode", [(256, "B"), (257, "H")])
    def test_byte_lane_boundary(self, tmp_path, n_ids, typecode):
        """|Z_j| = 256 is the widest one-byte column; 257 takes two bytes."""
        table = distinct_table(n_ids - 1, 2)
        built = build(table, config=DictionaryConfig(seed=0, calls1=2))
        assert {col.typecode for col in table.interned.cols} == {typecode}
        loaded = _assert_round_trip(built, tmp_path / "a.rfd")
        assert semantic_digest(loaded) == semantic_digest(built)

    def test_save_is_deterministic(self, tmp_path):
        built = _built()
        save_artifact(built, tmp_path / "a.rfd")
        save_artifact(built, tmp_path / "b.rfd")
        assert (tmp_path / "a.rfd").read_bytes() == (tmp_path / "b.rfd").read_bytes()


class TestDegenerateShapes:
    def test_zero_tests(self, tmp_path):
        _assert_round_trip(_built(n_tests=0, density=0.0), tmp_path / "a.rfd")

    def test_zero_faults(self, tmp_path):
        loaded = _assert_round_trip(_built(n_faults=0), tmp_path / "a.rfd")
        assert loaded.table.n_faults == 0

    def test_single_fault(self, tmp_path):
        loaded = _assert_round_trip(_built(n_faults=1), tmp_path / "a.rfd")
        assert loaded.table.n_faults == 1

    def test_all_pass_responses(self, tmp_path):
        loaded = _assert_round_trip(_built(density=0.0), tmp_path / "a.rfd")
        assert all(
            sig == () for i in range(loaded.table.n_faults)
            for sig in loaded.table.full_row(i)
        )


class TestValidation:
    def test_truncated_anywhere_raises_artifact_error(self, tmp_path):
        path = tmp_path / "a.rfd"
        save_artifact(_built(), path)
        blob = path.read_bytes()
        # Cut at a spread of offsets: inside the preamble, the header, and
        # the payload.  Every cut must surface as ArtifactError, never as
        # garbage data or a non-artifact exception.
        for cut in (0, 3, 10, 40, 69, len(blob) // 2, len(blob) - 1):
            clipped = tmp_path / f"cut{cut}.rfd"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(ArtifactError):
                load_artifact(clipped)

    def test_corrupted_payload_raises(self, tmp_path):
        path = tmp_path / "a.rfd"
        save_artifact(_built(), path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.rfd"
        save_artifact(_built(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactFormatError):
            load_artifact(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "a.rfd"
        save_artifact(_built(), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack(">H", FORMAT_VERSION + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactVersionError):
            load_artifact(path)

    def test_header_is_json_not_pickle(self, tmp_path):
        # The format must never unpickle: the bytes after the preamble are
        # a length-prefixed JSON header.
        path = tmp_path / "a.rfd"
        save_artifact(_built(), path)
        blob = path.read_bytes()
        preamble = struct.calcsize(">4sH32s32s")
        assert blob[:4] == MAGIC
        (header_len,) = struct.unpack_from(">I", blob, preamble)
        header = blob[preamble + 4 : preamble + 4 + header_len]
        import json

        doc = json.loads(header.decode("utf-8"))
        assert doc["kind"] in ("same-different", "pass-fail", "full")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "nope.rfd")
