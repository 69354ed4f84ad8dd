"""The versioned on-disk dictionary artifact.

A dictionary is computed once and then serves many failing chips — the
build→serve boundary the paper assumes.  This module makes the built
dictionary a first-class asset: :func:`save_artifact` writes a
:class:`~repro.api.BuiltDictionary` (dictionary rows, build provenance
*and* the interned response table) to a single self-describing binary
file, and :func:`load_artifact` restores it without a netlist, test
generator or fault simulator in the loop.

File layout (all integers big-endian)::

    offset 0   magic          b"RFDA"
    offset 4   format version u16 (currently 1)
    offset 6   content hash   32 raw bytes (sha256 of the build inputs)
    offset 38  body checksum  32 raw bytes (sha256 of everything after it)
    offset 70  header length  u32
    offset 74  header         JSON (utf-8)
    ...        payload        bit-packed response columns

The header carries the catalogue data (outputs, faults, test vectors,
fault-free output words, the per-test distinct failing signatures, the
baseline ids, config and build report); the payload packs the interned
signature-id columns — ``ceil(log2 |Z_j|)`` bits per (fault, test),
column after column, LSB-first: the bit order of
:class:`~repro.dictionaries.storage.BitWriter`.  Everything is JSON +
packed integers: loading never unpickles anything, and any truncation or
bit flip fails the body checksum with a strict :class:`ArtifactError`
subclass instead of yielding garbage.

Both directions work one column at a time, not one (fault, test) cell
at a time in Python.  :func:`pack_columns` turns a column into one
binary-digit string and so one integer; :func:`unpack_columns` reads
each column back from its own byte range, one bit position of every id
at a time.  The loader then derives the per-fault ``failing`` dicts and
the dictionary rows from those columns in per-column passes; only the
dicts take a Python step, one per detected entry.  The pass/fail
``det_words`` are derived on first use, which a served same/different
artifact never makes.  The bytes are the ones the earlier per-cell
``BitWriter`` loop wrote, so the format (version 1) is unchanged.

The *content hash* identifies the build inputs, not the file bytes: it is
the cache key of :class:`~repro.store.cache.BuildCache` (see
``docs/artifacts.md`` for the key rules).
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from dataclasses import asdict, fields
from itertools import compress
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..api import BuiltDictionary, DictionaryConfig, KINDS
from ..circuit.bench import dumps as bench_dumps
from ..circuit.netlist import Netlist
from ..dictionaries.full import FullDictionary
from ..dictionaries.passfail import PassFailDictionary
from ..dictionaries.samediff import BuildReport, SameDifferentDictionary
from ..faults.model import Fault
from ..kernels.interning import InternedTable, id_typecode
from ..obs import get_default_registry
from ..sim.patterns import TestSet
from ..sim.responses import PASS, ResponseTable, Signature

MAGIC = b"RFDA"
FORMAT_VERSION = 1

#: magic, format version, content hash, body checksum.
_PREAMBLE = struct.Struct(">4sH32s32s")
_HEADER_LEN = struct.Struct(">I")


class ArtifactError(ValueError):
    """Base of every artifact validation failure."""


class ArtifactFormatError(ArtifactError):
    """The file is not a well-formed artifact (magic, truncation, corruption)."""


class ArtifactVersionError(ArtifactError):
    """The artifact uses a format version this code does not speak."""


class ArtifactHashError(ArtifactError):
    """The artifact's content hash does not match the expected build inputs."""


# ----------------------------------------------------------------------
# content hashing (the cache key)
# ----------------------------------------------------------------------
def _canonical(doc: object) -> bytes:
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), default=_as_list
    ).encode()


def _as_list(value: object) -> list:
    """Id columns (:class:`array.array`) hash as the lists they hold."""
    if isinstance(value, array):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _build_key(kind: str, config: DictionaryConfig) -> Dict[str, object]:
    """The config portion of the cache key: every config field."""
    return {
        "kind": kind,
        "seed": config.seed,
        "calls1": config.calls1,
        "lower": config.lower,
        "procedure2": config.procedure2,
    }


def _faults_doc(faults: Sequence[Fault]) -> List[List[object]]:
    return [[f.line, f.stuck_at, f.input_of] for f in faults]


def _tests_doc(tests: TestSet) -> Dict[str, object]:
    return {
        "inputs": list(tests.inputs),
        "vectors": [format(t, "x") for t in tests],
    }


def build_inputs_hash(
    netlist: Netlist,
    faults: Sequence[Fault],
    tests: TestSet,
    kind: str,
    config: DictionaryConfig,
) -> str:
    """Cache key for a ``netlist``/``faults``/``tests`` build — computable
    *before* any fault simulation, which is what lets a cache hit skip the
    simulator entirely."""
    doc = {
        "netlist": bench_dumps(netlist),
        "faults": _faults_doc(faults),
        "tests": _tests_doc(tests),
        "build": _build_key(kind, config),
    }
    return hashlib.sha256(_canonical(doc)).hexdigest()


def table_content_hash(
    table: ResponseTable, kind: str, config: DictionaryConfig
) -> str:
    """Cache key for a prepared-table build: the full response content.

    Distinct from :func:`build_inputs_hash` by construction — the two
    entry paths hash different inputs and never alias each other's cache
    entries.
    """
    # ``(test, signature)`` pairs encode as the ``[j, [outputs]]`` lists
    # this hash has always covered.
    responses = [table.failing_items(i) for i in range(table.n_faults)]
    doc = {
        "outputs": list(table.outputs),
        "faults": _faults_doc(table.faults),
        "tests": _tests_doc(table.tests),
        "good": {net: format(w, "x") for net, w in table.good_output_words.items()},
        "responses": responses,
        "build": _build_key(kind, config),
    }
    return hashlib.sha256(_canonical(doc)).hexdigest()


def semantic_digest(built: BuiltDictionary) -> str:
    """Hash of what a build *produced*, execution details excluded.

    The content hash identifies build inputs; this digest identifies
    outputs: kind, key config, chosen baselines, packed columns and the
    execution-independent report fields.  Two builds of the same inputs
    — killed-and-resumed or uninterrupted — must agree here, which is
    what the checkpoint determinism gates compare.  Wall-clock seconds
    are excluded because they legitimately vary run to run.
    """
    table = built.table
    interned = table.interned
    baselines: Optional[List[Optional[int]]] = None
    if built.kind == "same-different":
        baselines = [
            interned.sig_ids[j].get(b)
            for j, b in enumerate(built.dictionary.baselines)
        ]
    report = None
    if built.report is not None:
        report = built.report.as_dict()
        for volatile in ("procedure1_seconds", "procedure2_seconds"):
            report.pop(volatile)
    doc = {
        "kind": built.kind,
        "build": _build_key(built.kind, built.config),
        "baselines": baselines,
        "cols": interned.cols,
        "report": report,
    }
    return hashlib.sha256(_canonical(doc)).hexdigest()


# ----------------------------------------------------------------------
# the payload: bit-packed id columns
# ----------------------------------------------------------------------
#: ASCII binary digits -> the bit values 0 and 1.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _widths(sigs: Sequence[Sequence[Signature]]) -> List[int]:
    """Bits per id of each column: ``ceil(log2 |Z_j|)``, 0 when ``|Z_j| == 1``."""
    return [(len(sigs_j) - 1).bit_length() for sigs_j in sigs]


def pack_columns(
    cols: Sequence[Sequence[int]], widths: Sequence[int]
) -> Tuple[bytes, int]:
    """``(payload, bit count)``: every id of column ``j`` in ``widths[j]``
    bits, LSB-first, column after column.

    These are the bytes a :class:`~repro.dictionaries.storage.BitWriter`
    writing each id in turn would produce.  Each column is spelled as one
    string of binary digits (last fault first) and parsed as one integer.
    """
    stream = 0
    position = 0
    for col, width in zip(cols, widths):
        if not width or not col:
            continue
        digits = [format(sid, f"0{width}b") for sid in range(max(col) + 1)]
        stream |= int("".join(map(digits.__getitem__, reversed(col))), 2) << position
        position += width * len(col)
    return stream.to_bytes((position + 7) // 8, "little"), position


def unpack_columns(
    payload: Union[bytes, memoryview], widths: Sequence[int], n_faults: int
) -> List[array]:
    """Invert :func:`pack_columns`: each column decoded from its own bytes.

    Only the byte range holding column ``j`` is read, so no integer
    larger than one column is ever built.  Bits past the payload read as
    zero; the caller checks the declared bit count first.  Each column
    is an unsigned array of the narrowest lane that holds ``width`` bits,
    the interned columns' own layout.
    """
    cols = []
    position = 0
    for width in widths:
        bits = width * n_faults
        if not bits:
            cols.append(array("B", bytes(n_faults)))
            continue
        chunk = int.from_bytes(
            payload[position >> 3 : (position + bits + 7) >> 3], "little"
        )
        cols.append(
            _unpack_ids((chunk >> (position & 7)) & ((1 << bits) - 1), width, n_faults)
        )
        position += bits
    return cols


def _unpack_ids(chunk: int, width: int, count: int) -> array:
    """The ``count`` ids of ``width`` bits packed LSB-first in ``chunk``.

    One pass per bit position, not per id: the binary digits of ``chunk``
    (last id first) are sliced with stride ``width`` into one 0/1 byte per
    id, and Horner's rule on those byte strings accumulates every id in
    its own lane of a big integer.  The lanes are then read out through
    :mod:`array`.
    """
    digits = format(chunk, f"0{width * count}b").encode()
    ids = array(id_typecode(1 << width))
    lane = ids.itemsize
    spread = bytearray(count * lane)
    lanes = 0
    for r in range(width):  # the most significant bit of every id first
        plane = digits[r::width].translate(_DIGIT_BITS)
        if lane > 1:
            spread[lane - 1 :: lane] = plane
            plane = spread
        lanes = (lanes << 1) | int.from_bytes(plane, "big")
    ids.frombytes(lanes.to_bytes(count * lane, "little"))
    if sys.byteorder == "big":
        ids.byteswap()
    return ids


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def save_artifact(
    built: BuiltDictionary,
    path: Union[str, Path],
    *,
    content_hash: Optional[str] = None,
) -> str:
    """Write ``built`` to ``path``; returns the hex content hash stored.

    ``content_hash`` defaults to :func:`table_content_hash` over the
    built table and config; the build cache passes its own input-derived
    key instead.
    """
    registry = get_default_registry()
    with registry.timer("store.artifact_save_seconds").time():
        if built.kind not in KINDS:
            raise ArtifactError(f"cannot serialise dictionary kind {built.kind!r}")
        table = built.table
        if content_hash is None:
            content_hash = table_content_hash(table, built.kind, built.config)
        interned = table.interned  # the packed-column view, built once
        baselines: Optional[List[int]] = None
        if built.kind == "same-different":
            baselines = []
            for j, baseline in enumerate(built.dictionary.baselines):
                sid = interned.sig_ids[j].get(baseline)
                if sid is None:
                    raise ArtifactError(
                        f"baseline of test {j} is not in the candidate set Z_{j}"
                    )
                baselines.append(sid)
        payload, payload_bits = pack_columns(interned.cols, _widths(interned.sigs))
        header = {
            "kind": built.kind,
            "config": asdict(built.config),
            "report": built.report.as_dict() if built.report else None,
            "outputs": list(table.outputs),
            "faults": _faults_doc(table.faults),
            "test_inputs": list(table.tests.inputs),
            "tests": [format(t, "x") for t in table.tests],
            "good_output_words": {
                net: format(w, "x") for net, w in table.good_output_words.items()
            },
            "signatures": [sigs_j[1:] for sigs_j in interned.sigs],
            "baselines": baselines,
            "payload_bits": payload_bits,
        }
        header_bytes = _canonical(header)
        body = _HEADER_LEN.pack(len(header_bytes)) + header_bytes + payload
        blob = (
            _PREAMBLE.pack(
                MAGIC,
                FORMAT_VERSION,
                bytes.fromhex(content_hash),
                hashlib.sha256(body).digest(),
            )
            + body
        )
        Path(path).write_bytes(blob)
        registry.counter("store.artifacts_saved").inc()
        registry.gauge("store.artifact_bytes").set(len(blob))
    return content_hash


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def read_content_hash(path: Union[str, Path]) -> str:
    """The content hash from an artifact's preamble, without loading it.

    Validates only the fixed-size preamble (magic + format version) —
    enough for the serve pool to key its entries before deciding whether
    the (much more expensive) full load and checksum walk is needed.  The
    preamble is read through ``mmap`` when the platform allows, so the
    probe touches one page of the file.
    """
    try:
        with open(path, "rb") as handle:
            try:
                import mmap

                with mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                ) as view:
                    head = bytes(view[: _PREAMBLE.size])
            except (ValueError, OSError):  # empty file or no mmap support
                head = handle.read(_PREAMBLE.size)
    except OSError as exc:
        raise ArtifactFormatError(f"{path}: cannot read artifact: {exc}") from exc
    if len(head) < _PREAMBLE.size:
        raise ArtifactFormatError(
            f"{path}: {len(head)} bytes is too short for an artifact preamble"
        )
    magic, version, hash_raw, _ = _PREAMBLE.unpack_from(head)
    if magic != MAGIC:
        raise ArtifactFormatError(
            f"{path}: bad magic {magic!r} (not a dictionary artifact)"
        )
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(
            f"{path}: format version {version} (this build reads "
            f"{FORMAT_VERSION}); rebuild the artifact"
        )
    return hash_raw.hex()


def load_artifact(
    path: Union[str, Path], *, expected_hash: Optional[str] = None
) -> BuiltDictionary:
    """Restore a :class:`~repro.api.BuiltDictionary` from ``path``.

    Validation is strict: a bad magic number, unknown format version,
    failed checksum (truncation, bit rot) or — when ``expected_hash`` is
    given — a content-hash mismatch each raise their dedicated
    :class:`ArtifactError` subclass.  The restored table carries its
    interned column view, so diagnosis serves at full speed with no
    circuit files present.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ArtifactFormatError(f"{path}: cannot read artifact: {exc}") from exc
    return load_artifact_buffer(raw, name=str(path), expected_hash=expected_hash)


def load_artifact_buffer(
    raw: bytes, *, name: str = "<buffer>", expected_hash: Optional[str] = None
) -> BuiltDictionary:
    """:func:`load_artifact` over an in-memory buffer.

    ``raw`` may be any bytes-like object — the serve pool passes a
    memory-mapped view of the file so validation streams straight off the
    page cache; ``name`` labels error messages.
    """
    registry = get_default_registry()
    with registry.timer("store.artifact_load_seconds").time():
        if len(raw) < _PREAMBLE.size:
            raise ArtifactFormatError(
                f"{name}: {len(raw)} bytes is too short for an artifact preamble"
            )
        magic, version, hash_raw, body_sha = _PREAMBLE.unpack_from(raw)
        if magic != MAGIC:
            raise ArtifactFormatError(
                f"{name}: bad magic {magic!r} (not a dictionary artifact)"
            )
        if version != FORMAT_VERSION:
            raise ArtifactVersionError(
                f"{name}: format version {version} (this build reads "
                f"{FORMAT_VERSION}); rebuild the artifact"
            )
        content_hash = hash_raw.hex()
        if expected_hash is not None and content_hash != expected_hash:
            raise ArtifactHashError(
                f"{name}: content hash {content_hash[:12]}… does not match the "
                f"expected build inputs {expected_hash[:12]}…"
            )
        body = bytes(memoryview(raw)[_PREAMBLE.size :])
        if hashlib.sha256(body).digest() != body_sha:
            raise ArtifactFormatError(
                f"{name}: body checksum mismatch (truncated or corrupted file)"
            )
        try:
            built = _reconstruct(body)
        except ArtifactError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, struct.error) as exc:
            raise ArtifactFormatError(f"{name}: malformed artifact body: {exc}") from exc
        registry.counter("store.artifacts_loaded").inc()
        registry.gauge("store.artifact_bytes").set(len(raw))
    return built


def _reconstruct(body: bytes) -> BuiltDictionary:
    (header_len,) = _HEADER_LEN.unpack_from(body)
    header_bytes = body[_HEADER_LEN.size : _HEADER_LEN.size + header_len]
    if len(header_bytes) != header_len:
        raise ArtifactFormatError("header extends past the end of the file")
    payload = memoryview(body)[_HEADER_LEN.size + header_len :]
    header = json.loads(header_bytes)

    kind = header["kind"]
    if kind not in KINDS:
        raise ArtifactFormatError(f"unknown dictionary kind {kind!r}")
    config = _restore_config(header["config"])
    report = _restore_report(header["report"])
    outputs = tuple(header["outputs"])
    faults = tuple(
        Fault(line, stuck_at, input_of)
        for line, stuck_at, input_of in header["faults"]
    )
    tests = TestSet(header["test_inputs"], (int(t, 16) for t in header["tests"]))
    good = {net: int(w, 16) for net, w in header["good_output_words"].items()}
    sigs: List[List[Signature]] = [
        [PASS] + [tuple(sig) for sig in per_test]
        for per_test in header["signatures"]
    ]
    n_faults, n_tests = len(faults), len(sigs)
    if n_tests != len(tests):
        raise ArtifactFormatError(
            f"{n_tests} signature columns for {len(tests)} tests"
        )
    payload_bits = int(header["payload_bits"])
    if (payload_bits + 7) // 8 != len(payload):
        raise ArtifactFormatError(
            f"payload is {len(payload)} bytes but header declares "
            f"{payload_bits} bits"
        )
    widths = _widths(sigs)
    if sum(widths) * n_faults != payload_bits:
        raise ArtifactFormatError(
            f"payload holds {sum(widths) * n_faults} bits of columns, header "
            f"declares {payload_bits}"
        )

    # Column-at-a-time from here on (this is the warm path of the build
    # cache): decode, range-check, then fill the per-fault dicts.
    cols = unpack_columns(payload, widths, n_faults)
    failing: List[Dict[int, Signature]] = [{} for _ in range(n_faults)]
    for j, (col, sigs_j) in enumerate(zip(cols, sigs)):
        top = max(col, default=0)
        if top >= len(sigs_j):
            raise ArtifactFormatError(f"signature id {top} out of range for test {j}")
        for row, sid in zip(compress(failing, col), filter(None, col)):
            row[j] = sigs_j[sid]

    table = ResponseTable(outputs, faults, tests, failing, good)
    table.adopt_interned(InternedTable.from_columns(n_faults, cols, sigs))

    if kind == "same-different":
        ids = header["baselines"]
        if ids is None or len(ids) != n_tests:
            raise ArtifactFormatError("same-different artifact without baselines")
        baselines = []
        for j, sid in enumerate(ids):
            if not 0 <= sid < len(sigs[j]):
                raise ArtifactFormatError(
                    f"baseline id {sid} out of range for test {j}"
                )
            baselines.append(sigs[j][sid])
        dictionary = SameDifferentDictionary(table, baselines)
    elif kind == "pass-fail":
        dictionary = PassFailDictionary(table)
    else:
        dictionary = FullDictionary(table)
    return BuiltDictionary(dictionary, table, kind, config, report)


def _restore_config(doc: Dict[str, object]) -> DictionaryConfig:
    known = {f.name for f in fields(DictionaryConfig)}
    return DictionaryConfig(**{k: v for k, v in doc.items() if k in known})


def _restore_report(doc: Optional[Dict[str, object]]) -> Optional[BuildReport]:
    if doc is None:
        return None
    known = {f.name for f in fields(BuildReport)}
    return BuildReport(**{k: v for k, v in doc.items() if k in known})
