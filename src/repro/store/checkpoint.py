"""Versioned build checkpoints: resumable restart loops (``RFDC``).

An ITC-99-scale same/different build is minutes of restart folding; a
killed process used to mean starting over.  This module gives the build
a durable cursor: after each folded restart (throttled by ``every``) the
exact :class:`~repro.dictionaries.restarts.RestartFold` state — restart
cursor, stale streak, best baselines, and a partition snapshot of the
best assignment — is written atomically next to the build cache, and
``repro.api.build(checkpoint_dir=..., resume=True)`` restores it before
the first restart runs.  Because every restart's test order is a pure
function of ``(seed, restart_index)`` and restarts fold in index order,
``calls_made`` *is* the seed-stream position: a resumed build replays
the identical remaining restarts and produces the identical artifact.

File layout mirrors the ``RFDA`` artifact (all integers big-endian)::

    offset 0   magic          b"RFDC"
    offset 4   format version u16 (currently 1)
    offset 6   content hash   32 raw bytes (the bound RFDA build key)
    offset 38  body checksum  32 raw bytes (sha256 of everything after)
    offset 70  header length  u32
    offset 74  header         JSON (utf-8) — the whole checkpoint state

The *content hash* is the same input-derived key the build cache uses
(:func:`~repro.store.artifact.build_inputs_hash` /
:func:`~repro.store.artifact.table_content_hash`), so a checkpoint can
never be resumed against different build inputs: the file name is
``<hash>.rfdc`` and the preamble repeats the hash, checked on load.
Truncation or bit flips fail the body checksum with a strict
:class:`CheckpointError` subclass; a header whose partition snapshot
disagrees with its own pair counts is rejected the same way.

Metrics: ``build.checkpoint_saves`` / ``build.checkpoint_resumes``
counters, ``build.checkpoint_seconds`` timer, ``build.checkpoint_bytes``
gauge.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..obs import get_default_registry
from ..partition import FaultPartition, total_pairs
from ..sim.responses import ResponseTable, Signature

MAGIC = b"RFDC"
FORMAT_VERSION = 1

#: magic, format version, content hash, body checksum — the RFDA preamble.
_PREAMBLE = struct.Struct(">4sH32s32s")
_HEADER_LEN = struct.Struct(">I")


class CheckpointError(ValueError):
    """Base of every checkpoint validation failure."""


class CheckpointFormatError(CheckpointError):
    """The file is not a well-formed checkpoint (magic, truncation, corruption)."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint uses a format version this code does not speak."""


class CheckpointHashError(CheckpointError):
    """The checkpoint is bound to different build inputs than expected."""


@dataclass
class CheckpointState:
    """One restart-fold position, with its provenance and partition snapshot."""

    #: Build phase the cursor points into (only the restart loop
    #: checkpoints today; Procedure 2 is deterministic given its input
    #: and simply re-runs after a resume).
    phase: str
    kind: str
    #: The config portion of the build key (seed, calls1, lower,
    #: procedure2) — informational; binding is via the content hash.
    build: Dict[str, object]
    n_faults: int
    n_tests: int
    #: Restarts folded so far == the next restart index == the
    #: seed-stream position.
    calls_made: int
    stale: int
    best_distinguished: int
    best_baselines: List[Signature]
    #: ``FaultPartition.to_doc`` of the best assignment's refinement —
    #: the class-based pair state, checked against
    #: ``best_distinguished`` on load.
    partition: Dict[str, object] = field(default_factory=dict)


def _canonical(doc: object) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(
    state: CheckpointState, path: Union[str, Path], content_hash: str
) -> int:
    """Atomically write ``state`` to ``path``; returns the bytes written.

    Write-to-temp plus :func:`os.replace` — a build killed mid-save
    (SIGKILL included) leaves either the previous complete checkpoint or
    the new one, never a torn file.
    """
    header = {
        "phase": state.phase,
        "kind": state.kind,
        "build": state.build,
        "n_faults": state.n_faults,
        "n_tests": state.n_tests,
        "calls_made": state.calls_made,
        "stale": state.stale,
        "best_distinguished": state.best_distinguished,
        "best_baselines": [list(b) for b in state.best_baselines],
        "partition": state.partition,
    }
    header_bytes = _canonical(header)
    body = _HEADER_LEN.pack(len(header_bytes)) + header_bytes
    blob = (
        _PREAMBLE.pack(
            MAGIC,
            FORMAT_VERSION,
            bytes.fromhex(content_hash),
            hashlib.sha256(body).digest(),
        )
        + body
    )
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, target)
    return len(blob)


def load_checkpoint(
    path: Union[str, Path], expected_hash: Optional[str] = None
) -> CheckpointState:
    """Read and validate one checkpoint; strict errors, never garbage.

    ``expected_hash`` (hex) binds the load to specific build inputs —
    a mismatch raises :class:`CheckpointHashError`.  The header's
    partition snapshot must reproduce ``best_distinguished`` from its
    class sizes alone or the file is rejected as inconsistent.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _PREAMBLE.size + _HEADER_LEN.size:
        raise CheckpointFormatError(f"checkpoint truncated: {len(blob)} bytes")
    magic, version, stored_hash, checksum = _PREAMBLE.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad checkpoint magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format version {version} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    body = blob[_PREAMBLE.size:]
    if hashlib.sha256(body).digest() != checksum:
        raise CheckpointFormatError("checkpoint body checksum mismatch")
    if expected_hash is not None and stored_hash != bytes.fromhex(expected_hash):
        raise CheckpointHashError(
            f"checkpoint bound to content hash {stored_hash.hex()}, "
            f"expected {expected_hash}"
        )
    (header_len,) = _HEADER_LEN.unpack_from(body)
    header = json.loads(body[_HEADER_LEN.size:_HEADER_LEN.size + header_len])
    state = CheckpointState(
        phase=header["phase"],
        kind=header["kind"],
        build=header["build"],
        n_faults=header["n_faults"],
        n_tests=header["n_tests"],
        calls_made=header["calls_made"],
        stale=header["stale"],
        best_distinguished=header["best_distinguished"],
        best_baselines=[tuple(b) for b in header["best_baselines"]],
        partition=header["partition"],
    )
    if len(state.best_baselines) != state.n_tests:
        raise CheckpointFormatError(
            f"checkpoint has {len(state.best_baselines)} baselines "
            f"for {state.n_tests} tests"
        )
    snapshot = FaultPartition.from_doc(state.partition)
    expected = total_pairs(state.n_faults) - state.best_distinguished
    if snapshot.n_indices != state.n_faults:
        raise CheckpointFormatError(
            f"partition snapshot covers {snapshot.n_indices} faults, "
            f"table has {state.n_faults}"
        )
    if snapshot.indistinguished() != expected:
        raise CheckpointFormatError(
            f"partition snapshot counts {snapshot.indistinguished()} "
            f"indistinguished pairs, fold state implies {expected}"
        )
    return state


class CheckpointManager:
    """Keys checkpoints by build content hash under one directory.

    ``every`` throttles how often a session writes: a snapshot lands
    after every ``every``-th folded restart (and always on the final
    one), so big builds are not serialising a partition per restart.
    """

    def __init__(self, root: Union[str, Path], every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"checkpoint every must be >= 1, got {every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.every = every

    def path_for(self, content_hash: str) -> Path:
        return self.root / f"{content_hash}.rfdc"

    def session(
        self,
        content_hash: str,
        *,
        kind: str,
        config,
        resume: bool = False,
    ) -> "CheckpointSession":
        return CheckpointSession(
            self.path_for(content_hash),
            content_hash,
            kind=kind,
            config=config,
            every=self.every,
            resume=resume,
        )


class CheckpointSession:
    """One build's checkpoint lifecycle: restore, observe, complete.

    Constructed by :class:`CheckpointManager`; :mod:`repro.api` hands it
    to the build engine, which calls :meth:`bind` once the table is
    known, :meth:`restore_into` on the restart fold, and hangs
    :meth:`on_fold` off the fold's observer hook.  :meth:`complete`
    removes the file once the artifact exists — a finished build leaves
    no cursor behind.
    """

    def __init__(
        self,
        path: Path,
        content_hash: str,
        *,
        kind: str,
        config,
        every: int = 1,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.content_hash = content_hash
        self.kind = kind
        self.build = {
            "seed": config.seed,
            "calls1": config.calls1,
            "lower": config.lower,
            "procedure2": config.procedure2,
        }
        self.every = every
        self.table: Optional[ResponseTable] = None
        self._last_saved = 0
        #: Loaded (and validated) state of a previous killed build;
        #: ``None`` when starting fresh.
        self.resume_state: Optional[CheckpointState] = None
        if resume and self.path.exists():
            self.resume_state = load_checkpoint(self.path, self.content_hash)

    def bind(self, table: ResponseTable) -> None:
        """Attach the response table (for partition snapshots) and
        cross-check any resume state against its dimensions."""
        state = self.resume_state
        if state is not None and (
            state.n_faults != table.n_faults or state.n_tests != table.n_tests
        ):
            raise CheckpointHashError(
                f"checkpoint is for a {state.n_faults}x{state.n_tests} table, "
                f"build has {table.n_faults}x{table.n_tests}"
            )
        self.table = table

    def restore_into(self, fold) -> bool:
        """Install the resume state into a fresh restart fold.

        Returns ``True`` when a killed build's position was restored
        (the caller starts at restart ``fold.calls_made``), ``False``
        when there was nothing to resume.
        """
        state = self.resume_state
        if state is None:
            return False
        fold.restore(
            calls_made=state.calls_made,
            stale=state.stale,
            best_distinguished=state.best_distinguished,
            best_baselines=state.best_baselines,
        )
        self._last_saved = state.calls_made
        get_default_registry().counter("build.checkpoint_resumes").inc()
        return True

    def on_fold(self, fold) -> None:
        """Observer for :class:`~repro.dictionaries.restarts.RestartFold`.

        Writes a snapshot every ``every`` folded restarts and always on
        the final one (so a kill during Procedure 2 resumes with the
        complete Procedure 1 state and only replays the deterministic
        hill-climb).
        """
        if self.table is None:
            return
        due = (fold.calls_made - self._last_saved) >= self.every
        if not due and not fold.done:
            return
        from ..dictionaries.samediff import _partition_under

        registry = get_default_registry()
        with registry.timer("build.checkpoint_seconds").time():
            snapshot = _partition_under(self.table, fold.best_baselines)
            state = CheckpointState(
                phase="procedure1",
                kind=self.kind,
                build=self.build,
                n_faults=self.table.n_faults,
                n_tests=self.table.n_tests,
                calls_made=fold.calls_made,
                stale=fold.stale,
                best_distinguished=fold.best_distinguished,
                best_baselines=list(fold.best_baselines),
                partition=snapshot.to_doc(),
            )
            written = save_checkpoint(state, self.path, self.content_hash)
        self._last_saved = fold.calls_made
        registry.counter("build.checkpoint_saves").inc()
        registry.gauge("build.checkpoint_bytes").set(written)

    def complete(self) -> None:
        """Remove the checkpoint — the build reached its artifact."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
