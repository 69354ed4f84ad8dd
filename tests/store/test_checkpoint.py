"""Tests for the RFDC build-checkpoint record and its session lifecycle."""

from __future__ import annotations

import hashlib

import pytest

from repro.api import DictionaryConfig
from repro.dictionaries import FullDictionary, PassFailDictionary
from repro.obs import scoped_registry
from repro.dictionaries.restarts import RestartFold
from repro.partition import FaultPartition, total_pairs
from repro.sim import PASS
from repro.store.checkpoint import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointHashError,
    CheckpointManager,
    CheckpointState,
    CheckpointVersionError,
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from tests.util import random_table

HASH = hashlib.sha256(b"checkpoint-test").hexdigest()
OTHER_HASH = hashlib.sha256(b"different-inputs").hexdigest()


def small_state(n_faults=6, n_tests=3) -> CheckpointState:
    partition = FaultPartition(range(n_faults))
    partition.split(range(n_faults // 2))
    return CheckpointState(
        phase="procedure1",
        kind="same-different",
        build={"seed": 0, "calls1": 5, "lower": 10, "procedure2": True},
        n_faults=n_faults,
        n_tests=n_tests,
        calls_made=4,
        stale=2,
        best_distinguished=partition.distinguished(),
        best_baselines=[PASS, (0,), (1, 2)][:n_tests],
        partition=partition.to_doc(),
    )


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        path = tmp_path / "state.rfdc"
        written = save_checkpoint(small_state(), path, HASH)
        assert path.stat().st_size == written
        state = load_checkpoint(path, HASH)
        assert state.calls_made == 4
        assert state.stale == 2
        assert state.best_baselines == [PASS, (0,), (1, 2)]
        assert FaultPartition.from_doc(state.partition).sizes() == [3, 3]

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "state.rfdc"
        save_checkpoint(small_state(), path, HASH)
        save_checkpoint(small_state(), path, HASH)
        assert list(tmp_path.iterdir()) == [path]  # no .tmp left behind

    def test_load_without_expected_hash_skips_binding(self, tmp_path):
        path = tmp_path / "state.rfdc"
        save_checkpoint(small_state(), path, HASH)
        assert load_checkpoint(path).calls_made == 4


class TestStrictValidation:
    def test_truncated_file(self, tmp_path):
        path = tmp_path / "state.rfdc"
        save_checkpoint(small_state(), path, HASH)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path, HASH)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "state.rfdc"
        save_checkpoint(small_state(), path, HASH)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path, HASH)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "state.rfdc"
        save_checkpoint(small_state(), path, HASH)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (FORMAT_VERSION + 1).to_bytes(2, "big")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="version"):
            load_checkpoint(path, HASH)

    def test_flipped_body_bit(self, tmp_path):
        path = tmp_path / "state.rfdc"
        save_checkpoint(small_state(), path, HASH)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="checksum"):
            load_checkpoint(path, HASH)

    def test_wrong_content_hash(self, tmp_path):
        path = tmp_path / "state.rfdc"
        save_checkpoint(small_state(), path, HASH)
        with pytest.raises(CheckpointHashError, match="bound to"):
            load_checkpoint(path, OTHER_HASH)

    def test_baseline_count_mismatch(self, tmp_path):
        state = small_state()
        state.n_tests = 7  # baselines list still has 3 entries
        path = tmp_path / "state.rfdc"
        save_checkpoint(state, path, HASH)
        with pytest.raises(CheckpointFormatError, match="baselines"):
            load_checkpoint(path, HASH)

    def test_inconsistent_partition_snapshot(self, tmp_path):
        state = small_state()
        state.best_distinguished += 1  # snapshot no longer accounts for it
        path = tmp_path / "state.rfdc"
        save_checkpoint(state, path, HASH)
        with pytest.raises(CheckpointFormatError, match="indistinguished"):
            load_checkpoint(path, HASH)

    def test_partition_fault_count_mismatch(self, tmp_path):
        state = small_state()
        state.n_faults = 9
        state.best_distinguished = (
            total_pairs(9)
            - FaultPartition.from_doc(state.partition).indistinguished()
        )
        path = tmp_path / "state.rfdc"
        save_checkpoint(state, path, HASH)
        with pytest.raises(CheckpointFormatError, match="snapshot covers"):
            load_checkpoint(path, HASH)

    def test_errors_are_value_errors(self):
        assert issubclass(CheckpointError, ValueError)


def seeded_fold(table, observer=None) -> RestartFold:
    """A fold seeded the way the build seeds it: pass/fail floor, full ceiling."""
    floor = PassFailDictionary(table).distinguished_pairs()
    ceiling = total_pairs(table.n_faults) - FullDictionary(
        table
    ).indistinguished_pairs()
    assert floor < ceiling, "pick a table with real Procedure 1 work"
    return RestartFold(
        calls=5,
        ceiling=ceiling,
        baselines=[PASS] * table.n_tests,
        distinguished=floor,
        observer=observer,
    )


class TestManagerAndSession:
    def test_every_validation(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            CheckpointManager(tmp_path, every=0)

    def test_path_for_keys_by_hash(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.path_for(HASH).name == f"{HASH}.rfdc"

    def test_session_saves_on_every_fold_by_default(self, tmp_path):
        table = random_table(50, 7, 3, seed=2, density=0.8)
        config = DictionaryConfig(seed=0, calls1=5)
        session = CheckpointManager(tmp_path).session(
            HASH, kind="same-different", config=config
        )
        session.bind(table)
        with scoped_registry() as registry:
            fold = seeded_fold(table, observer=session.on_fold)
            fold.consume(fold.best_distinguished, fold.best_baselines)
            fold.consume(fold.best_distinguished, fold.best_baselines)
            snapshot = registry.snapshot()
        assert snapshot["counters"]["build.checkpoint_saves"] == 2
        state = load_checkpoint(session.path, HASH)
        assert state.calls_made == 2
        assert state.stale == 2

    def test_every_throttles_but_final_fold_always_saves(self, tmp_path):
        table = random_table(50, 7, 3, seed=2, density=0.8)
        config = DictionaryConfig(seed=0, calls1=5)
        session = CheckpointManager(tmp_path, every=3).session(
            HASH, kind="same-different", config=config
        )
        session.bind(table)
        with scoped_registry() as registry:
            fold = seeded_fold(table, observer=session.on_fold)
            while not fold.done:
                fold.consume(fold.best_distinguished, fold.best_baselines)
            snapshot = registry.snapshot()
        # 5 stale folds: saved at calls_made 3 and (because done) 5.
        assert snapshot["counters"]["build.checkpoint_saves"] == 2
        assert load_checkpoint(session.path, HASH).calls_made == 5

    def test_restore_into_resumes_the_cursor(self, tmp_path):
        table = random_table(50, 7, 3, seed=2, density=0.8)
        config = DictionaryConfig(seed=0, calls1=5)
        manager = CheckpointManager(tmp_path)
        first = manager.session(HASH, kind="same-different", config=config)
        first.bind(table)
        fold = seeded_fold(table, observer=first.on_fold)
        fold.consume(fold.best_distinguished, fold.best_baselines)

        second = manager.session(
            HASH, kind="same-different", config=config, resume=True
        )
        second.bind(table)
        with scoped_registry() as registry:
            resumed = seeded_fold(table)
            assert second.restore_into(resumed)
            snapshot = registry.snapshot()
        assert resumed.calls_made == 1
        assert resumed.resumed_calls == 1
        assert resumed.stale == 1
        assert snapshot["counters"]["build.checkpoint_resumes"] == 1

    def test_restore_into_without_state_is_a_noop(self, tmp_path):
        table = random_table(50, 7, 3, seed=2, density=0.8)
        session = CheckpointManager(tmp_path).session(
            HASH, kind="same-different", config=DictionaryConfig()
        )
        session.bind(table)
        fold = seeded_fold(table)
        assert not session.restore_into(fold)
        assert fold.calls_made == 0

    def test_bind_rejects_dimension_mismatch(self, tmp_path):
        table = random_table(50, 7, 3, seed=2, density=0.8)
        config = DictionaryConfig(seed=0, calls1=5)
        manager = CheckpointManager(tmp_path)
        first = manager.session(HASH, kind="same-different", config=config)
        first.bind(table)
        fold = seeded_fold(table, observer=first.on_fold)
        fold.consume(fold.best_distinguished, fold.best_baselines)

        other = random_table(20, 4, 3, seed=2, density=0.8)
        second = manager.session(
            HASH, kind="same-different", config=config, resume=True
        )
        with pytest.raises(CheckpointHashError, match="table"):
            second.bind(other)

    def test_complete_removes_the_file(self, tmp_path):
        table = random_table(50, 7, 3, seed=2, density=0.8)
        session = CheckpointManager(tmp_path).session(
            HASH, kind="same-different", config=DictionaryConfig(seed=0, calls1=5)
        )
        session.bind(table)
        fold = seeded_fold(table, observer=session.on_fold)
        fold.consume(fold.best_distinguished, fold.best_baselines)
        assert session.path.exists()
        session.complete()
        assert not session.path.exists()
        session.complete()  # idempotent

    def test_resume_with_no_file_starts_fresh(self, tmp_path):
        session = CheckpointManager(tmp_path).session(
            HASH,
            kind="same-different",
            config=DictionaryConfig(),
            resume=True,
        )
        assert session.resume_state is None
