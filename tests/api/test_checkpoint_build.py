"""Kill/resume determinism of checkpointed builds through the facade.

The contract: a build interrupted after any folded restart and resumed
from its RFDC checkpoint produces the *identical* dictionary — same
semantic digest, same report counts — as the uninterrupted build, and
leaves no checkpoint file behind once it completes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import DictionaryConfig, build
from repro.obs import scoped_registry
from repro.store import semantic_digest
from tests.util import distinct_table, random_table

CONFIG_KW = dict(seed=0, calls1=5)


class Stop(RuntimeError):
    """Stands in for SIGKILL: aborts the build mid-restart-loop."""


class Interrupter:
    """Progress reporter that raises after ``after`` folded restarts.

    The fold's observer (the checkpoint layer) runs *before* progress is
    reported, so anything this reporter sees is already durable — which
    is exactly the kill-window the subprocess SIGKILL benchmark hits.
    """

    def __init__(self, after: int) -> None:
        self.after = after

    def report(self, stage, done, total=None, **info):
        if stage == "build.procedure1" and done >= self.after:
            raise Stop(f"interrupted after restart {done}")


def checkpoint_files(directory) -> list:
    return sorted(Path(directory).glob("*.rfdc"))


@pytest.fixture()
def table():
    # Few tests + high detection density => pass/fail rows collide, the
    # floor is far below the ceiling, and the build runs real restarts.
    return random_table(50, 7, 3, seed=2, density=0.8)


def build_reference(table):
    with scoped_registry():
        return build(table, config=DictionaryConfig(**CONFIG_KW))


class TestResumeDeterminism:
    def test_resume_requires_checkpoint_dir(self, table):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            build(table, config=DictionaryConfig(**CONFIG_KW), resume=True)

    @pytest.mark.parametrize("after", [1, 2, 3])
    def test_killed_then_resumed_build_is_identical(self, table, tmp_path, after):
        reference = build_reference(table)
        with scoped_registry():
            with pytest.raises(Stop):
                build(
                    table,
                    config=DictionaryConfig(**CONFIG_KW),
                    checkpoint_dir=tmp_path,
                    progress=Interrupter(after),
                )
        assert len(checkpoint_files(tmp_path)) == 1, "kill left no cursor"
        with scoped_registry() as registry:
            resumed = build(
                table,
                config=DictionaryConfig(**CONFIG_KW),
                checkpoint_dir=tmp_path,
                resume=True,
            )
            snapshot = registry.snapshot()
        assert snapshot["counters"]["build.checkpoint_resumes"] == 1
        assert semantic_digest(resumed) == semantic_digest(reference)
        assert resumed.report.procedure1_calls == reference.report.procedure1_calls
        assert (
            resumed.report.classes_after_procedure2
            == reference.report.classes_after_procedure2
        )
        assert not checkpoint_files(tmp_path), "completion removes the cursor"

    def test_uninterrupted_checkpointed_build_matches_plain(self, table, tmp_path):
        reference = build_reference(table)
        with scoped_registry():
            checkpointed = build(
                table,
                config=DictionaryConfig(**CONFIG_KW),
                checkpoint_dir=tmp_path,
            )
        assert semantic_digest(checkpointed) == semantic_digest(reference)
        assert not checkpoint_files(tmp_path)

    def test_checkpoint_every_throttles_io_but_not_results(self, table, tmp_path):
        reference = build_reference(table)
        with scoped_registry() as registry:
            throttled = build(
                table,
                config=DictionaryConfig(**CONFIG_KW),
                checkpoint_dir=tmp_path,
                checkpoint_every=3,
            )
            saves = registry.snapshot()["counters"]["build.checkpoint_saves"]
        assert semantic_digest(throttled) == semantic_digest(reference)
        assert 0 < saves <= (reference.report.procedure1_calls // 3) + 1

    def test_ceiling_table_writes_no_checkpoints(self, tmp_path):
        # Every pair is distinguished by pass/fail alone: the fold is
        # done at construction, zero restarts run, nothing is written.
        table = distinct_table(8, 3)
        with scoped_registry():
            build(
                table,
                config=DictionaryConfig(**CONFIG_KW),
                checkpoint_dir=tmp_path,
            )
        assert not checkpoint_files(tmp_path)


class TestGoldenCellResume:
    """The golden Table-6 cell must survive a kill/resume bit for bit."""

    def test_golden_cell_after_kill_and_resume(self, tmp_path):
        from repro.experiments import table6_row

        golden_path = (
            Path(__file__).parent.parent
            / "experiments"
            / "golden"
            / "table6_small.json"
        )
        golden = json.loads(golden_path.read_text())["rows"][0]
        assert (golden["circuit"], golden["test_type"]) == ("p208", "diag")
        with scoped_registry():
            with pytest.raises(Stop):
                table6_row(
                    "p208",
                    "diag",
                    seed=0,
                    calls=5,
                    checkpoint_dir=tmp_path,
                    progress=Interrupter(1),
                )
        assert len(checkpoint_files(tmp_path)) == 1
        with scoped_registry():
            row = table6_row(
                "p208",
                "diag",
                seed=0,
                calls=5,
                checkpoint_dir=tmp_path,
                resume=True,
            )
        assert row.indist_sd_random == golden["indist_sd_random"]
        assert row.indist_sd_replace == golden["indist_sd_replace"]
        assert row.build.procedure1_calls == golden["procedure1_calls"]
        assert not checkpoint_files(tmp_path)
