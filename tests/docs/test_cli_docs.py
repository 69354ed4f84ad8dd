"""docs/cli.md must match the argparse tree it is generated from."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_docs_are_not_stale():
    gen = load_tool("gen_cli_docs")
    rendered = gen.render()
    on_disk = (REPO_ROOT / "docs" / "cli.md").read_text()
    assert rendered == on_disk, (
        "docs/cli.md is stale; regenerate with `python tools/gen_cli_docs.py`"
    )


def test_every_subcommand_is_documented():
    from repro.cli import build_parser

    gen = load_tool("gen_cli_docs")
    doc = (REPO_ROOT / "docs" / "cli.md").read_text()
    names = [name for name, _, _ in gen.iter_subcommands(build_parser())]
    assert "serve" in names  # the batch service must be part of the tree
    for name in names:
        assert f"## `repro-fd {name}`" in doc, f"{name} missing from docs/cli.md"


def test_serve_flags_are_documented():
    doc = (REPO_ROOT / "docs" / "cli.md").read_text()
    for flag in ("--deadline-ms", "--pool-size", "--max-retries",
                 "--workers"):
        assert flag in doc


def test_check_mode_detects_drift(tmp_path, capsys, monkeypatch):
    gen = load_tool("gen_cli_docs")
    doc = tmp_path / "cli.md"
    monkeypatch.setattr(gen, "DOC_PATH", doc)
    assert gen.main([]) == 0  # writes the page
    assert gen.main(["--check"]) == 0
    doc.write_text(doc.read_text() + "drifted\n")
    assert gen.main(["--check"]) == 1
