"""The default build → save → load path stays lean: no numpy, no
process pool.

Importing numpy alone adds 13–16 MB to a process's resident set, more
than the benchmark's 10 % ``peak_rss_mb`` bound on a build workload; a
process pool's ``multiprocessing`` machinery adds its own import time and
memory to a build that runs its restarts in-process.  A fresh interpreter
runs the whole default pipeline, so no import made by another test can
hide one made here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PIPELINE = """
import json, os, sys, tempfile
from repro.api import DictionaryConfig, build
from repro.circuit.generate import proxy_response_table
from repro.store import load_artifact, save_artifact

built = build(
    proxy_response_table("b14p", 400, 16), config=DictionaryConfig(seed=0, calls1=2)
)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "a.rfd")
    save_artifact(built, path)
    load_artifact(path)
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def pipeline_modules():
    """Every module the default pipeline imported, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_default_pipeline_does_not_import_numpy(pipeline_modules):
    assert sorted(m for m in pipeline_modules if m.split(".")[0] == "numpy") == []


def test_build_path_starts_no_process_pool(pipeline_modules):
    assert "multiprocessing" not in pipeline_modules
    assert "concurrent.futures.process" not in pipeline_modules
