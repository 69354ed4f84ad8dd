"""The default build → save → load path never imports numpy.

Importing numpy alone adds 13–16 MB to a process's resident set, more
than the benchmark's 10 % ``peak_rss_mb`` bound on a build workload.  A
fresh interpreter runs the whole default pipeline, so no import made by
another test can hide one made here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PIPELINE = """
import os, sys, tempfile
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
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_default_pipeline_does_not_import_numpy():
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
