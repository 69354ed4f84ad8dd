"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every workload reports every metric with its unit, traced
and untraced; that a corrupted daemon reply and a corrupted build result
are each counted as failures; that traced spans nest inside their pass
or request; and that the benchmark fails cleanly where there is no
program to measure.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import common
import run

common.import_program()

import builds  # noqa: E402 - needs the program on sys.path
import serve  # noqa: E402

TINY = {
    "build-p208-diag": builds.BuildSpec(
        "build-p208-diag", circuit="s27", calls1=5, setup_probes=1,
        min_lookups=50,
    ),
    "build-b14p": builds.BuildSpec(
        "build-b14p", proxy=("b14p", 200, 16), calls1=5, setup_probes=1,
        min_lookups=50,
    ),
    "serve-mixed": serve.ServeSpec(
        build=builds.BuildSpec(
            "serve-mixed", proxy=("b14p", 60, 12), calls1=5, setup_probes=0,
            min_lookups=50,
        ),
        setups=1, min_samples=20,
    ),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_metrics(workload: str, trace: int, metrics) -> None:
    catalogue = common.PER_LAYER if trace else common.END_TO_END
    expect(
        {name: unit for name, unit in catalogue}
        == {name: m["unit"] for name, m in metrics.items()},
        f"{workload} trace={trace} reports every metric with its unit",
    )


def check_roots(workload: str, recorder: common.SpanRecorder) -> None:
    """Every span's chain of parents ends at a pass or a traffic unit."""
    roots = {"pass", "unit.lookup", "unit.session"}
    for span in recorder.spans:
        top = span
        while top["parent"] is not None:
            top = recorder.spans[top["parent"]]
        if top["name"] not in roots:
            expect(False, f"{workload}: span {span['name']} has root {top['name']}")
    expect(not recorder.check_nesting() and len(recorder.spans) > 1,
           f"{workload}: {len(recorder.spans)} spans nest inside their "
           "pass or request")


def main() -> int:
    for workload, spec in TINY.items():
        for trace in (0, 1):
            correct, attempted, failed, metrics, _, recorder = run.run(
                workload, spec, seed=7, seconds=1, trace=trace
            )
            expect(correct and failed == 0 and attempted > 0,
                   f"{workload} trace={trace} runs clean ({attempted} attempted)")
            check_metrics(workload, trace, metrics)
            if trace:
                check_roots(workload, recorder)

    def corrupt_build(loaded):
        baselines = loaded.dictionary.baselines
        loaded.dictionary.baselines = baselines[1:] + baselines[:1]

    correct, _, failed, _, _, _ = run.run(
        "build-b14p", TINY["build-b14p"], 7, 1, 0, tamper=corrupt_build
    )
    expect(not correct and failed > 0,
           f"a corrupted build result is counted as a failure ({failed})")

    dropped = []

    def corrupt_reply(cls, doc):
        if cls == "lookup" and not dropped:
            dropped.append(doc["exact"])
            doc["exact"] = []

    correct, _, failed, _, _, _ = run.run(
        "serve-mixed", TINY["serve-mixed"], 7, 1, 0, tamper=corrupt_reply
    )
    expect(not correct and failed == 1,
           "a reply missing the injected fault is counted as one failure")

    bare = common.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(common.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           f"without a program the run exits {done.returncode} with no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
