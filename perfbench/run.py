"""End-to-end benchmark of the same/different dictionary pipeline.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload build-p208-diag --seed 1 \\
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The lines before it report the host, the seed, sample counts and, for a
traced run, the per-layer split.  The exit code is 1 when a correctness
check fails and 2 when the benchmark cannot run at all.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
import traceback

import common


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=False)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def workloads():
    import builds
    import serve

    table = dict(builds.WORKLOADS)
    table["serve-mixed"] = serve.ServeSpec()
    return table


def run(workload, spec, seed, seconds, trace, tamper=None):
    """Run one workload; returns ``(correct, attempted, failed, metrics,
    report_lines, recorder)``."""
    import builds
    import serve

    workdir = common.WORK / f"{workload}-seed{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        module = serve if isinstance(spec, serve.ServeSpec) else builds
        return module.run_workload(spec, seed, seconds, bool(trace), workdir,
                                   tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so every daemon child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.import_program()
        table = workloads()
        if args.setup_probe:
            import builds

            builds.setup_probe(table[args.setup_probe])
            return 0
        if args.workload not in table:
            raise common.BenchError(
                f"--workload must be one of {sorted(table)}, got {args.workload!r}"
            )
        print(f"workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("host " + json.dumps(common.host_fingerprint(), sort_keys=True))
        ticks, loop_before = common.cpu_ticks(), common.host_loop_ms()
        correct, attempted, failed, metrics, report, recorder = run(
            args.workload, table[args.workload], args.seed, args.seconds,
            args.trace,
        )
        shares = common.host_share(ticks, common.cpu_ticks())
        loops = (loop_before, common.host_loop_ms())
    except Exception as exc:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    print(f"host loop (100k iterations): {loops[0]:.2f}ms before, "
          f"{loops[1]:.2f}ms after the run")
    if shares:
        print(f"host cpu during the run: busy={shares['busy']:.1%} "
              f"steal={shares['steal']:.1%} of {common.host_fingerprint()['nproc']} cpus")
    for name, value in metrics.items():
        print(f"  {name} = {value['value']:.6g} {value['unit']}")
    if args.trace:
        path = common.WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(path)
        print(f"spans: {len(recorder.spans)} written to {path}")
    print(f"correct={correct} attempted={attempted} failed={failed}")
    common.emit_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
