"""Command-line interface.

Installed as the ``repro-fd`` console script::

    repro-fd list                         # available circuits
    repro-fd stats p344                   # circuit statistics
    repro-fd example                      # the paper's Tables 1-5
    repro-fd atpg p208 --ttype diag       # generate a test set, print summary
    repro-fd table6 p208 p298             # reproduce Table 6 rows
    repro-fd diagnose p208 --fault n3/sa1 # diagnose an injected fault
    repro-fd pack p208 --out p208.rfd     # build once, write the artifact
    repro-fd diagnose --artifact p208.rfd # serve from it, no circuit files
    repro-fd serve chips.jsonl --artifact p208.rfd  # batch diagnosis service
    repro-fd bench-report --check         # gate BENCH_*.json vs baselines

``docs/cli.md`` is the generated reference for every subcommand and flag
(regenerate with ``python tools/gen_cli_docs.py``; CI fails on drift).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

from .api import KINDS, DictionaryConfig, build as build_dictionary
from .circuit import available_circuits, load_circuit, prepare_for_test
from .diagnosis import Diagnoser, observe_fault
from .dictionaries import (
    DictionarySizes,
    FullDictionary,
    PassFailDictionary,
)
from .faults import Fault, collapse
from .experiments import render_table6, run_table6
from .experiments.example_tables import render_all
from .experiments.reporting import (
    ReportPrinter,
    format_table,
    render_build_instrumentation,
)
from .experiments.table6 import prepared_experiment, response_table_for
from .obs import (
    MetricsRegistry,
    NullProgress,
    ProgressReporter,
    StderrProgress,
    Tracer,
    scoped_registry,
    scoped_tracer,
)


def _parse_fault(text: str) -> Fault:
    """Parse 'line/sa0' or 'line->sink/sa1' into a Fault."""
    location, _, polarity = text.rpartition("/sa")
    if polarity not in ("0", "1") or not location:
        raise argparse.ArgumentTypeError(
            f"bad fault {text!r}; expected e.g. n3/sa1 or n3->n7/sa0"
        )
    line, arrow, sink = location.partition("->")
    return Fault(line, int(polarity), input_of=sink if arrow else None)


@dataclass
class ObsSession:
    """The per-command observability bundle the instrumented commands use."""

    registry: MetricsRegistry
    tracer: Optional[Tracer]
    progress: ProgressReporter
    out: ReportPrinter


@contextmanager
def _observability(args: argparse.Namespace) -> Iterator[ObsSession]:
    """Install a fresh registry/tracer for one command; export on the way out.

    ``--metrics-out -`` claims stdout for the JSON snapshot, which moves
    all human-readable report text to stderr (see
    :class:`~repro.experiments.reporting.ReportPrinter`).
    """
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace", None)
    out = ReportPrinter(machine_stdout=metrics_out == "-")
    progress: ProgressReporter = (
        StderrProgress() if getattr(args, "progress", False) else NullProgress()
    )
    with scoped_registry() as registry:
        tracer: Optional[Tracer] = None
        if trace_out:
            with scoped_tracer() as tracer:
                yield ObsSession(registry, tracer, progress, out)
            tracer.export_jsonl(trace_out)
        else:
            yield ObsSession(registry, None, progress, out)
    if metrics_out == "-":
        print(registry.to_json())
    elif metrics_out:
        with open(metrics_out, "w") as handle:
            handle.write(registry.to_json() + "\n")


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="on-disk build cache: reuse the stored artifact whose content "
        "hash matches the build inputs instead of rebuilding "
        "(see docs/artifacts.md)",
    )


def _add_checkpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="persist an RFDC build checkpoint here after every folded "
        "Procedure 1 restart, so a killed build can resume to the "
        "identical artifact (see docs/scaling.md)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the matching checkpoint in --checkpoint-dir "
        "instead of restarting Procedure 1 from scratch",
    )


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """The per-request policy flags that ``serve`` and ``daemon`` share."""
    parser.add_argument(
        "--pool-size", type=int, default=8, metavar="N",
        help="max loaded artifacts resident in the LRU pool (default 8)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline in milliseconds (default: none); an "
        "expired request degrades to a deadline_expired result",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries (with exponential backoff) on transient artifact "
        "errors before an artifact_error result (default 2)",
    )
    parser.add_argument(
        "--max-faults", type=int, default=1, metavar="M",
        help="server default for requests without max_faults=: search "
        "candidate multiplets of up to M simultaneous faults (default 1)",
    )
    parser.add_argument(
        "--flip-budget", type=int, default=0, metavar="K",
        help="server default for requests without flip_budget=: admit "
        "candidates within K mismatching tests (default 0 = exact)",
    )
    parser.add_argument(
        "--strategy", choices=("greedy", "entropy"), default="greedy",
        help="session test-suggestion strategy for requests without "
        "strategy= (default greedy)",
    )


def _serve_config(args: argparse.Namespace):
    """The :class:`~repro.serve.ServeConfig` of :func:`_add_serve_flags`."""
    from .serve import ServeConfig

    return ServeConfig(
        pool_size=args.pool_size,
        deadline_ms=args.deadline_ms,
        max_retries=args.max_retries,
        max_faults=args.max_faults,
        flip_budget=args.flip_budget,
        strategy=args.strategy,
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write a metrics JSON snapshot to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a span trace to FILE as JSONL",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="report progress on stderr while running",
    )


def cmd_list(args: argparse.Namespace) -> int:
    for name in available_circuits():
        print(name)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    netlist = load_circuit(args.circuit)
    scan = prepare_for_test(netlist)
    faults = collapse(scan)
    stats = netlist.stats()
    rows = [(key, value) for key, value in stats.items()]
    rows.append(("collapsed faults (scan view)", len(faults)))
    print(format_table(("property", "value"), rows, args.circuit))
    return 0


def cmd_example(args: argparse.Namespace) -> int:
    print(render_all())
    return 0


def cmd_atpg(args: argparse.Namespace) -> int:
    with _observability(args) as session:
        session.progress.report("atpg", 0, 2, circuit=args.circuit, ttype=args.ttype)
        netlist, tests = prepared_experiment(args.circuit, args.ttype, args.seed)
        session.progress.report("atpg", 1, 2, tests=len(tests))
        faults = collapse(netlist)
        from .sim import FaultSimulator

        simulator = FaultSimulator(netlist, tests)
        detected = sum(1 for f in faults if simulator.detection_word(f))
        session.progress.report("atpg", 2, 2, detected=detected)
        session.out.emit(
            f"{args.circuit} {args.ttype}: {len(tests)} tests, "
            f"{detected}/{len(faults)} collapsed faults detected"
        )
        if args.output:
            with open(args.output, "w") as handle:
                for j in range(len(tests)):
                    handle.write(tests.as_string(j) + "\n")
            session.out.emit(f"wrote {len(tests)} vectors to {args.output}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .circuit import bench, verilog

    source = Path(args.source)
    target = Path(args.target)
    readers = {".bench": bench.load, ".v": verilog.load}
    writers = {".bench": bench.dump, ".v": verilog.dump}
    try:
        reader = readers[source.suffix]
        writer = writers[target.suffix]
    except KeyError as exc:
        print(f"unsupported extension {exc}", file=sys.stderr)
        return 1
    netlist = reader(source)
    writer(netlist, target)
    print(f"wrote {netlist!r} to {target}")
    return 0


def cmd_table6(args: argparse.Namespace) -> int:
    circuits = list(args.circuits) + list(args.circuit or ())
    if not circuits:
        print("table6: no circuits given", file=sys.stderr)
        return 1
    with _observability(args) as session:
        rows = run_table6(
            circuits, seed=args.seed, calls=args.calls, progress=session.progress,
            cache_dir=args.cache_dir, checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
        session.out.emit(render_table6(rows))
        session.out.emit("")
        session.out.emit(render_build_instrumentation(rows))
    return 0


def cmd_pack(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .store import save_artifact

    with _observability(args) as session:
        _, table = response_table_for(args.circuit, args.ttype, args.seed)
        built = build_dictionary(
            table,
            kind=args.kind,
            config=DictionaryConfig(seed=args.seed, calls1=args.calls),
            progress=session.progress,
            cache_dir=args.cache_dir,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
        content_hash = save_artifact(built, args.out)
        size = Path(args.out).stat().st_size
        session.out.emit(
            f"packed {args.circuit}/{args.ttype} -> {args.out}: "
            f"kind={built.kind}, {table.n_faults} faults x "
            f"{table.n_tests} tests, {size} bytes, hash {content_hash[:12]}"
        )
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    if (args.circuit is None) == (args.artifact is None):
        print(
            "diagnose: give exactly one of a circuit name or --artifact FILE",
            file=sys.stderr,
        )
        return 1
    with _observability(args) as session:
        netlist = None
        if args.artifact is not None:
            from .store import ArtifactError, load_artifact

            try:
                built = load_artifact(args.artifact)
            except ArtifactError as exc:
                print(f"diagnose: {exc}", file=sys.stderr)
                return 1
            table = built.table
            session.out.emit(
                f"serving from artifact {args.artifact} "
                f"({built.kind}, {table.n_faults} faults x {table.n_tests} tests)"
            )
        else:
            netlist, table = response_table_for(args.circuit, args.ttype, args.seed)
            built = build_dictionary(
                table,
                config=DictionaryConfig(seed=args.seed, calls1=args.calls),
                progress=session.progress,
                cache_dir=args.cache_dir,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
            )
        if table.n_faults == 0:
            print(
                "diagnose: the dictionary covers no faults (empty fault list "
                "or no detections); re-run the 'pack' workflow on a circuit "
                "and test set that detect faults (repro-fd pack CIRCUIT --out "
                "FILE.rfd), then serve it with 'diagnose --artifact FILE.rfd'",
                file=sys.stderr,
            )
            return 1
        if args.max_faults < 1:
            print("diagnose: --max-faults must be >= 1", file=sys.stderr)
            return 1
        if args.flip_budget < 0:
            print("diagnose: --flip-budget must be >= 0", file=sys.stderr)
            return 1
        if built.kind == "same-different":
            dictionaries = [
                FullDictionary(table), PassFailDictionary(table), built.dictionary,
            ]
        else:
            dictionaries = [built.dictionary]
        if args.fault is not None:
            victim = args.fault
            if victim not in table.faults:
                print(
                    f"fault {victim} is not in the dictionary fault list",
                    file=sys.stderr,
                )
                return 1
        else:
            victim = table.faults[args.seed % table.n_faults]
        if netlist is not None:
            observed = observe_fault(netlist, table.tests, victim)
        else:
            # Artifact mode: the stored full row of a modelled victim *is*
            # its observed response — no circuit files needed.
            observed = list(table.full_row(table.faults.index(victim)))
        session.out.emit(f"injected: {victim}\n")
        for dictionary in dictionaries:
            diagnosis = Diagnoser(dictionary).diagnose(observed, limit=5)
            exact = ", ".join(str(f) for f in diagnosis.exact[:8]) or "(none)"
            session.out.emit(
                f"[{dictionary.kind:^14}] {len(diagnosis.exact)} exact: {exact}"
            )
        if args.max_faults > 1 or args.flip_budget > 0:
            from .diagnosis import match_multiplets

            matches = match_multiplets(
                table,
                observed,
                max_faults=args.max_faults,
                flip_budget=args.flip_budget,
                limit=8,
            )
            rendered = ", ".join(
                f"{m.render(table.faults)} (flips={m.flips})" for m in matches
            ) or "(none)"
            session.out.emit(
                f"\nmultiplets (max_faults={args.max_faults}, "
                f"flip_budget={args.flip_budget}): {rendered}"
            )
        sizes = DictionarySizes.of(table)
        session.out.emit(
            f"\nsizes: full={sizes.full} p/f={sizes.pass_fail} "
            f"s/d={sizes.same_different} bits"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import DiagnosisServer

    with _observability(args) as session:
        try:
            config = _serve_config(args)
        except ValueError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 1
        server = DiagnosisServer(config, default_artifact=args.artifact)
        if args.requests == "-":
            lines = sys.stdin.readlines()
        else:
            try:
                with open(args.requests) as handle:
                    lines = handle.readlines()
            except OSError as exc:
                print(f"serve: cannot read requests: {exc}", file=sys.stderr)
                return 1
        results = server.serve_jsonl(lines)
        if not results:
            print("serve: the request file holds no requests", file=sys.stderr)
            return 1
        rendered = "\n".join(result.to_json_line() for result in results)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered + "\n")
        else:
            # Results are the machine output of this command: stdout,
            # with the human summary on stderr (like --metrics-out -).
            print(rendered)
        by_code: dict = {}
        for result in results:
            by_code[result.code] = by_code.get(result.code, 0) + 1
        summary = ", ".join(
            f"{code}={count}" for code, count in sorted(by_code.items())
        )
        print(
            f"served {len(results)} requests: {summary}",
            file=sys.stderr,
        )
    return 0


def cmd_daemon(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve.daemon import DaemonConfig, DiagnosisDaemon

    try:
        quotas = []
        for spec in args.tenant_quota or ():
            name, sep, value = spec.partition("=")
            if not sep or not name:
                raise ValueError(
                    f"--tenant-quota takes NAME=N, got {spec!r}"
                )
            quotas.append((name, int(value)))
        config = DaemonConfig(
            host=args.host,
            port=args.port,
            serve=_serve_config(args),
            workers=args.workers,
            default_artifact=args.artifact,
            max_inflight=args.max_inflight,
            max_batch=args.max_batch,
            max_body_bytes=args.max_body_bytes,
            drain_grace_s=args.drain_grace_s,
            spool_dir=args.spool_dir,
            tenant_quotas=tuple(quotas),
            default_tenant_quota=args.default_tenant_quota,
        )
    except ValueError as exc:
        print(f"daemon: {exc}", file=sys.stderr)
        return 1

    with _observability(args):
        daemon = DiagnosisDaemon(config)

        async def run() -> None:
            host, port = await daemon.start()
            print(
                f"daemon: listening on http://{host}:{port} "
                f"(workers={config.workers}, "
                f"max_inflight={config.max_inflight})",
                file=sys.stderr,
                flush=True,
            )
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(
                        signum, lambda: asyncio.ensure_future(daemon.stop())
                    )
                except NotImplementedError:
                    pass  # platform without loop signal handlers
            await daemon.run_until_stopped()
            print("daemon: drained and stopped", file=sys.stderr)

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            pass
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    import json as _json

    from .experiments.fleet import FleetConfig, render_report, run_campaign

    with _observability(args) as session:
        units = args.units
        n_faults, n_tests, n_outputs = args.faults, args.tests, args.outputs
        if args.quick:
            # The CI docs job runs this: a seconds-scale campaign with
            # the same grid and gates as the full one.
            units = min(units, 30)
            n_faults = min(n_faults, 60)
            n_tests = min(n_tests, 32)
        try:
            config = FleetConfig(
                n_faults=n_faults,
                n_tests=n_tests,
                n_outputs=n_outputs,
                density=args.density,
                units=units,
                double_fraction=args.double_fraction,
                noise=args.noise,
                flip_budget=args.flip_budget,
                resolve_at=args.resolve_at,
                max_tests=args.max_tests,
                seed=args.seed,
            )
            report = run_campaign(
                config,
                kinds=tuple(args.kind) if args.kind else ("pass-fail", "same-different", "full"),
                strategies=tuple(args.strategy) if args.strategy else ("greedy", "entropy"),
            )
        except ValueError as exc:
            print(f"fleet: {exc}", file=sys.stderr)
            return 1
        session.out.emit(render_report(report))
        if args.json:
            with open(args.json, "w") as handle:
                _json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            session.out.emit(f"\nwrote {args.json}")
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    from .obs.benchreport import run_report

    return run_report(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fd",
        description="Same/different fault dictionary (DATE 2008) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available circuits").set_defaults(func=cmd_list)

    stats = sub.add_parser("stats", help="circuit statistics")
    stats.add_argument("circuit")
    stats.set_defaults(func=cmd_stats)

    example = sub.add_parser("example", help="print the paper's Tables 1-5")
    example.set_defaults(func=cmd_example)

    atpg = sub.add_parser("atpg", help="generate a test set")
    atpg.add_argument("circuit")
    atpg.add_argument("--ttype", choices=("diag", "10det"), default="diag")
    atpg.add_argument("--seed", type=int, default=0)
    atpg.add_argument("--output", help="write vectors to this file")
    _add_obs_flags(atpg)
    atpg.set_defaults(func=cmd_atpg)

    convert = sub.add_parser(
        "convert", help="convert between .bench and structural .v"
    )
    convert.add_argument("source")
    convert.add_argument("target")
    convert.set_defaults(func=cmd_convert)

    table6 = sub.add_parser("table6", help="reproduce Table 6 rows")
    table6.add_argument("circuits", nargs="*")
    table6.add_argument(
        "--circuit",
        action="append",
        metavar="NAME",
        help="add one circuit (may repeat; alternative to positionals)",
    )
    table6.add_argument("--seed", type=int, default=0)
    table6.add_argument("--calls", type=int, default=100, help="CALLS1")
    _add_cache_flag(table6)
    _add_checkpoint_flags(table6)
    _add_obs_flags(table6)
    table6.set_defaults(func=cmd_table6)

    pack = sub.add_parser(
        "pack", help="build a dictionary and write it as an artifact"
    )
    pack.add_argument("circuit")
    pack.add_argument("--ttype", choices=("diag", "10det"), default="diag")
    pack.add_argument("--kind", choices=KINDS, default="same-different")
    pack.add_argument("--seed", type=int, default=0)
    pack.add_argument("--calls", type=int, default=100, help="CALLS1")
    pack.add_argument(
        "--out", required=True, metavar="FILE", help="artifact file to write"
    )
    _add_cache_flag(pack)
    _add_checkpoint_flags(pack)
    _add_obs_flags(pack)
    pack.set_defaults(func=cmd_pack)

    diagnose = sub.add_parser(
        "diagnose",
        help="diagnose an injected fault (build live, or serve an artifact "
        "packed with 'pack')",
    )
    diagnose.add_argument(
        "circuit", nargs="?", default=None,
        help="circuit to build the dictionary from (or use --artifact)",
    )
    diagnose.add_argument(
        "--artifact",
        metavar="FILE",
        default=None,
        help="serve from this on-disk artifact instead of building "
        "(no circuit files needed; produce one with the 'pack' workflow: "
        "repro-fd pack CIRCUIT --out FILE.rfd)",
    )
    diagnose.add_argument("--ttype", choices=("diag", "10det"), default="diag")
    diagnose.add_argument("--fault", type=_parse_fault, default=None)
    diagnose.add_argument("--seed", type=int, default=0)
    diagnose.add_argument("--calls", type=int, default=20)
    diagnose.add_argument(
        "--max-faults", type=int, default=1, metavar="M",
        help="also search candidate multiplets of up to M simultaneous "
        "faults via masking-aware envelopes (default 1 = classic "
        "single-fault matching; see docs/diagnosis.md)",
    )
    diagnose.add_argument(
        "--flip-budget", type=int, default=0, metavar="K",
        help="admit candidates whose signature disagrees with the observed "
        "response on up to K tests (default 0 = exact matching)",
    )
    _add_cache_flag(diagnose)
    _add_checkpoint_flags(diagnose)
    _add_obs_flags(diagnose)
    diagnose.set_defaults(func=cmd_diagnose)

    serve = sub.add_parser(
        "serve",
        help="serve a JSONL batch of diagnosis requests from packed artifacts",
    )
    serve.add_argument(
        "requests",
        help="JSONL file of requests, one JSON object per line ('-' = stdin); "
        "each request gives observed=, fault= or observations= — see "
        "docs/serving.md",
    )
    serve.add_argument(
        "--artifact",
        metavar="FILE",
        default=None,
        help="default artifact for requests that do not name their own "
        "(produce one with 'pack')",
    )
    serve.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write outcome JSONL here instead of stdout",
    )
    _add_serve_flags(serve)
    _add_obs_flags(serve)
    serve.set_defaults(func=cmd_serve)

    daemon = sub.add_parser(
        "daemon",
        help="run the asyncio diagnosis daemon: typed HTTP endpoints over "
        "packed artifacts with admission control (see docs/daemon.md)",
    )
    daemon.add_argument(
        "--artifact",
        metavar="FILE",
        default=None,
        help="default artifact for requests that do not name their own "
        "(produce one with 'pack')",
    )
    daemon.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    daemon.add_argument(
        "--port", type=int, default=8132, metavar="N",
        help="TCP port to bind (default 8132; 0 = kernel-assigned)",
    )
    daemon.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="diagnosis worker threads behind the event loop; a batch "
        "runs on one of them (default 4)",
    )
    daemon.add_argument(
        "--max-inflight", type=int, default=16, metavar="N",
        help="work units admitted concurrently before 429 overloaded "
        "rejections (default 16)",
    )
    daemon.add_argument(
        "--max-batch", type=int, default=256, metavar="N",
        help="max requests in one batch call (default 256)",
    )
    daemon.add_argument(
        "--max-body-bytes", type=int, default=32 * 1024 * 1024, metavar="N",
        help="max request body size; larger bodies are rejected with 413 "
        "before buffering (default 32MiB)",
    )
    daemon.add_argument(
        "--drain-grace-s", type=float, default=5.0, metavar="S",
        help="seconds to wait for in-flight work on shutdown (default 5)",
    )
    daemon.add_argument(
        "--spool-dir", metavar="DIR", default=None,
        help="directory for octet-stream artifact uploads (default: the "
        "system temp directory)",
    )
    daemon.add_argument(
        "--tenant-quota", action="append", metavar="NAME=N",
        help="cap tenant NAME at N concurrent admission slots (may repeat)",
    )
    daemon.add_argument(
        "--default-tenant-quota", type=int, default=None, metavar="N",
        help="admission-slot cap for tenants without an explicit "
        "--tenant-quota (default: only the global --max-inflight applies)",
    )
    _add_serve_flags(daemon)
    _add_obs_flags(daemon)
    daemon.set_defaults(func=cmd_daemon)

    fleet = sub.add_parser(
        "fleet",
        help="run a synthetic fleet diagnosis campaign: resolution-vs-tests "
        "curves per dictionary organisation and session strategy "
        "(see docs/diagnosis.md)",
    )
    fleet.add_argument(
        "--units", type=int, default=200, metavar="N",
        help="defective units to synthesize and diagnose (default 200)",
    )
    fleet.add_argument(
        "--faults", type=int, default=120, metavar="N",
        help="modeled faults in the synthetic circuit (default 120)",
    )
    fleet.add_argument(
        "--tests", type=int, default=48, metavar="N",
        help="tests in the synthetic test set (default 48)",
    )
    fleet.add_argument(
        "--outputs", type=int, default=6, metavar="N",
        help="observed outputs per test (default 6)",
    )
    fleet.add_argument(
        "--density", type=float, default=0.85, metavar="P",
        help="probability a fault fails a given test (default 0.85; high "
        "density is the regime where the pass/fail detect bit carries "
        "little information)",
    )
    fleet.add_argument(
        "--double-fraction", type=float, default=0.0, metavar="P",
        help="fraction of units carrying two simultaneous faults "
        "(default 0.0)",
    )
    fleet.add_argument(
        "--noise", type=float, default=0.0, metavar="P",
        help="per-test probability of flipping a unit's observed outcome "
        "(default 0.0)",
    )
    fleet.add_argument(
        "--flip-budget", type=int, default=0, metavar="K",
        help="session flip budget: candidates survive up to K mismatching "
        "tests (default 0)",
    )
    fleet.add_argument(
        "--resolve-at", type=int, default=1, metavar="N",
        help="a unit counts as resolved once its candidate set is at most "
        "N faults (default 1)",
    )
    fleet.add_argument(
        "--max-tests", type=int, default=None, metavar="N",
        help="per-unit test budget (default: apply every test)",
    )
    fleet.add_argument(
        "--kind", action="append",
        choices=("pass-fail", "same-different", "full"),
        help="dictionary organisation to evaluate (repeatable; default: "
        "all three)",
    )
    fleet.add_argument(
        "--strategy", action="append", choices=("greedy", "entropy"),
        help="session test-selection strategy to evaluate (repeatable; "
        "default: both)",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the full campaign report as JSON to FILE",
    )
    fleet.add_argument(
        "--quick", action="store_true",
        help="shrink the campaign to a seconds-scale smoke run (CI)",
    )
    _add_obs_flags(fleet)
    fleet.set_defaults(func=cmd_fleet)

    from .obs.benchreport import add_report_arguments

    bench_report = sub.add_parser(
        "bench-report",
        help="diff BENCH_*.json benchmark results against the committed "
        "baselines and flag regressions (see docs/benchmarking.md)",
    )
    add_report_arguments(bench_report)
    bench_report.set_defaults(func=cmd_bench_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
