"""The two build workloads: cold dictionary-build pipelines.

``build-p208-diag`` runs Table 6's first row from the circuit up:
diagnostic ATPG, response capture, Procedures 1/2, the comparison
columns, then save and load of the artifact.  ``build-b14p`` runs the
same pipeline from a fixed proxy response table, with no ATPG or
simulation.  Each pass is cold: it starts from fresh program objects
(a proxy table is rebuilt before each pass, outside its time, because
a table caches its interned view) and a fresh metrics registry.

The benchmark drives the program only through public entry points and
times each layer from outside with its own spans.  A traced pass also
installs the program's tracer, and the program's spans are re-parented
under the benchmark span that encloses them.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import DictionaryConfig, build
from repro.atpg import generate_diagnostic_tests
from repro.circuit import load_circuit, prepare_for_test
from repro.circuit.generate import proxy_response_table
from repro.dictionaries import DictionarySizes
from repro.faults import collapse
from repro.obs import Tracer, scoped_registry, scoped_tracer
from repro.sim import FaultSimulator, ResponseTable
from repro.store import load_artifact, save_artifact, semantic_digest

from common import (
    SpanRecorder,
    layer_metrics,
    layer_table,
    median,
    metric,
    percentile,
    program_env,
)


@dataclass(frozen=True)
class BuildSpec:
    """One build workload: where its response table comes from and the
    dictionary settings."""

    name: str
    #: Circuit for the full pipeline (ATPG + simulation), or ``None``.
    circuit: Optional[str] = None
    #: ``(preset, n_faults, n_tests)`` of a fixed proxy table, or ``None``.
    proxy: Optional[Tuple[str, int, int]] = None
    calls1: int = 100
    #: Child processes timed to measure set-up; the median is reported.
    setup_probes: int = 5
    #: Lookups each pass's verification times, in whole rounds over every
    #: fault: each fault is looked up at least six times per pass.
    min_lookups: int = 60000


#: The paper's ``LOWER`` early-termination setting for Procedure 1.
LOWER = 10
#: Fewest passes a run makes, whatever ``--seconds`` says.
MIN_PASSES = 2

WORKLOADS = {
    "build-p208-diag": BuildSpec("build-p208-diag", circuit="p208", calls1=100),
    "build-b14p": BuildSpec(
        "build-b14p", proxy=("b14p", 10000, 32), calls1=10
    ),
}

#: The module each benchmark layer span of a pass belongs to.
LAYER_OF = {
    "circuit.prepare": "circuit", "faults.collapse": "faults",
    "atpg.generate": "atpg", "sim.response": "sim",
    "dictionaries.build": "dictionaries",
    "dictionaries.columns": "dictionaries",
    "store.save": "store", "store.load": "store",
}


def setup_probe(spec: BuildSpec) -> None:
    """What a build run does before its first pass, past the imports."""
    if spec.proxy is not None:
        proxy_response_table(*spec.proxy)


def measure_setup(spec: BuildSpec, probes: int) -> List[float]:
    """Seconds from process start to ready, one sample per child probe."""
    probe = [
        sys.executable, str(Path(__file__).resolve().parent / "run.py"),
        "--setup-probe", spec.name,
    ]
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        done = subprocess.run(
            probe, env=program_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return samples


@dataclass
class PassOutcome:
    """One pass: its wall time, figures, failed checks and lookups."""

    seconds: float
    numbers: Dict[str, float]
    checks: List[str]
    #: Each fault's fastest lookup in ms, in fault order.
    lookups_ms: List[float]
    lookups: int
    lookup_failures: int
    verify_ms: float
    root: Optional[int] = None


def one_pass(
    spec: BuildSpec,
    seed: int,
    path: Path,
    recorder: Optional[SpanRecorder],
    index: int,
    tamper: Optional[Callable[[object], None]] = None,
):
    """One cold pass, then its correctness checks (outside the pass time).

    Returns the :class:`PassOutcome` and the loaded artifact, which is
    left at ``path``.  ``recorder`` is ``None`` for an untraced pass.
    ``tamper`` is a test seam: it receives the loaded artifact before the
    checks run.
    """
    rec = recorder if recorder is not None else SpanRecorder(enabled=False)
    config = DictionaryConfig(seed=seed, calls1=spec.calls1, lower=LOWER)
    numbers: Dict[str, float] = {"pass": index}
    table = proxy_response_table(*spec.proxy) if spec.proxy else None
    epoch = time.perf_counter()  # the tracer's clock origin, to within a µs
    tracer = Tracer() if recorder is not None else None
    with scoped_registry() as registry, \
            (scoped_tracer(tracer) if tracer else nullcontext()):
        start = time.perf_counter()
        with rec.span("pass", pass_id=index, workload=spec.name) as root:
            if spec.circuit is not None:
                with rec.span("circuit.prepare", root):
                    netlist = prepare_for_test(load_circuit(spec.circuit))
                with rec.span("faults.collapse", root):
                    faults = collapse(netlist)
                with rec.span("atpg.generate", root):
                    tests, _ = generate_diagnostic_tests(
                        netlist, faults, seed=seed
                    )
                simulated = registry.counter("faultsim.faults_simulated").value
                with rec.span("sim.response", root):
                    simulator = FaultSimulator(netlist, tests)
                    detected = [f for f in faults if simulator.detection_word(f)]
                    table = ResponseTable.build(netlist, detected, tests)
                numbers["sim.faults_simulated"] = (
                    registry.counter("faultsim.faults_simulated").value
                    - simulated
                )
                numbers["collapsed"] = len(faults)
                numbers["tests_generated"] = len(tests)
            with rec.span("dictionaries.build", root):
                built = build(table, config=config)
            with rec.span("dictionaries.columns", root):
                full = build(table, kind="full").dictionary.indistinguished_pairs()
                passfail = build(
                    table, kind="pass-fail"
                ).dictionary.indistinguished_pairs()
            with rec.span("store.save", root):
                save_artifact(built, path)
            with rec.span("store.load", root):
                loaded = load_artifact(path)
        seconds = time.perf_counter() - start
        counters = registry.snapshot()["counters"]
    if tracer is not None:
        adopt_program_spans(rec, tracer.records, epoch, root)
        for span in rec.spans[root:]:
            if span["name"] in LAYER_OF:
                numbers[span["name"] + "_s"] = span["end"] - span["start"]
        for name, key in (("atpg.sat.solve", "atpg.sat_s"),
                          ("atpg.detect.podem_phase", "atpg.podem_s")):
            numbers[key] = sum(
                s["end"] - s["start"] for s in rec.spans[root:]
                if s["name"] == name
            )

    report = built.report
    sizes = DictionarySizes.of(table)
    numbers.update({
        "tests": table.n_tests, "faults": table.n_faults,
        "sd_p1": report.indistinguished_procedure1,
        "sd_p2": report.indistinguished_procedure2,
        "pf": passfail, "full": full, "sd_bits": sizes.same_different,
        "classes": report.classes_after_procedure2,
        "procedure1_calls": report.procedure1_calls,
        "procedure1_s": report.procedure1_seconds,
        "procedure2_s": report.procedure2_seconds,
        "artifact_bytes": path.stat().st_size,
    })
    for name in ("atpg.sat.calls", "atpg.sat.conflicts", "atpg.podem.calls",
                 "atpg.podem.backtracks", "procedure1.candidates_evaluated",
                 "procedure2.attempts"):
        numbers[name] = counters.get(name, 0)

    if tamper is not None:
        tamper(loaded)
    verify_start = time.perf_counter()
    checks = check_build(numbers, sizes, built, loaded)
    rounds = -(-spec.min_lookups // table.n_faults)
    lookups_ms, lookup_failures = verify_lookups(loaded, rounds)
    verify_ms = (time.perf_counter() - verify_start) * 1e3
    outcome = PassOutcome(
        seconds, numbers, checks, lookups_ms, rounds * table.n_faults,
        lookup_failures, verify_ms, root,
    )
    return outcome, loaded


def adopt_program_spans(
    rec: SpanRecorder, records: List[Dict], epoch: float, root: int
) -> None:
    """Re-parent the program's own spans of one pass under the benchmark
    span (a child of ``root``) whose interval encloses each of them."""
    layers = [s for s in rec.spans[root:] if s["parent"] == root]
    ids = {}
    for record in sorted(records, key=lambda r: r["start"]):
        ids[record["id"]] = rec.add(
            record["name"], epoch + record["start"], epoch + record["end"],
            None, **record.get("attrs", {}),
        )
    for record in records:
        span = rec.spans[ids[record["id"]]]
        if record["parent"] is not None:
            span["parent"] = ids[record["parent"]]
            continue
        enclosing = [
            s for s in layers
            if s["start"] <= span["start"] and span["end"] <= s["end"]
        ]
        span["parent"] = enclosing[0]["id"] if enclosing else root


def check_build(numbers, sizes, built, loaded) -> List[str]:
    """The paper's orderings and the artifact round trip."""
    problems = []
    full, sd_p2, sd_p1, pf = (
        numbers["full"], numbers["sd_p2"], numbers["sd_p1"], numbers["pf"]
    )
    if not full <= sd_p2 <= sd_p1 <= pf:
        problems.append(
            f"pair ordering full<=s/d(P2)<=s/d(P1)<=p/f broken: "
            f"{full} {sd_p2} {sd_p1} {pf}"
        )
    if not sizes.pass_fail < sizes.same_different < sizes.full:
        problems.append(
            f"bit ordering p/f<s/d<full broken: {sizes.pass_fail} "
            f"{sizes.same_different} {sizes.full}"
        )
    if semantic_digest(loaded) != semantic_digest(built):
        problems.append("loaded artifact's semantic digest != built one")
    if loaded.dictionary.indistinguished_pairs() != sd_p2:
        problems.append("loaded dictionary's resolution != built one")
    return problems


def verify_lookups(loaded, rounds: int = 1) -> Tuple[List[float], int]:
    """Diagnose each fault's own stored row, ``rounds`` times over; its
    exact set must hold it every time.

    Returns each fault's fastest lookup over the rounds (ms), in fault
    order, and the number of misses.
    """
    table = loaded.table
    dictionary = loaded.dictionary
    rows = [
        [table.signature(i, j) for j in range(table.n_tests)]
        for i in range(table.n_faults)
    ]
    latencies = [float("inf")] * len(rows)
    misses = 0
    clock = time.perf_counter
    # As in timeit: a collection of the previous pass's garbage must not
    # land inside a microsecond lookup.
    gc.disable()
    try:
        for _ in range(rounds):
            for i, row in enumerate(rows):
                begin = clock()
                exact = dictionary.exact_candidates(row)
                latencies[i] = min(latencies[i], (clock() - begin) * 1e3)
                if i not in exact:
                    misses += 1
    finally:
        gc.enable()
    return latencies, misses


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    spec: BuildSpec,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    tamper: Optional[Callable[[object], None]] = None,
):
    """Run passes for ``seconds``; returns ``(correct, attempted, failed,
    metrics, report_lines, recorder)``."""
    # Set-up is probed before and after the passes, so that its median
    # spans the run rather than one moment of the host.  A traced run
    # reports no set-up time.
    probes = 0 if trace else spec.setup_probes
    setup = measure_setup(spec, (probes + 1) // 2)
    recorder = SpanRecorder(enabled=trace)
    passes: List[PassOutcome] = []
    untraced: List[float] = []
    start = time.perf_counter()
    index = 0
    cycle = 0.0
    # A pass starts only if one more cycle (pass plus checks) fits in the
    # run, so a run lasts about ``seconds`` whatever the pass length.
    while index < MIN_PASSES or time.perf_counter() - start + cycle < seconds:
        began = time.perf_counter()
        # A traced run alternates untraced and traced passes, so that it
        # can report its own tracing overhead.
        traced = trace and index % 2 == 1
        outcome = one_pass(
            spec, seed, workdir / f"pass{index}.rfd",
            recorder if traced else None, index, tamper,
        )[0]
        if traced or not trace:
            passes.append(outcome)
        else:
            untraced.append(outcome.seconds)
        cycle = max(cycle, time.perf_counter() - began)
        index += 1
    setup += measure_setup(spec, probes - len(setup))

    lookups = sum(p.lookups for p in passes)
    problems = [msg for p in passes for msg in p.checks]
    attempted = len(passes) + lookups
    failed = sum(1 for p in passes if p.checks) + sum(
        p.lookup_failures for p in passes
    )
    report = [
        f"passes={len(passes)}" + (f" (+{len(untraced)} untraced)" if trace else "")
        + f" lookups={lookups} lookup_misses="
        f"{sum(p.lookup_failures for p in passes)} setup_probes={len(setup)}"
    ]
    for p in passes:
        n = p.numbers
        report.append(
            f"  pass {n['pass']}: {p.seconds:.3f}s |T|={n['tests']} "
            f"faults={n['faults']} full={n['full']} s/d(P2)={n['sd_p2']} "
            f"s/d(P1)={n['sd_p1']} p/f={n['pf']} restarts={n['procedure1_calls']}"
            f" | {p.lookups} lookups, per fault p50="
            f"{percentile(p.lookups_ms, 50) * 1e3:.2f}us "
            f"p99={percentile(p.lookups_ms, 99) * 1e3:.2f}us"
        )
    report.extend(f"  CHECK FAILED: {msg}" for msg in problems)

    if not trace:
        last = passes[-1].numbers
        best = fault_latencies(passes)
        report.append(
            f"lookup figures over {len(best)} faults, each the fastest of "
            f"{lookups // len(best)} lookups"
        )
        metrics = {
            "setup_s": metric(median(setup), "s"),
            "pipeline_s": metric(min(p.seconds for p in passes), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "sd_indist_pairs": metric(last["sd_p2"], "pairs"),
            "sd_bits": metric(last["sd_bits"], "bits"),
            "throughput_rps": metric(len(best) / (sum(best) / 1e3), "1/s"),
            "lookup_p50_ms": metric(percentile(best, 50), "ms"),
            "lookup_p99_ms": metric(percentile(best, 99), "ms"),
        }
    else:
        metrics, lines = traced_metrics(recorder, passes, untraced)
        report.extend(lines)
        nesting = recorder.check_nesting()
        failed += len(nesting)
        problems.extend(nesting)
        report.extend(f"  NESTING: {msg}" for msg in nesting)
    return not problems and failed == 0, attempted, failed, metrics, report, recorder


def fault_latencies(passes: List[PassOutcome]) -> List[float]:
    """Each fault's lookup latency over a run: its fastest lookup in any
    pass.

    A lookup takes microseconds, and a slow host state that lasts from a
    second to a minute can double it, so the fastest of a fault's
    repeats, spread over the run, is its latency.  Every pass diagnoses
    the same faults in the same order.
    """
    return [min(repeats) for repeats in zip(*(p.lookups_ms for p in passes))]


def traced_metrics(
    recorder: SpanRecorder,
    passes: List[PassOutcome],
    untraced: List[float],
) -> Tuple[Dict[str, Dict], List[str]]:
    """Per-layer metrics (medians over the traced passes) and the printed
    layer table: busy and self time per span, the gap, shares, overhead."""

    def med(key: str) -> float:
        return median([p.numbers.get(key, 0) for p in passes])

    metrics = layer_metrics({
        "atpg.generate_s": med("atpg.generate_s"),
        "atpg.sat_s": med("atpg.sat_s"),
        "atpg.podem_s": med("atpg.podem_s"),
        "atpg.sat_calls": med("atpg.sat.calls"),
        "atpg.sat_conflicts": med("atpg.sat.conflicts"),
        "atpg.podem_backtracks": med("atpg.podem.backtracks"),
        "atpg.tests": med("tests_generated"),
        "circuit.prepare_s": med("circuit.prepare_s"),
        "faults.collapse_s": med("faults.collapse_s"),
        "faults.collapsed": med("collapsed"),
        "sim.response_s": med("sim.response_s"),
        "sim.faults_simulated": med("sim.faults_simulated"),
        "dictionaries.build_s": med("dictionaries.build_s"),
        "dictionaries.procedure1_s": med("procedure1_s"),
        "dictionaries.procedure2_s": med("procedure2_s"),
        "dictionaries.procedure1_calls": med("procedure1_calls"),
        "kernels.candidates_evaluated": med("procedure1.candidates_evaluated"),
        "dictionaries.procedure2_attempts": med("procedure2.attempts"),
        "partition.classes": med("classes"),
        "dictionaries.columns_s": med("dictionaries.columns_s"),
        "store.save_s": med("store.save_s"),
        "store.load_s": med("store.load_s"),
        "store.artifact_bytes": med("artifact_bytes"),
        "diagnosis.lookup_ms": statistics.mean(fault_latencies(passes)),
        "diagnosis.verify_ms": median([p.verify_ms for p in passes]),
    })

    n = len(passes)
    table = layer_table(recorder, [p.root for p in passes])
    pass_s = table["pass"]["busy_s"] / n
    lines = [f"layer breakdown over {n} traced passes "
             f"(per pass; share base = mean traced pass {pass_s:.3f}s):",
             f"  {'span':34} {'busy_s':>9} {'self_s':>9} {'share':>7}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["busy_s"]):
        busy = row["busy_s"] / n
        lines.append(f"  {name:34} {busy:9.4f} {row['self_s'] / n:9.4f} "
                     f"{busy / pass_s:7.1%}")
    gap = table["pass"]["self_s"] / n
    lines.append(f"  unaccounted gap (pass self time): {gap:.4f}s = "
                 f"{gap / pass_s:.1%} of {pass_s:.3f}s")
    modules: Dict[str, float] = {}
    for name, module in LAYER_OF.items():
        if name in table:
            modules[module] = modules.get(module, 0.0) + table[name]["busy_s"] / n
    for module, busy in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"  module {module:13} {busy:9.4f}s = {busy / pass_s:6.1%} "
                     f"of a {pass_s:.3f}s pass")
    if untraced:
        traced, plain = median([p.seconds for p in passes]), median(untraced)
        lines.append(
            f"  tracing overhead: median traced pass {traced:.3f}s - median "
            f"untraced pass {plain:.3f}s = {traced - plain:+.3f}s "
            f"({n} traced, {len(untraced)} untraced passes)"
        )
    keys = ("atpg.sat.calls", "atpg.sat.conflicts", "atpg.podem.calls",
            "atpg.podem.backtracks", "sim.faults_simulated", "procedure1_calls",
            "procedure1.candidates_evaluated", "procedure2.attempts", "classes")
    lines.append("  counts (median per pass): "
                 + ", ".join(f"{k}={med(k):g}" for k in keys))
    return metrics, lines
