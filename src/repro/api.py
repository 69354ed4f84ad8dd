"""The public facade: one entry point each for building and serving.

:func:`build` is the one documented way to construct a dictionary:

>>> from repro.api import DictionaryConfig, build
>>> built = build(table, kind="same-different",
...               config=DictionaryConfig(calls1=100, seed=1))
>>> built.dictionary.indistinguished_pairs(), built.report.procedure1_calls

``build`` accepts either a prepared
:class:`~repro.sim.responses.ResponseTable` or the raw
``netlist + faults + tests`` triple (it fault-simulates for you), and the
:class:`DictionaryConfig` carries every tuning knob.  The single-procedure
helper :func:`~repro.dictionaries.select_baselines` takes the one knob it
reads, ``lower``.

:func:`serve` is the matching serve-side entry point: it stands up a
:class:`~repro.serve.DiagnosisServer` over packed artifacts for batch
and session diagnosis (see ``docs/serving.md``).  Each request goes in
as a :class:`~repro.serve.DiagnoseRequest` and comes out as one
:class:`~repro.serve.DiagnoseResult`, in request order:

>>> from repro.api import serve
>>> from repro.serve import ServeConfig
>>> server = serve("p208.rfd", config=ServeConfig(deadline_ms=250))
>>> results = server.serve_jsonl(open("chips.jsonl"))

and :func:`serve_daemon` wraps that server in the asyncio network
daemon (``docs/daemon.md``) for the long-running deployment shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .dictionaries.base import FaultDictionary
from .dictionaries.full import FullDictionary
from .dictionaries.passfail import PassFailDictionary
from .dictionaries.samediff import BuildReport, _build_impl
from .obs import ProgressReporter
from .sim.responses import ResponseTable

#: Dictionary kinds :func:`build` understands.
KINDS = ("same-different", "pass-fail", "full")


@dataclass(frozen=True)
class DictionaryConfig:
    """Every tuning knob of a dictionary build, in one frozen value.

    Defaults reproduce the paper's settings: ``CALLS1 = 100`` restarts,
    ``LOWER = 10`` and Procedure 2 enabled.  ``seed`` picks the shuffled
    test orders of the random restarts.
    """

    seed: int = 0
    calls1: int = 100
    lower: int = 10
    procedure2: bool = True


@dataclass
class BuiltDictionary:
    """What :func:`build` hands back: the dictionary plus its provenance."""

    dictionary: FaultDictionary
    table: ResponseTable
    kind: str
    config: DictionaryConfig
    #: Construction statistics; ``None`` for the kinds that have no
    #: construction procedure (pass-fail, full).
    report: Optional[BuildReport] = None


def build(
    table: Optional[ResponseTable] = None,
    *,
    netlist=None,
    faults: Optional[Sequence] = None,
    tests=None,
    kind: str = "same-different",
    config: Optional[DictionaryConfig] = None,
    progress: Optional[ProgressReporter] = None,
    cache_dir=None,
    checkpoint_dir=None,
    resume: bool = False,
    checkpoint_every: int = 1,
) -> BuiltDictionary:
    """Build a fault dictionary of the requested ``kind``.

    Pass either a prepared ``table`` or the ``netlist``/``faults``/``tests``
    triple (the response table is then fault-simulated here).  ``kind`` is
    one of ``"same-different"`` (the paper's Procedures 1/2 with random
    restarts), ``"pass-fail"``, or ``"full"``.  All tuning lives in
    ``config``; ``progress`` receives per-restart events for the
    same-different build.

    ``cache_dir`` names an on-disk build cache
    (:class:`~repro.store.cache.BuildCache`): when an artifact whose
    content hash matches the build inputs exists there, it is loaded and
    returned — for the ``netlist`` entry path that skips even the fault
    simulation — and otherwise the fresh build is stored for next time.
    See ``docs/artifacts.md`` for the cache-key rules.

    ``checkpoint_dir`` makes a long same-different build resumable: the
    restart fold writes an ``RFDC`` checkpoint
    (:mod:`repro.store.checkpoint`) keyed by the same content hash the
    cache uses, every ``checkpoint_every`` folded restarts.  With
    ``resume=True`` a matching checkpoint left by a killed build is
    restored before the first restart runs, and the finished build is
    byte-identical to an uninterrupted one (``docs/scaling.md``).
    Checkpoints only apply to ``kind="same-different"`` — the other
    kinds have no restart loop — and a completed build removes its
    checkpoint file.
    """
    if table is None:
        if netlist is None or faults is None or tests is None:
            raise ValueError(
                "build() needs either table= or all of netlist=, faults=, tests="
            )
    elif netlist is not None or faults is not None or tests is not None:
        raise ValueError(
            "build() takes either table= or netlist=/faults=/tests=, not both"
        )
    if resume and checkpoint_dir is None:
        raise ValueError("build(resume=True) requires checkpoint_dir=")
    config = config if config is not None else DictionaryConfig()
    if kind not in KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r} (expected one of {KINDS})")

    cache = key = None
    if cache_dir is not None or checkpoint_dir is not None:
        # Imported lazily: repro.store imports this module.
        from .store import BuildCache, build_inputs_hash, table_content_hash

        key = (
            table_content_hash(table, kind, config)
            if table is not None
            else build_inputs_hash(netlist, faults, tests, kind, config)
        )
        if cache_dir is not None:
            cache = BuildCache(cache_dir)
            cached = cache.get(key)
            if cached is not None:
                return cached

    if table is None:
        table = ResponseTable.build(netlist, faults, tests)
    if kind == "same-different":
        checkpoint = None
        if checkpoint_dir is not None:
            from .store.checkpoint import CheckpointManager

            checkpoint = CheckpointManager(
                checkpoint_dir, every=checkpoint_every
            ).session(key, kind=kind, config=config, resume=resume)
        dictionary, report = _build_impl(table, config, progress, checkpoint)
        built = BuiltDictionary(dictionary, table, kind, config, report)
    elif kind == "pass-fail":
        built = BuiltDictionary(PassFailDictionary(table), table, kind, config)
    else:
        built = BuiltDictionary(FullDictionary(table), table, kind, config)
    if cache is not None:
        cache.put(built, key)
    return built


def serve(artifact=None, *, config=None):
    """Stand up a batch diagnosis server over packed artifacts.

    ``artifact`` is the default artifact path for requests that do not
    name their own; ``config`` is a :class:`~repro.serve.ServeConfig`
    carrying the whole operating envelope (pool size, deadline, retry
    policy, fleet defaults).  Returns a
    :class:`~repro.serve.DiagnosisServer`, which serves a batch in
    request order on the calling thread; see ``docs/serving.md`` for
    batch semantics and reason codes.
    """
    # Imported lazily: repro.serve imports repro.store, which imports us.
    from .serve import DiagnosisServer, ServeConfig

    if config is None:
        config = ServeConfig()
    return DiagnosisServer(config, default_artifact=artifact)


def serve_daemon(
    artifact=None,
    *,
    config=None,
    serve_config=None,
    host: str = "127.0.0.1",
    port: int = 8132,
    **daemon_kwargs,
):
    """Construct the asyncio network daemon (without starting it).

    The config-first counterpart of :func:`serve` for the long-running
    deployment shape: returns a
    :class:`~repro.serve.daemon.DiagnosisDaemon` wired over a
    :class:`~repro.serve.DiagnosisServer`.  Drive it with
    ``asyncio.run(daemon.run_until_stopped())``, or use
    :func:`repro.serve.daemon.start_in_thread` to run it on a background
    thread (the pattern the daemon test suite and benchmarks use).

    ``config`` is a full :class:`~repro.serve.daemon.DaemonConfig` (all
    other arguments must then be left at their defaults); otherwise one
    is assembled from ``artifact``, ``serve_config``, ``host``/``port``
    and any remaining ``DaemonConfig`` fields passed as keywords
    (``workers=``, ``max_inflight=``, ``tenant_quotas=``, ...).  The
    daemon's ``workers`` threads are the serve layer's one pool.
    Protocol and operations guidance live in ``docs/daemon.md``.
    """
    from .serve import ServeConfig
    from .serve.daemon import DaemonConfig, DiagnosisDaemon

    if config is not None:
        if artifact is not None or serve_config is not None or daemon_kwargs:
            raise ValueError(
                "serve_daemon() takes either a full config= or the "
                "individual fields, not both"
            )
        return DiagnosisDaemon(config)
    config = DaemonConfig(
        host=host,
        port=port,
        serve=serve_config if serve_config is not None else ServeConfig(),
        default_artifact=str(artifact) if artifact is not None else None,
        **daemon_kwargs,
    )
    return DiagnosisDaemon(config)
