"""The kernel backend protocol and registry.

A *kernel backend* bundles the pair-counting primitives the dictionary
procedures spend their time in: ``dist(z)`` candidate scoring for
Procedure 1, the Procedure 2 hill-climb, and the indistinguished-pair
counts of the pass/fail and full organisations.  Two implementations
ship with the repo:

* ``naive`` — the original pure-Python reference paths in
  :mod:`repro.dictionaries.samediff`; trivially correct, used as the
  differential oracle.
* ``packed`` — interned integer signature ids over precomputed columns
  (:mod:`repro.kernels.interning`) with entry-major, then class-major
  scoring and detection-word skipping (:mod:`repro.kernels.packed`).

Backends must be *byte-identical*: same baselines, same counts, same
metrics, for every input.  ``REPRO_BACKEND`` selects the process-wide
default; see ``docs/kernels.md`` for the layouts and for how to register
another backend.

The registry is the single source of truth for what exists: the CLI's
``--backend`` choices *and* help text are generated from it
(:func:`backend_choices_help`), so a newly registered backend can never
drift out of the user-facing help string.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..sim.responses import ResponseTable, Signature

#: Environment variable holding the default backend name.
BACKEND_ENV = "REPRO_BACKEND"

#: Name used when neither an explicit name nor the environment chooses.
DEFAULT_BACKEND = "packed"


@dataclass
class Procedure1Run:
    """Outcome of one Procedure 1 call, backend-neutral.

    ``winners`` records, per test that split anything, ``(test_index,
    candidate_index)`` of the selected baseline (candidate 0 is the
    fault-free response) — enough to replay the splits into a
    :class:`~repro.partition.FaultPartition` when a caller needs
    the final partition, without paying for it on the restart hot path.
    ``partition`` is pre-materialised by backends that build one anyway
    (the naive path); ``None`` otherwise.
    """

    baselines: List[Signature]
    distinguished: int
    evaluated: int
    cutoffs: int
    winners: List[Tuple[int, int]] = field(default_factory=list)
    partition: Optional[object] = None


@runtime_checkable
class KernelBackend(Protocol):
    """The primitive operations a dictionary-construction backend provides.

    All methods must return values identical to the ``naive`` reference
    backend for the same inputs — backends trade time, never results.
    """

    name: str

    def prepare(self, table: ResponseTable) -> None:
        """Materialise whatever cached view this backend scores from.

        Called once per table by the build driver, outside the per-phase
        timers and before a parallel build pickles the table to its
        workers — so derived layouts ship with the table instead of
        being re-derived per worker process.  Must be idempotent; the
        naive backend's is a no-op.
        """
        ...

    def procedure1(
        self,
        table: ResponseTable,
        order: Sequence[int],
        lower: int,
        timings: Optional[Dict[str, float]] = None,
    ) -> Procedure1Run:
        """Greedy per-test baseline selection over one test order.

        ``timings``, when a dict is passed, accumulates the seconds spent
        in the candidate-scoring loop under key ``"scoring"`` (bench
        instrumentation; pass ``None`` in production).
        """
        ...

    def candidate_distances(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[Tuple[int, Signature, List[int]]]:
        """``(dist, signature, members)`` per candidate of ``Z_j``, eagerly."""
        ...

    def refine_scores(
        self, table: ResponseTable, test_index: int, partition
    ) -> List[int]:
        """Class-major ``dist(z)`` per candidate id of ``Z_j`` (0 = fault-free).

        One pass over the live classes of ``partition`` (a
        :class:`~repro.partition.FaultPartition`) scores *every* candidate
        of the test at once; ``dist[sid]`` is the number of
        still-indistinguished pairs candidate ``sid`` would split.  The
        member lists of :meth:`candidate_distances` are not computed —
        this is the refinement-delta primitive the selection loops drive.
        """
        ...

    def passfail_indistinguished(self, table: ResponseTable) -> int:
        """Indistinguished pairs of the pass/fail dictionary."""
        ...

    def full_indistinguished(self, table: ResponseTable) -> int:
        """Indistinguished pairs of the full dictionary."""
        ...

    def replace(
        self,
        table: ResponseTable,
        baselines: Sequence[Signature],
        max_passes: int,
    ) -> Tuple[List[Signature], int, int, int, int]:
        """Procedure 2 hill-climb.

        Returns ``(baselines, distinguished, passes, replacements,
        attempts)``.
        """
        ...


_REGISTRY: Dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register_backend(
    name: str, factory: Callable[[], KernelBackend], description: str = ""
) -> None:
    """Register a backend factory under ``name`` (last registration wins).

    ``description`` is a short human-readable phrase surfaced wherever
    the registry is rendered for users — notably the CLI ``--backend``
    help via :func:`backend_choices_help`.
    """
    _REGISTRY[name] = factory
    _DESCRIPTIONS[name] = description
    _INSTANCES.pop(name, None)


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_descriptions() -> Dict[str, str]:
    """``name -> description`` for every registered backend, name-sorted."""
    return {name: _DESCRIPTIONS.get(name, "") for name in available_backends()}


def backend_choices_help() -> str:
    """The one help string describing every registered backend.

    Generated from the registry so the CLI ``--backend`` flag (and any
    other surface quoting it) can never drift from
    :func:`available_backends` — a drift test in
    ``tests/kernels/test_backends.py`` holds them together.
    """
    parts = ", ".join(
        f"'{name}' ({description})" if description else f"'{name}'"
        for name, description in backend_descriptions().items()
    )
    return (
        f"kernel backend for the inner loops: {parts}; default "
        f"${BACKEND_ENV} or '{DEFAULT_BACKEND}'. Results are identical "
        f"for any choice, see docs/kernels.md"
    )


def default_backend_name() -> str:
    """The process-wide default: ``$REPRO_BACKEND`` or ``packed``."""
    return os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve a backend instance by name (default: :func:`default_backend_name`).

    Instances are cached per name — backends are stateless between calls.
    """
    resolved = name or default_backend_name()
    instance = _INSTANCES.get(resolved)
    if instance is None:
        try:
            factory = _REGISTRY[resolved]
        except KeyError:
            raise KeyError(
                f"unknown kernel backend {resolved!r}; "
                f"available: {', '.join(available_backends())}"
            ) from None
        instance = _INSTANCES[resolved] = factory()
    return instance
