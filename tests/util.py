"""Shared test helpers (importable as ``tests.util``)."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

from repro.api import DictionaryConfig, build
from repro.faults import Fault
from repro.sim import ResponseTable, TestSet


def build_sd(
    table,
    *,
    calls=100,
    lower=10,
    seed=0,
    replace=True,
    jobs=1,
    progress=None,
    backend=None,
):
    """Build a same/different dictionary through the public facade.

    Returns ``(dictionary, report)``, so tests keep a two-value
    unpacking while exercising :func:`repro.api.build`.
    """
    built = build(
        table,
        config=DictionaryConfig(
            seed=seed,
            calls1=calls,
            lower=lower,
            jobs=jobs,
            procedure2=replace,
            backend=backend,
        ),
        progress=progress,
    )
    return built.dictionary, built.report


def random_table(n_faults, n_tests, n_outputs, seed, density=0.5):
    """A random synthetic ResponseTable (no circuit involved).

    ``density`` is the probability that a (fault, test) pair fails at
    all; failing pairs get a uniform non-empty output signature.
    """
    rng = random.Random(seed)
    faults = [Fault(f"f{i}", 0) for i in range(n_faults)]
    tests = TestSet(("i0",), [0] * n_tests)
    failing = []
    for _ in range(n_faults):
        row = {}
        for j in range(n_tests):
            if rng.random() < density:
                outputs = tuple(
                    sorted(rng.sample(range(n_outputs), rng.randint(1, n_outputs)))
                )
                row[j] = outputs
        failing.append(row)
    good = {f"z{o}": rng.getrandbits(n_tests) for o in range(n_outputs)}
    return ResponseTable(
        tuple(f"z{o}" for o in range(n_outputs)), faults, tests, failing, good
    )


def distinct_table(n_faults, n_tests):
    """Every fault fails every test with its own unique signature ``(i,)``.

    The adversarial shape where each test's candidate set is maximal
    (``|Z_j| == n_faults + 1``) and any failing candidate splits a
    singleton off — the full dictionary resolves everything, so builds
    hit the restart ceiling on the first restart.
    """
    faults = [Fault(f"f{i}", 0) for i in range(n_faults)]
    tests = TestSet(("i0",), [0] * n_tests)
    failing = [
        {j: (i,) for j in range(n_tests)} for i in range(n_faults)
    ]
    good = {f"z{o}": 0 for o in range(max(n_faults, 1))}
    return ResponseTable(
        tuple(f"z{o}" for o in range(max(n_faults, 1))),
        faults, tests, failing, good,
    )


@contextmanager
def numpy_import_blocked():
    """Make ``import numpy`` raise ImportError inside the block.

    Pins the vector backend's stdlib-``array`` fallback the way a
    numpy-less interpreter would: a ``None`` entry in ``sys.modules``
    makes any import attempt fail.  Restores the previous state (and
    evicts nothing else) on exit.
    """
    had = "numpy" in sys.modules
    previous = sys.modules.get("numpy")
    sys.modules["numpy"] = None
    try:
        yield
    finally:
        if had:
            sys.modules["numpy"] = previous
        else:
            del sys.modules["numpy"]


def numpy_free_vector_backend():
    """A ``VectorBackend`` constructed while ``import numpy`` fails.

    The instance runs the pure-Python word-array path for its whole
    life, exactly as it would on a numpy-less interpreter.
    """
    from repro.kernels.vector import VectorBackend

    with numpy_import_blocked():
        return VectorBackend()


@contextmanager
def fallback_vector_registered():
    """Re-register ``vector`` as an instance built with numpy blocked.

    Inside the block, ``get_backend("vector")`` — and therefore builds
    with ``backend="vector"`` — run the pure-Python word-array path even
    when numpy is importable.  The real registration is restored on exit.
    """
    from repro.kernels import register_backend
    from repro.kernels.base import _DESCRIPTIONS
    from repro.kernels.vector import VectorBackend

    description = _DESCRIPTIONS.get("vector", "")
    fallback = numpy_free_vector_backend()
    register_backend("vector", lambda: fallback, description)
    try:
        yield
    finally:
        register_backend("vector", VectorBackend, description)
