"""Shared test helpers (importable as ``tests.util``)."""

from __future__ import annotations

import hashlib
import json
import random
import struct
from contextlib import contextmanager

from repro import kernels
from repro.api import DictionaryConfig, build
from repro.faults import Fault
from repro.kernels.naive import NaiveBackend
from repro.sim import ResponseTable, TestSet

#: The differential legs: the naive oracle and the production kernel.
KERNELS = {"naive": NaiveBackend(), "packed": kernels.KERNEL}


@contextmanager
def use_kernel(name):
    """Run the production dictionary code on kernel ``name`` in the block.

    The test seam for the naive legs: every procedure reads
    :data:`repro.kernels.KERNEL` at call time, so swapping it routes the
    whole build (restart loop, Procedure 2, pair counts) through the
    oracle.  The ``kernel_leg`` fixture in ``tests/conftest.py`` wraps it.
    """
    previous = kernels.KERNEL
    kernels.KERNEL = KERNELS[name]
    try:
        yield
    finally:
        kernels.KERNEL = previous


def build_sd(table, *, calls=100, lower=10, seed=0, replace=True, progress=None):
    """Build a same/different dictionary through the public facade.

    Returns ``(dictionary, report)``, so tests keep a two-value
    unpacking while exercising :func:`repro.api.build`.
    """
    built = build(
        table,
        config=DictionaryConfig(
            seed=seed, calls1=calls, lower=lower, procedure2=replace
        ),
        progress=progress,
    )
    return built.dictionary, built.report


def add_retired_header_keys(path):
    """Rewrite a saved artifact's header to the layout of builds that still
    had the ``jobs``/``backend`` knobs, and re-seal its body checksum.

    Such headers carry ``config.jobs``, ``config.backend``, ``report.jobs``
    and ``report.batches``; the content hash in the preamble stays as it
    was, as it did for those builds.
    """
    blob = path.read_bytes()
    preamble = struct.calcsize(">4sH32s32s")
    (header_len,) = struct.unpack_from(">I", blob, preamble)
    start = preamble + 4
    header = json.loads(blob[start : start + header_len])
    header["config"].update(jobs=1, backend=None)
    if header["report"] is not None:
        header["report"].update(jobs=1, batches=0)
    old = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = struct.pack(">I", len(old)) + old + blob[start + header_len :]
    checksum = hashlib.sha256(body).digest()
    path.write_bytes(blob[: preamble - len(checksum)] + checksum + body)


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
