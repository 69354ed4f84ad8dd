"""Shared benchmark helpers (importable as ``benchmarks.util``).

Quick-mode handling lives here, once: every suite asks :func:`quick_mode`
/ :func:`pick` instead of reading its own environment variable, so
"quick" means the same thing everywhere — CI sets ``REPRO_BENCH_QUICK=1``
for the bench job, and ``REPRO_EXAMPLES_QUICK=1`` (the examples' switch)
is honoured too so a quick docs run never drags a full sweep in through a
bench import.
"""

from __future__ import annotations

import os

from repro.api import DictionaryConfig, build

#: Any of these set (to a non-empty value) puts the suites in quick mode.
QUICK_ENV_VARS = ("REPRO_BENCH_QUICK", "REPRO_EXAMPLES_QUICK")


def quick_mode() -> bool:
    """True when the benches should shrink to their CI-sized quick form."""
    return any(os.environ.get(name) for name in QUICK_ENV_VARS)


def pick(full, quick):
    """``quick`` in quick mode, ``full`` otherwise — for sizing constants."""
    return quick if quick_mode() else full


def full_sweep() -> bool:
    """True when the large proxies (p641 … p9234) join the sweep."""
    return bool(os.environ.get("REPRO_FULL_SWEEP"))


def build_sd(table, *, calls=100, lower=10, seed=0, replace=True):
    """Same/different build through :func:`repro.api.build`.

    Returns ``(dictionary, report)`` like the legacy entry point, keeping
    the benches on the public facade.
    """
    built = build(
        table,
        config=DictionaryConfig(
            seed=seed, calls1=calls, lower=lower, procedure2=replace
        ),
    )
    return built.dictionary, built.report
