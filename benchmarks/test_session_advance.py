"""In-process adaptive-session advances on a 10k-fault table.

A :class:`~repro.serve.DiagnosisSession` narrows its candidates with one
AND per observation and scores each test with one popcount per stored
value, on fault masks its dictionary derives once.  This bench times the
three costs a served session pays, on a same/different build of the
fixed ``proxy_response_table("b14p", n, 32)`` (10 000 faults, 2 000
under ``REPRO_BENCH_QUICK=1``):

* ``derive_masks`` — the one-off mask derivation of a fresh dictionary
  (kept as its own case, so work moved out of the advances shows here);
* ``first_advance`` — the first greedy suggestion of a fresh session,
  over every fault;
* ``later_advance`` — each further step: observe the ground-truth
  fault's response at the suggested test, then suggest again, until no
  test splits the candidates.

Rounds keep the per-case minimum.  Every session must keep its
ground-truth fault.  The committed baseline gates each case's wall time
through ``tools/bench_report.py --check``.
"""

from __future__ import annotations

import pytest

from benchmarks.util import pick
from repro.api import DictionaryConfig, build
from repro.circuit.generate import proxy_response_table
from repro.dictionaries.samediff import SameDifferentDictionary
from repro.obs import scoped_registry
from repro.serve import DiagnosisSession

N_FAULTS = pick(10_000, 2_000)
N_TESTS = 32
ROUNDS = 5
#: Fresh dictionaries per derivation round; sessions per advance round.
COPIES = 4
SESSIONS = 16


@pytest.fixture(scope="module")
def built():
    table = proxy_response_table("b14p", N_FAULTS, N_TESTS)
    return build(table, config=DictionaryConfig(seed=0, calls1=3))


def test_session_advance(bench, built):
    dictionary = built.dictionary
    table = built.table
    rows = [dictionary.row(i) for i in range(table.n_faults)]
    params = dict(proxy="b14p", n_faults=N_FAULTS, n_tests=N_TESTS)
    label = f"b14p-{N_FAULTS}x{N_TESTS}"
    derive = bench.case(f"derive_masks[{label}]", **params)
    first = bench.case(f"first_advance[{label}]", **params)
    later = bench.case(f"later_advance[{label}]", **params)

    for _ in range(ROUNDS):
        fresh = [
            SameDifferentDictionary(table, dictionary.baselines, rows)
            for _ in range(COPIES)
        ]
        with derive.measure():
            for copy in fresh:
                copy.value_masks()
        assert all(copy.value_masks() == fresh[0].value_masks() for copy in fresh)
    derive.iterations(COPIES)

    faults = range(0, table.n_faults, table.n_faults // SESSIONS)
    responses = [table.full_row(fault) for fault in faults]
    dictionary.value_masks()
    steps = 0
    with scoped_registry():
        for _ in range(ROUNDS):
            sessions = [DiagnosisSession(dictionary) for _ in faults]
            with first.measure():
                suggested = [session.suggest_next_test() for session in sessions]
            steps = 0
            with later.measure():
                for session, row, j in zip(sessions, responses, suggested):
                    while j is not None:
                        session.observe(j, row[j])
                        j = session.suggest_next_test()
                        steps += 1
            for session, fault in zip(sessions, faults):
                assert fault in session.candidates
    first.iterations(len(sessions))
    later.iterations(steps)
    later.info(advances=steps, sessions=len(sessions))
    print(
        f"\n[session-advance] {label}: derive masks "
        f"{derive.wall_seconds / COPIES * 1e3:.2f} ms/dictionary, first advance "
        f"{first.wall_seconds / len(sessions) * 1e3:.3f} ms, later advance "
        f"{later.wall_seconds / steps * 1e3:.3f} ms ({steps} over "
        f"{len(sessions)} sessions)"
    )
