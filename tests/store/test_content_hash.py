"""``table_content_hash`` read off the detected entries, against the
per-fault encoding it replaced.

The hash once JSON-encoded each fault's ``test -> signature`` dict,
sorted by test.  A table no longer keeps those dicts, so the hash builds
the same per-fault lists from each test's detected entries.  The
reference below is that older encoding, spelled out over the dicts the
table was built from; the two must agree on every table, including
tables with no tests, with no detections and with a two-byte column.
"""

from __future__ import annotations

import hashlib
import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import DictionaryConfig
from repro.faults import Fault
from repro.sim import ResponseTable, TestSet
from repro.store import table_content_hash


def per_fault_hash(table, failing, kind, config):
    """The per-fault JSON document the hash has always covered."""
    doc = {
        "outputs": list(table.outputs),
        "faults": [[f.line, f.stuck_at, f.input_of] for f in table.faults],
        "tests": {
            "inputs": list(table.tests.inputs),
            "vectors": [format(t, "x") for t in table.tests],
        },
        "good": {net: format(w, "x") for net, w in table.good_output_words.items()},
        "responses": [sorted(row.items()) for row in failing],
        "build": {
            "kind": kind,
            "seed": config.seed,
            "calls1": config.calls1,
            "lower": config.lower,
            "procedure2": config.procedure2,
        },
    }
    encoded = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def make_case(n_faults, n_tests, n_outputs, density, seed, wide_test=None):
    """``(failing, table)``; ``wide_test`` answers with about 300 distinct
    signatures, so its column is a two-byte array."""
    rng = random.Random(seed)
    failing = []
    for i in range(n_faults):
        detecting = [j for j in range(n_tests) if rng.random() < density]
        rng.shuffle(detecting)  # insertion order must not matter
        row = {
            j: tuple(sorted(rng.sample(range(n_outputs), rng.randint(1, n_outputs))))
            for j in detecting
        }
        if wide_test is not None:
            row[wide_test] = (i % 300, n_outputs + i % 7)
        failing.append(row)
    outputs = max(n_outputs, 307 if wide_test is not None else 0)
    table = ResponseTable(
        tuple(f"z{o}" for o in range(outputs)),
        [Fault(f"n{i % 5}", i % 2, f"g{i}" if i % 3 else None)
         for i in range(n_faults)],
        TestSet(("a", "b", "c"), (rng.randrange(8) for _ in range(n_tests))),
        failing,
        {f"z{o}": rng.getrandbits(max(n_tests, 1)) for o in range(outputs)},
    )
    return failing, table


@st.composite
def cases(draw):
    n_faults = draw(st.integers(min_value=0, max_value=25))
    n_tests = draw(st.integers(min_value=0, max_value=8))
    n_outputs = draw(st.integers(min_value=1, max_value=4))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return make_case(n_faults, n_tests, n_outputs, density, seed)


@settings(max_examples=60, deadline=None)
@given(case=cases(), kind=st.sampled_from(["same-different", "full"]))
@example(case=make_case(6, 0, 2, 0.5, 1), kind="same-different")
@example(case=make_case(6, 4, 2, 0.0, 2), kind="same-different")
@example(case=make_case(0, 3, 2, 0.5, 3), kind="pass-fail")
@example(case=make_case(400, 3, 3, 0.4, 4, wide_test=1), kind="same-different")
def test_hash_equals_the_per_fault_encoding(case, kind):
    failing, table = case
    config = DictionaryConfig(seed=3, calls1=2)
    assert table_content_hash(table, kind, config) == per_fault_hash(
        table, failing, kind, config
    )


def test_the_wide_example_has_a_two_byte_column():
    _, table = make_case(400, 3, 3, 0.4, 4, wide_test=1)
    assert table.interned.cols[1].typecode == "H"
