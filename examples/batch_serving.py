"""Batch diagnosis serving: pack once, serve many failing chips.

The build side packs a dictionary into one artifact file; the serve side
— which needs no circuit files, ATPG or simulator — answers a whole
batch of failing-chip requests through `repro.api.serve()`, including a
degraded request and an incremental multi-observation session.  See
docs/serving.md for the request format and reason codes.

Usage::

    python examples/batch_serving.py
"""

import json
import tempfile
from pathlib import Path

import repro
from repro import DictionaryConfig, build
from repro.api import serve
from repro.diagnosis import observe_fault
from repro.serve import ServeConfig
from repro.store import save_artifact


def main() -> None:
    # ---- build side: pack the dictionary once -------------------------
    netlist = repro.prepare_for_test(repro.load_circuit("s27"))
    faults = repro.collapse(netlist)
    tests, _ = repro.generate_diagnostic_tests(netlist, faults)
    built = build(
        netlist=netlist, faults=faults, tests=tests,
        config=DictionaryConfig(seed=0, calls1=10),
    )
    artifact = Path(tempfile.mkdtemp()) / "s27.rfd"
    save_artifact(built, artifact)
    print(f"packed {built.kind}: {built.table.n_faults} faults x "
          f"{built.table.n_tests} tests -> {artifact.name}")

    # ---- tester side: observed responses of two failing chips ---------
    chip_one = observe_fault(netlist, tests, faults[3])
    chip_two = observe_fault(netlist, tests, faults[7])

    # ---- serve side: one batch, mixed request flavours ----------------
    server = serve(artifact, config=ServeConfig(deadline_ms=500, workers=2))
    requests = [
        {"id": "chip-1", "observed": [list(sig) for sig in chip_one]},
        {"id": "chip-2", "observed": [list(sig) for sig in chip_two]},
        {"id": "named", "fault": str(faults[5])},
        {"id": "hurt", "observed": [[0]]},  # wrong test count: degrades
        {"id": "incremental",
         "observations": [[j, list(chip_one[j])] for j in range(6)]},
    ]
    outcomes = server.serve_jsonl(json.dumps(doc) + "\n" for doc in requests)
    print("\nbatch outcomes (no request can fail the batch):")
    for outcome in outcomes:
        extra = ""
        if outcome.code == "ok" and outcome.exact:
            extra = f" exact={outcome.exact}"
        elif outcome.narrowing:
            extra = f" narrowing={outcome.narrowing}"
        elif outcome.detail:
            extra = f" ({outcome.detail})"
        print(f"  {outcome.request_id:>12}: {outcome.code}{extra}")

    # ---- incremental session with greedy next-test suggestion ---------
    session = server.session(str(artifact))
    print("\nadaptive session against chip-1:")
    while not session.converged:
        j = session.suggest_next_test()
        if j is None:
            break
        update = session.observe(j, chip_one[j])
        print(f"  observe test {j:2d}: {update.before:2d} -> "
              f"{update.after:2d} candidates")
    names = [str(fault) for fault in session.candidate_faults()]
    print(f"converged after {len(session.history)} observations: {names}")
    assert str(faults[3]) in names, "ground truth must survive narrowing"


if __name__ == "__main__":
    main()
