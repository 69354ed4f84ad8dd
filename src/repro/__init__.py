"""repro — a reproduction of "A Same/Different Fault Dictionary" (DATE 2008).

The package implements the paper's same/different fault dictionary on top
of a complete from-scratch substrate: gate-level netlists, bit-parallel
logic and stuck-at fault simulation, PODEM-based ATPG (detection,
n-detection and diagnostic test sets), fault collapsing, the three
dictionary organisations (full, pass/fail, same/different with Procedures
1 and 2), a cause-effect diagnosis engine and the Table 6 experiment
harness.

Quickstart (the public construction surface is :mod:`repro.api`)::

    from repro import load_circuit, prepare_for_test, collapse
    from repro import generate_diagnostic_tests
    from repro import DictionaryConfig, build

    netlist = prepare_for_test(load_circuit("s27"))
    faults = collapse(netlist)
    tests, _ = generate_diagnostic_tests(netlist, faults)
    built = build(netlist=netlist, faults=faults, tests=tests,
                  config=DictionaryConfig(calls1=100))
    passfail = build(table=built.table, kind="pass-fail")
    print(built.dictionary.indistinguished_pairs(),
          passfail.dictionary.indistinguished_pairs())
"""

from .api import BuiltDictionary, DictionaryConfig, build, serve_daemon
from .circuit import (
    GateType,
    GeneratorSpec,
    Netlist,
    available_circuits,
    full_scan,
    generate_netlist,
    load_circuit,
    prepare_for_test,
)
from .faults import Fault, all_faults, checkpoint_faults, collapse
from .sim import FaultSimulator, ResponseTable, TestSet, simulate
from .atpg import (
    Distinguisher,
    Podem,
    generate_detection_tests,
    generate_diagnostic_tests,
    generate_ndetect_tests,
)
from .dictionaries import (
    DictionarySizes,
    FullDictionary,
    PassFailDictionary,
    SameDifferentDictionary,
)
from .diagnosis import Diagnoser, observe_defect, observe_fault
from .experiments import render_table6, run_table6, table6_row
from .obs import (
    MetricsRegistry,
    Tracer,
    get_default_registry,
    scoped_registry,
    scoped_tracer,
    trace_span,
)

__version__ = "1.0.0"

__all__ = [
    "BuiltDictionary",
    "Diagnoser",
    "DictionaryConfig",
    "DictionarySizes",
    "Distinguisher",
    "Fault",
    "FaultSimulator",
    "FullDictionary",
    "GateType",
    "GeneratorSpec",
    "MetricsRegistry",
    "Netlist",
    "PassFailDictionary",
    "Podem",
    "ResponseTable",
    "SameDifferentDictionary",
    "TestSet",
    "Tracer",
    "all_faults",
    "available_circuits",
    "build",
    "checkpoint_faults",
    "collapse",
    "full_scan",
    "generate_detection_tests",
    "generate_diagnostic_tests",
    "generate_ndetect_tests",
    "generate_netlist",
    "get_default_registry",
    "load_circuit",
    "observe_defect",
    "observe_fault",
    "prepare_for_test",
    "render_table6",
    "run_table6",
    "scoped_registry",
    "scoped_tracer",
    "serve_daemon",
    "simulate",
    "table6_row",
    "trace_span",
]
