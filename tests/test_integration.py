"""End-to-end pipeline integration tests.

One small circuit is pushed through the entire system — generation, scan,
collapsing, ATPG (both engines), response capture, all dictionary
organisations, serialization, and diagnosis — with cross-checks at every
hand-off.  This is the "does the whole machine hang together" suite.
"""

import pytest

from repro import (
    Diagnoser,
    DictionarySizes,
    FullDictionary,
    PassFailDictionary,
    ResponseTable,
    collapse,
    generate_diagnostic_tests,
    load_circuit,
    observe_fault,
    prepare_for_test,
)
from repro.atpg import SatAtpg, Status, generate_ndetect_tests
from repro.circuit import GeneratorSpec, full_scan, generate_netlist
from repro.dictionaries import pack_samediff, unpack_samediff
from repro.diagnosis import TwoStageDiagnoser
from repro.sim import FaultSimulator
from tests.util import build_sd


@pytest.fixture(scope="module")
def pipeline():
    """The full flow on a fresh 40-gate random sequential circuit."""
    spec = GeneratorSpec("it", n_inputs=6, n_outputs=3, n_flip_flops=3, n_gates=40, seed=77)
    netlist, _ = full_scan(generate_netlist(spec))
    faults = collapse(netlist)
    tests, report = generate_diagnostic_tests(netlist, faults, seed=7)
    simulator = FaultSimulator(netlist, tests)
    detected = [f for f in faults if simulator.detection_word(f)]
    table = ResponseTable.build(netlist, detected, tests)
    samediff, build = build_sd(table, calls=20, seed=7)
    return netlist, faults, tests, report, table, samediff, build


class TestPipeline:
    def test_test_generation_classified_everything(self, pipeline):
        _, faults, _, report, _, _, _ = pipeline
        generation = report.generation
        classified = (
            len(generation.detected)
            + len(generation.untestable)
            + len(generation.aborted)
        )
        assert classified == len(faults)
        assert generation.fault_efficiency > 0.9

    def test_untestable_confirmed_by_sat(self, pipeline):
        netlist, _, _, report, _, _, _ = pipeline
        engine = SatAtpg(netlist)
        for fault in report.generation.untestable[:10]:
            assert engine.generate(fault).status is Status.UNTESTABLE, str(fault)

    def test_dictionary_hierarchy(self, pipeline):
        _, _, _, _, table, samediff, _ = pipeline
        full = FullDictionary(table)
        passfail = PassFailDictionary(table)
        assert (
            full.indistinguished_pairs()
            <= samediff.indistinguished_pairs()
            <= passfail.indistinguished_pairs()
        )
        sizes = DictionarySizes.of(table)
        assert sizes.pass_fail < sizes.same_different < sizes.full

    def test_sd_serialization_roundtrip(self, pipeline):
        _, _, _, _, table, samediff, _ = pipeline
        restored = unpack_samediff(pack_samediff(samediff), table)
        assert restored.indistinguished_pairs() == samediff.indistinguished_pairs()

    def test_every_detected_fault_diagnosable(self, pipeline):
        netlist, _, tests, _, table, samediff, _ = pipeline
        diagnoser = Diagnoser(samediff)
        for i in range(0, table.n_faults, 7):
            observed = observe_fault(netlist, tests, table.faults[i])
            diagnosis = diagnoser.diagnose(observed)
            assert table.faults[i] in diagnosis.exact

    def test_two_stage_confirms_uniquely_where_full_does(self, pipeline):
        netlist, _, tests, _, table, samediff, _ = pipeline
        full = Diagnoser(FullDictionary(table))
        stage = TwoStageDiagnoser(netlist, tests, samediff)
        for i in range(0, table.n_faults, 11):
            observed = observe_fault(netlist, tests, table.faults[i])
            confirmed = set(stage.diagnose(observed).confirmed)
            exact_full = set(full.diagnose(observed).exact)
            assert confirmed == exact_full

    def test_build_report_consistent(self, pipeline):
        _, _, _, _, table, samediff, build = pipeline
        assert (
            build.indistinguished_procedure2 == samediff.indistinguished_pairs()
        )
        assert build.procedure1_calls >= 1


class TestEmbeddedCircuitPipeline:
    def test_s27_ndetect_dictionary_reaches_full(self, s27_scan, s27_faults):
        """The paper's headline on the smallest real circuit."""
        tests, _ = generate_ndetect_tests(s27_scan, s27_faults, n=10, seed=0)
        simulator = FaultSimulator(s27_scan, tests)
        detected = [f for f in s27_faults if simulator.detection_word(f)]
        table = ResponseTable.build(s27_scan, detected, tests)
        samediff, _ = build_sd(table, calls=50, seed=0)
        full = FullDictionary(table)
        assert samediff.indistinguished_pairs() == full.indistinguished_pairs()

    def test_public_api_surface(self):
        """Everything advertised in repro.__all__ resolves."""
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_public_names_are_their_modules_objects(self):
        """Each name in repro.__all__ is the very object the module it is
        imported from exports — not a same-named subpackage that a later
        import bound over it."""
        import ast
        import importlib
        import inspect

        import repro

        origin = {}
        for node in ast.parse(inspect.getsource(repro)).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    origin[alias.asname or alias.name] = node.module
        for name in repro.__all__:
            module = importlib.import_module(f"repro.{origin[name]}")
            assert getattr(repro, name) is getattr(module, name), name

    def test_subpackage_api_surfaces(self):
        import repro.atpg
        import repro.circuit
        import repro.diagnosis
        import repro.dictionaries
        import repro.experiments
        import repro.faults
        import repro.sim

        for module in (
            repro.atpg,
            repro.circuit,
            repro.diagnosis,
            repro.dictionaries,
            repro.experiments,
            repro.faults,
            repro.sim,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module.__name__, name)
