"""Tests for the ``repro.api`` facade: ``build``, ``serve``, ``serve_daemon``."""

import dataclasses

import pytest

from repro import kernels
from repro.api import KINDS, BuiltDictionary, DictionaryConfig, build
from repro.dictionaries import FullDictionary, PassFailDictionary
from repro.kernels.naive import NaiveBackend
from repro.sim import ResponseTable, TestSet
from tests.util import random_table


class TestInputForms:
    def test_table_form(self):
        table = random_table(8, 5, 2, seed=1)
        built = build(table, config=DictionaryConfig(calls1=2))
        assert isinstance(built, BuiltDictionary)
        assert built.table is table
        assert built.kind == "same-different"
        assert built.report is not None
        assert built.dictionary.indistinguished_pairs() == (
            built.report.indistinguished_procedure2
        )

    def test_netlist_triple_form(self, s27_scan, s27_faults):
        tests = TestSet.random(s27_scan.inputs, 10, seed=4)
        built = build(
            netlist=s27_scan,
            faults=s27_faults,
            tests=tests,
            config=DictionaryConfig(calls1=2),
        )
        # The triple form fault-simulates internally; the result must be
        # identical to pre-building the table.
        table = ResponseTable.build(s27_scan, s27_faults, tests)
        direct = build(table, config=DictionaryConfig(calls1=2))
        assert built.dictionary.baselines == direct.dictionary.baselines
        assert built.table.n_faults == table.n_faults

    def test_neither_form_rejected(self):
        with pytest.raises(ValueError, match="either table="):
            build()

    def test_both_forms_rejected(self, s27_scan, s27_faults):
        table = random_table(4, 3, 2, seed=2)
        with pytest.raises(ValueError, match="not both"):
            build(table, netlist=s27_scan)

    def test_partial_triple_rejected(self, s27_scan):
        with pytest.raises(ValueError):
            build(netlist=s27_scan)


class TestKinds:
    def test_kinds_tuple_is_the_contract(self):
        assert KINDS == ("same-different", "pass-fail", "full")

    def test_pass_fail(self):
        table = random_table(8, 5, 2, seed=3)
        built = build(table, kind="pass-fail")
        assert isinstance(built.dictionary, PassFailDictionary)
        assert built.report is None
        assert built.config == DictionaryConfig()

    def test_full(self):
        table = random_table(8, 5, 2, seed=3)
        built = build(table, kind="full")
        assert isinstance(built.dictionary, FullDictionary)
        assert built.report is None

    def test_unknown_kind_rejected(self):
        table = random_table(4, 3, 2, seed=5)
        with pytest.raises(ValueError, match="unknown dictionary kind"):
            build(table, kind="fuzzy")

    def test_resolution_chain_across_kinds(self):
        table = random_table(12, 6, 2, seed=6)
        by_kind = {
            kind: build(table, kind=kind, config=DictionaryConfig(calls1=3))
            for kind in KINDS
        }
        assert (
            by_kind["full"].dictionary.indistinguished_pairs()
            <= by_kind["same-different"].dictionary.indistinguished_pairs()
            <= by_kind["pass-fail"].dictionary.indistinguished_pairs()
        )


class TestConfig:
    def test_config_is_frozen(self):
        config = DictionaryConfig()
        with pytest.raises(Exception):
            config.calls1 = 7

    def test_defaults_are_the_papers(self):
        config = DictionaryConfig()
        assert (config.seed, config.calls1, config.lower) == (0, 100, 10)
        assert config.procedure2 is True

    def test_config_has_only_the_papers_knobs(self):
        names = [field.name for field in dataclasses.fields(DictionaryConfig)]
        assert names == ["seed", "calls1", "lower", "procedure2"]

    def test_backend_selection_flows_through(self, monkeypatch):
        # The test seam: the procedures read repro.kernels.KERNEL at call
        # time, so a kernel swapped in there runs the restart loop.
        restarts = []

        class Recording(NaiveBackend):
            def procedure1(self, table, order, lower, timings=None):
                restarts.append(list(order))
                return super().procedure1(table, order, lower, timings)

        table = random_table(10, 5, 2, seed=7)
        packed = build(table, config=DictionaryConfig(calls1=2))
        monkeypatch.setattr(kernels, "KERNEL", Recording())
        naive = build(table, config=DictionaryConfig(calls1=2))
        assert len(restarts) == naive.report.procedure1_calls > 0
        assert naive.dictionary.baselines == packed.dictionary.baselines

    def test_invalid_calls_and_jobs_rejected(self):
        table = random_table(6, 4, 2, seed=8)
        with pytest.raises(ValueError, match="CALLS1"):
            build(table, config=DictionaryConfig(calls1=0))
        # Restarts always run in-process: there is no jobs knob to set.
        with pytest.raises(TypeError, match="jobs"):
            DictionaryConfig(jobs=2)


class TestServeFacade:
    def test_config_carries_the_envelope(self):
        from repro.api import serve
        from repro.serve import ServeConfig

        server = serve(config=ServeConfig(workers=2))
        assert server.config.workers == 2

    def test_bare_call_uses_the_default_config(self):
        from repro.api import serve
        from repro.serve import ServeConfig

        assert serve().config == ServeConfig()

    def test_loose_kwargs_are_rejected(self):
        from repro.api import serve

        with pytest.raises(TypeError, match="unexpected keyword"):
            serve(workers=2)


class TestServeDaemonFacade:
    def test_assembles_a_daemon_from_fields(self):
        from repro.api import serve_daemon
        from repro.serve import ServeConfig

        daemon = serve_daemon(
            "a.rfd", serve_config=ServeConfig(workers=2),
            port=0, max_inflight=4,
        )
        assert daemon.config.max_inflight == 4
        assert daemon.config.default_artifact == "a.rfd"
        assert daemon.server.config.workers == 2
        assert daemon.state == "idle"

    def test_full_config_excludes_the_field_shape(self):
        from repro.api import serve_daemon
        from repro.serve.daemon import DaemonConfig

        daemon = serve_daemon(config=DaemonConfig(port=0))
        assert daemon.config.port == 0
        with pytest.raises(ValueError, match="full config="):
            serve_daemon("a.rfd", config=DaemonConfig(port=0))
