"""Build cache: hits skip fault simulation, corruption degrades to a miss."""

import pytest

from repro.api import DictionaryConfig, build
from repro.circuit import load_circuit, prepare_for_test
from repro.faults import collapse
from repro.obs import scoped_registry
from repro.sim import TestSet
from repro.store import ARTIFACT_SUFFIX, BuildCache, build_inputs_hash
from tests.util import add_retired_header_keys, random_table


@pytest.fixture()
def s27_inputs():
    netlist = prepare_for_test(load_circuit("s27"))
    faults = collapse(netlist)
    tests = TestSet(netlist.inputs, [17, 42, 99, 3, 122, 64, 77, 5])
    return netlist, faults, tests


def _build_s27(inputs, cache_dir):
    netlist, faults, tests = inputs
    return build(
        netlist=netlist,
        faults=faults,
        tests=tests,
        config=DictionaryConfig(seed=0, calls1=3),
        cache_dir=cache_dir,
    )


class TestBuildCache:
    def test_second_build_simulates_nothing(self, tmp_path, s27_inputs):
        """The acceptance criterion: a warm cache means zero simulator work."""
        with scoped_registry() as registry:
            cold = _build_s27(s27_inputs, tmp_path)
            assert registry.counter("faultsim.faults_simulated").value > 0
            assert registry.counter("store.cache_misses").value == 1
            assert registry.counter("store.cache_stores").value == 1
        with scoped_registry() as registry:
            warm = _build_s27(s27_inputs, tmp_path)
            assert registry.counter("faultsim.faults_simulated").value == 0
            assert registry.counter("store.cache_hits").value == 1
            assert registry.counter("store.cache_misses").value == 0
        assert warm.dictionary.baselines == cold.dictionary.baselines
        assert warm.report.as_dict() == cold.report.as_dict()
        for i in range(cold.table.n_faults):
            assert warm.table.full_row(i) == cold.table.full_row(i)

    def test_cache_file_is_content_addressed(self, tmp_path, s27_inputs):
        netlist, faults, tests = s27_inputs
        _build_s27(s27_inputs, tmp_path)
        key = build_inputs_hash(
            netlist, faults, tests, "same-different", DictionaryConfig(seed=0, calls1=3)
        )
        assert (tmp_path / f"{key}{ARTIFACT_SUFFIX}").exists()

    def test_config_change_misses(self, tmp_path, s27_inputs):
        netlist, faults, tests = s27_inputs
        _build_s27(s27_inputs, tmp_path)
        with scoped_registry() as registry:
            build(
                netlist=netlist, faults=faults, tests=tests,
                config=DictionaryConfig(seed=1, calls1=3), cache_dir=tmp_path,
            )
            assert registry.counter("store.cache_hits").value == 0
            assert registry.counter("store.cache_misses").value == 1

    def test_jobs_and_backend_do_not_change_the_key(self, tmp_path, s27_inputs):
        # An entry saved while the config still carried the jobs and
        # backend knobs sits under the same key and still hits.
        _build_s27(s27_inputs, tmp_path)
        (entry,) = tmp_path.glob(f"*{ARTIFACT_SUFFIX}")
        add_retired_header_keys(entry)
        with scoped_registry() as registry:
            _build_s27(s27_inputs, tmp_path)
            assert registry.counter("store.cache_hits").value == 1
            assert registry.counter("store.cache_misses").value == 0

    def test_table_and_netlist_paths_have_distinct_keys(self, tmp_path):
        table = random_table(6, 5, 2, seed=3)
        config = DictionaryConfig(seed=0, calls1=3)
        with scoped_registry() as registry:
            build(table, config=config, cache_dir=tmp_path)
            build(table, config=config, cache_dir=tmp_path)
            assert registry.counter("store.cache_hits").value == 1
            assert registry.counter("store.cache_misses").value == 1

    def test_corrupt_cache_entry_degrades_to_miss(self, tmp_path, s27_inputs):
        _build_s27(s27_inputs, tmp_path)
        entries = list(tmp_path.glob(f"*{ARTIFACT_SUFFIX}"))
        assert len(entries) == 1
        blob = bytearray(entries[0].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entries[0].write_bytes(bytes(blob))
        with scoped_registry() as registry:
            rebuilt = _build_s27(s27_inputs, tmp_path)
            assert registry.counter("store.cache_invalid").value == 1
            assert registry.counter("store.cache_misses").value == 1
            assert registry.counter("faultsim.faults_simulated").value > 0
        assert rebuilt.report is not None

    def test_no_scratch_files_left_behind(self, tmp_path, s27_inputs):
        _build_s27(s27_inputs, tmp_path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_direct_cache_roundtrip(self, tmp_path):
        table = random_table(5, 4, 2, seed=9)
        built = build(table, config=DictionaryConfig(seed=0, calls1=2))
        cache = BuildCache(tmp_path / "nested" / "cache")
        cache.put(built, "ab" * 32)
        again = cache.get("ab" * 32)
        assert again is not None
        assert again.dictionary.baselines == built.dictionary.baselines
        assert cache.get("cd" * 32) is None
