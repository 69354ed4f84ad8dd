"""The BENCH_*.json schema: recorder, round trip, versioning, merge."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    BENCH_SCHEMA,
    BenchRecorder,
    BenchResult,
    BenchSchemaError,
    scoped_registry,
)
from repro.obs.bench import BenchCase, load_results


def small_result(area="demo", wall=0.5, quick=False):
    recorder = BenchRecorder(area, quick=quick)
    case = recorder.case("alpha", circuit="p208")
    case.record(wall, cpu_seconds=wall * 0.9)
    case.iterations(10)
    case.info(faults=291)
    case.gate("speedup", 4.0, higher_is_better=True, tolerance=0.25)
    return recorder.result()


class TestRecorder:
    def test_measure_records_wall_and_cpu(self):
        recorder = BenchRecorder("demo")
        case = recorder.case("timed")
        with case.measure():
            sum(range(10000))
        bench_case = recorder.result().case("timed")
        assert bench_case.rounds == 1
        assert bench_case.wall_seconds > 0
        assert bench_case.cpu_seconds is not None

    def test_run_keeps_best_of_rounds_and_last_value(self):
        recorder = BenchRecorder("demo")
        case = recorder.case("fn")
        value = case.run(lambda: 42, rounds=3)
        assert value == 42
        bench_case = recorder.result().case("fn")
        assert bench_case.rounds == 3
        assert bench_case.wall_seconds == min(bench_case.wall_samples)

    def test_case_reentry_merges_into_one_case(self):
        recorder = BenchRecorder("demo")
        recorder.case("same").record(0.5)
        recorder.case("same").record(0.2)
        assert len(recorder) == 1
        assert recorder.result().case("same").wall_seconds == 0.2

    def test_throughput_derived_from_iterations(self):
        case = BenchCase(name="x", iterations=100, wall_seconds=0.5)
        assert case.throughput == pytest.approx(200.0)
        assert BenchCase(name="y").throughput is None

    def test_result_snapshots_the_registry(self):
        with scoped_registry() as registry:
            registry.counter("demo.count").inc(7)
            registry.timer("demo.seconds").record(0.25)
            result = small_result()
        assert result.metrics["counters"]["demo.count"] == 7
        timers = result.metrics["timers"]["demo.seconds"]
        for key in ("p50", "p90", "p95", "p99"):
            assert key in timers


class TestSchema:
    def test_round_trip(self):
        result = small_result()
        restored = BenchResult.from_dict(json.loads(result.to_json()))
        assert restored.area == result.area
        case = restored.case("alpha")
        assert case.params == {"circuit": "p208"}
        assert case.wall_seconds == pytest.approx(0.5)
        assert case.throughput == pytest.approx(20.0)
        assert case.info == {"faults": 291}
        assert case.gates["speedup"] == {
            "value": 4.0, "higher_is_better": True, "tolerance": 0.25,
        }

    def test_write_and_load(self, tmp_path):
        path = small_result().write(tmp_path)
        assert path.name == "BENCH_demo.json"
        assert BenchResult.load(path).case("alpha").wall_seconds == 0.5

    @pytest.mark.parametrize("schema", (0, BENCH_SCHEMA + 1, None, "1"))
    def test_other_schema_versions_are_rejected(self, schema):
        data = small_result().as_dict()
        data["schema"] = schema
        with pytest.raises(BenchSchemaError):
            BenchResult.from_dict(data)

    def test_malformed_payloads_are_rejected(self, tmp_path):
        with pytest.raises(BenchSchemaError):
            BenchResult.from_dict([1, 2, 3])
        with pytest.raises(BenchSchemaError):
            BenchResult.from_dict({"schema": BENCH_SCHEMA})  # no area
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchSchemaError):
            BenchResult.load(bad)


class TestMerge:
    def test_merge_keeps_best_timing_and_sums_rounds(self):
        first = small_result(wall=0.5)
        second = small_result(wall=0.3)
        first.merge(second)
        case = first.case("alpha")
        assert case.wall_seconds == pytest.approx(0.3)
        assert case.rounds == 2
        assert first.runs == 2

    def test_merge_keeps_the_better_gate_value(self):
        first = small_result()
        second = small_result()
        second.case("alpha").gates["speedup"]["value"] = 6.0
        first.merge(second)
        assert first.case("alpha").gates["speedup"]["value"] == 6.0
        # Lower-is-better gates keep the smaller side.
        a = small_result()
        b = small_result()
        for result, value in ((a, 1.02), (b, 1.01)):
            result.case("alpha").gates["overhead"] = {
                "value": value, "higher_is_better": False, "tolerance": 0.1,
            }
        a.merge(b)
        assert a.case("alpha").gates["overhead"]["value"] == 1.01

    def test_merge_appends_unknown_cases(self):
        first = small_result()
        second = small_result()
        second.cases.append(BenchCase(name="beta", wall_seconds=1.0, rounds=1))
        first.merge(second)
        assert {c.name for c in first.cases} == {"alpha", "beta"}

    def test_merge_rejects_a_different_area(self):
        with pytest.raises(ValueError):
            small_result("demo").merge(small_result("other"))

    def test_quick_only_if_both_runs_were_quick(self):
        full = small_result(quick=False)
        quick = small_result(quick=True)
        quick.merge(small_result(quick=True))
        assert quick.quick
        full.merge(quick)
        assert not full.quick

    def test_load_results_merges_duplicate_areas(self, tmp_path):
        small_result(wall=0.5).write(tmp_path)
        other = small_result(wall=0.2)
        (tmp_path / "BENCH_demo2.json").write_text(other.to_json())
        # Same area under two filenames: load_results folds them.
        results = load_results(tmp_path)
        assert set(results) == {"demo"}
        assert results["demo"].case("alpha").wall_seconds == pytest.approx(0.2)
