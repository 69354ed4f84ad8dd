"""Tests for the repro-fd command-line interface."""

import pytest

from repro.cli import _parse_fault, main
from repro.faults import Fault


class TestFaultParsing:
    def test_stem(self):
        assert _parse_fault("n3/sa1") == Fault("n3", 1)

    def test_pin(self):
        assert _parse_fault("n3->n7/sa0") == Fault("n3", 0, input_of="n7")

    def test_rejects_garbage(self):
        import argparse

        for bad in ("n3", "n3/sa2", "/sa1", "n3/sax"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_fault(bad)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out and "p9234" in out

    def test_stats(self, capsys):
        assert main(["stats", "s27"]) == 0
        out = capsys.readouterr().out
        assert "collapsed faults" in out
        assert "flip_flops" in out

    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "bl  01  10" in out

    def test_atpg_writes_vectors(self, capsys, tmp_path):
        path = tmp_path / "vectors.txt"
        assert main(["atpg", "s27", "--ttype", "diag", "--output", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        assert all(set(line) <= {"0", "1"} for line in lines)
        assert len(set(map(len, lines))) == 1  # constant width

    def test_diagnose_default_fault(self, capsys):
        assert main(["diagnose", "s27", "--calls", "2"]) == 0
        out = capsys.readouterr().out
        assert "injected:" in out
        assert "same/different" in out

    def test_diagnose_named_fault(self, capsys):
        assert main(["diagnose", "s27", "--fault", "G11/sa0", "--calls", "2"]) == 0
        out = capsys.readouterr().out
        assert "G11/sa0" in out

    def test_diagnose_unknown_fault(self, capsys):
        assert main(["diagnose", "s27", "--fault", "zz/sa0", "--calls", "2"]) == 1

    def test_table6(self, capsys):
        assert main(["table6", "p208", "--calls", "2"]) == 0
        out = capsys.readouterr().out
        assert "ind s/d rand" in out
        assert "p208" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "command",
        [["table6", "p208"], ["pack", "p208", "--out", "x.rfd"],
         ["diagnose", "p208"]],
        ids=["table6", "pack", "diagnose"],
    )
    @pytest.mark.parametrize("flag", ["--jobs=2", "--backend=naive"])
    def test_retired_build_flags_are_usage_errors(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["serve", "batch.jsonl", "--workers=2"],
         ["serve", "batch.jsonl", "--limit=3"],
         ["daemon", "--limit=3"]],
        ids=["serve-workers", "serve-limit", "daemon-limit"],
    )
    def test_retired_serve_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestArtifactFlow:
    def test_pack_then_diagnose_from_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "s27.rfd"
        assert main(["pack", "s27", "--calls", "2", "--out", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "packed s27/diag" in out and "hash" in out
        assert artifact.exists()

        assert main(["diagnose", "--artifact", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "serving from artifact" in out
        assert "injected:" in out
        assert "same/different" in out

    def test_artifact_mode_matches_live_mode(self, capsys, tmp_path):
        artifact = tmp_path / "s27.rfd"
        assert main(["pack", "s27", "--calls", "2", "--out", str(artifact)]) == 0
        capsys.readouterr()
        assert main(
            ["diagnose", "--artifact", str(artifact), "--fault", "G11/sa0"]
        ) == 0
        served = capsys.readouterr().out
        assert main(["diagnose", "s27", "--calls", "2", "--fault", "G11/sa0"]) == 0
        live = capsys.readouterr().out
        # Same candidates, kind by kind; only the artifact banner differs.
        assert served.split("injected:")[1] == live.split("injected:")[1]

    def test_diagnose_requires_circuit_or_artifact(self, capsys):
        assert main(["diagnose"]) == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_diagnose_rejects_both_sources(self, capsys, tmp_path):
        assert main(["diagnose", "s27", "--artifact", str(tmp_path / "x.rfd")]) == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_diagnose_rejects_bad_artifact(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.rfd"
        bogus.write_bytes(b"not an artifact at all")
        assert main(["diagnose", "--artifact", str(bogus)]) == 1
        assert "diagnose:" in capsys.readouterr().err

    def test_diagnose_empty_dictionary_is_a_clean_error(self, capsys, tmp_path):
        # A dictionary over zero faults (satellite: no ZeroDivisionError).
        from repro.api import DictionaryConfig, build
        from repro.store import save_artifact
        from tests.util import random_table

        empty = build(
            random_table(0, 4, 2, seed=0),
            config=DictionaryConfig(seed=0, calls1=1),
        )
        artifact = tmp_path / "empty.rfd"
        save_artifact(empty, artifact)
        assert main(["diagnose", "--artifact", str(artifact)]) == 1
        err = capsys.readouterr().err
        assert "no faults" in err
        # The message must point at the repair path: the 'pack' workflow.
        assert "pack" in err and "--artifact" in err

    def test_diagnose_cache_dir_reuses_build(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(
            ["diagnose", "s27", "--calls", "2", "--cache-dir", str(cache)]
        ) == 0
        capsys.readouterr()
        assert list(cache.glob("*.rfd"))
        assert main(
            ["diagnose", "s27", "--calls", "2", "--cache-dir", str(cache),
             "--metrics-out", "-"]
        ) == 0
        out = capsys.readouterr().out
        import json

        snapshot = json.loads(out)
        assert snapshot["counters"]["store.cache_hits"] == 1


class TestServeCommand:
    @pytest.fixture()
    def artifact(self, tmp_path, capsys):
        path = tmp_path / "s27.rfd"
        assert main(["pack", "s27", "--calls", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def _write_requests(self, tmp_path, docs):
        import json

        path = tmp_path / "requests.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        return path

    def test_serve_batch_from_artifact_only(self, capsys, tmp_path, artifact):
        # No circuit files involved: requests against the packed artifact.
        import json

        requests = self._write_requests(
            tmp_path,
            [
                {"id": "chip-1", "fault": "G11/sa0"},
                {"id": "chip-2", "observations": [[0, []], [1, [0]]]},
            ],
        )
        assert main(["serve", str(requests), "--artifact", str(artifact)]) == 0
        captured = capsys.readouterr()
        outcomes = [json.loads(line) for line in captured.out.splitlines()]
        assert [o["id"] for o in outcomes] == ["chip-1", "chip-2"]
        assert all(o["code"] == "ok" for o in outcomes)
        assert outcomes[0]["exact"] == ["G11/sa0"]
        assert "narrowing" in outcomes[1]
        assert "served 2 requests" in captured.err

    def test_degraded_requests_do_not_fail_the_batch(
        self, capsys, tmp_path, artifact
    ):
        import json

        corrupt = tmp_path / "corrupt.rfd"
        corrupt.write_bytes(artifact.read_bytes()[:40])  # truncated preamble
        requests = self._write_requests(
            tmp_path,
            [
                {"id": "good", "fault": "G11/sa0"},
                {"id": "hurt", "fault": "G11/sa0", "artifact": str(corrupt)},
                {"id": "odd", "observed": [[0]]},
            ],
        )
        out = tmp_path / "outcomes.jsonl"
        assert main(
            ["serve", str(requests), "--artifact", str(artifact),
             "--out", str(out), "--max-retries", "1", "--metrics-out", "-"]
        ) == 0
        captured = capsys.readouterr()
        outcomes = {
            doc["id"]: doc
            for doc in map(json.loads, out.read_text().splitlines())
        }
        assert outcomes["good"]["code"] == "ok"
        assert outcomes["hurt"]["code"] == "artifact_error"
        assert outcomes["hurt"]["attempts"] == 2  # retried once
        assert outcomes["odd"]["code"] == "unmodeled_response"
        snapshot = json.loads(captured.out)
        counters = snapshot["counters"]
        assert counters["serve.outcomes.ok"] == 1
        assert counters["serve.outcomes.artifact_error"] == 1
        assert counters["serve.outcomes.unmodeled_response"] == 1
        assert counters["serve.retries"] == 1

    def test_serve_rejects_unreadable_request_file(self, capsys, tmp_path):
        assert main(["serve", str(tmp_path / "missing.jsonl")]) == 1
        assert "cannot read requests" in capsys.readouterr().err

    def test_serve_rejects_empty_batch(self, capsys, tmp_path, artifact):
        requests = tmp_path / "empty.jsonl"
        requests.write_text("\n\n")
        assert main(
            ["serve", str(requests), "--artifact", str(artifact)]
        ) == 1
        assert "no requests" in capsys.readouterr().err


class TestConvert:
    def test_bench_to_verilog_and_back(self, tmp_path):
        from repro.circuit import bench, load_circuit

        source = tmp_path / "s27.bench"
        bench.dump(load_circuit("s27"), source)
        verilog_path = tmp_path / "s27.v"
        assert main(["convert", str(source), str(verilog_path)]) == 0
        back = tmp_path / "back.bench"
        assert main(["convert", str(verilog_path), str(back)]) == 0
        again = bench.load(back)
        assert again.stats() == load_circuit("s27").stats()

    def test_unsupported_extension(self, tmp_path, capsys):
        src = tmp_path / "x.edif"
        src.write_text("")
        assert main(["convert", str(src), str(tmp_path / "y.bench")]) == 1
