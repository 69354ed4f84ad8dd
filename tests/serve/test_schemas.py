"""The typed wire schemas: round-trips, versioning, strict validation."""

from __future__ import annotations

import json

import pytest

from repro.serve.schemas import (
    BAD_REQUEST,
    OK,
    SCHEMA_VERSION,
    DiagnoseRequest,
    DiagnoseResult,
    SchemaError,
    SessionAdvance,
    parse_document,
    parse_jsonl,
)


class TestDiagnoseRequestRoundTrip:
    def test_observed_round_trips(self):
        request = DiagnoseRequest.from_dict(
            {"id": "chip-1", "observed": [[0, 2], [], [1]], "limit": 5},
            default_id="x",
        )
        doc = request.as_dict()
        assert doc["schema"] == SCHEMA_VERSION
        again = DiagnoseRequest.from_dict(doc, default_id="y")
        assert again == request

    def test_fault_and_tenant_round_trip(self):
        request = DiagnoseRequest.from_dict(
            {"fault": "G1/sa1", "artifact": "a.rfd", "tenant": "acme"},
            default_id="r-1",
        )
        assert request.request_id == "r-1"
        assert request.tenant == "acme"
        assert DiagnoseRequest.from_dict(
            json.loads(request.to_json()), default_id="z"
        ) == request

    def test_observations_round_trip(self):
        request = DiagnoseRequest.from_dict(
            {"id": "s", "observations": [[0, [1]], [3, []]]}, default_id="x"
        )
        assert request.observations == ((0, (1,)), (3, ()))
        assert DiagnoseRequest.from_dict(
            request.as_dict(), default_id="x"
        ) == request

    def test_default_fields_are_omitted_from_the_wire(self):
        doc = DiagnoseRequest.from_dict(
            {"id": "a", "fault": "f"}, default_id="x"
        ).as_dict()
        assert set(doc) == {"schema", "id", "fault"}

    def test_fleet_fields_round_trip(self):
        request = DiagnoseRequest.from_dict(
            {
                "id": "a", "fault": "f", "max_faults": 2,
                "flip_budget": 1, "strategy": "entropy",
            },
            default_id="x",
        )
        assert request.max_faults == 2
        assert request.flip_budget == 1
        assert request.strategy == "entropy"
        doc = request.as_dict()
        assert doc["max_faults"] == 2
        assert DiagnoseRequest.from_dict(doc, default_id="x") == request

    def test_fleet_fields_default_to_none_and_stay_off_the_wire(self):
        """A request without the fleet fields serializes byte-identically
        to the pre-fleet wire shape — server defaults apply."""
        request = DiagnoseRequest.from_dict(
            {"id": "a", "fault": "f"}, default_id="x"
        )
        assert request.max_faults is None
        assert request.flip_budget is None
        assert request.strategy is None
        assert set(request.as_dict()) == {"schema", "id", "fault"}

    @pytest.mark.parametrize("doc, fragment", [
        ({"id": "a", "fault": "f", "max_faults": 0}, "max_faults"),
        ({"id": "a", "fault": "f", "max_faults": True}, "max_faults"),
        ({"id": "a", "fault": "f", "flip_budget": -1}, "flip_budget"),
        ({"id": "a", "fault": "f", "strategy": "oracle"}, "strategy"),
        ({"id": "a", "fault": "f", "strategy": 1}, "strategy"),
    ])
    def test_fleet_field_validation(self, doc, fragment):
        with pytest.raises(SchemaError, match=fragment):
            DiagnoseRequest.from_dict(doc, default_id="x")

    def test_session_advance_strategy_round_trips(self):
        advance = SessionAdvance.from_dict(
            {"session": "s", "suggest": True, "strategy": "entropy"}
        )
        assert advance.strategy == "entropy"
        assert SessionAdvance.from_dict(advance.as_dict()) == advance
        plain = SessionAdvance.from_dict({"session": "s"})
        assert plain.strategy is None
        assert "strategy" not in plain.as_dict()


class TestSchemaVersioning:
    def test_missing_schema_field_means_current(self):
        request = DiagnoseRequest.from_dict(
            {"id": "a", "fault": "f"}, default_id="x"
        )
        assert request.fault == "f"

    @pytest.mark.parametrize("version", [0, 2, 99, "1", 1.0, True])
    def test_other_versions_are_rejected(self, version):
        with pytest.raises(SchemaError, match="schema"):
            DiagnoseRequest.from_dict(
                {"schema": version, "id": "a", "fault": "f"}, default_id="x"
            )

    def test_result_and_session_check_the_version_too(self):
        with pytest.raises(SchemaError, match="schema"):
            SessionAdvance.from_dict({"schema": 7, "session": "s"})


class TestStrictValidation:
    @pytest.mark.parametrize("doc, fragment", [
        ([1, 2], "JSON object"),
        ({"id": "a"}, "exactly one of"),
        ({"id": "a", "fault": "f", "observed": [[0]]}, "exactly one of"),
        ({"id": "a", "fault": "f", "bogus": 1}, "unknown request fields"),
        ({"id": "", "fault": "f"}, "non-empty string"),
        ({"id": "a", "fault": ""}, "fault"),
        ({"id": "a", "observed": [[0, 0]]}, "repeats"),
        ({"id": "a", "observed": [[-1]]}, "non-negative"),
        ({"id": "a", "observed": "nope"}, "list"),
        ({"id": "a", "fault": "f", "limit": -1}, "limit"),
        ({"id": "a", "fault": "f", "limit": True}, "limit"),
        ({"id": "a", "fault": "f", "artifact": ""}, "artifact"),
        ({"id": "a", "fault": "f", "tenant": ""}, "tenant"),
        ({"id": "a", "observations": []}, "non-empty"),
        ({"id": "a", "observations": [[0]]}, "pair"),
        ({"id": "a", "observations": [["x", [0]]]}, "test index"),
    ])
    def test_malformations_raise_schema_errors(self, doc, fragment):
        with pytest.raises(SchemaError, match=fragment) as info:
            DiagnoseRequest.from_dict(doc, default_id="x")
        assert info.value.code == BAD_REQUEST

    def test_session_advance_strictness(self):
        with pytest.raises(SchemaError, match="unknown session-advance"):
            SessionAdvance.from_dict({"session": "s", "nope": 1})
        with pytest.raises(SchemaError, match="session"):
            SessionAdvance.from_dict({"suggest": True})
        with pytest.raises(SchemaError, match="suggest"):
            SessionAdvance.from_dict({"session": "s", "suggest": "yes"})

    def test_session_id_from_path_overrides_body(self):
        advance = SessionAdvance.from_dict(
            {"session": "body", "suggest": True}, session_id="path"
        )
        assert advance.session_id == "path"
        assert advance.as_dict()["session"] == "path"


class TestDiagnoseResult:
    def test_freezes_an_outcome_and_round_trips(self):
        result = DiagnoseResult(
            request_id="r", code=OK,
            exact=("a",), ranked=(("a", 9), ("b", 7)),
            attempts=2, elapsed_seconds=0.25,
            narrowing=(5, 3, 1), converged=True,
        )
        doc = result.as_dict()
        assert doc["schema"] == SCHEMA_VERSION
        assert json.loads(json.dumps(doc)) == {
            "schema": SCHEMA_VERSION, "id": "r", "code": OK,
            "exact": ["a"], "ranked": [["a", 9], ["b", 7]],
            "attempts": 2, "elapsed_seconds": 0.25,
            "narrowing": [5, 3, 1], "converged": True,
        }
        assert result.ok
        with pytest.raises(AttributeError):
            result.code = "internal_error"

    def test_policy_block_survives_the_wire(self):
        result = DiagnoseResult(
            request_id="r", code="deadline_expired",
            detail="too slow",
            policy=(("deadline_ms", 5.0), ("max_retries", 2),
                    ("retry_backoff_ms", 10.0)),
        )
        doc = result.as_dict()
        assert doc["policy"] == {
            "deadline_ms": 5.0, "max_retries": 2, "retry_backoff_ms": 10.0,
        }

    def test_outcome_as_dict_is_the_wire_shape_minus_schema(self):
        result = DiagnoseResult(request_id="r", code=OK, exact=("a",))
        doc = json.loads(result.to_json_line())
        assert "schema" not in doc
        wire = result.as_dict()
        wire.pop("schema")
        assert doc == wire


class TestBackCompatAliases:
    """The batch decoders: one request or ``bad_request`` result each."""

    def test_parse_jsonl_still_degrades_bad_lines(self):
        lines = [
            json.dumps({"id": "good", "fault": "f"}),
            "",
            "{broken json",
            json.dumps({"id": "bad", "fault": "f", "schema": 9}),
        ]
        parsed = parse_jsonl(lines)
        assert isinstance(parsed[0], DiagnoseRequest)
        assert isinstance(parsed[1], DiagnoseResult)
        assert parsed[1].code == BAD_REQUEST
        assert parsed[1].request_id == "request-3"
        assert parsed[1].detail.startswith("line 3: invalid JSON")
        assert parsed[2].request_id == "bad"
        assert parsed[2].detail.startswith("line 4: ")
        assert "schema" in parsed[2].detail

    def test_parse_batch_docs_mirrors_parse_jsonl(self):
        parsed = [
            parse_document(doc, number=number)
            for number, doc in enumerate(
                [{"id": "good", "fault": "f"}, {"nonsense": True}], start=1
            )
        ]
        assert isinstance(parsed[0], DiagnoseRequest)
        assert parsed[1].code == BAD_REQUEST
        assert parsed[1].request_id == "request-2"
        assert parsed[1].detail.startswith("request 2: ")
