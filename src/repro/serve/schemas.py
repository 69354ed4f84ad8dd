"""Typed, versioned wire schemas — the one request model of the serve layer.

Every way into diagnosis serving — the in-process facade
(``repro.api.serve``), the JSONL batch CLI (``repro-fd serve``) and the
network daemon (``repro-fd daemon``, :mod:`repro.serve.daemon`) — speaks
the same frozen dataclasses defined here:

* :class:`DiagnoseRequest` — one failing-chip lookup (``observed=``,
  ``fault=`` or ``observations=``), optionally tenant-tagged;
* :class:`DiagnoseResult` — the one result of a request, degraded or
  not, as the server builds it and the wire carries it;
* :class:`SessionAdvance` — one step of an incremental
  multi-observation session over the daemon.

Requests and session advances are parsed with ``from_dict`` and written
with ``as_dict``; results are only written.  Documents carry a
``"schema"`` field (:data:`SCHEMA_VERSION`); a missing field means
"current", any other value is rejected — so a client built against a
future layout degrades to a reason-coded error instead of being
half-parsed.  Validation is strict and every failure raises
:class:`SchemaError` with a reason code (``bad_request`` unless stated
otherwise) and a precise human detail, which the batch server and the
daemon surface verbatim.  :func:`parse_document` turns one batch
document into a request, or into the ``bad_request`` result that takes
its place; :func:`parse_jsonl` adds the JSON decode of a JSONL stream.

Reason codes (also surfaced as ``serve.outcomes.<code>`` counters and
documented in ``docs/serving.md``):

===================  ====================================================
``ok``               diagnosis ran; ``exact``/``ranked`` are meaningful
``bad_request``      the request itself is malformed (unparseable JSON,
                     missing/contradictory fields, negative limit)
``unmodeled_response``  the observed response does not fit the
                     dictionary: wrong test count, output index out of
                     range, or a named fault absent from the catalogue
``deadline_expired`` the per-request deadline passed before a result
``artifact_error``   the artifact failed to load after every retry
``internal_error``   an unexpected exception; the batch still completes
===================  ====================================================

The shapes deliberately mirror the ``DiagnoseRequest`` /
``DiagnoseResponseItem`` pydantic pair of the FastAPI diagnose-flow this
layer is modelled on — minus the dependency: plain frozen dataclasses
plus hand validation keep the wire boundary stdlib-only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..sim.responses import Signature
from .session import STRATEGIES

#: Version of the request/result wire layout; bump on incompatible change.
SCHEMA_VERSION = 1

#: Ranked candidates (or session candidates) a request without ``limit``
#: gets back.
DEFAULT_LIMIT = 10

# Reason codes an outcome (or a daemon transport error) can carry.
OK = "ok"
BAD_REQUEST = "bad_request"
UNMODELED_RESPONSE = "unmodeled_response"
DEADLINE_EXPIRED = "deadline_expired"
ARTIFACT_ERROR = "artifact_error"
INTERNAL_ERROR = "internal_error"

#: Every reason code a batch outcome can carry, in severity order.
REASON_CODES = (
    OK,
    BAD_REQUEST,
    UNMODELED_RESPONSE,
    DEADLINE_EXPIRED,
    ARTIFACT_ERROR,
    INTERNAL_ERROR,
)


class SchemaError(ValueError):
    """A wire document failed strict validation.

    ``code`` is the reason code the caller should surface
    (``bad_request`` for malformed documents); ``str(exc)`` is the
    human-readable detail.
    """

    def __init__(self, detail: str, *, code: str = BAD_REQUEST) -> None:
        super().__init__(detail)
        self.code = code


def _check_schema_field(doc: Mapping, *, what: str) -> None:
    """Reject documents written against a different wire layout."""
    version = doc.get("schema", SCHEMA_VERSION)
    if isinstance(version, bool) or not isinstance(version, int):
        raise SchemaError(
            f"{what}: schema must be an integer version, got {version!r}"
        )
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{what}: unsupported schema version {version} "
            f"(this server speaks schema {SCHEMA_VERSION})"
        )


def _parse_signature(doc: object, *, what: str) -> Signature:
    if not isinstance(doc, (list, tuple)):
        raise SchemaError(
            f"{what} must be a list of output indices, got {doc!r}"
        )
    outputs: List[int] = []
    for item in doc:
        if isinstance(item, bool) or not isinstance(item, int) or item < 0:
            raise SchemaError(
                f"{what} must hold non-negative output indices, got {item!r}"
            )
        outputs.append(item)
    if len(set(outputs)) != len(outputs):
        raise SchemaError(f"{what} repeats an output index: {doc!r}")
    return tuple(sorted(outputs))


def _parse_observations(
    raw: object, *, what: str = "observations"
) -> Tuple[Tuple[int, Signature], ...]:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(
            f"{what} must be a non-empty list of [test, signature] "
            f"pairs, got {raw!r}"
        )
    parsed = []
    for position, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(
                f"{what}[{position}] must be a [test, signature] pair"
            )
        test_index, sig = pair
        if isinstance(test_index, bool) or not isinstance(test_index, int) \
                or test_index < 0:
            raise SchemaError(
                f"{what}[{position}] test index must be a "
                f"non-negative integer, got {test_index!r}"
            )
        parsed.append(
            (test_index,
             _parse_signature(sig, what=f"{what}[{position}] signature"))
        )
    return tuple(parsed)


def _parse_limit(raw: object) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
        raise SchemaError(f"limit must be a non-negative integer, got {raw!r}")
    return raw


def _parse_count(raw: object, *, name: str, minimum: int) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < minimum:
        raise SchemaError(
            f"{name} must be an integer >= {minimum}, got {raw!r}"
        )
    return raw


def _parse_strategy(raw: object) -> str:
    if raw not in STRATEGIES:
        raise SchemaError(
            f"strategy must be one of {list(STRATEGIES)}, got {raw!r}"
        )
    return raw


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiagnoseRequest:
    """One failing-chip lookup.

    Exactly one of ``observed`` (per-test failing-output signatures),
    ``fault`` (a modelled fault name whose stored full row stands in for
    the tester response — the demo/evaluation path) or ``observations``
    (the incremental session flow) must be given.  ``artifact`` overrides
    the server's default artifact for this request; ``tenant`` tags the
    request for the daemon's per-tenant admission quotas.

    The fleet knobs — ``max_faults`` (consider candidate multiplets of up
    to this many simultaneous faults), ``flip_budget`` (tolerate up to
    this many noise-flipped tests) and ``strategy`` (next-test selection
    for session requests: ``"greedy"`` or ``"entropy"``) — default to
    ``None``, meaning *use the server's configured default*.  A request
    that sets them explicitly overrides the server either way.
    """

    request_id: str
    observed: Optional[Tuple[Signature, ...]] = None
    fault: Optional[str] = None
    artifact: Optional[str] = None
    observations: Optional[Tuple[Tuple[int, Signature], ...]] = None
    limit: int = DEFAULT_LIMIT
    tenant: Optional[str] = None
    max_faults: Optional[int] = None
    flip_budget: Optional[int] = None
    strategy: Optional[str] = None

    #: Wire fields ``from_dict`` accepts (anything else is rejected).
    WIRE_FIELDS = (
        "schema", "id", "observed", "fault", "artifact", "observations",
        "limit", "tenant", "max_faults", "flip_budget", "strategy",
    )

    @classmethod
    def from_dict(cls, doc: object, *, default_id: str) -> "DiagnoseRequest":
        """Validate one decoded wire document into a request.

        Raises :class:`SchemaError` with a precise message on any
        malformation; callers turn that into a ``bad_request`` outcome
        (batch) or a 400 response (daemon) rather than failing the whole
        stream.
        """
        if not isinstance(doc, dict):
            raise SchemaError(
                f"request must be a JSON object, got {type(doc).__name__}"
            )
        unknown = set(doc) - set(cls.WIRE_FIELDS)
        if unknown:
            raise SchemaError(f"unknown request fields: {sorted(unknown)}")
        _check_schema_field(doc, what="request")

        request_id = doc.get("id", default_id)
        if not isinstance(request_id, str) or not request_id:
            raise SchemaError(
                f"id must be a non-empty string, got {request_id!r}"
            )

        modes = [
            key for key in ("observed", "fault", "observations") if key in doc
        ]
        if len(modes) != 1:
            raise SchemaError(
                "give exactly one of observed=, fault= or observations= "
                f"(got {modes or 'none'})"
            )

        observed = None
        if "observed" in doc:
            raw = doc["observed"]
            if not isinstance(raw, list):
                raise SchemaError(
                    f"observed must be a list of signatures, got {raw!r}"
                )
            observed = tuple(
                _parse_signature(sig, what=f"observed[{j}]")
                for j, sig in enumerate(raw)
            )

        fault = None
        if "fault" in doc:
            fault = doc["fault"]
            if not isinstance(fault, str) or not fault:
                raise SchemaError(
                    f"fault must be a non-empty string, got {fault!r}"
                )

        observations = None
        if "observations" in doc:
            observations = _parse_observations(doc["observations"])

        artifact = doc.get("artifact")
        if artifact is not None and (
            not isinstance(artifact, str) or not artifact
        ):
            raise SchemaError(
                f"artifact must be a non-empty path, got {artifact!r}"
            )

        tenant = doc.get("tenant")
        if tenant is not None and (not isinstance(tenant, str) or not tenant):
            raise SchemaError(
                f"tenant must be a non-empty string, got {tenant!r}"
            )

        max_faults = doc.get("max_faults")
        if max_faults is not None:
            max_faults = _parse_count(max_faults, name="max_faults", minimum=1)
        flip_budget = doc.get("flip_budget")
        if flip_budget is not None:
            flip_budget = _parse_count(
                flip_budget, name="flip_budget", minimum=0
            )
        strategy = doc.get("strategy")
        if strategy is not None:
            strategy = _parse_strategy(strategy)

        return cls(
            request_id=request_id,
            observed=observed,
            fault=fault,
            artifact=artifact,
            observations=observations,
            limit=_parse_limit(doc.get("limit", DEFAULT_LIMIT)),
            tenant=tenant,
            max_faults=max_faults,
            flip_budget=flip_budget,
            strategy=strategy,
        )

    def as_dict(self) -> Dict[str, object]:
        """The wire document: versioned, minimal (absent fields omitted)."""
        doc: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "id": self.request_id,
        }
        if self.observed is not None:
            doc["observed"] = [list(sig) for sig in self.observed]
        if self.fault is not None:
            doc["fault"] = self.fault
        if self.artifact is not None:
            doc["artifact"] = self.artifact
        if self.observations is not None:
            doc["observations"] = [
                [test, list(sig)] for test, sig in self.observations
            ]
        if self.limit != DEFAULT_LIMIT:
            doc["limit"] = self.limit
        if self.tenant is not None:
            doc["tenant"] = self.tenant
        if self.max_faults is not None:
            doc["max_faults"] = self.max_faults
        if self.flip_budget is not None:
            doc["flip_budget"] = self.flip_budget
        if self.strategy is not None:
            doc["strategy"] = self.strategy
        return doc

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiagnoseResult:
    """The result of one request, degraded or not.

    ``code`` is one of :data:`REASON_CODES`; the optional blocks
    (``narrowing``/``converged`` for session requests, ``policy`` for
    degraded requests — the operative deadline/retry settings, so a
    degraded line is auditable from the JSONL output alone) are omitted
    from the wire document when absent.
    """

    request_id: str
    code: str
    exact: Tuple[str, ...] = ()
    ranked: Tuple[Tuple[str, int], ...] = ()
    detail: str = ""
    attempts: int = 1
    elapsed_seconds: float = 0.0
    narrowing: Optional[Tuple[int, ...]] = None
    converged: Optional[bool] = None
    policy: Optional[Tuple[Tuple[str, object], ...]] = None
    suggested_test: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.code == OK

    def as_dict(self, *, include_schema: bool = True) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "id": self.request_id,
            "code": self.code,
            "exact": list(self.exact),
            "ranked": [[name, score] for name, score in self.ranked],
            "attempts": self.attempts,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
        if include_schema:
            doc["schema"] = SCHEMA_VERSION
        if self.detail:
            doc["detail"] = self.detail
        if self.narrowing is not None:
            doc["narrowing"] = list(self.narrowing)
        if self.converged is not None:
            doc["converged"] = self.converged
        if self.policy is not None:
            doc["policy"] = dict(self.policy)
        if self.suggested_test is not None:
            doc["suggested_test"] = self.suggested_test
        return doc

    def to_json_line(self) -> str:
        """One ``repro-fd serve`` output line: the document sans schema."""
        return json.dumps(self.as_dict(include_schema=False), sort_keys=True)


def parse_document(
    doc: object, *, number: int, where: str = "request"
) -> Union[DiagnoseRequest, DiagnoseResult]:
    """Validate the ``number``-th document of a batch (counted from 1).

    Returns the :class:`DiagnoseRequest`, or — when validation fails —
    the ``bad_request`` :class:`DiagnoseResult` that takes its place, so
    one malformed document degrades that request and never the batch.
    The default id is ``request-<number>``, and the detail of a failure
    starts with ``<where> <number>:``.
    """
    default_id = f"request-{number}"
    try:
        return DiagnoseRequest.from_dict(doc, default_id=default_id)
    except SchemaError as exc:
        request_id = default_id
        if isinstance(doc, dict) and isinstance(doc.get("id"), str):
            request_id = doc["id"]
        return DiagnoseResult(
            request_id=request_id, code=exc.code,
            detail=f"{where} {number}: {exc}",
        )


def parse_jsonl(
    lines: Iterable[str],
) -> List[Union[DiagnoseRequest, DiagnoseResult]]:
    """Decode a JSONL request stream, one entry per non-blank line.

    Lines are numbered as in the file, blank lines included; a line that
    is not JSON becomes a ``bad_request`` result in its place.
    """
    parsed: List[Union[DiagnoseRequest, DiagnoseResult]] = []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            parsed.append(DiagnoseResult(
                request_id=f"request-{number}", code=BAD_REQUEST,
                detail=f"line {number}: invalid JSON: {exc}",
            ))
            continue
        parsed.append(parse_document(doc, number=number, where="line"))
    return parsed


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionAdvance:
    """One step of a daemon-held multi-observation session.

    ``observations`` may be empty (query the current state without
    folding anything in); ``suggest`` asks the server to compute the
    next-test suggestion, which costs a scan over the remaining
    candidates; ``strategy`` picks the selection rule for that
    suggestion (``"greedy"`` or ``"entropy"``; omitted = the server's
    default); ``limit`` bounds the candidate names echoed back.
    """

    session_id: str
    observations: Tuple[Tuple[int, Signature], ...] = ()
    suggest: bool = False
    limit: int = DEFAULT_LIMIT
    strategy: Optional[str] = None

    #: Wire fields ``from_dict`` accepts (anything else is rejected).
    WIRE_FIELDS = (
        "schema", "session", "observations", "suggest", "limit", "strategy",
    )

    @classmethod
    def from_dict(
        cls, doc: object, *, session_id: Optional[str] = None
    ) -> "SessionAdvance":
        """Validate a session-advance document.

        ``session_id`` (from the URL path, daemon-side) overrides any
        ``session`` field in the body; one of the two must be present.
        """
        if not isinstance(doc, dict):
            raise SchemaError(
                f"session advance must be a JSON object, got "
                f"{type(doc).__name__}"
            )
        unknown = set(doc) - set(cls.WIRE_FIELDS)
        if unknown:
            raise SchemaError(
                f"unknown session-advance fields: {sorted(unknown)}"
            )
        _check_schema_field(doc, what="session advance")
        sid = session_id if session_id is not None else doc.get("session")
        if not isinstance(sid, str) or not sid:
            raise SchemaError(
                f"session must be a non-empty string, got {sid!r}"
            )
        observations: Tuple[Tuple[int, Signature], ...] = ()
        if "observations" in doc and doc["observations"] != []:
            observations = _parse_observations(doc["observations"])
        suggest = doc.get("suggest", False)
        if not isinstance(suggest, bool):
            raise SchemaError(f"suggest must be a boolean, got {suggest!r}")
        strategy = doc.get("strategy")
        if strategy is not None:
            strategy = _parse_strategy(strategy)
        return cls(
            session_id=sid,
            observations=observations,
            suggest=suggest,
            limit=_parse_limit(doc.get("limit", DEFAULT_LIMIT)),
            strategy=strategy,
        )

    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "session": self.session_id,
        }
        if self.observations:
            doc["observations"] = [
                [test, list(sig)] for test, sig in self.observations
            ]
        if self.suggest:
            doc["suggest"] = True
        if self.limit != DEFAULT_LIMIT:
            doc["limit"] = self.limit
        if self.strategy is not None:
            doc["strategy"] = self.strategy
        return doc
