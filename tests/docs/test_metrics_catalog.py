"""Every serve- and diagnosis-layer metric must be documented in
docs/observability.md.

Two independent enumerations feed each check: the declared catalog
(``repro.serve.metrics.catalog()`` / ``repro.diagnosis.metrics.
catalog()``), and a literal scan of the sources for ``"serve.…"`` /
``"diagnosis.…"`` / ``"fleet.…"`` strings — so neither an undeclared
inline metric nor an undocumented declared one can slip through.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.diagnosis import metrics as diagnosis_metrics
from repro.serve import metrics
from repro.serve.schemas import REASON_CODES

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DOC = (REPO_ROOT / "docs" / "observability.md").read_text()

SERVE_NAME = re.compile(r'"(serve\.[a-z0-9_.]+)"')
DIAGNOSIS_NAME = re.compile(r'"((?:diagnosis|fleet)\.[a-z0-9_.]+)"')

#: Trace-span names (not metrics); checked against the span taxonomy.
SPANS = {"serve.batch"}
DIAGNOSIS_SPANS = {"diagnosis.lookup", "diagnosis.multiplets"}


def declared_names():
    catalog = metrics.catalog()
    return sorted(
        name for names in catalog.values() for name in names
    )


def literal_names():
    names = set()
    # rglob: the daemon subpackage (src/repro/serve/daemon/) emits too.
    for source in sorted((REPO_ROOT / "src" / "repro" / "serve").rglob("*.py")):
        for match in SERVE_NAME.finditer(source.read_text()):
            name = match.group(1)
            if name == metrics.OUTCOME_PREFIX.rstrip("."):
                continue  # the prefix itself; expanded per reason code below
            names.add(name)
    # Expand the outcome prefix the way the server does at runtime.
    names.discard(metrics.OUTCOME_PREFIX)
    for code in REASON_CODES:
        names.add(metrics.outcome_counter(code))
    return sorted(names)


def test_declared_catalog_covers_the_literals():
    declared = set(declared_names())
    for name in literal_names():
        if name.startswith(metrics.OUTCOME_PREFIX) or name in SPANS:
            continue  # reason codes are expanded; spans are not metrics
        assert name in declared, (
            f"{name} is emitted by src/repro/serve but not declared in "
            f"repro.serve.metrics.catalog()"
        )


def test_every_serve_metric_is_documented():
    for name in declared_names():
        assert f"`{name}`" in DOC, (
            f"{name} is missing from the serve-metrics table in "
            f"docs/observability.md"
        )


def test_every_documented_serve_metric_is_declared():
    rows = re.findall(r"^\| `(serve\.[a-z0-9_.]+)` \|", DOC, re.MULTILINE)
    assert rows
    declared = set(declared_names())
    for name in rows:
        assert name in declared, (
            f"docs/observability.md documents {name}, which "
            f"repro.serve.metrics.catalog() does not declare"
        )


def test_serve_spans_are_in_the_taxonomy():
    for span in SPANS:
        assert span in DOC, (
            f"span {span} is missing from the span taxonomy in "
            f"docs/observability.md"
        )


def diagnosis_declared_names():
    catalog = diagnosis_metrics.catalog()
    return sorted(name for names in catalog.values() for name in names)


def diagnosis_literal_names():
    names = set()
    sources = sorted(
        (REPO_ROOT / "src" / "repro" / "diagnosis").rglob("*.py")
    ) + [REPO_ROOT / "src" / "repro" / "experiments" / "fleet.py"]
    for source in sources:
        for match in DIAGNOSIS_NAME.finditer(source.read_text()):
            names.add(match.group(1))
    return sorted(names)


def test_diagnosis_catalog_covers_the_literals():
    declared = set(diagnosis_declared_names())
    for name in diagnosis_literal_names():
        if name in DIAGNOSIS_SPANS:
            continue
        assert name in declared, (
            f"{name} is emitted by the diagnosis/fleet sources but not "
            f"declared in repro.diagnosis.metrics.catalog()"
        )


def test_every_diagnosis_metric_is_documented():
    for name in diagnosis_declared_names():
        assert f"`{name}`" in DOC, (
            f"{name} is missing from the diagnosis/fleet metrics table in "
            f"docs/observability.md"
        )


def test_diagnosis_spans_are_in_the_taxonomy():
    for span in DIAGNOSIS_SPANS:
        assert span in DOC, (
            f"span {span} is missing from the span taxonomy in "
            f"docs/observability.md"
        )


def test_timer_summary_statistics_are_documented():
    """Every statistic ``Timer.summary()`` reports — including the tail
    percentiles p90/p99 — must be listed in the metric catalog, since
    that summary is what ``--metrics-out`` and the ``BENCH_*.json``
    metrics block actually contain."""
    from repro.obs import MetricsRegistry

    timer = MetricsRegistry().timer("t")
    timer.record(1.0)
    for statistic in timer.summary():
        assert f"`{statistic}`" in DOC, (
            f"Timer.summary() reports {statistic!r} but the timers line in "
            f"docs/observability.md does not list it"
        )
    for percentile in ("p50", "p90", "p95", "p99"):
        assert percentile in timer.summary()


def test_every_reason_code_is_documented():
    serving = (REPO_ROOT / "docs" / "serving.md").read_text()
    for code in REASON_CODES:
        assert f"`{code}`" in serving, (
            f"reason code {code} is missing from docs/serving.md"
        )
        assert f"`serve.outcomes.{code}`" in DOC
