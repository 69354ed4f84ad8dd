"""Plain-text rendering and routing for experiment reports.

Besides the table renderer this module owns two observability concerns:

* :class:`ReportPrinter` — the single funnel for human-readable output.
  When machine output (a ``--metrics-out -`` JSON snapshot) claims
  stdout, report text moves to stderr, so JSON consumers never see
  tables interleaved with their payload.
* :func:`render_metrics` / :func:`render_build_instrumentation` — fold a
  :class:`~repro.obs.MetricsRegistry` snapshot and the per-row
  :class:`~repro.dictionaries.BuildReport` statistics into the same
  table format as the paper's numbers.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, TextIO


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table.

    Cells are stringified; numeric-looking cells are right-aligned, the
    rest left-aligned.  ``None`` renders as '-' (the paper's omitted
    entries).
    """
    def cell(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    text_rows: List[List[str]] = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))

    def align(value: str, width: int) -> str:
        stripped = value.lstrip("-")
        numeric = stripped.replace(".", "", 1).isdigit() if stripped else False
        return value.rjust(width) if numeric or value == "-" else value.ljust(width)

    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(align(v, w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


class ReportPrinter:
    """Routes human-readable report text around machine output.

    ``machine_stdout=True`` means stdout is reserved for a machine
    payload (metrics JSON), so report text goes to stderr instead.  All
    CLI commands print through one instance of this class.
    """

    def __init__(
        self, machine_stdout: bool = False, stream: Optional[TextIO] = None
    ) -> None:
        if stream is not None:
            self.stream = stream
        else:
            self.stream = sys.stderr if machine_stdout else sys.stdout

    def emit(self, text: str = "") -> None:
        print(text, file=self.stream)


def render_metrics(snapshot: Dict[str, Dict[str, object]], title: str = "Metrics") -> str:
    """One table over a registry snapshot: counters, gauges, timer totals."""
    rows: List[Sequence[object]] = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append((name, "counter", value))
    for name, value in snapshot.get("gauges", {}).items():
        rows.append((name, "gauge", value))
    for name, summary in snapshot.get("timers", {}).items():
        rows.append(
            (
                name,
                "timer",
                f"n={summary['count']} total={summary['total']:.3f}s "
                f"p95={summary['p95']:.3f}s",
            )
        )
    return format_table(("metric", "kind", "value"), rows, title)


def render_build_instrumentation(rows: Sequence[object]) -> str:
    """Per-row build statistics beside the paper's Table 6 numbers.

    ``rows`` are :class:`~repro.experiments.table6.Table6Row` objects (or
    anything exposing ``circuit``/``test_type``/``build``).
    """
    headers = (
        "circuit",
        "Ttype",
        "P1 calls",
        "P1 s",
        "P1 cls",
        "P2 passes",
        "repl",
        "P2 s",
        "P2 cls",
    )
    body = [
        (
            row.circuit,
            row.test_type,
            row.build.procedure1_calls,
            row.build.procedure1_seconds,
            row.build.classes_after_procedure1,
            row.build.procedure2_passes,
            row.build.replacements,
            row.build.procedure2_seconds,
            row.build.classes_after_procedure2,
        )
        for row in rows
    ]
    return format_table(headers, body, "Build instrumentation")
