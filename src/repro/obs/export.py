"""JSON exporters: trace dumps and the BENCH_*.json perf trajectory.

Two machine-readable formats, both versioned by a ``schema`` field so
downstream tooling can evolve safely:

``repro.obs.trace/v1``
    One query's span tree.  Times are *offsets in seconds from the
    root span's start* (never wall-clock timestamps), attributes are
    the sizes/counts the spans recorded.

``repro.obs.bench/v1``
    A benchmark result envelope: ``{"schema", "bench", "data"}``.
    ``benchmarks/bench_ingest.py`` writes ``BENCH_ingest.json`` in it.

See EXPERIMENTS.md ("Observability") for the field-by-field schema.
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span

TRACE_SCHEMA = "repro.obs.trace/v1"
BENCH_SCHEMA = "repro.obs.bench/v1"


def span_to_dict(span: Span, t0: float | None = None) -> dict:
    """One span as a JSON-ready dict; times relative to the trace root."""
    if t0 is None:
        t0 = span.start
    return {
        "name": span.name,
        "start_s": span.start - t0,
        "end_s": span.end - t0 if span.end is not None else None,
        "duration_s": span.duration,
        "attrs": dict(span.attrs),
        "children": [span_to_dict(c, t0) for c in span.children],
    }


def trace_to_dict(root: Span) -> dict:
    """A whole trace under the versioned envelope."""
    return {
        "schema": TRACE_SCHEMA,
        "root": span_to_dict(root),
        "total_seconds": root.duration,
    }


def dump_trace(root: Span, path) -> pathlib.Path:
    """Write one trace as pretty-printed JSON; returns the path."""
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(trace_to_dict(root), indent=2) + "\n", encoding="utf-8"
    )
    return path


def metrics_to_dict(registry: MetricsRegistry) -> dict:
    """Registry snapshot under the bench envelope (for obs-report --json)."""
    return {
        "schema": BENCH_SCHEMA,
        "bench": "metrics_snapshot",
        "data": registry.snapshot(),
    }


def write_bench_json(path, bench: str, data: dict) -> pathlib.Path:
    """Write one BENCH_*.json file; returns the path."""
    path = pathlib.Path(path)
    payload = {"schema": BENCH_SCHEMA, "bench": bench, "data": data}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def read_bench_json(path) -> dict:
    """Load and validate a BENCH_*.json envelope."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unexpected bench schema {payload.get('schema')!r};"
            f" expected {BENCH_SCHEMA!r}"
        )
    return payload
