"""Observability: structured run tracing and metrics.

The substrate the paper's evaluation figures are drawn from: a
:class:`TraceRecorder` appending schema-versioned JSONL events as a run
unfolds (``NullRecorder`` keeps untraced runs bit-identical and
overhead-free) and :func:`metrics_snapshot` turning a run's one counter
record into a JSON-ready snapshot of counters and gauges.
``tunio-report`` (:mod:`repro.observability.report`, imported lazily to
keep this package dependency-light) reconstructs curves and summaries
from a trace file alone.
"""

from .events import ENVELOPE_KEYS, EVENT_TYPES, SCHEMA_VERSION, validate_event
from .metrics import (
    fastpath_line,
    guardrails_line,
    metrics_snapshot,
    resilience_line,
    snapshot_degraded,
)
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TraceRecorder,
    iter_trace,
    read_trace,
)

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "ENVELOPE_KEYS",
    "validate_event",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "iter_trace",
    "read_trace",
    "metrics_snapshot",
    "fastpath_line",
    "resilience_line",
    "guardrails_line",
    "snapshot_degraded",
]
