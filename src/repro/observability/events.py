"""The run-trace event schema.

Every record a :class:`~repro.observability.recorder.TraceRecorder`
emits is one JSON object per line (JSONL) with a fixed envelope:

``schema``
    Integer schema version (:data:`SCHEMA_VERSION`); readers reject
    traces from a newer schema instead of misparsing them.
``event``
    The event type, one of :data:`EVENT_TYPES`.
``seq``
    1-based emission sequence number, strictly increasing within one
    trace file (detects torn/reordered traces).
``wall_s``
    Wall-clock seconds since the recorder was opened (timing and
    overhead analysis; no tuning decision ever reads it).
``sim_minutes``
    Simulated tuning-clock minutes at emission time (present once the
    recorder is bound to a run's :class:`~repro.iostack.clock.SimulatedClock`).

Event types and their payload fields (the table mirrored in the README
and DESIGN "Observability architecture" sections):

=================  ==============================================================
event              payload fields
=================  ==============================================================
``run_args``       CLI invocation: ``workload``, ``tuner``, ``seed``,
                   ``iterations``, ``resumed``
``run_start``      ``tuner``, ``workload``, ``max_iterations``,
                   ``population_size``, ``repeats``, ``resumed``
``baseline``       ``perf`` (MB/s), ``replayed``
``evaluation``     ``iteration`` (``None`` for the baseline), ``genome``,
                   ``perf``, ``replayed``
``generation``     ``iteration``, ``iteration_perf``, ``best_perf``,
                   ``elapsed_minutes``, ``evaluations``, ``subset``,
                   ``replayed``
``agent_decision`` ``agent`` (``subset-picker`` | ``stopper``),
                   ``iteration``, and per-agent fields (``subset``,
                   ``degraded``, ``stop``)
``guardrail_trip`` ``guardrail``, ``kind``, ``detail``, ``iteration``
``cache``          ``op`` (``hit`` | ``miss`` | ``store`` | ``evict``)
``cache_prewarm``  journal-resume cache warming summary: ``lookups``,
                   ``hits``, ``builds``
``retry``          ``kind`` (``retry`` | ``timeout`` | ``quarantine``),
                   ``config``, optional ``attempt``/``detail``
``run_end``        ``stop_reason``, ``stopped_at``, ``best_perf``,
                   ``baseline_perf``, ``total_minutes``,
                   ``total_evaluations``, ``best_genome``, ``eval_stats``
                   (the :class:`~repro.iostack.evalcache.EvaluationStats`
                   dict), ``guardrail_trips``
=================  ==============================================================

The recorder is append-only and write-only from the pipeline's point of
view: nothing in a tuning run ever reads the trace back, consumes RNG to
produce it, or advances the simulated clock for it, which is why a
traced run is bit-identical to an untraced one.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["SCHEMA_VERSION", "EVENT_TYPES", "validate_event"]

SCHEMA_VERSION = 1

EVENT_TYPES = frozenset(
    {
        "run_args",
        "run_start",
        "baseline",
        "evaluation",
        "generation",
        "agent_decision",
        "guardrail_trip",
        "cache",
        "cache_prewarm",
        "retry",
        "run_end",
    }
)

#: Envelope keys every event carries (``sim_minutes`` joins once the
#: recorder is bound to a simulated clock).
ENVELOPE_KEYS = ("schema", "event", "seq", "wall_s")


def validate_event(record: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` when ``record`` is not a valid trace
    event of a schema this reader understands."""
    if not isinstance(record, Mapping):
        raise ValueError(f"trace record must be an object, got {type(record).__name__}")
    schema = record.get("schema")
    if not isinstance(schema, int):
        raise ValueError("trace record has no integer 'schema' field")
    if schema > SCHEMA_VERSION:
        raise ValueError(
            f"trace schema {schema} is newer than this reader "
            f"(supports <= {SCHEMA_VERSION})"
        )
    event = record.get("event")
    if event not in EVENT_TYPES:
        raise ValueError(f"unknown trace event type {event!r}")
    if not isinstance(record.get("seq"), int):
        raise ValueError("trace record has no integer 'seq' field")
