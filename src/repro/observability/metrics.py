"""The metrics snapshot: one JSON-ready dict of a run's counters.

A tuning run keeps one counter record,
:class:`~repro.tuners.resilience.EvaluationStats`, filled by its
evaluator.  :func:`metrics_snapshot` turns a finished
:class:`~repro.tuners.base.TuningResult` into named counters and
gauges; the CLI summary lines (``fastpath:`` / ``resilience:`` /
``guardrails:``) are rendered *from the snapshot* by
:func:`fastpath_line` and friends, so ``tunio-tune`` (``--metrics-out``)
and ``tunio-report`` (``--json``, from the trace) can never drift apart.

Everything here is passive arithmetic on already-collected numbers:
building a snapshot cannot perturb a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

__all__ = [
    "metrics_snapshot",
    "fastpath_line",
    "resilience_line",
    "guardrails_line",
    "snapshot_degraded",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tuners.base import TuningResult


def metrics_snapshot(result: "TuningResult") -> dict[str, Any]:
    """The run's metrics as plain JSON-serialisable values: integer
    ``counters`` and float ``gauges``, each sorted by name."""
    counters: dict[str, int] = {
        "run.iterations": len(result.history),
        "run.total_evaluations": result.total_evaluations,
    }
    gauges: dict[str, float] = {
        "run.baseline_perf_mbps": float(result.baseline_perf),
        "run.best_perf_mbps": float(result.best_perf),
        "run.gain_mbps": float(result.gain),
        "run.total_minutes": float(result.total_minutes),
    }
    stats = result.eval_stats
    if stats is not None:
        counters.update({
            "evaluations": stats.evaluations,
            "cache.hits": stats.cache_hits,
            "cache.misses": stats.cache_misses,
            "trace.built": stats.traces_built,
            "trace.replays": stats.trace_replays,
            "trace.reuse": stats.trace_reuse,
            "resilience.retries": stats.retries,
            "resilience.timeouts": stats.timeouts,
            "resilience.quarantined": stats.quarantined,
            "faults.injected": stats.faults_injected,
        })
        gauges["cache.hit_rate"] = float(stats.cache_hit_rate)
    if stats is not None or result.guardrail_trips:
        # The result's trips include the CLI's rejected-checkpoint trip,
        # which the tuner's own count never sees.
        counters["guardrail.trips"] = len(result.guardrail_trips)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
    }


# -- summary lines (shared by tunio-tune and tunio-report) -------------------------


def _counters(snapshot: Mapping[str, Any]) -> Mapping[str, int]:
    return snapshot.get("counters", {})


def fastpath_line(snapshot: Mapping[str, Any]) -> str:
    """The ``fastpath:`` summary body, rendered from a
    :func:`metrics_snapshot`."""
    c = _counters(snapshot)
    hits = int(c.get("cache.hits", 0))
    misses = int(c.get("cache.misses", 0))
    lookups = hits + misses
    rate = hits / lookups if lookups else 0.0
    return (
        f"{int(c.get('evaluations', 0))} evaluations, "
        f"cache hit rate {100.0 * rate:.1f}% "
        f"({hits}/{lookups}), "
        f"trace reuse {int(c.get('trace.reuse', 0))}"
    )


def resilience_line(snapshot: Mapping[str, Any]) -> str:
    """The ``resilience:`` summary body."""
    c = _counters(snapshot)
    return (
        f"{int(c.get('faults.injected', 0))} faults injected, "
        f"{int(c.get('resilience.retries', 0))} retries, "
        f"{int(c.get('resilience.timeouts', 0))} timeouts, "
        f"{int(c.get('resilience.quarantined', 0))} quarantined"
    )


def guardrails_line(trips: Iterable[str]) -> str:
    """The ``guardrails:`` summary body (trip count before dedup, trip
    details deduplicated with first-occurrence order preserved -- the
    exact text ``tunio-tune`` has always printed)."""
    trips = list(trips)
    shown = list(dict.fromkeys(trips))
    return (
        f"{len(trips)} trip(s), degraded to plain-GA behaviour: "
        + "; ".join(shown)
    )


def snapshot_degraded(snapshot: Mapping[str, Any]) -> bool:
    """True when any resilience machinery engaged during the run."""
    c = _counters(snapshot)
    return bool(
        c.get("resilience.retries", 0)
        or c.get("resilience.timeouts", 0)
        or c.get("resilience.quarantined", 0)
        or c.get("faults.injected", 0)
    )
