"""The metrics registry: one queryable surface for run counters.

Before this module, run accounting was scattered across
:class:`~repro.iostack.evalcache.EvaluationStats` (fastpath counters on
the result), :class:`~repro.iostack.evalcache.CacheStats` (live cache
counters), :class:`~repro.tuners.resilience.ResilienceStats` and the
guardrail trip list.
:class:`MetricsRegistry` absorbs them into named counters, gauges and
timers with a single :meth:`~MetricsRegistry.snapshot`; the CLI summary
lines (``fastpath:`` / ``resilience:`` / ``guardrails:``) are rendered
*from the snapshot* by :func:`fastpath_line` and friends, so
``tunio-tune`` and ``tunio-report`` can never drift apart.

Everything here is passive arithmetic on already-collected numbers:
building a registry cannot perturb a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "fastpath_line",
    "resilience_line",
    "guardrails_line",
    "snapshot_degraded",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.iostack.evalcache import CacheStats, EvaluationStats
    from repro.tuners.base import TuningResult

    from .profiling import Profiler


@dataclass
class Counter:
    """A monotonically increasing integer."""

    value: int = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a gauge for deltas")
        self.value += n


@dataclass
class Gauge:
    """A point-in-time float value."""

    value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Timer:
    """Aggregated duration observations (seconds)."""

    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = field(default=float("inf"))
    max_seconds: float = 0.0

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("durations must be >= 0")
        self.count += 1
        self.total_seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds if self.count else 0.0,
            "max_seconds": self.max_seconds,
        }


class MetricsRegistry:
    """Named counters, gauges and timers with create-on-first-use
    accessors and a JSON-ready :meth:`snapshot`."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}

    # -- accessors ---------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def timer(self, name: str) -> Timer:
        return self._timers.setdefault(name, Timer())

    def __contains__(self, name: str) -> bool:
        return name in self._counters or name in self._gauges or name in self._timers

    def names(self) -> tuple[str, ...]:
        return tuple(
            sorted({*self._counters, *self._gauges, *self._timers})
        )

    # -- snapshot ---------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """All metrics as plain JSON-serialisable values."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "timers": {k: t.as_dict() for k, t in sorted(self._timers.items())},
        }

    # -- absorption of the existing stats surfaces -------------------------------

    def ingest_eval_stats(self, stats: "EvaluationStats") -> None:
        """Absorb a run's fastpath/resilience/guardrail counters."""
        c = self.counter
        c("evaluations").inc(stats.evaluations)
        c("cache.hits").inc(stats.cache_hits)
        c("cache.misses").inc(stats.cache_misses)
        c("cache.evictions").inc(stats.cache_evictions)
        c("cache.prewarm_lookups").inc(stats.prewarm_lookups)
        c("cache.prewarm_hits").inc(stats.prewarm_hits)
        c("cache.prewarm_builds").inc(stats.prewarm_builds)
        c("trace.built").inc(stats.traces_built)
        c("trace.replays").inc(stats.trace_replays)
        c("trace.reuse").inc(stats.trace_reuse)
        c("resilience.retries").inc(stats.retries)
        c("resilience.timeouts").inc(stats.timeouts)
        c("resilience.quarantined").inc(stats.quarantined)
        c("faults.injected").inc(stats.faults_injected)
        c("guardrail.trips").inc(stats.guardrail_trips)
        self.gauge("cache.hit_rate").set(stats.cache_hit_rate)

    def ingest_cache_stats(self, stats: "CacheStats") -> None:
        """Absorb a live cache's occupancy."""
        self.gauge("cache.size").set(stats.size)
        self.gauge("cache.maxsize").set(stats.maxsize)

    def ingest_result(self, result: "TuningResult") -> None:
        """Absorb a finished run: outcome gauges plus its
        :class:`EvaluationStats` when tracked."""
        self.gauge("run.baseline_perf_mbps").set(result.baseline_perf)
        self.gauge("run.best_perf_mbps").set(result.best_perf)
        self.gauge("run.gain_mbps").set(result.gain)
        self.gauge("run.total_minutes").set(result.total_minutes)
        self.counter("run.iterations").inc(len(result.history))
        self.counter("run.total_evaluations").inc(result.total_evaluations)
        if result.eval_stats is not None:
            self.ingest_eval_stats(result.eval_stats)
        elif result.guardrail_trips:
            self.counter("guardrail.trips").inc(len(result.guardrail_trips))

    def ingest_profile(self, profiler: "Profiler") -> None:
        """Absorb a profiler's span timings as timers."""
        for name, stats in profiler.snapshot().items():
            timer = self.timer(f"profile.{name}")
            timer.count += int(stats["count"])
            timer.total_seconds += float(stats["total_seconds"])
            timer.min_seconds = min(timer.min_seconds, float(stats["min_seconds"]))
            timer.max_seconds = max(timer.max_seconds, float(stats["max_seconds"]))

    @classmethod
    def from_run(
        cls,
        result: "TuningResult",
        cache_stats: "CacheStats | None" = None,
        profiler: "Profiler | None" = None,
    ) -> "MetricsRegistry":
        """The registry the CLI builds after a run."""
        registry = cls()
        registry.ingest_result(result)
        if cache_stats is not None:
            registry.ingest_cache_stats(cache_stats)
        if profiler is not None:
            registry.ingest_profile(profiler)
        return registry


# -- summary lines (shared by tunio-tune and tunio-report) -------------------------


def _counters(snapshot: Mapping[str, Any]) -> Mapping[str, int]:
    return snapshot.get("counters", {})


def fastpath_line(snapshot: Mapping[str, Any]) -> str:
    """The ``fastpath:`` summary body, rendered from a registry
    snapshot."""
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
