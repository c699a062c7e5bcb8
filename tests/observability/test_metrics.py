"""The metrics registry and the shared summary-line formatters."""

import pytest

from repro.iostack.evalcache import CacheStats, EvaluationStats
from repro.observability.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    fastpath_line,
    guardrails_line,
    resilience_line,
    snapshot_degraded,
)
from repro.observability.profiling import Profiler
from repro.tuners.base import IterationRecord, TuningResult

pytestmark = pytest.mark.observability


def test_counter_only_increases():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_and_timer():
    g = Gauge()
    assert g.value is None
    g.set(3)
    assert g.value == 3.0
    t = Timer()
    assert t.mean_seconds == 0.0
    t.observe(0.5)
    t.observe(1.5)
    assert t.count == 2 and t.mean_seconds == 1.0
    d = t.as_dict()
    assert d["min_seconds"] == 0.5 and d["max_seconds"] == 1.5
    with pytest.raises(ValueError):
        t.observe(-0.1)


def test_registry_accessors_and_snapshot():
    reg = MetricsRegistry()
    reg.counter("b").inc(2)
    reg.counter("a").inc(1)
    reg.gauge("g").set(0.5)
    reg.timer("t").observe(0.25)
    assert "a" in reg and "missing" not in reg
    assert reg.names() == ("a", "b", "g", "t")
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a", "b"]  # sorted for stable JSON
    assert snap["gauges"]["g"] == 0.5
    assert snap["timers"]["t"]["count"] == 1
    assert reg.counter("a") is reg.counter("a")  # create-on-first-use, stable


def make_stats(**overrides):
    fields = dict(
        evaluations=20, cache_hits=5, cache_misses=15, traces_built=15,
        trace_replays=40,
    )
    fields.update(overrides)
    return EvaluationStats(**fields)


def test_ingest_eval_stats_maps_every_counter():
    stats = make_stats(retries=2, faults_injected=3, guardrail_trips=1,
                       prewarm_lookups=6, prewarm_hits=4, prewarm_builds=2)
    reg = MetricsRegistry()
    reg.ingest_eval_stats(stats)
    c = reg.snapshot()["counters"]
    assert c["evaluations"] == 20
    assert c["cache.hits"] == 5 and c["cache.misses"] == 15
    assert c["trace.built"] == 15 and c["trace.replays"] == 40
    assert c["trace.reuse"] == stats.trace_reuse == 25
    assert c["resilience.retries"] == 2
    assert c["faults.injected"] == 3
    assert c["guardrail.trips"] == 1
    assert c["cache.prewarm_lookups"] == 6
    assert c["cache.prewarm_hits"] == 4
    assert c["cache.prewarm_builds"] == 2
    assert reg.snapshot()["gauges"]["cache.hit_rate"] == stats.cache_hit_rate


def test_fastpath_line_matches_describe():
    for stats in (make_stats(), EvaluationStats(), make_stats(cache_hits=0)):
        reg = MetricsRegistry()
        reg.ingest_eval_stats(stats)
        assert fastpath_line(reg.snapshot()) == stats.describe()


def test_resilience_line_matches_describe_resilience():
    stats = make_stats(retries=3, timeouts=1, quarantined=2, faults_injected=4)
    reg = MetricsRegistry()
    reg.ingest_eval_stats(stats)
    snapshot = reg.snapshot()
    assert resilience_line(snapshot) == stats.describe_resilience()
    assert snapshot_degraded(snapshot) is True
    clean = MetricsRegistry()
    clean.ingest_eval_stats(make_stats())
    assert snapshot_degraded(clean.snapshot()) is False


def test_guardrails_line_counts_before_dedup():
    trips = ["a:b (x)", "a:b (x)", "c:d (y)"]
    assert guardrails_line(trips) == (
        "3 trip(s), degraded to plain-GA behaviour: a:b (x); c:d (y)"
    )


def make_result():
    result = TuningResult("hstuner", "w", baseline_perf=100.0)
    result.history = [
        IterationRecord(0, 150.0, 150.0, 10.0, 8),
        IterationRecord(1, 140.0, 160.0, 20.0, 8),
    ]
    result.stop_reason = "budget"
    return result


def test_from_run_absorbs_result_cache_and_profiler():
    result = make_result()
    result.eval_stats = make_stats()
    profiler = Profiler()
    profiler.record("simulator.trace", 0.25)
    reg = MetricsRegistry.from_run(
        result,
        cache_stats=CacheStats(hits=5, misses=15, size=9, maxsize=512),
        profiler=profiler,
    )
    snap = reg.snapshot()
    assert snap["gauges"]["run.baseline_perf_mbps"] == 100.0
    assert snap["gauges"]["run.best_perf_mbps"] == 160.0
    assert snap["gauges"]["run.gain_mbps"] == 60.0
    assert snap["gauges"]["run.total_minutes"] == 20.0
    assert snap["counters"]["run.iterations"] == 2
    assert snap["counters"]["run.total_evaluations"] == 16
    assert snap["gauges"]["cache.size"] == 9.0
    assert snap["timers"]["profile.simulator.trace"]["count"] == 1


def test_from_run_without_eval_stats_still_counts_trips():
    result = make_result()
    result.guardrail_trips = ("checkpoint:schema (bad)",)
    snap = MetricsRegistry.from_run(result).snapshot()
    assert snap["counters"]["guardrail.trips"] == 1
