"""The metrics snapshot and the shared summary-line formatters."""

import json

import pytest

from repro.iostack.evalcache import EvaluationCache, EvaluationStats
from repro.observability.metrics import (
    fastpath_line,
    guardrails_line,
    metrics_snapshot,
    resilience_line,
    snapshot_degraded,
)
from repro.tuners.base import IterationRecord, TuningResult

pytestmark = pytest.mark.observability


def snapshot_of(stats):
    """The snapshot of an empty run carrying ``stats``."""
    return metrics_snapshot(TuningResult("hstuner", "w", eval_stats=stats))


def test_snapshot_is_sorted_json_with_float_gauges():
    snap = metrics_snapshot(make_result(), cache=EvaluationCache(maxsize=8))
    assert list(snap) == ["counters", "gauges"]
    for section in snap.values():
        assert list(section) == sorted(section)  # sorted for stable JSON
    assert all(type(v) is int for v in snap["counters"].values())
    assert all(type(v) is float for v in snap["gauges"].values())
    assert snap["gauges"]["cache.maxsize"] == 8.0
    assert json.loads(json.dumps(snap)) == snap


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
    snap = snapshot_of(stats)
    c = snap["counters"]
    assert c["evaluations"] == 20
    assert c["cache.hits"] == 5 and c["cache.misses"] == 15
    assert c["trace.built"] == 15 and c["trace.replays"] == 40
    assert c["trace.reuse"] == stats.trace_reuse == 25
    assert c["resilience.retries"] == 2
    assert c["faults.injected"] == 3
    assert c["cache.prewarm_lookups"] == 6
    assert c["cache.prewarm_hits"] == 4
    assert c["cache.prewarm_builds"] == 2
    assert snap["gauges"]["cache.hit_rate"] == stats.cache_hit_rate


def test_fastpath_line_matches_describe():
    expected = [
        "20 evaluations, cache hit rate 25.0% (5/20), trace reuse 25",
        "0 evaluations, cache hit rate 0.0% (0/0), trace reuse 0",
        "20 evaluations, cache hit rate 0.0% (0/15), trace reuse 25",
    ]
    for stats, line in zip(
        (make_stats(), EvaluationStats(), make_stats(cache_hits=0)), expected
    ):
        assert fastpath_line(snapshot_of(stats)) == line


def test_resilience_line_matches_describe_resilience():
    stats = make_stats(retries=3, timeouts=1, quarantined=2, faults_injected=4)
    snapshot = snapshot_of(stats)
    assert resilience_line(snapshot) == (
        "4 faults injected, 3 retries, 1 timeouts, 2 quarantined"
    )
    assert snapshot_degraded(snapshot) is True
    assert snapshot_degraded(snapshot_of(make_stats())) is False


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


def test_from_run_absorbs_result_and_cache():
    result = make_result()
    result.eval_stats = make_stats()
    snap = metrics_snapshot(result, cache=EvaluationCache(maxsize=512))
    assert snap["gauges"]["run.baseline_perf_mbps"] == 100.0
    assert snap["gauges"]["run.best_perf_mbps"] == 160.0
    assert snap["gauges"]["run.gain_mbps"] == 60.0
    assert snap["gauges"]["run.total_minutes"] == 20.0
    assert snap["counters"]["run.iterations"] == 2
    assert snap["counters"]["run.total_evaluations"] == 16
    assert snap["gauges"]["cache.size"] == 0.0
    assert snap["gauges"]["cache.maxsize"] == 512.0
    assert list(snap) == ["counters", "gauges"]


def test_from_run_without_eval_stats_still_counts_trips():
    result = make_result()
    result.guardrail_trips = ("checkpoint:schema (bad)",)
    snap = metrics_snapshot(result)
    assert snap["counters"]["guardrail.trips"] == 1
    assert "evaluations" not in snap["counters"]


def test_trip_count_includes_trips_the_tuner_did_not_count():
    """The CLI prepends a rejected-checkpoint trip to the result after
    the tuner filled in its own count; the snapshot counts the result's
    trips."""
    result = make_result()
    result.eval_stats = make_stats(guardrail_trips=0)
    result.guardrail_trips = ("checkpoint:schema (bad)",)
    assert metrics_snapshot(result)["counters"]["guardrail.trips"] == 1
    assert "guardrail.trips" not in metrics_snapshot(make_result())["counters"]
