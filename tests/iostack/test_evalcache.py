"""The memo of one tuning run: stored traces and the layer results
under them."""

import numpy as np
import pytest

from repro.iostack import (
    EvaluationCache,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
)
from repro.iostack.clock import SimulatedClock
from repro.observability.metrics import (
    fastpath_line,
    metrics_snapshot,
    resilience_line,
    snapshot_degraded,
)
from repro.tuners.base import TuningResult
from repro.tuners.resilience import EvaluationStats, ResilientEvaluator
from tests.conftest import make_workload, memo_is_empty


@pytest.fixture
def sim():
    return IOStackSimulator(cori(2), NoiseModel(seed=11))


def random_configs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [StackConfiguration.random(rng) for _ in range(n)]


# -- cache mechanics -----------------------------------------------------------


def test_miss_then_hit(sim):
    cache = EvaluationCache()
    w = make_workload()
    config = StackConfiguration.default()
    assert cache.lookup(w, config) is None
    trace = sim.trace(w, config, cache)
    cache.store(w, config, trace)
    assert cache.lookup(w, config) is trace
    assert len(cache) == 1


def test_distinct_configs_do_not_collide(sim):
    cache = EvaluationCache()
    w = make_workload()
    a, b = random_configs(2)
    cache.store(w, a, sim.trace(w, a, cache))
    assert cache.lookup(w, b) is None


def test_distinct_workloads_do_not_collide(sim):
    cache = EvaluationCache()
    config = StackConfiguration.default()
    small = make_workload()
    big = make_workload(n_procs=128)
    cache.store(small, config, sim.trace(small, config, cache))
    assert cache.lookup(big, config) is None


def test_content_equal_workloads_share_nothing(sim, layer_calls):
    """Keys hold workloads, phases and samples by identity: a
    content-equal workload built separately misses every table, so it
    pays every layer call again, and gets an equal trace."""
    cache = EvaluationCache()
    evaluator = ResilientEvaluator(sim, SimulatedClock(), cache)
    config = StackConfiguration.default()
    a, b = make_workload(), make_workload()
    first = evaluator.traces(a, [config])[config]
    first_calls = layer_calls.copy()
    second = evaluator.traces(b, [config])[config]
    assert second == first and second is not first
    assert layer_calls == first_calls + first_calls
    assert evaluator.stats.cache_misses == evaluator.stats.traces_built == 2
    assert cache.lookup(a, config) is first and cache.lookup(b, config) is second


def test_restoring_same_key_does_not_evict(sim):
    cache = EvaluationCache()
    w = make_workload()
    a, b = random_configs(2)
    for config in (a, b, a, a):
        cache.store(w, config, sim.trace(w, config, cache))
    assert len(cache) == 2


def test_a_second_platform_is_refused(layer_calls):
    """No key names the platform, so a memo serves one: traces and
    lookups on another platform are refused, one with equal values is
    served, and an emptied memo takes any platform."""
    small = IOStackSimulator(cori(2), NoiseModel.quiet())
    twin = IOStackSimulator(cori(2), NoiseModel.quiet())
    big = IOStackSimulator(cori(4), NoiseModel.quiet())
    w = make_workload()
    config = StackConfiguration.default()
    cache = EvaluationCache()
    ResilientEvaluator(small, SimulatedClock(), cache).traces(w, [config])
    before = layer_calls.copy()
    with pytest.raises(ValueError, match="cannot also serve"):
        big.trace(w, config, cache)
    refused = ResilientEvaluator(big, SimulatedClock(), cache)
    with pytest.raises(ValueError, match="cannot also serve"):
        refused.traces(w, [config])
    assert layer_calls == before
    assert refused.stats.cache_hits + refused.stats.cache_misses == 0
    served = ResilientEvaluator(twin, SimulatedClock(), cache)
    served.traces(w, [config])
    assert served.stats.cache_hits == 1
    cache.clear()
    assert memo_is_empty(cache)
    big.trace(w, config, cache)
    assert cache.platform is big.platform


# -- cached evaluation ---------------------------------------------------------


def test_get_trace_builds_once(sim):
    """Getting a trace twice through the evaluator builds it once and
    serves the second request from the cache."""
    cache = EvaluationCache()
    evaluator = ResilientEvaluator(sim, SimulatedClock(), cache)
    w = make_workload()
    config = StackConfiguration.default()
    first = evaluator.traces(w, [config])[config]
    second = evaluator.traces(w, [config])[config]
    assert first is not None
    assert second is first
    assert len(cache) == 1
    assert evaluator.stats.traces_built == 1
    assert (evaluator.stats.cache_misses, evaluator.stats.cache_hits) == (1, 1)


def test_cached_evaluate_is_bit_identical_under_noise():
    """The evaluator's cached path against the simulator's uncached one:
    one trace is built and later rounds are served from it, with the
    same perf and the same noise-stream consumption."""
    w = make_workload()
    config = StackConfiguration.default()
    cached_sim = IOStackSimulator(cori(2), NoiseModel(seed=21))
    plain_sim = IOStackSimulator(cori(2), NoiseModel(seed=21))
    cache = EvaluationCache()
    evaluator = ResilientEvaluator(cached_sim, SimulatedClock(), cache)
    built = []
    trace = cached_sim.trace
    cached_sim.trace = lambda *args: built.append(args) or trace(*args)
    for _ in range(4):  # first round misses, later rounds hit
        [a] = evaluator.evaluate(w, [config], repeats=3, charge=False)
        b = plain_sim.evaluate(w, config, repeats=3)
        assert a == b.perf_mbps
    assert len(built) == 1  # one trace built, three rounds served from it
    assert len(cache) == 1
    assert (evaluator.stats.cache_misses, evaluator.stats.cache_hits) == (1, 3)
    # both consumed the noise stream identically
    assert cached_sim.noise.position == plain_sim.noise.position


# -- EvaluationStats -----------------------------------------------------------


def _snapshot(stats):
    return metrics_snapshot(TuningResult("hstuner", "w", eval_stats=stats))


def test_evaluation_stats_derived_fields():
    stats = EvaluationStats(
        evaluations=10,
        cache_hits=6,
        cache_misses=4,
        traces_built=4,
        trace_replays=30,
    )
    assert stats.cache_hit_rate == 0.6
    assert stats.trace_reuse == 26
    assert fastpath_line(_snapshot(stats)) == (
        "10 evaluations, cache hit rate 60.0% (6/10), trace reuse 26"
    )
    assert EvaluationStats().cache_hit_rate == 0.0
    assert EvaluationStats().trace_reuse == 0


def test_evaluation_stats_degraded_flag_and_resilience_line():
    assert not snapshot_degraded(_snapshot(EvaluationStats()))
    for field in ("retries", "timeouts", "quarantined", "faults_injected"):
        assert snapshot_degraded(_snapshot(EvaluationStats(**{field: 1})))
    line = resilience_line(_snapshot(EvaluationStats(
        retries=2, timeouts=1, quarantined=3, faults_injected=5
    )))
    assert line == ("5 faults injected, 2 retries, 1 timeouts, "
                    "3 quarantined")


# -- edge paths ----------------------------------------------------------------


def test_a_slotted_workload_keys_by_identity(sim):
    """Keys read only the workload protocol and the object's identity,
    so ad-hoc shims without a ``__dict__`` or weakref support key like
    any workload; a content-equal twin is another key."""

    class SlottedWorkload:
        __slots__ = ("name", "n_procs", "n_nodes", "phases")

        def __init__(self, phases):
            self.name = "slotted"
            self.n_procs = 4
            self.n_nodes = 1
            self.phases = phases

    w = SlottedWorkload(make_workload().phases)
    cache = EvaluationCache()
    config = StackConfiguration.default()
    trace = sim.trace(w, config, cache)
    cache.store(w, config, trace)
    assert cache.lookup(w, config) is trace
    twin = SlottedWorkload(w.phases)
    assert cache.lookup(twin, config) is None


def test_entries_do_not_outlive_their_cache(sim):
    """Every entry lives on its cache: 50 fresh BD-CATS workloads traced
    and stored through short-lived caches leave nothing behind once the
    caches are gone."""
    import gc
    import tracemalloc

    from repro.workloads import bdcats

    config = StackConfiguration.default()

    def store_one():
        cache, w = EvaluationCache(), bdcats()
        cache.store(w, config, sim.trace(w, config, cache))

    store_one()  # warm module-level state before measuring
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            store_one()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 0.5 * 2**20


def test_faulted_traces_are_never_stored_or_served():
    """Building a trace never faults: a fault belongs to an evaluation
    attempt, which runs after the trace exists.  So the cache only ever
    holds complete traces -- a poisoned configuration's cached trace is
    the one a fault-free simulator builds -- and serving it later
    changes no fault decision."""
    from repro.iostack import FaultPlan

    plan = FaultPlan(seed=0)
    config = StackConfiguration.default()
    plan.poison(config)
    sim = IOStackSimulator(cori(2), NoiseModel(seed=11), faults=plan)
    cache = EvaluationCache()
    w = make_workload()
    evaluator = ResilientEvaluator(sim, SimulatedClock(), cache)
    assert evaluator.evaluate(w, [config], repeats=1, charge=False) == [0.0]
    assert evaluator.stats.quarantined == 1
    assert len(cache) == 1
    clean = IOStackSimulator(cori(2), NoiseModel(seed=11)).trace(w, config)
    assert repr(cache.lookup(w, config)) == repr(clean)
    # once the fault clears, the cached trace is served, not rebuilt
    sim.faults = None
    served = ResilientEvaluator(sim, SimulatedClock(), cache)
    served.evaluate(w, [config], repeats=1, charge=False)
    assert (served.stats.cache_hits, served.stats.traces_built) == (1, 0)
