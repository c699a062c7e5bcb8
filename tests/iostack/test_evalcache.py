"""Config-keyed memoization of stack evaluations."""

import numpy as np
import pytest

from repro.iostack import (
    EvaluationCache,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
    workload_fingerprint,
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
from tests.conftest import make_workload


@pytest.fixture
def sim():
    return IOStackSimulator(cori(2), NoiseModel(seed=11))


def random_configs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [StackConfiguration.random(rng) for _ in range(n)]


# -- workload fingerprints -----------------------------------------------------


def test_fingerprint_is_stable_per_object():
    w = make_workload()
    assert workload_fingerprint(w) == workload_fingerprint(w)


def test_structurally_equal_workloads_share_a_fingerprint():
    assert workload_fingerprint(make_workload()) == workload_fingerprint(
        make_workload()
    )


def test_different_workloads_fingerprint_differently():
    a = make_workload()
    b = make_workload(request_size=4 * 1024 * 1024)
    c = make_workload(n_procs=128)
    assert workload_fingerprint(a) != workload_fingerprint(b)
    assert workload_fingerprint(a) != workload_fingerprint(c)


def test_fingerprint_is_hashable():
    hash(workload_fingerprint(make_workload()))


# -- cache mechanics -----------------------------------------------------------


def test_miss_then_hit(sim):
    cache = EvaluationCache()
    w = make_workload()
    config = StackConfiguration.default()
    assert cache.lookup(sim.platform, w, config) is None
    trace = sim.trace(w, config)
    cache.store(sim.platform, w, config, trace)
    assert cache.lookup(sim.platform, w, config) is trace
    assert len(cache) == 1


def test_distinct_configs_do_not_collide(sim):
    cache = EvaluationCache()
    w = make_workload()
    a, b = random_configs(2)
    cache.store(sim.platform, w, a, sim.trace(w, a))
    assert cache.lookup(sim.platform, w, b) is None


def test_distinct_workloads_do_not_collide(sim):
    cache = EvaluationCache()
    config = StackConfiguration.default()
    small = make_workload()
    big = make_workload(n_procs=128)
    cache.store(sim.platform, small, config, sim.trace(small, config))
    assert cache.lookup(sim.platform, big, config) is None


def test_lru_eviction_order(sim):
    cache = EvaluationCache(maxsize=2)
    w = make_workload()
    a, b, c = random_configs(3)
    for config in (a, b):
        cache.store(sim.platform, w, config, sim.trace(w, config))
    cache.lookup(sim.platform, w, a)  # refresh a: b is now LRU
    assert cache.store(sim.platform, w, c, sim.trace(w, c))  # evicted
    assert len(cache) == 2
    assert cache.lookup(sim.platform, w, a) is not None
    assert cache.lookup(sim.platform, w, b) is None  # evicted
    assert cache.lookup(sim.platform, w, c) is not None


def test_maxsize_validation():
    with pytest.raises(ValueError):
        EvaluationCache(maxsize=0)


def test_store_reports_evictions(sim):
    cache = EvaluationCache(maxsize=1)
    w = make_workload()
    a, b = random_configs(2)
    assert cache.store(sim.platform, w, a, sim.trace(w, a)) is False
    assert cache.store(sim.platform, w, a, sim.trace(w, a)) is False  # re-store
    assert cache.store(sim.platform, w, b, sim.trace(w, b)) is True
    assert cache.lookup(sim.platform, w, a) is None
    assert len(cache) == 1


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


def test_fingerprint_of_a_slotted_workload(sim):
    """Fingerprinting reads only the workload protocol, so ad-hoc shims
    without a ``__dict__`` or weakref support fingerprint and key like
    any workload."""

    class SlottedWorkload:
        __slots__ = ("name", "n_procs", "n_nodes", "phases")

        def __init__(self, phases):
            self.name = "slotted"
            self.n_procs = 4
            self.n_nodes = 1
            self.phases = phases

    w = SlottedWorkload(make_workload().phases)
    first = workload_fingerprint(w)
    assert workload_fingerprint(w) == first
    assert hash(first)
    # a structurally equal twin agrees, a different one does not
    assert workload_fingerprint(
        SlottedWorkload(make_workload().phases)
    ) == first
    assert workload_fingerprint(SlottedWorkload(())) != first
    cache = EvaluationCache()
    config = StackConfiguration.default()
    cache.store(sim.platform, w, config, sim.trace(w, config))
    twin = SlottedWorkload(make_workload().phases)
    assert cache.lookup(sim.platform, twin, config) is not None


def test_cache_fingerprints_each_workload_once_in_a_row(sim, monkeypatch):
    """The cache memoizes the last workload's fingerprint: repeated
    lookups of one workload walk its phases once, and switching
    workloads recomputes."""
    from repro.iostack import evalcache

    calls = []
    fingerprint = evalcache.workload_fingerprint
    monkeypatch.setattr(
        evalcache, "workload_fingerprint", lambda w: calls.append(w) or fingerprint(w)
    )
    cache = EvaluationCache()
    a, b = make_workload(), make_workload(n_procs=128)
    for config in random_configs(5):
        cache.lookup(sim.platform, a, config)
    assert calls == [a]
    cache.lookup(sim.platform, b, StackConfiguration.default())
    cache.lookup(sim.platform, a, StackConfiguration.default())
    assert calls == [a, b, a]


def test_fingerprints_do_not_outlive_their_caches(sim):
    """Fingerprints live on the cache that computed them: 50 fresh
    BD-CATS workloads keyed through short-lived caches leave nothing
    behind once the caches are gone."""
    import gc
    import tracemalloc

    from repro.workloads import bdcats

    config = StackConfiguration.default()

    def key_one():
        EvaluationCache().lookup(sim.platform, bdcats(), config)

    key_one()  # warm module-level state before measuring
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            key_one()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 0.5 * 2**20


def test_eviction_pressure_never_grows_past_maxsize(sim):
    cache = EvaluationCache(maxsize=3)
    w = make_workload()
    configs = random_configs(10, seed=3)
    evicted = 0
    for config in configs:
        evicted += cache.store(sim.platform, w, config, sim.trace(w, config))
        assert len(cache) <= 3
    assert evicted == 7
    # only the three most recently stored survive
    for config in configs[:-3]:
        assert cache.lookup(sim.platform, w, config) is None
    for config in configs[-3:]:
        assert cache.lookup(sim.platform, w, config) is not None


def test_restoring_same_key_does_not_evict(sim):
    cache = EvaluationCache(maxsize=2)
    w = make_workload()
    a, b = random_configs(2)
    for config in (a, b, a, a):
        assert not cache.store(sim.platform, w, config, sim.trace(w, config))
    assert len(cache) == 2


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
    assert repr(cache.lookup(sim.platform, w, config)) == repr(clean)
    # once the fault clears, the cached trace is served, not rebuilt
    sim.faults = None
    served = ResilientEvaluator(sim, SimulatedClock(), cache)
    served.evaluate(w, [config], repeats=1, charge=False)
    assert (served.stats.cache_hits, served.stats.traces_built) == (1, 0)
