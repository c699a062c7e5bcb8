"""Config-keyed memoization of stack evaluations."""

import numpy as np
import pytest

from repro.iostack import (
    EvaluationCache,
    EvaluationStats,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
    workload_fingerprint,
)
from repro.iostack.evalcache import CacheStats
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
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5


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
    cache.store(sim.platform, w, c, sim.trace(w, c))
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.lookup(sim.platform, w, a) is not None
    assert cache.lookup(sim.platform, w, b) is None  # evicted
    assert cache.lookup(sim.platform, w, c) is not None


def test_clear_drops_entries_keeps_counters(sim):
    cache = EvaluationCache()
    w = make_workload()
    config = StackConfiguration.default()
    cache.get_trace(sim, w, config)
    cache.clear()
    assert len(cache) == 0
    assert cache.misses == 1
    assert cache.lookup(sim.platform, w, config) is None


def test_maxsize_validation():
    with pytest.raises(ValueError):
        EvaluationCache(maxsize=0)


def test_stats_snapshot(sim):
    cache = EvaluationCache(maxsize=8)
    w = make_workload()
    config = StackConfiguration.default()
    cache.get_trace(sim, w, config)
    cache.get_trace(sim, w, config)
    stats = cache.stats()
    assert stats == CacheStats(hits=1, misses=1, evictions=0, size=1, maxsize=8)
    assert stats.lookups == 2
    assert stats.hit_rate == 0.5
    assert CacheStats().hit_rate == 0.0


# -- cached evaluation ---------------------------------------------------------


def test_get_trace_builds_once(sim):
    cache = EvaluationCache()
    w = make_workload()
    config = StackConfiguration.default()
    first = cache.get_trace(sim, w, config)
    second = cache.get_trace(sim, w, config)
    assert second is first
    assert sim.traces_built == 1


def test_cached_evaluate_is_bit_identical_under_noise():
    w = make_workload()
    config = StackConfiguration.default()
    cached_sim = IOStackSimulator(cori(2), NoiseModel(seed=21))
    plain_sim = IOStackSimulator(cori(2), NoiseModel(seed=21))
    cache = EvaluationCache()
    for _ in range(4):  # first round misses, later rounds hit
        a = cache.evaluate(cached_sim, w, config, repeats=3)
        b = plain_sim.evaluate(w, config, repeats=3)
        assert a.perf_mbps == b.perf_mbps
        assert a.write_bandwidth_mbps == b.write_bandwidth_mbps
        assert a.read_bandwidth_mbps == b.read_bandwidth_mbps
        assert a.charged_seconds == b.charged_seconds
        assert a.report == b.report
    assert cache.hits == 3
    assert cached_sim.traces_built == 1
    assert plain_sim.traces_built == 4
    # both consumed the noise stream identically
    assert cached_sim.noise._counter == plain_sim.noise._counter


# -- EvaluationStats -----------------------------------------------------------


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
    assert "10 evaluations" in stats.describe()
    assert "60.0%" in stats.describe()
    assert EvaluationStats().cache_hit_rate == 0.0
    assert EvaluationStats().trace_reuse == 0


def test_evaluation_stats_degraded_flag_and_resilience_line():
    assert not EvaluationStats().degraded
    for field in ("retries", "timeouts", "quarantined", "faults_injected"):
        assert EvaluationStats(**{field: 1}).degraded
    line = EvaluationStats(
        retries=2, timeouts=1, quarantined=3, faults_injected=5
    ).describe_resilience()
    assert line == ("5 faults injected, 2 retries, 1 timeouts, "
                    "3 quarantined")


# -- edge paths ----------------------------------------------------------------


def test_fingerprint_skips_memo_for_non_weakrefable_workloads():
    """Objects without weakref support (e.g. slotted ad-hoc workload
    shims) hit the TypeError branch: fingerprinting still works, it just
    recomputes per call instead of memoizing."""

    class SlottedWorkload:
        __slots__ = ("name", "n_procs", "n_nodes", "_phases")

        def __init__(self, phases):
            self.name = "slotted"
            self.n_procs = 4
            self.n_nodes = 1
            self._phases = phases

        def phases(self):
            return self._phases

    with pytest.raises(TypeError):
        import weakref

        weakref.ref(SlottedWorkload(()))  # the premise of this test

    w = SlottedWorkload(tuple(make_workload().phases()))
    first = workload_fingerprint(w)
    assert workload_fingerprint(w) == first
    assert hash(first)
    # a structurally equal twin agrees, a different one does not
    assert workload_fingerprint(
        SlottedWorkload(tuple(make_workload().phases()))
    ) == first
    assert workload_fingerprint(SlottedWorkload(())) != first


def test_eviction_pressure_never_grows_past_maxsize(sim):
    cache = EvaluationCache(maxsize=3)
    w = make_workload()
    configs = random_configs(10, seed=3)
    for config in configs:
        cache.store(sim.platform, w, config, sim.trace(w, config))
        assert len(cache) <= 3
    assert cache.evictions == 7
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
        cache.store(sim.platform, w, config, sim.trace(w, config))
    assert len(cache) == 2 and cache.evictions == 0


def test_faulted_traces_are_never_stored_or_served():
    """A faulted attempt raises before the trace exists, so the cache
    can never memoize -- and never serve -- a partial trace."""
    from repro.iostack import FaultPlan, PoisonedConfigError

    plan = FaultPlan(seed=0)
    config = StackConfiguration.default()
    plan.poison(config)
    sim = IOStackSimulator(cori(2), NoiseModel(seed=11), faults=plan)
    cache = EvaluationCache()
    w = make_workload()
    with pytest.raises(PoisonedConfigError):
        cache.get_trace(sim, w, config)
    assert len(cache) == 0
    assert cache.lookup(sim.platform, w, config) is None
    # once the fault clears, a real trace is built and cached normally
    sim.faults = None
    trace = cache.get_trace(sim, w, config)
    assert cache.lookup(sim.platform, w, config) is trace
