"""Micro-benchmarks: the hot paths that make tuning runs fast.

These use pytest-benchmark statistically (many rounds): a full GA tuning
experiment only stays interactive because a single stack evaluation is
sub-millisecond and a discovery pass is tens of milliseconds.
"""

import numpy as np
import pytest

from repro.discovery import DiscoveryOptions, discover_io
from repro.iostack import IOStackSimulator, NoiseModel, StackConfiguration, cori
from repro.workloads import flash
from repro.workloads.sources import canonical_hints, load_source


@pytest.fixture(scope="module")
def sim():
    return IOStackSimulator(cori(4), NoiseModel(seed=0))


def test_single_evaluation_speed(benchmark, sim):
    w = flash()
    config = StackConfiguration.default()
    result = benchmark(lambda: sim.evaluate(w, config))
    assert result.perf_mbps > 0
    # the trace/replay fastpath halved the pre-fastpath 20 ms budget:
    # one stack traversal + 3 cheap replays instead of 3 traversals
    assert benchmark.stats["mean"] < 0.01


def test_discovery_pipeline_speed(benchmark):
    source = load_source("macsio")
    options = DiscoveryOptions(hints=canonical_hints("macsio"))
    kernel = benchmark(lambda: discover_io(source, "macsio", options))
    assert kernel.kept_line_count > 0
    assert benchmark.stats["mean"] < 0.5


def test_config_encode_decode_speed(benchmark):
    rng = np.random.default_rng(0)
    config = StackConfiguration.random(rng)
    genome = config.genome()

    def roundtrip():
        return StackConfiguration.from_genome(genome)

    assert benchmark(roundtrip) == config


def test_nn_train_batch_speed(benchmark, rng=np.random.default_rng(0)):
    from repro.rl.nn import MLP

    net = MLP([16, 32, 32, 4], rng)
    x = rng.normal(size=(64, 16))
    y = rng.normal(size=(64, 4))
    benchmark(lambda: net.train_batch(x, y))
    assert benchmark.stats["mean"] < 0.01


def test_cached_evaluation_speed(benchmark, sim):
    """A warm cache hit through the evaluation path every tuner takes
    (``ResilientEvaluator.evaluate``: dict lookup + 3 replays) must be
    an order of magnitude cheaper than what a 3-run evaluation cost
    before the fastpath: three full stack traversals."""
    import time

    from repro.iostack import EvaluationCache
    from repro.iostack.clock import SimulatedClock
    from repro.tuners.resilience import ResilientEvaluator

    w = flash()
    config = StackConfiguration.default()

    legacy_cold = float("inf")
    for _ in range(5):  # best-of-5: the seed's per-repeat loop shape
        start = time.perf_counter()
        for _ in range(3):
            sim.replay(sim.trace(w, config), sim.noise.sample_factor())
        legacy_cold = min(legacy_cold, time.perf_counter() - start)

    fast_cold = float("inf")
    for _ in range(5):  # best-of-5: fastpath miss (1 traversal, 3 replays)
        start = time.perf_counter()
        sim.evaluate(w, config)
        fast_cold = min(fast_cold, time.perf_counter() - start)

    cache = EvaluationCache()
    evaluator = ResilientEvaluator(sim, SimulatedClock(), cache)
    evaluator.evaluate(w, [config], 3)  # warm the entry
    [perf] = benchmark(lambda: evaluator.evaluate(w, [config], 3))
    assert perf > 0
    # every benchmarked call was served by the one warm entry
    assert len(cache) == 1 and cache.lookup(sim.platform, w, config) is not None
    # median keeps scheduler outliers out of the 10x claim
    assert benchmark.stats["median"] < legacy_cold / 10
    assert benchmark.stats["median"] < fast_cold / 3


def test_tuning_run_wall_clock(sim):
    """A 10-generation tuning run with the full fastpath stays
    interactive (the seed needed ~3 stack traversals per evaluation)."""
    import time

    from repro.iostack import EvaluationCache
    from repro.tuners import HSTuner, NoStop

    tuner = HSTuner(
        sim,
        stopper=NoStop(),
        rng=np.random.default_rng(0),
        cache=EvaluationCache(),
    )
    start = time.perf_counter()
    result = tuner.tune(flash(), max_iterations=10)
    elapsed = time.perf_counter() - start
    assert result.best_perf > 0
    assert len(result.history) == 10
    assert elapsed < 2.0  # ~60 evaluations; well under interactive budget


def test_noise_factor_speed():
    """Bulk-seeded noise factors beat one fresh generator per factor by
    at least 1.5x, with the same values.  Both paths run in this process,
    so the ratio does not depend on host speed."""
    import time

    def legacy_factors(seed, n):
        # the per-counter draw NoiseModel.sample_factor made before bulk
        # seeding, copied verbatim (default sigma and spikes)
        out = []
        for counter in range(n):
            rng = np.random.default_rng((seed, counter))
            factor = float(rng.lognormal(mean=0.0, sigma=0.12))
            if rng.random() < 0.06:
                factor *= 2.0
            out.append(factor)
        return out

    batches, size = 50, 15
    legacy = bulk = float("inf")
    for _ in range(5):  # best-of-5, alternating the two paths
        start = time.perf_counter()
        expected = legacy_factors(3, batches * size)
        legacy = min(legacy, time.perf_counter() - start)

        start = time.perf_counter()
        noise = NoiseModel(seed=3)
        got = [noise.sample_factors(size) for _ in range(batches)]
        bulk = min(bulk, time.perf_counter() - start)
        assert np.concatenate(got).tolist() == expected
    assert bulk * 1.5 < legacy
