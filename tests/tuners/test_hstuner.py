"""The HSTuner GA pipeline."""

import numpy as np
import pytest

from repro.iostack import IOStackSimulator, NoiseModel, cori
from repro.tuners import HeuristicStopper, HSTuner, NoStop
from repro.tuners.hstuner import HSTuner as HSTunerClass
from tests.conftest import make_workload


@pytest.fixture
def sim():
    return IOStackSimulator(cori(2), NoiseModel(sigma=0.05, spike_probability=0.0, seed=3))


def small_tuner(sim, seed=0, **kwargs):
    return HSTuner(sim, rng=np.random.default_rng(seed), **kwargs)


def test_tuning_improves_over_baseline(sim):
    tuner = small_tuner(sim)
    res = tuner.tune(make_workload(), max_iterations=15)
    assert res.best_perf > 1.5 * res.baseline_perf
    assert res.best_config is not None
    assert res.stop_reason == "budget"
    assert len(res.history) == 15


def test_best_perf_is_monotone(sim):
    res = small_tuner(sim).tune(make_workload(), max_iterations=12)
    series = res.perf_series()
    assert all(b >= a for a, b in zip(series, series[1:]))


def test_clock_charges_every_evaluation(sim):
    tuner = small_tuner(sim)
    res = tuner.tune(make_workload(), max_iterations=5)
    assert tuner.clock.n_evaluations == res.total_evaluations
    assert res.total_minutes > 0
    minutes = res.minutes_series()
    assert all(b > a for a, b in zip(minutes, minutes[1:]))


def test_stopper_ends_run(sim):
    tuner = small_tuner(sim, stopper=HeuristicStopper(threshold=0.05, window=3))
    res = tuner.tune(make_workload(), max_iterations=40)
    assert res.stop_reason == "stopper"
    assert res.stopped_at is not None
    assert len(res.history) < 40


def test_seeded_runs_reproduce(sim):
    w = make_workload()
    a = small_tuner(IOStackSimulator(cori(2), NoiseModel(seed=5)), seed=9).tune(w, 8)
    b = small_tuner(IOStackSimulator(cori(2), NoiseModel(seed=5)), seed=9).tune(w, 8)
    assert np.array_equal(a.perf_series(), b.perf_series())
    assert a.best_config == b.best_config


def test_subset_restriction_pins_other_genes(sim):
    class OnlyStripes(HSTunerClass):
        def _select_subset(self, iteration, history):
            return ("striping_factor",)

    tuner = OnlyStripes(sim, rng=np.random.default_rng(1))
    res = tuner.tune(make_workload(), max_iterations=10)
    changed = res.best_config.changed_parameters()
    assert set(changed) <= {"striping_factor"}
    assert all(len(r.tuned_parameters) == 1 for r in res.history)


def test_resume_continues_history(sim):
    tuner = small_tuner(sim)
    first = tuner.tune(make_workload(), max_iterations=4)
    minutes_before = first.total_minutes
    resumed = tuner.resume(extra_iterations=3)
    assert resumed is first
    assert len(resumed.history) == 7
    assert resumed.total_minutes > minutes_before
    assert [r.iteration for r in resumed.history] == list(range(7))


def test_resume_without_tune_rejected(sim):
    with pytest.raises(RuntimeError):
        small_tuner(sim).resume(3)
    tuner = small_tuner(sim)
    tuner.tune(make_workload(), max_iterations=2)
    with pytest.raises(ValueError):
        tuner.resume(0)


def test_invalid_budget(sim):
    with pytest.raises(ValueError):
        small_tuner(sim).tune(make_workload(), max_iterations=0)


# -- initial population (no wasted duplicate of the seed) -----------------------


def test_perturbed_always_differs_from_seed(sim):
    from repro.ga import Individual

    tuner = small_tuner(sim)
    seed_ind = Individual(tuner.space.encode(tuner.space.default_values()))
    rng = np.random.default_rng(0)
    for _ in range(300):
        assert not tuner._perturbed(seed_ind, rng).same_genome(seed_ind)


def test_initial_population_contains_default_only_once(sim):
    tuner = small_tuner(sim)
    tuner.tune(make_workload(), max_iterations=1)
    default = tuner.space.encode(tuner.space.default_values())
    population = tuner._engine.population  # still generation 0 after 1 step
    assert np.array_equal(population[0].genome, default)
    for ind in population[1:]:
        assert not np.array_equal(ind.genome, default)


# -- fastpath accounting --------------------------------------------------------


def test_eval_stats_surfaced_on_result(sim):
    from repro.iostack import EvaluationCache

    cache = EvaluationCache()
    tuner = small_tuner(sim, cache=cache)
    res = tuner.tune(make_workload(), max_iterations=6)
    stats = res.eval_stats
    assert stats is not None
    # every evaluation (baseline included) did `repeats` replays
    assert stats.evaluations == res.total_evaluations + 1
    assert stats.trace_replays == tuner.repeats * stats.evaluations
    # with a cache, traversals happen only on misses
    assert stats.cache_misses == stats.traces_built
    assert stats.trace_reuse == stats.trace_replays - stats.traces_built
    assert res.cache_hit_rate == stats.cache_hit_rate
    assert res.trace_reuse_count == stats.trace_reuse


def test_eval_stats_without_cache(sim):
    res = small_tuner(sim).tune(make_workload(), max_iterations=3)
    assert res.eval_stats is not None
    assert res.eval_stats.cache_hits == 0
    assert res.eval_stats.cache_misses == 0
    assert res.cache_hit_rate == 0.0


def test_tuning_revisits_hit_the_cache(sim):
    from repro.iostack import EvaluationCache

    cache = EvaluationCache()
    tuner = small_tuner(sim, cache=cache)
    res = tuner.tune(make_workload(), max_iterations=10)
    assert res.eval_stats.cache_hits > 0  # the GA re-draws configurations
    assert res.trace_reuse_count > 0


def test_stats_window_resets_between_tunes(sim):
    from repro.iostack import EvaluationCache

    tuner = small_tuner(sim, cache=EvaluationCache())
    first = tuner.tune(make_workload(), max_iterations=3)
    second = tuner.tune(make_workload(), max_iterations=3)
    # counters are deltas over the run, not cumulative across runs
    assert second.eval_stats.evaluations == first.eval_stats.evaluations
    assert (
        second.eval_stats.trace_replays
        == tuner.repeats * second.eval_stats.evaluations
    )
    # the second run starts from the same default baseline: cache hit
    assert second.eval_stats.cache_hits >= 1

