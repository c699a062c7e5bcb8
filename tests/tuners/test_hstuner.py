"""The HSTuner GA pipeline."""

import numpy as np
import pytest

from repro.iostack import TUNED_SPACE, IOStackSimulator, NoiseModel, cori
from repro.tuners import HeuristicStopper, HSTuner, NoStop
from repro.tuners.hstuner import HSTuner as HSTunerClass
from repro.workloads import flash
from tests.conftest import make_workload, memo_is_empty


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
    tuner = small_tuner(sim, stopper=HeuristicStopper())
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
            # As in TunIO, generation 0 is the unmasked seed population.
            return None if iteration == 0 else ("striping_factor",)

        def _observe_iteration(self, record):
            if record.iteration == 0:
                self.first_best = self._engine.best.genome.copy()

    tuner = OnlyStripes(sim, rng=np.random.default_rng(1))
    res = tuner.tune(make_workload(), max_iterations=10)
    pinned = np.arange(len(TUNED_SPACE)) != TUNED_SPACE.index_of_name("striping_factor")
    assert np.array_equal(res.best_config.genome()[pinned], tuner.first_best[pinned])
    assert res.history[0].tuned_parameters == TUNED_SPACE.names
    assert all(r.tuned_parameters == ("striping_factor",) for r in res.history[1:])


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
    seed_ind = Individual(TUNED_SPACE.encode(TUNED_SPACE.default_values()))
    rng = np.random.default_rng(0)
    for _ in range(300):
        assert not tuner._perturbed(seed_ind, rng).same_genome(seed_ind)


def test_initial_population_contains_default_only_once(sim):
    tuner = small_tuner(sim)
    tuner.tune(make_workload(), max_iterations=1)
    default = TUNED_SPACE.encode(TUNED_SPACE.default_values())
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
    # the result holds a copy of the evaluator's record, not the record
    assert stats == tuner._resilient.stats
    assert stats is not tuner._resilient.stats


def test_default_tuner_owns_a_private_cache(sim):
    a, b = small_tuner(sim), small_tuner(sim)
    assert a.cache is not None and a.cache is not b.cache
    stored = []
    store = a.cache.store
    a.cache.store = lambda *args: stored.append(args) or store(*args)
    res = a.tune(make_workload(), max_iterations=3)
    stats = res.eval_stats
    assert stats.cache_hits + stats.cache_misses > 0
    assert len(stored) == stats.cache_misses
    assert memo_is_empty(b.cache)


def test_tuning_revisits_hit_the_cache(sim):
    from repro.iostack import EvaluationCache

    cache = EvaluationCache()
    tuner = small_tuner(sim, cache=cache)
    res = tuner.tune(make_workload(), max_iterations=10)
    assert res.eval_stats.cache_hits > 0  # the GA re-draws configurations
    assert res.eval_stats.trace_reuse > 0


def test_stats_window_resets_between_tunes(sim):
    from repro.iostack import EvaluationCache

    tuner = small_tuner(sim, cache=EvaluationCache())
    first = tuner.tune(make_workload(), max_iterations=3)
    second = tuner.tune(make_workload(), max_iterations=3)
    # each tune counts on its own evaluator, not cumulatively
    assert second.eval_stats.evaluations == first.eval_stats.evaluations
    assert (
        second.eval_stats.trace_replays
        == tuner.repeats * second.eval_stats.evaluations
    )
    # the first run's memo was emptied: the second builds its baseline
    assert second.eval_stats.cache_misses >= 1


def test_tuners_sharing_a_cache_count_only_their_own_work(sim):
    from repro.iostack import EvaluationCache

    cache = EvaluationCache()
    first, second = (small_tuner(sim, cache=cache) for _ in range(2))
    workload = make_workload()
    a = first.tune(workload, max_iterations=3).eval_stats
    assert a.cache_misses == a.traces_built > 0
    assert memo_is_empty(cache)
    b = second.tune(workload, max_iterations=3).eval_stats
    # the first run's memo was emptied when it ended, so the second
    # tune builds its own traces and counts only its own lookups,
    # builds and replays
    assert b.traces_built == b.cache_misses > 0
    assert b.trace_replays == second.repeats * b.evaluations


# -- layer memo lifetime -----------------------------------------------------------


def test_tune_and_resume_leave_no_layer_memo(sim):
    tuner = small_tuner(sim)
    built = []
    trace = sim.trace
    sim.trace = lambda *args: built.append(args[2]) or trace(*args)
    tuner.tune(make_workload(), max_iterations=3)
    assert memo_is_empty(tuner.cache)
    tuner.resume(2)
    assert memo_is_empty(tuner.cache)
    # every trace of both calls was built on the tuner's memo
    assert built and all(memo is tuner.cache for memo in built)


def test_a_tune_that_raises_leaves_no_layer_memo(sim):
    tuner = small_tuner(sim)

    def fail_from_third(record):
        if record.iteration >= 2:
            raise RuntimeError("mid-run failure")

    tuner._observe_iteration = fail_from_third
    with pytest.raises(RuntimeError, match="mid-run failure"):
        tuner.tune(make_workload(), max_iterations=5)
    assert memo_is_empty(tuner.cache)
    with pytest.raises(RuntimeError, match="mid-run failure"):
        tuner.resume(1)
    assert memo_is_empty(tuner.cache)


def test_each_tune_starts_with_an_empty_layer_memo(layer_calls):
    sim = IOStackSimulator(cori(2), NoiseModel.quiet())
    workload = make_workload()
    streams_per_trace = sum(len(p.data) for p in workload.phases)
    counts, results = [], []
    for _ in range(2):
        layer_calls.clear()
        results.append(small_tuner(sim, seed=4).tune(workload, max_iterations=4))
        counts.append(layer_calls["serve_lustre"])
    assert counts[0] == counts[1] > 0
    assert np.array_equal(results[0].perf_series(), results[1].perf_series())
    # Within a tune the memo serves part of the traffic.
    assert counts[0] < results[0].eval_stats.traces_built * streams_per_trace


def test_layer_calls_of_a_twenty_generation_flash_tune_are_pinned(layer_calls):
    """The layer memo's savings on one fixed tune, as exact call counts.

    The counts are deterministic, so a change that widens a memo key (or
    drops an entry) fails here without relying on timing.  One key over
    the whole hdf5 slice would run both HDF5 halves 118 times, and an
    unmemoized metadata service 184 times (every phase of every trace).
    Without shared collective samples Lustre would run 200 times, and
    without the RPC-pass memo every Lustre call would run its pass."""
    workload = flash()
    sim = IOStackSimulator(cori(workload.n_nodes), NoiseModel(seed=0))
    tuner = HSTuner(sim, stopper=NoStop(), rng=np.random.default_rng(0))
    result = tuner.tune(workload, max_iterations=20)
    assert result.eval_stats.traces_built == 92
    assert dict(layer_calls) == {
        "apply_hdf5": 56,
        "apply_hdf5_metadata": 40,
        "serve_metadata": 40,
        "apply_mpiio": 188,
        "serve_lustre": 182,
        "stripe_rpcs": 80,
    }
