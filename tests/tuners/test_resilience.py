"""The resilient evaluation harness: retry, timeout, quarantine,
clock accounting, and exception hygiene."""

import numpy as np
import pytest

from repro.iostack import (
    EvaluationCache,
    FaultPlan,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
)
from repro.iostack.clock import SimulatedClock
from repro.iostack.faults import EvaluationError
from repro.tuners.resilience import HarnessError, ResilientEvaluator, RetryPolicy
from tests.conftest import make_workload


@pytest.fixture
def workload():
    return make_workload()


def harness(faults=None, policy=None, cache=None, seed=11):
    sim = IOStackSimulator(cori(2), NoiseModel(seed=seed), faults=faults)
    clock = SimulatedClock()
    return ResilientEvaluator(sim, clock, cache=cache, policy=policy)


# -- policy validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"backoff_seconds": -1.0},
        {"backoff_multiplier": 0.5},
        {"timeout_seconds": 0.0},
        {"worst_case_perf": -1.0},
    ],
)
def test_policy_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)


def test_backoff_is_exponential():
    policy = RetryPolicy(backoff_seconds=10.0, backoff_multiplier=3.0)
    assert [policy.backoff_for(k) for k in range(3)] == [10.0, 30.0, 90.0]


# -- happy path ----------------------------------------------------------------


def test_happy_path_is_bit_identical_to_bare_fastpath(workload):
    config = StackConfiguration.default()
    bare = IOStackSimulator(cori(2), NoiseModel(seed=11))
    expected = bare.evaluate(workload, config, repeats=3)

    h = harness()
    perf = h.evaluate_config(workload, config, repeats=3)
    assert perf == expected.perf_mbps
    assert h.clock.elapsed_seconds == (
        h.clock.setup_overhead + expected.charged_seconds
    )
    assert h.stats.as_dict() == {
        "retries": 0, "timeouts": 0, "quarantined": 0,
    }


def test_charge_false_leaves_the_clock_untouched(workload):
    h = harness()
    h.evaluate_config(workload, StackConfiguration.default(), repeats=3,
                      charge=False)
    assert h.clock.elapsed_seconds == 0.0


# -- retry ---------------------------------------------------------------------


def test_transient_faults_retry_and_charge_backoff(workload):
    config = StackConfiguration.default()
    # Find a seed whose first attempt faults but a later one succeeds.
    for seed in range(200):
        plan = FaultPlan(seed=seed, transient_error_rate=0.6)
        try:
            plan.check_trace(config)
            continue
        except EvaluationError:
            pass
        plan.reset()
        h = harness(faults=plan, policy=RetryPolicy(max_retries=3,
                                                    backoff_seconds=45.0))
        perf = h.evaluate_config(workload, config, repeats=3)
        if h.stats.retries and not h.stats.quarantined:
            assert perf > 0
            # every failed attempt charged launch + its backoff
            base = h.clock.setup_overhead
            expected_failures = sum(
                base + h.policy.backoff_for(k) for k in range(h.stats.retries)
            )
            assert h.clock.elapsed_seconds > expected_failures
            return
    pytest.fail("no seed produced a retry-then-success schedule")


def test_exhausted_retries_quarantine_at_worst_case(workload):
    plan = FaultPlan(seed=0)
    config = StackConfiguration.default()
    plan.poison(config)
    h = harness(faults=plan, policy=RetryPolicy(max_retries=2,
                                                worst_case_perf=0.0))
    perf = h.evaluate_config(workload, config, repeats=3)
    assert perf == 0.0
    assert h.stats.quarantined == 1
    assert h.stats.retries == 2
    assert h.is_quarantined(config)


def test_quarantined_config_short_circuits(workload):
    plan = FaultPlan(seed=0)
    config = StackConfiguration.default()
    plan.poison(config)
    h = harness(faults=plan)
    h.evaluate_config(workload, config, repeats=3)
    before = h.simulator.traces_built
    t0 = h.clock.elapsed_seconds
    assert h.evaluate_config(workload, config, repeats=3) == 0.0
    assert h.simulator.traces_built == before  # not attempted again
    assert h.clock.elapsed_seconds == t0 + h.clock.setup_overhead


def test_quarantine_state_round_trip(workload):
    plan = FaultPlan(seed=0)
    config = StackConfiguration.default()
    plan.poison(config)
    h = harness(faults=plan)
    h.evaluate_config(workload, config, repeats=3)
    state = h.quarantine_state()
    other = harness()
    other.restore_quarantine(state)
    assert other.is_quarantined(config)


# -- timeout -------------------------------------------------------------------


def test_timeout_kills_retries_then_quarantines(workload):
    config = StackConfiguration.default()
    h = harness(policy=RetryPolicy(max_retries=1, timeout_seconds=0.001))
    perf = h.evaluate_config(workload, config, repeats=3)
    assert perf == 0.0
    assert h.stats.timeouts == 2  # first attempt + one retry
    assert h.stats.quarantined == 1
    # each timed-out run was charged as killed at the deadline
    assert h.clock.elapsed_seconds == pytest.approx(
        2 * (h.clock.setup_overhead + 0.001) + h.clock.setup_overhead
    )


def test_generous_timeout_never_engages(workload):
    h = harness(policy=RetryPolicy(timeout_seconds=1e9))
    h.evaluate_config(workload, StackConfiguration.default(), repeats=3)
    assert h.stats.timeouts == 0


# -- exception hygiene ---------------------------------------------------------


def test_unexpected_errors_wrap_with_the_config_repr(workload):
    h = harness()
    config = StackConfiguration.default()

    def broken_trace(*a, **k):
        raise ZeroDivisionError("bug in a layer model")

    h.simulator.trace = broken_trace
    with pytest.raises(HarnessError) as info:
        h.build_trace(workload, config)
    assert repr(config) in str(info.value)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_non_finite_perf_is_a_retryable_failure(workload):
    h = harness(policy=RetryPolicy(max_retries=0))
    config = StackConfiguration.default()
    trace = h.simulator.trace(workload, config)

    class Bad:
        perf_mbps = float("nan")
        charged_seconds = 1.0

    h.simulator.evaluate_trace_with_factors = lambda *a, **k: Bad()
    perf = h.evaluate_trace(workload, config, trace, np.ones(3), repeats=3)
    assert perf == 0.0  # quarantined, not crashed, no NaN leaked
    assert h.stats.quarantined == 1


# -- cache interaction ---------------------------------------------------------


def test_faulted_attempts_never_store_a_trace(workload):
    plan = FaultPlan(seed=0)
    config = StackConfiguration.default()
    plan.poison(config)
    cache = EvaluationCache()
    h = harness(faults=plan, cache=cache)
    assert h.build_trace(workload, config) is None
    assert len(cache) == 0
    # ...and a later lookup cannot be served a faulted/partial trace
    assert cache.lookup(h.simulator.platform, workload, config) is None


def test_successful_trace_goes_through_the_cache(workload):
    cache = EvaluationCache()
    h = harness(cache=cache)
    config = StackConfiguration.default()
    trace = h.build_trace(workload, config)
    assert cache.lookup(h.simulator.platform, workload, config) is trace
