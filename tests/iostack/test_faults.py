"""Deterministic fault injection: schedules, hooks, state round-trips."""

import numpy as np
import pytest

from repro.iostack import (
    DegradedWindow,
    FaultPlan,
    IOStackSimulator,
    NoiseModel,
    PoisonedConfigError,
    StackConfiguration,
    TransientFaultError,
    config_digest,
    cori,
)
from repro.iostack.clock import SimulatedClock
from repro.iostack.faults import _REPLAY_SALT, _TRACE_SALT
from repro.tuners.resilience import WORST_CASE_PERF, ResilientEvaluator, RetryPolicy
from tests.conftest import make_workload


def random_configs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [StackConfiguration.random(rng) for _ in range(n)]


# -- config digests ------------------------------------------------------------


def test_digest_is_stable_and_distinguishes_configs():
    a, b = random_configs(2)
    assert config_digest(a) == config_digest(a)
    assert config_digest(a) != config_digest(b)


def test_digest_known_value_is_process_stable():
    # Pinned: the digest keys journals and fault schedules across
    # process restarts, so it must never depend on PYTHONHASHSEED.
    digest = config_digest(StackConfiguration.default())
    assert digest == config_digest(StackConfiguration.default())
    assert len(digest) == 16
    int(digest, 16)  # hex


# -- degraded windows ----------------------------------------------------------


def test_window_covers_half_open_interval():
    w = DegradedWindow(10.0, 20.0, 2.0)
    assert not w.covers(9.99)
    assert w.covers(10.0)
    assert w.covers(19.99)
    assert not w.covers(20.0)


def test_window_parse_round_trip():
    assert DegradedWindow.parse("5:12.5:3") == DegradedWindow(5.0, 12.5, 3.0)


@pytest.mark.parametrize("spec", ["5:12", "a:b:c", "10:5:2", "0:10:0.5"])
def test_window_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        DegradedWindow.parse(spec)


# -- transient error schedule --------------------------------------------------


def faulted_attempts(plan, config, n):
    out = []
    for attempt in range(n):
        try:
            plan.check_trace(config)
            out.append(False)
        except TransientFaultError:
            out.append(True)
    return out


def test_transient_schedule_is_seed_deterministic():
    config = StackConfiguration.default()
    a = faulted_attempts(FaultPlan(seed=7, transient_error_rate=0.5), config, 32)
    b = faulted_attempts(FaultPlan(seed=7, transient_error_rate=0.5), config, 32)
    assert a == b
    assert any(a) and not all(a)


def test_transient_schedule_differs_across_seeds():
    config = StackConfiguration.default()
    a = faulted_attempts(FaultPlan(seed=1, transient_error_rate=0.5), config, 64)
    b = faulted_attempts(FaultPlan(seed=2, transient_error_rate=0.5), config, 64)
    assert a != b


def test_transient_schedule_is_per_attempt():
    """The decision for the run's ``k``-th attempt depends on ``(seed,
    k)`` only: two plans checking different configurations fault at the
    same attempts."""
    x, y = random_configs(2)
    a = faulted_attempts(FaultPlan(seed=3, transient_error_rate=0.5), x, 32)
    b = faulted_attempts(FaultPlan(seed=3, transient_error_rate=0.5), y, 32)
    assert a == b
    assert any(a) and not all(a)


def test_transient_schedule_is_order_independent():
    """Which attempts fault does not depend on the configurations
    checked or their order, so a cache hit and a miss see the same
    schedule."""
    configs = random_configs(8, seed=5)

    def schedule(order):
        plan = FaultPlan(seed=9, transient_error_rate=0.4)
        outcomes = []
        for attempt in range(4):
            for config in order:
                try:
                    plan.check_trace(config)
                    outcomes.append(False)
                except TransientFaultError:
                    outcomes.append(True)
        return outcomes

    permuted = [configs[i] for i in np.random.default_rng(1).permutation(8)]
    assert schedule(configs) == schedule(permuted)
    assert any(schedule(configs))  # some attempts did fault


# The last seed's salted key has four uint32 words and takes the per-key
# seeding fallback.
@pytest.mark.parametrize("seed", [0, 9, 2**96 + 3])
def test_transient_stream_matches_the_per_attempt_formula(seed):
    """Attempt ``k`` faults exactly when the first ``random()`` of
    ``default_rng((seed ^ salt, k))`` is below the rate, also after a
    state round-trip to an arbitrary counter."""
    rate = 0.3
    plan = FaultPlan(seed=seed, transient_error_rate=rate)
    config = StackConfiguration.default()

    def expected(start, n):
        return [
            np.random.default_rng((seed ^ _TRACE_SALT, k)).random() < rate
            for k in range(start, start + n)
        ]

    got = faulted_attempts(plan, config, 40)  # past the first read-ahead block
    assert got == expected(0, 40)
    assert plan.transient_errors_injected == sum(got)
    for counter in (12345, 2**32 - 7, 3):
        plan.set_state(dict(plan.get_state(), trace_counter=counter))
        assert faulted_attempts(plan, config, 15) == expected(counter, 15)
        assert plan.get_state()["trace_counter"] == counter + 15


def test_zero_rate_never_faults_and_makes_no_draws():
    plan = FaultPlan(seed=0, transient_error_rate=0.0)
    config = StackConfiguration.default()
    assert faulted_attempts(plan, config, 16) == [False] * 16
    # rate 0 short-circuits: not even the attempt counter advances
    assert plan.get_state()["trace_counter"] == 0


# -- poisoned configurations ---------------------------------------------------


def test_poisoned_config_always_fails():
    plan = FaultPlan(seed=0)
    bad, good = random_configs(2)
    plan.poison(bad)
    for _ in range(5):
        with pytest.raises(PoisonedConfigError):
            plan.check_trace(bad)
    plan.check_trace(good)  # unaffected


# -- straggler / window slowdowns ----------------------------------------------


def test_straggler_stream_is_deterministic_and_counted():
    a = FaultPlan(seed=4, straggler_rate=0.3, straggler_slowdown=5.0)
    b = FaultPlan(seed=4, straggler_rate=0.3, straggler_slowdown=5.0)
    sa = [a.replay_slowdown() for _ in range(64)]
    sb = [b.replay_slowdown() for _ in range(64)]
    assert sa == sb
    assert set(sa) == {1.0, 5.0}
    assert a.stragglers_injected == sum(1 for s in sa if s != 1.0)


def test_inactive_plan_returns_exactly_one():
    plan = FaultPlan(seed=0)
    assert not plan.active
    assert [plan.replay_slowdown() for _ in range(8)] == [1.0] * 8


def test_degraded_window_follows_the_clock():
    clock = SimulatedClock(setup_overhead=0.0)
    plan = FaultPlan(seed=0, degraded_windows=(DegradedWindow(1.0, 2.0, 3.0),))
    plan.attach_clock(clock)
    assert plan.replay_slowdown() == 1.0  # t=0, before the window
    clock.advance(90.0)  # t=1.5 min, inside
    assert plan.replay_slowdown() == 3.0
    clock.advance(60.0)  # t=2.5 min, past
    assert plan.replay_slowdown() == 1.0


def legacy_replay_slowdown(plan):
    """``FaultPlan.replay_slowdown`` as it was before the straggler stream
    was seeded in bulk, copied verbatim: one fresh generator keyed on
    ``(seed ^ salt, counter)`` per replayed run."""
    counter = plan._replay_counter
    plan._replay_counter += 1
    slowdown = 1.0
    if plan.straggler_rate > 0:
        rng = np.random.default_rng((plan.seed ^ _REPLAY_SALT, counter))
        if rng.random() < plan.straggler_rate:
            slowdown *= plan.straggler_slowdown
            plan.stragglers_injected += 1
    if plan.degraded_windows and plan._clock is not None:
        minutes = plan._clock.elapsed_minutes
        for window in plan.degraded_windows:
            if window.covers(minutes):
                slowdown *= window.slowdown
    return slowdown


# The last seed's salted key has four uint32 words and takes the per-key
# seeding fallback.
@pytest.mark.parametrize("seed", [0, 11, 2**64 + 5, 2**96 + 3])
@pytest.mark.parametrize("rate", [0.3, 1.0 - 1e-12])
def test_straggler_stream_matches_the_per_run_formula(rate, seed):
    clock = SimulatedClock(setup_overhead=0.0)
    plans = [
        FaultPlan(
            seed=seed,
            straggler_rate=rate,
            straggler_slowdown=5.0,
            degraded_windows=(DegradedWindow(1.0, 2.0, 3.0),),
        )
        for _ in range(2)
    ]
    for plan in plans:
        plan.attach_clock(clock)
    plan, oracle = plans

    def replays(n):
        got = [plan.replay_slowdown() for _ in range(n)]
        assert got == [legacy_replay_slowdown(oracle) for _ in range(n)]
        assert plan.stragglers_injected == oracle.stragglers_injected
        assert plan.get_state() == oracle.get_state()
        return got

    replays(40)  # past the first read-ahead block
    clock.advance(90.0)  # inside the degraded window
    assert set(replays(20)) <= {3.0, 15.0}
    clock.advance(60.0)  # past it
    for counter in (12345, 2**32 - 7, 3):  # arbitrary positions, and past 2**32
        state = dict(plan.get_state(), replay_counter=counter)
        plan.set_state(state)
        oracle.set_state(state)
        replays(15)
    plan.reset()
    oracle.reset()
    replays(20)
    assert plan.stragglers_injected > 0


@pytest.mark.parametrize("seed", [-1, 2.0, False])
def test_seed_must_be_a_non_negative_int(seed):
    with pytest.raises(ValueError, match="seed"):
        FaultPlan(seed=seed, straggler_rate=0.5)


# -- simulator hooks -----------------------------------------------------------


def test_inactive_plan_is_bit_identical_to_no_plan():
    w = make_workload()
    config = StackConfiguration.default()
    bare = IOStackSimulator(cori(2), NoiseModel(seed=11))
    planned = IOStackSimulator(cori(2), NoiseModel(seed=11), faults=FaultPlan())
    assert bare.evaluate(w, config).perf_mbps == planned.evaluate(w, config).perf_mbps


def test_trace_fault_raises_before_any_work(monkeypatch):
    """Building a trace never faults; a faulted evaluation attempt
    raises at its fault check, before the trace is replayed."""
    sim = IOStackSimulator(
        cori(2), NoiseModel(seed=11), faults=FaultPlan(seed=0)
    )
    config = StackConfiguration.default()
    sim.faults.poison(config)
    trace = sim.trace(make_workload(), config)
    replays = []
    monkeypatch.setattr(sim, "replay", lambda *a: replays.append(a))
    evaluator = ResilientEvaluator(sim, SimulatedClock(), policy=RetryPolicy(max_retries=2))
    perf = evaluator.evaluate_trace(make_workload(), config, trace, [1.0], repeats=1)
    assert perf == WORST_CASE_PERF
    assert replays == []  # no attempt got past its fault check
    assert evaluator.stats.trace_replays == 0
    assert evaluator.stats.retries == 2 and evaluator.stats.quarantined == 1


def test_straggler_lowers_bandwidth_and_lengthens_runtime():
    w = make_workload()
    config = StackConfiguration.default()
    bare = IOStackSimulator(cori(2), NoiseModel.quiet())
    trace = bare.trace(w, config)
    clean = bare.evaluate_trace_with_factors(trace, [1.0])
    slowed_sim = IOStackSimulator(
        cori(2),
        NoiseModel.quiet(),
        faults=FaultPlan(seed=0, straggler_rate=0.999, straggler_slowdown=4.0),
    )
    slow = slowed_sim.evaluate_trace_with_factors(trace, [1.0])
    assert slow.perf_mbps < clean.perf_mbps
    assert slow.charged_seconds > clean.charged_seconds


# -- journal state -------------------------------------------------------------


def test_state_round_trip_resumes_the_streams():
    config = StackConfiguration.default()
    a = FaultPlan(seed=6, transient_error_rate=0.4, straggler_rate=0.4)
    prefix = faulted_attempts(a, config, 10)
    prefix_slow = [a.replay_slowdown() for _ in range(10)]
    state = a.get_state()

    b = FaultPlan(seed=6, transient_error_rate=0.4, straggler_rate=0.4)
    b.set_state(state)
    assert b.get_state() == state

    # both continue identically from the checkpoint
    assert faulted_attempts(a, config, 10) == faulted_attempts(b, config, 10)
    assert [a.replay_slowdown() for _ in range(10)] == [
        b.replay_slowdown() for _ in range(10)
    ]
    assert prefix and prefix_slow  # the prefix actually exercised both streams


def test_reset_rewinds_to_the_start():
    config = StackConfiguration.default()
    plan = FaultPlan(seed=8, transient_error_rate=0.5, straggler_rate=0.5)
    first = faulted_attempts(plan, config, 16)
    plan.reset()
    assert plan.get_state() == {
        "replay_counter": 0,
        "trace_counter": 0,
        "transient_errors_injected": 0,
        "stragglers_injected": 0,
    }
    assert faulted_attempts(plan, config, 16) == first
