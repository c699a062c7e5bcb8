"""Deterministic fault injection: schedules, hooks, state round-trips."""

import threading

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


def test_transient_schedule_is_per_config():
    x, y = random_configs(2)
    plan = FaultPlan(seed=3, transient_error_rate=0.5)
    assert faulted_attempts(plan, x, 32) != faulted_attempts(plan, y, 32)


def test_transient_schedule_is_thread_order_independent():
    """The decision for (config, attempt) must not depend on which
    thread got there first -- batch evaluation uses a thread pool."""
    configs = random_configs(8, seed=5)

    def schedule(n_threads):
        plan = FaultPlan(seed=9, transient_error_rate=0.4)
        outcomes = {}

        def probe(config):
            for attempt in range(4):
                try:
                    plan.check_trace(config)
                    outcomes[(config_digest(config), attempt)] = False
                except TransientFaultError:
                    outcomes[(config_digest(config), attempt)] = True

        threads = [
            threading.Thread(target=probe, args=(c,)) for c in configs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return outcomes

    assert schedule(8) == schedule(8)


def test_zero_rate_never_faults_and_makes_no_draws():
    plan = FaultPlan(seed=0, transient_error_rate=0.0)
    config = StackConfiguration.default()
    assert faulted_attempts(plan, config, 16) == [False] * 16
    # rate 0 short-circuits: not even attempt counters advance
    assert plan.get_state()["trace_attempts"] == {}


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


# -- simulator hooks -----------------------------------------------------------


def test_inactive_plan_is_bit_identical_to_no_plan():
    w = make_workload()
    config = StackConfiguration.default()
    bare = IOStackSimulator(cori(2), NoiseModel(seed=11))
    planned = IOStackSimulator(cori(2), NoiseModel(seed=11), faults=FaultPlan())
    assert bare.evaluate(w, config).perf_mbps == planned.evaluate(w, config).perf_mbps


def test_trace_fault_raises_before_any_work(monkeypatch):
    from repro.iostack import simulator as simulator_module

    sim = IOStackSimulator(
        cori(2), NoiseModel(seed=11), faults=FaultPlan(seed=0)
    )
    config = StackConfiguration.default()
    sim.faults.poison(config)
    layer_calls = []
    monkeypatch.setattr(
        simulator_module, "apply_hdf5", lambda *a: layer_calls.append(a)
    )
    with pytest.raises(PoisonedConfigError):
        sim.trace(make_workload(), config)
    assert layer_calls == []  # no partial trace was constructed


def test_straggler_lowers_bandwidth_and_lengthens_runtime():
    w = make_workload()
    config = StackConfiguration.default()
    bare = IOStackSimulator(cori(2), NoiseModel.quiet())
    trace = bare.trace(w, config)
    clean = bare.evaluate_trace(trace, repeats=1)
    slowed_sim = IOStackSimulator(
        cori(2),
        NoiseModel.quiet(),
        faults=FaultPlan(seed=0, straggler_rate=0.999, straggler_slowdown=4.0),
    )
    slow = slowed_sim.evaluate_trace(trace, repeats=1)
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
        "trace_attempts": {},
        "transient_errors_injected": 0,
        "stragglers_injected": 0,
    }
    assert faulted_attempts(plan, config, 16) == first
