"""The RL early stopper."""

import numpy as np
import pytest

from repro.core.early_stopping import (
    DELAY,
    ITERATION_COST,
    EarlyStoppingAgent,
    RLStopper,
)
from repro.core.objective import PerfNormalizer
from repro.rl.curves import LogCurveGenerator
from repro.tuners.base import IterationRecord


@pytest.fixture(scope="module")
def trained_agent():
    rng = np.random.default_rng(42)
    agent = EarlyStoppingAgent(rng=rng)
    agent.train_offline(rng=rng)
    return agent


def test_state_features():
    agent = EarlyStoppingAgent(rng=np.random.default_rng(0))
    values = [0.1, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2]
    state = agent.state_from_series(values, 7)
    assert state.shape == (5,)
    assert state[0] == pytest.approx(7 / 50)
    assert state[1] == pytest.approx(0.2)
    assert state[2] == pytest.approx(0.0)  # gain_1
    # Stalled since iteration 1 -> long stall feature.
    assert state[4] > 1.0
    with pytest.raises(IndexError):
        agent.state_from_series(values, 99)


def test_never_stops_before_warmup():
    agent = EarlyStoppingAgent(rng=np.random.default_rng(0))
    assert not agent.should_stop([1.0, 1.0, 1.0], 2)


@pytest.fixture(scope="module")
def seed7_report():
    """The report of one default offline training at seed 7; it stops by
    stagnation at epoch 20."""
    rng = np.random.default_rng(7)
    return EarlyStoppingAgent(rng=rng).train_offline(rng=rng)


def test_offline_training_report(seed7_report):
    report = seed7_report
    assert report.epochs >= 20
    assert report.validation_gain_captured > 0.7
    assert len(report.mean_rewards) == report.epochs


def test_default_offline_training_stagnates(seed7_report):
    """At default settings training ends on the reward-stagnation
    criterion, not the epoch cap, and the stopper captures most of the
    gain on held-out curves."""
    report = seed7_report
    assert report.stagnated
    assert report.validation_gain_captured > 0.7


def test_trained_agent_stops_on_hard_plateau(trained_agent):
    v = np.concatenate([np.linspace(0.1, 1.0, 7), np.full(43, 1.0)])
    stop = next(
        (t for t in range(v.size) if trained_agent.should_stop(v, t)), None
    )
    assert stop is not None and stop < 45


def test_trained_agent_waits_through_a_climb(trained_agent):
    v = np.linspace(0.1, 0.9, 30)
    stop = next(
        (t for t in range(v.size) if trained_agent.should_stop(v, t)), None
    )
    assert stop is None or stop > 15


def test_economic_stop_is_argmax(trained_agent):
    gen = LogCurveGenerator()
    curve = gen.sample(np.random.default_rng(3))
    t = trained_agent.economic_stop(curve)
    c = ITERATION_COST / DELAY
    objective = curve.values - c * np.arange(curve.values.size)
    assert t == int(np.argmax(objective))


def test_weight_roundtrip(trained_agent):
    weights = trained_agent.get_weights()
    fresh = EarlyStoppingAgent(rng=np.random.default_rng(1))
    fresh.set_weights(weights)
    v = np.linspace(0.1, 1.0, 50)
    for t in range(5, 50, 7):
        assert fresh.should_stop(v, t) == trained_agent.should_stop(v, t)


# -- RLStopper adapter -----------------------------------------------------------


def history(perfs, minutes_per_iter=10.0):
    return [
        IterationRecord(i, p, p, (i + 1) * minutes_per_iter, 5)
        for i, p in enumerate(perfs)
    ]


def test_rl_stopper_protocol(trained_agent):
    from repro.tuners.stoppers import Stopper

    norm = PerfNormalizer(700.0, 4)
    stopper = RLStopper(trained_agent, norm, online_learning=False)
    assert isinstance(stopper, Stopper)


def test_rl_stopper_stops_flat_run(trained_agent):
    norm = PerfNormalizer(700.0, 4)
    stopper = RLStopper(trained_agent, norm, online_learning=False)
    perfs = list(np.linspace(300, 2500, 6)) + [2500.0] * 44
    stopped_at = None
    for i in range(len(perfs)):
        if stopper.should_stop(history(perfs[: i + 1])):
            stopped_at = i
            break
    assert stopped_at is not None and stopped_at < 45
    stopper.reset()
    assert not stopper.should_stop(history(perfs[:1]))


def test_rl_stopper_online_learning_runs(trained_agent):
    norm = PerfNormalizer(700.0, 4)
    stopper = RLStopper(trained_agent, norm, online_learning=True)
    perfs = list(np.linspace(300, 2000, 20))
    for i in range(len(perfs)):
        stopper.should_stop(history(perfs[: i + 1]))  # must not raise


def test_expected_runs_increases_patience(trained_agent):
    """Many production runs make the stopper more patient; fewer runs
    than the reference never make it wait longer."""
    norm = PerfNormalizer(700.0, 4)
    patient = RLStopper(
        trained_agent, norm, expected_runs=1e7, online_learning=False
    )
    default = RLStopper(trained_agent, norm, online_learning=False)
    few = RLStopper(trained_agent, norm, expected_runs=10, online_learning=False)
    # Plateau curves: a linear rise over ``rise`` iterations, then flat.
    curves = [
        list(np.linspace(300, top, rise)) + [top] * (50 - rise)
        for rise in (3, 5, 8, 12)
        for top in (1200.0, 2500.0, 4000.0)
    ]

    def stop_at(stopper, perfs):
        stopper.reset()
        for i in range(len(perfs)):
            if stopper.should_stop(history(perfs[: i + 1])):
                return i
        return len(perfs)

    for perfs in curves:
        assert stop_at(patient, perfs) >= stop_at(default, perfs)
        assert stop_at(few, perfs) <= stop_at(default, perfs)
    assert any(stop_at(patient, perfs) > stop_at(default, perfs) for perfs in curves)
    with pytest.raises(ValueError):
        RLStopper(trained_agent, norm, expected_runs=0)
