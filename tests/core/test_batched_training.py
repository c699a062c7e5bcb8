"""Batched agent pretraining: the opt-in offline fastpath.

The vectorized trainers are allowed to consume randomness differently
from the serial loops (array draws instead of per-sample draws), so the
equivalence contract is *checkpoint-level*, not bit-level: identical
deterministic building blocks (states, greedy decisions, replay
sampling) and statistically equivalent training outcomes (stagnation
reached, comparable validation quality).  Both halves are pinned here.
"""

import numpy as np
import pytest

from repro.core.early_stopping import EarlyStoppingAgent
from repro.core.objective import PerfNormalizer
from repro.core.offline_training import (
    impact_from_sweeps,
    parameter_sweep,
    pretrain_subset_picker,
    train_tunio_agents,
)
from repro.core.smart_config import SmartConfigAgent
from repro.iostack import (
    EvaluationCache,
    IOStackSimulator,
    NoiseModel,
    cori,
)
from repro.rl.curves import LogCurveGenerator
from repro.rl.qlearning import QLearningAgent, QLearningConfig
from repro.rl.replay import ReplayBuffer, Transition
from repro.workloads import flash, vpic

pytestmark = pytest.mark.offline_fastpath


# -- deterministic building blocks: must match the serial path exactly --------


def test_sample_matrix_matches_curve_contract():
    gen = LogCurveGenerator()
    batch = gen.sample_matrix(32, np.random.default_rng(0))
    assert batch.values.shape == (32, gen.n_iterations)
    assert len(batch) == 32
    # Best-so-far curves: monotone non-decreasing, positive.
    assert np.all(np.diff(batch.values, axis=1) >= 0)
    assert np.all(batch.values > 0)
    assert np.all((0 <= batch.ideal_stops) & (batch.ideal_stops < gen.n_iterations))
    single = batch.curve(3)
    assert np.array_equal(single.values, batch.values[3])


def test_states_matrix_equals_serial_state_construction():
    agent = EarlyStoppingAgent(rng=np.random.default_rng(0))
    batch = LogCurveGenerator().sample_matrix(16, np.random.default_rng(5))
    states = agent.states_matrix(batch.values)
    for i in range(len(batch)):
        for t in range(batch.values.shape[1]):
            serial = agent.state_from_series(batch.values[i], t)
            assert np.array_equal(states[i, t], serial), (i, t)


def test_sample_arrays_consumes_rng_like_sample():
    buf = ReplayBuffer(64)
    rng_fill = np.random.default_rng(2)
    for i in range(40):
        s = rng_fill.normal(size=3)
        buf.push(Transition(s, i % 2, float(i), s + 1, bool(i % 5 == 0)))

    a_rng = np.random.default_rng(7)
    b_rng = np.random.default_rng(7)
    batch = buf.sample(16, a_rng)
    states, actions, rewards, next_states, dones = buf.sample_arrays(16, b_rng)
    assert np.array_equal(states, np.stack([t.state for t in batch]))
    assert np.array_equal(actions, [t.action for t in batch])
    assert np.array_equal(rewards, [t.reward for t in batch])
    assert np.array_equal(next_states, np.stack([t.next_state for t in batch]))
    assert np.array_equal(dones, [t.done for t in batch])
    # Identical stream positions afterwards: swapping one for the other
    # perturbs nothing downstream.
    assert a_rng.integers(2**31) == b_rng.integers(2**31)


def test_act_batch_greedy_matches_serial_act():
    agent = QLearningAgent(
        QLearningConfig(state_dim=4, n_actions=3), np.random.default_rng(1)
    )
    states = np.random.default_rng(2).normal(size=(32, 4))
    batched = agent.act_batch(states, greedy=True)
    serial = [agent.act(s, greedy=True) for s in states]
    assert list(batched) == serial


def test_stop_point_matrices_match_serial_evaluation():
    rng = np.random.default_rng(4)
    agent = EarlyStoppingAgent(rng=rng)
    gen = LogCurveGenerator()
    # A lightly trained network gives non-trivial stop decisions.
    agent._monte_carlo_pretrain_batched(gen, rng, n_curves=60, epochs=10)
    batch = gen.sample_matrix(12, rng)
    stops = agent.evaluate_stop_points_matrix(batch.values)
    econ = agent.economic_stops_matrix(batch.values)
    for i in range(len(batch)):
        curve = batch.curve(i)
        assert stops[i] == agent.evaluate_stop_point(curve)
        assert econ[i] == agent.economic_stop(curve)


# -- checkpoint-level training equivalence ------------------------------------


@pytest.fixture(scope="module")
def offline_reports():
    """Serial and batched early-stopper training on the same seeds."""
    serial_rng = np.random.default_rng(7)
    serial_agent = EarlyStoppingAgent(rng=serial_rng)
    serial = serial_agent.train_offline(rng=serial_rng)

    batched_rng = np.random.default_rng(7)
    batched_agent = EarlyStoppingAgent(rng=batched_rng)
    batched = batched_agent.train_offline(rng=batched_rng, batched=True)
    return serial, batched, serial_agent, batched_agent


def test_batched_training_reaches_the_same_checkpoint(offline_reports):
    serial, batched, _, _ = offline_reports
    # Same reward-stagnation criterion, reached by both arms.
    assert serial.stagnated and batched.stagnated
    assert batched.epochs >= 20  # exploration decayed before stagnation
    # Comparable validation quality: both capture most of the curve gain
    # and agree within a narrow band.
    assert serial.validation_gain_captured > 0.7
    assert batched.validation_gain_captured > 0.7
    assert abs(
        serial.validation_gain_captured - batched.validation_gain_captured
    ) <= 0.08


def test_batched_agent_makes_sane_decisions(offline_reports):
    _, _, _, agent = offline_reports
    plateau = np.concatenate([np.linspace(0.1, 1.0, 7), np.full(43, 1.0)])
    stop = next((t for t in range(plateau.size) if agent.should_stop(plateau, t)), None)
    assert stop is not None and stop < 45
    climb = np.linspace(0.1, 0.9, 30)
    stop = next((t for t in range(climb.size) if agent.should_stop(climb, t)), None)
    assert stop is None or stop > 15


def test_batched_picker_pretraining_is_checkpoint_equivalent():
    norm = PerfNormalizer(700.0, 4)
    impact = np.arange(1.0, 13.0) ** 2
    impact = impact / impact.sum()

    agents = {}
    for batched in (False, True):
        rng = np.random.default_rng(3)
        agent = SmartConfigAgent(normalizer=norm, rng=rng)
        pretrain_subset_picker(agent, impact, rng=rng, batched=batched)
        agents[batched] = agent

    for agent in agents.values():
        assert np.allclose(agent.impact_scores, impact)
        subset = agent.subset_picker(500.0, None, iteration=0)
        assert subset
    # Both arms walked epsilon down the same schedule length.
    assert agents[False].picker.epsilon == pytest.approx(agents[True].picker.epsilon)


# -- sweeps through the shared cache ------------------------------------------


def test_duplicate_sweep_configs_hit_the_cache():
    """Two sweeps over the same workload sharing one cache: the second
    sweep's deterministic axis portion is entirely duplicated work, so
    it must be served from cache -- and counted."""
    sim = IOStackSimulator(cori(4), NoiseModel.quiet())
    cache = EvaluationCache()
    first = parameter_sweep(
        sim, flash(), rng=np.random.default_rng(0), random_samples=0,
        repeats=1, cache=cache,
    )
    second = parameter_sweep(
        sim, flash(), rng=np.random.default_rng(1), random_samples=0,
        repeats=1, cache=cache,
    )
    assert first.cache_hits == 0
    assert second.cache_hits == len(second.perfs)  # every config duplicated
    # The cache contract: hits replay bit-identically.
    assert np.array_equal(first.perfs, second.perfs)


def test_private_sweep_cache_counts_no_false_hits():
    sim = IOStackSimulator(cori(4), NoiseModel(seed=5))
    sweep = parameter_sweep(
        sim, flash(), rng=np.random.default_rng(5), random_samples=4, repeats=1
    )
    # Axis sweeps skip the default per axis and random collisions are
    # vanishingly rare: a private cache sees essentially no duplicates.
    assert sweep.cache_hits == 0


def test_train_tunio_agents_pool_and_batched_path():
    """The full offline phase on the batched fastpath trains a
    usable agent bundle (checkpoint-level: impact normalised, stopper
    stops plateaus)."""
    platform = cori(4)
    sim = IOStackSimulator(platform, NoiseModel(seed=77))
    normalizer = PerfNormalizer.for_platform(platform, 4)
    agents = train_tunio_agents(
        sim, [vpic(), flash()], normalizer,
        rng=np.random.default_rng(77), batched=True,
    )
    assert agents.impact_scores.sum() == pytest.approx(1.0)
    assert np.allclose(agents.smart_config.impact_scores, agents.impact_scores)
    plateau = np.concatenate([np.linspace(0.1, 1.0, 7), np.full(43, 1.0)])
    stop = next(
        (
            t
            for t in range(plateau.size)
            if agents.early_stopper.should_stop(plateau, t)
        ),
        None,
    )
    assert stop is not None
