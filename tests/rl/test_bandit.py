"""The neural contextual bandit (state observer)."""

import numpy as np
import pytest

from repro.rl import NeuralContextualBandit


def test_state_observation_shape(rng):
    bandit = NeuralContextualBandit(context_dim=5, state_dim=8, rng=rng)
    obs = bandit.observe_state(np.zeros(5))
    assert obs.shape == (8,)


def test_reward_model_learns(rng):
    bandit = NeuralContextualBandit(context_dim=3, epsilon=0.0, rng=rng, learning_rate=3e-3)
    for _ in range(800):
        c = rng.uniform(0, 1, 3)
        bandit.update(c, float(c[0]))  # reward = first feature
    lo = bandit.predict_reward(np.array([[0.1, 0.5, 0.5]]))[0]
    hi = bandit.predict_reward(np.array([[0.9, 0.5, 0.5]]))[0]
    assert hi > lo


def test_greedy_selection_prefers_predicted_best(rng):
    bandit = NeuralContextualBandit(context_dim=2, epsilon=0.0, rng=rng, learning_rate=3e-3)
    for _ in range(500):
        c = rng.uniform(0, 1, 2)
        bandit.update(c, float(c.sum()))
    candidates = np.array([[0.1, 0.1], [0.9, 0.9]])
    picks = [bandit.select(candidates) for _ in range(10)]
    assert all(p == 1 for p in picks)


def test_epsilon_explores(rng):
    bandit = NeuralContextualBandit(context_dim=2, epsilon=1.0, rng=rng)
    picks = {bandit.select(np.array([[0.0, 0.0], [1.0, 1.0]])) for _ in range(50)}
    assert picks == {0, 1}


def test_dimension_validation(rng):
    bandit = NeuralContextualBandit(context_dim=4, rng=rng)
    with pytest.raises(ValueError):
        bandit.update(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        bandit.observe_state(np.zeros(5))
    with pytest.raises(ValueError):
        NeuralContextualBandit(context_dim=0)
    with pytest.raises(ValueError):
        NeuralContextualBandit(context_dim=2, epsilon=1.5)


def test_state_changes_with_learning(rng):
    bandit = NeuralContextualBandit(context_dim=2, rng=rng, learning_rate=1e-2)
    c = np.array([0.5, 0.5])
    before = bandit.observe_state(c).copy()
    for _ in range(200):
        bandit.update(c, 1.0)
    after = bandit.observe_state(c)
    assert not np.allclose(before, after)
