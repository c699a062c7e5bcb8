"""The DQN agent."""

import numpy as np
import pytest

from repro.rl import QLearningAgent, QLearningConfig, Transition


def make_agent(rng, **overrides):
    defaults = dict(state_dim=2, n_actions=2, hidden=(16,), target_sync_every=10)
    defaults.update(overrides)
    return QLearningAgent(QLearningConfig(**defaults), rng)


def test_config_validation():
    with pytest.raises(ValueError):
        QLearningConfig(state_dim=0, n_actions=2)
    with pytest.raises(ValueError):
        QLearningConfig(state_dim=1, n_actions=1, discount=1.5)
    with pytest.raises(ValueError):
        QLearningConfig(state_dim=1, n_actions=1, epsilon_start=0.1, epsilon_end=0.5)
    for field in ("batch_size", "replay_capacity", "target_sync_every"):
        with pytest.raises(ValueError, match=field):
            QLearningConfig(state_dim=1, n_actions=1, **{field: 0})


def test_greedy_action_is_argmax(rng):
    agent = make_agent(rng)
    state = np.array([0.3, 0.7])
    q = agent.q_values(state)
    assert agent.act(state, greedy=True) == int(np.argmax(q))


def test_epsilon_decays_to_floor(rng):
    agent = make_agent(rng, epsilon_start=1.0, epsilon_end=0.1, epsilon_decay=0.5)
    for _ in range(20):
        agent.decay_epsilon()
    assert agent.epsilon == pytest.approx(0.1)


def test_train_step_empty_replay_is_noop(rng):
    agent = make_agent(rng)
    assert agent.train_step() is None


def test_observe_validates_state_shape(rng):
    agent = make_agent(rng)
    with pytest.raises(ValueError):
        agent.observe(Transition(np.zeros(3), 0, 0.0, np.zeros(3), True))


@pytest.mark.parametrize(
    "next_state", [np.float64(0.5), np.zeros(1), np.zeros(3), np.zeros((1, 2))]
)
def test_observe_validates_next_state_shape(rng, next_state):
    """A scalar or wrong-length next state must not broadcast into the
    replay buffer."""
    agent = make_agent(rng)
    with pytest.raises(ValueError, match="next_state"):
        agent.observe(Transition(np.zeros(2), 0, 0.0, next_state, True))
    assert len(agent.replay) == 0


def test_learns_a_contextual_rule(rng):
    """Reward action 1 when state[0] > 0.5, else action 0."""
    agent = make_agent(rng)
    for _ in range(600):
        s = rng.uniform(0, 1, 2)
        a = agent.act(s)
        r = 1.0 if a == int(s[0] > 0.5) else 0.0
        agent.observe(Transition(s, a, r, s, True))
        agent.train_step()
        agent.decay_epsilon()
    correct = sum(
        agent.act(np.array([x, 0.5]), greedy=True) == int(x > 0.5)
        for x in np.linspace(0.05, 0.95, 19)
    )
    assert correct >= 16


def test_weight_roundtrip(rng):
    a = make_agent(rng)
    b = make_agent(rng)
    b.set_weights(a.get_weights())
    s = np.array([0.1, 0.9])
    assert np.allclose(a.q_values(s), b.q_values(s))


def test_target_network_syncs(rng):
    agent = make_agent(rng, target_sync_every=5)
    s = np.zeros(2)
    for _ in range(10):
        agent.observe(Transition(s, 0, 1.0, s, True))
    for _ in range(5):
        agent.train_step()
    assert np.allclose(
        agent.q_network(np.zeros(2)), agent.target_network(np.zeros(2))
    )
