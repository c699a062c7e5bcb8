"""NN-based Q-learning (the paper's "Subset Picker" and "Action Decider"
substrate).

A compact DQN: an MLP maps observations to per-action Q-values;
epsilon-greedy exploration; uniform replay; a periodically synced target
network for bootstrapping stability.  Training targets mask every output
but the taken action (NaN-masked MSE in :meth:`MLP.train_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import MLP
from .replay import ReplayBuffer, Transition

__all__ = ["QLearningConfig", "QLearningAgent"]


@dataclass(frozen=True)
class QLearningConfig:
    """Hyper-parameters for :class:`QLearningAgent`."""

    state_dim: int
    n_actions: int
    hidden: tuple[int, ...] = (32, 32)
    learning_rate: float = 1e-3
    discount: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.97
    batch_size: int = 32
    replay_capacity: int = 4096
    target_sync_every: int = 25

    def __post_init__(self) -> None:
        if self.state_dim < 1 or self.n_actions < 1:
            raise ValueError("state_dim and n_actions must be positive")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        for name in ("batch_size", "replay_capacity", "target_sync_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class QLearningAgent:
    """DQN over a discrete action space."""

    def __init__(self, config: QLearningConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        sizes = [config.state_dim, *config.hidden, config.n_actions]
        self.q_network = MLP(sizes, rng, learning_rate=config.learning_rate)
        self.target_network = MLP(sizes, rng, learning_rate=config.learning_rate)
        self.target_network.copy_from(self.q_network)
        self.replay = ReplayBuffer(config.replay_capacity)
        self.epsilon = config.epsilon_start
        self._train_steps = 0

    # -- acting ---------------------------------------------------------------

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q-value per action for one state."""
        return np.asarray(self.q_network(np.asarray(state, dtype=float)))

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        """Epsilon-greedy action (or purely greedy when asked)."""
        if not greedy and self.rng.random() < self.epsilon:
            return int(self.rng.integers(self.config.n_actions))
        return int(np.argmax(self.q_values(state)))

    def decay_epsilon(self) -> None:
        self.epsilon = max(self.config.epsilon_end, self.epsilon * self.config.epsilon_decay)

    # -- learning --------------------------------------------------------------

    def observe(self, transition: Transition) -> None:
        expected = (self.config.state_dim,)
        for name in ("state", "next_state"):
            shape = np.shape(getattr(transition, name))
            if shape != expected:
                raise ValueError(f"{name} shape {shape} != {expected}")
        self.replay.push(transition)

    def train_step(self) -> float | None:
        """One minibatch update; returns the loss, or ``None`` when the
        replay buffer is still empty."""
        if len(self.replay) == 0:
            return None
        states, actions, rewards, next_states, dones = self.replay.sample_arrays(
            self.config.batch_size, self.rng
        )

        # target = reward + discount * max Q'(s'), without the bootstrap
        # on terminal transitions; every other action's target is NaN.
        bootstrap = np.maximum.reduce(self.target_network(next_states), axis=1)
        bootstrap *= self.config.discount
        bootstrap[dones] = 0.0
        bootstrap += rewards
        rows = states.shape[0]
        targets = np.empty((rows, self.config.n_actions))
        targets.fill(np.nan)
        targets[np.arange(rows), actions] = bootstrap

        loss = self.q_network.train_batch(states, targets)
        self._train_steps += 1
        if self._train_steps % self.config.target_sync_every == 0:
            self.target_network.copy_from(self.q_network)
        return loss

    # -- checkpointing ------------------------------------------------------------

    def get_weights(self) -> dict[str, np.ndarray]:
        return self.q_network.get_weights()

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        self.q_network.set_weights(weights)
        self.target_network.set_weights(weights)
