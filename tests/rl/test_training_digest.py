"""Pinned training digests: the serial training path is bit-reproducible.

The two digests below were recorded with the deque replay buffer and
the per-array Adam loop that the ring-array buffer and the flat
parameter vector replaced; both must reproduce them bit for bit.  They
cover Q-learning steps past a replay wraparound (capacity 100, 300
pushes) with target syncs, and one :meth:`MLP.fit`.  Floating-point
digests depend on the BLAS build; these were recorded with numpy's
bundled OpenBLAS on x86-64.
"""

import hashlib

import numpy as np

from repro.rl.nn import MLP
from repro.rl.qlearning import QLearningAgent, QLearningConfig
from repro.rl.replay import Transition

QLEARNING_DIGEST = "f587709cd64474c3a641738a9fb09e1fbcfd8984b1aaad5abe01c438f7e56a4b"
FIT_DIGEST = "a3a8515bc4f9818c3ae9a67ed6fb487f7a1a581e427b52c09066a92bcde4c263"


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


def weights(net):
    w = net.get_weights()
    return [w[k] for k in sorted(w)]


def test_qlearning_train_steps_are_pinned():
    rng = np.random.default_rng(2024)
    agent = QLearningAgent(
        QLearningConfig(state_dim=5, n_actions=3, replay_capacity=100, batch_size=16),
        rng=np.random.default_rng(7),
    )
    losses, norms = [], []
    for step in range(300):
        s, s2 = rng.normal(size=5), rng.normal(size=5)
        action, reward = int(rng.integers(3)), float(rng.normal())
        agent.observe(Transition(s, action, reward, s2, bool(step % 9 == 0)))
        losses.append(agent.train_step())
        norms.append(agent.q_network.last_grad_norm)
    got = digest(losses, norms, *weights(agent.q_network), *weights(agent.target_network))
    assert got == QLEARNING_DIGEST


def test_mlp_fit_is_pinned():
    rng = np.random.default_rng(11)
    net = MLP([4, 16, 8, 2], rng, hidden_activation="tanh", learning_rate=3e-3)
    x = rng.normal(size=(200, 4))
    y = np.stack([x[:, 0] - x[:, 1], np.sin(x[:, 2])], axis=1)
    losses = net.fit(x, y, epochs=5, batch_size=32, rng=rng)
    got = digest(losses, [net.last_loss, net.last_grad_norm], *weights(net))
    assert got == FIT_DIGEST
