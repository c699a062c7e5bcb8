"""Pinned training digests: the serial training path is bit-reproducible.

The Q-learning digest below was recorded with the deque replay buffer
and the per-array Adam loop that the ring-array buffer and the flat
parameter vector replaced, and must reproduce bit for bit.  It covers
Q-learning steps past a replay wraparound (capacity 100, 300 pushes)
with target syncs.  A second digest pins one :meth:`MLP.fit` of a ReLU
network.  A third digest pins the whole serial offline phase:
subset-picker pretraining on a fixed impact vector followed by a short
early-stopper training run, which is the only path
:func:`train_tunio_agents` trains agents on.  Floating-point digests
depend on the BLAS build; these were recorded with numpy's bundled
OpenBLAS on x86-64.
"""

import hashlib

import numpy as np

from repro.core.early_stopping import EarlyStoppingAgent
from repro.core.objective import PerfNormalizer
from repro.core.offline_training import pretrain_subset_picker
from repro.core.smart_config import SmartConfigAgent
from repro.rl.nn import MLP
from repro.rl.qlearning import QLearningAgent, QLearningConfig
from repro.rl.replay import Transition

QLEARNING_DIGEST = "f587709cd64474c3a641738a9fb09e1fbcfd8984b1aaad5abe01c438f7e56a4b"
FIT_DIGEST = "02fed12f69e5d957c7a23c68a2f8babaeb57b6165791a6dc87a0add1cfeaae80"
OFFLINE_DIGEST = "1c0e2bba9b68a2986b79ff5829fb4a41f4a8fb85aa92bd649993c411636859a2"


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
    net = MLP([4, 16, 8, 2], rng, learning_rate=3e-3)
    x = rng.normal(size=(200, 4))
    y = np.stack([x[:, 0] - x[:, 1], np.sin(x[:, 2])], axis=1)
    losses = net.fit(x, y, epochs=5, batch_size=32, rng=rng)
    got = digest(losses, [net.last_loss, net.last_grad_norm], *weights(net))
    assert got == FIT_DIGEST


def test_offline_phase_is_pinned():
    rng = np.random.default_rng(5)
    impact = np.arange(1.0, 13.0) ** 2
    impact = impact / impact.sum()
    smart = SmartConfigAgent(normalizer=PerfNormalizer(700.0, 4), rng=rng)
    pretrain_subset_picker(smart, impact, rng=rng)
    state = smart.get_state()

    stopper = EarlyStoppingAgent(rng=rng)
    report = stopper.train_offline(
        rng=rng, max_epochs=2, episodes_per_epoch=4, validation_curves=4
    )
    got = digest(
        [smart.picker.epsilon],
        *(state[k] for k in sorted(state)),
        report.mean_rewards,
        [report.validation_stop_error, report.validation_gain_captured],
        [stopper.agent.epsilon],
        *weights(stopper.agent.q_network),
        *weights(stopper.agent.target_network),
    )
    assert got == OFFLINE_DIGEST
