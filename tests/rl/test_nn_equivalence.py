"""The lean training step is bit-identical to the straightforward one.

``reference_*`` below are verbatim copies of the earlier
``Dense.forward``/``Dense.backward``, ``MLP.train_batch`` and
``Adam.step`` (one fresh array per operation, the ReLU derivative as a
float copy of the mask, every layer's input gradient computed); only
the layer's activation and Adam's constants are looked up where the
current code keeps them.  The current code must give the same outputs,
losses, gradient norms and weights, bit for bit, on every path the
agents train on: ReLU hidden layers with a linear output, a batch of
one (the contextual bandit), a ragged last
:meth:`MLP.fit` batch, NaN-masked Q-learning targets and NaN weights
(the ``nan-weights`` fault).
"""

import copy

import numpy as np
import pytest

from repro.core import early_stopping
from repro.core.early_stopping import MIN_ITERATIONS, EarlyStoppingAgent
from repro.rl.curves import LogCurveGenerator
from repro.rl.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, MLP, _as_batch

STEPS = 50


# -- the earlier implementation, verbatim ---------------------------------------


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_grad(x):
    return (x > 0.0).astype(x.dtype)


def _linear(x):
    return x


#: layer activation -> (activation, derivative w.r.t. pre-activation)
REFERENCE_ACTIVATIONS = {"relu": (_relu, _relu_grad), "linear": (_linear, None)}


def reference_forward(self, x):
    act, _ = REFERENCE_ACTIVATIONS[self.activation]
    self._x = x
    self._z = x @ self.weight + self.bias
    return act(self._z)


def reference_backward(self, grad_out, dw=None, db=None):
    act, act_grad = REFERENCE_ACTIVATIONS[self.activation]
    if self._x is None or self._z is None:
        raise RuntimeError("backward called before forward")
    # The linear derivative is all ones: skipping the multiply by it
    # gives the same bits.
    dz = grad_out if act is _linear else grad_out * act_grad(self._z)
    dw = np.matmul(self._x.T, dz, out=dw)
    db = np.add.reduce(dz, axis=0, out=db)
    dx = dz @ self.weight.T
    return dx, dw, db


def reference_adam_step(self, gradient):
    if gradient.shape != self.parameters.shape:
        raise ValueError(
            f"gradient shape {gradient.shape} != parameter shape {self.parameters.shape}"
        )
    self._t += 1
    b1t = 1.0 - ADAM_BETA1**self._t
    b2t = 1.0 - ADAM_BETA2**self._t
    m, v = self._m, self._v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * gradient
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * gradient * gradient
    self.parameters -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPSILON)


def reference_train_batch(self, x, y):
    x = _as_batch(x)
    y = _as_batch(y)
    pred = x
    for layer in self.layers:
        pred = reference_forward(layer, pred)
    if pred.shape != y.shape:
        raise ValueError(f"target shape {y.shape} != prediction shape {pred.shape}")
    mask = ~np.isnan(y)
    n = max(1, np.count_nonzero(mask))
    diff = np.where(mask, pred - y, 0.0)
    loss = float((diff**2).sum() / n)
    grad = 2.0 * diff / n
    for layer, (dw, db) in zip(reversed(self.layers), reversed(self._grad_views)):
        grad, _, _ = reference_backward(layer, grad, dw, db)
    reference_adam_step(self.optimizer, self._grads)
    self.last_loss = loss
    return loss


def reference_predict(net, x):
    x = _as_batch(x)
    for layer in net.layers:
        x = reference_forward(layer, x)
    return x


# -- helpers -------------------------------------------------------------------


def bits(*arrays):
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)


def weight_bits(net):
    w = net.get_weights()
    return bits(*(w[k] for k in sorted(w)))


def twins(sizes, seed, **kwargs):
    net = MLP(sizes, np.random.default_rng(seed), **kwargs)
    return net, copy.deepcopy(net)


def assert_lockstep(net, ref, batches):
    """Train ``net`` and ``ref`` on the same batches, one with the
    current code and one with the reference; every observable must
    agree bit for bit after each step."""
    for x, y in batches:
        got = net.train_batch(x, y)
        want = reference_train_batch(ref, x, y)
        assert bits([got]) == bits([want])
        assert bits([net.last_grad_norm]) == bits([ref.last_grad_norm])
        assert weight_bits(net) == weight_bits(ref)
        assert bits(net._grads) == bits(ref._grads)
        assert bits(net.optimizer._m, net.optimizer._v) == bits(ref.optimizer._m, ref.optimizer._v)
        probe = x[: max(1, len(x) // 2)]
        assert bits(net(probe)) == bits(reference_predict(ref, probe))


def regression_batches(rng, n_in, n_out, batch, steps=STEPS):
    out = []
    for _ in range(steps):
        x = rng.normal(size=(batch, n_in))
        y = np.tanh(x[:, :n_out] * 2.0) + 0.1 * rng.normal(size=(batch, n_out))
        out.append((x, y))
    return out


# -- the tests -------------------------------------------------------------------


def test_train_batch_matches_reference():
    net, ref = twins([4, 16, 8, 2], 3, learning_rate=3e-3)
    assert_lockstep(net, ref, regression_batches(np.random.default_rng(4), 4, 2, 32))


def test_batch_of_one_matches_reference():
    """The contextual bandit's online update: one context, one reward."""
    net, ref = twins([6, 32, 4, 1], 8, learning_rate=1e-3)
    rng = np.random.default_rng(9)
    batches = [(rng.normal(size=(1, 6)), np.array([[rng.normal()]])) for _ in range(STEPS)]
    assert_lockstep(net, ref, batches)


def test_fit_with_a_ragged_last_batch_matches_reference():
    net, ref = twins([5, 32, 32, 2], 10)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(150, 5))  # batches of 64, 64 and 22
    y = np.stack([x[:, 0] * x[:, 1], np.cos(x[:, 2])], axis=1)
    fit_rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    losses = net.fit(x, y, epochs=17, batch_size=64, rng=fit_rng)  # 51 steps
    ref_losses = []
    for _ in range(17):
        order = ref_rng.permutation(len(x))
        epoch = [
            reference_train_batch(ref, x[order[s : s + 64]], y[order[s : s + 64]])
            for s in range(0, len(x), 64)
        ]
        ref_losses.append(float(np.mean(epoch)))
    assert bits(losses) == bits(ref_losses)
    assert bits([net.last_grad_norm]) == bits([ref.last_grad_norm])
    assert weight_bits(net) == weight_bits(ref)


def test_nan_masked_q_targets_match_reference():
    """Q-learning targets: one finite entry per row, the rest NaN, and
    one all-NaN row."""
    net, ref = twins([5, 32, 32, 3], 13)
    rng = np.random.default_rng(14)
    batches = []
    for _ in range(STEPS):
        x = rng.normal(size=(16, 5))
        y = np.full((16, 3), np.nan)
        y[np.arange(16), rng.integers(3, size=16)] = rng.normal(size=16)
        y[0] = np.nan
        batches.append((x, y))
    assert_lockstep(net, ref, batches)


def test_nan_weights_match_reference():
    """The ``nan-weights`` fault path: NaN spreads the same way."""
    net, ref = twins([5, 16, 16, 2], 15)
    for model in (net, ref):
        model.layers[1].weight[3, 4] = np.nan
    rng = np.random.default_rng(16)
    batches = regression_batches(rng, 5, 2, 8, steps=5)
    assert_lockstep(net, ref, batches)
    assert np.isnan(net.get_weights()["w0"]).any()


def test_all_nan_targets_match_reference():
    net, ref = twins([2, 8, 3], 17)
    x = np.random.default_rng(18).normal(size=(8, 2))
    assert_lockstep(net, ref, [(x, np.full((8, 3), np.nan))] * 3)


@pytest.mark.parametrize("stop_at", [None, MIN_ITERATIONS + 3])
def test_episode_states_equal_state_from_series(stop_at):
    """``_run_episode`` builds each iteration's state once; every state
    it acts on, stores or matures equals ``state_from_series`` there."""
    agent = EarlyStoppingAgent(rng=np.random.default_rng(19))
    curve = LogCurveGenerator().sample(np.random.default_rng(20))
    v, last = curve.values, curve.values.size - 1

    def expected(t):
        return agent.state_from_series(v, t)

    acted, observed = [], []

    def act(state, greedy=False):
        t = MIN_ITERATIONS + len(acted)
        acted.append((t, state))
        return early_stopping._STOP if t == stop_at else early_stopping._CONTINUE

    agent.agent.act = act
    agent.agent.observe = observed.append
    agent.agent.train_step = lambda: None
    agent._run_episode(curve)

    end = last if stop_at is None else stop_at
    assert [t for t, _ in acted] == list(range(MIN_ITERATIONS, end + 1 if stop_at else end))
    for t, state in acted:
        assert bits(state) == bits(expected(t))
    continues = [tr for tr in observed if tr.action == early_stopping._CONTINUE]
    assert len(continues) == end
    for born, tr in enumerate(continues):
        assert bits(tr.state) == bits(expected(born))
        matured_at = end if tr.done else born + early_stopping.DELAY
        assert bits(tr.next_state) == bits(expected(matured_at))
    stops = [tr for tr in observed if tr.action == early_stopping._STOP]
    if stop_at is None:
        assert not stops
    else:
        assert len(stops) == 1
        assert bits(stops[0].state) == bits(stops[0].next_state) == bits(expected(stop_at))
