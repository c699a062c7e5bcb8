"""Neural-network substrate: layers, backprop, Adam, checkpointing."""

import copy
import pickle

import numpy as np
import pytest

from repro.rl.nn import ACTIVATIONS, Adam, Dense, MLP


def test_known_activations():
    assert set(ACTIVATIONS) == {"relu", "tanh", "linear", "sigmoid"}


def test_activation_gradients_numerically(rng):
    x = rng.normal(size=(50,))
    eps = 1e-6
    for name, (fn, grad) in ACTIVATIONS.items():
        numeric = (fn(x + eps) - fn(x - eps)) / (2 * eps)
        assert np.allclose(grad(x), numeric, atol=1e-4), name


def test_dense_forward_shape(rng):
    layer = Dense(4, 3, "relu", rng)
    out = layer.forward(rng.normal(size=(10, 4)))
    assert out.shape == (10, 3)
    assert np.all(out >= 0)


def test_dense_rejects_bad_args(rng):
    with pytest.raises(ValueError):
        Dense(0, 3, "relu", rng)
    with pytest.raises(ValueError):
        Dense(3, 3, "softmax", rng)


def test_dense_backward_before_forward(rng):
    layer = Dense(2, 2, "linear", rng)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((1, 2)))


def test_mlp_gradient_check(rng):
    """Numeric gradient check through a 2-layer net."""
    net = MLP([3, 5, 2], rng, hidden_activation="tanh", learning_rate=1e-9)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))

    def loss():
        pred = np.atleast_2d(net(x))
        return float(((pred - y) ** 2).mean())

    base_w = net.layers[0].weight.copy()
    eps = 1e-5
    # analytic gradient via a train step with tiny LR: capture grads
    # indirectly by comparing loss decrease direction on one weight.
    i, j = 1, 2
    net.layers[0].weight[i, j] = base_w[i, j] + eps
    up = loss()
    net.layers[0].weight[i, j] = base_w[i, j] - eps
    down = loss()
    numeric = (up - down) / (2 * eps)
    net.layers[0].weight[i, j] = base_w[i, j]
    # One SGD-ish step should move the weight against the gradient sign.
    before = net.layers[0].weight[i, j]
    net.train_batch(x, y)
    after = net.layers[0].weight[i, j]
    if abs(numeric) > 1e-6:
        assert np.sign(before - after) == np.sign(numeric)


def test_mlp_learns_linear_function(rng):
    net = MLP([2, 32, 1], rng, learning_rate=3e-3)
    x = rng.uniform(-1, 1, (256, 2))
    y = x[:, :1] * 2.0 - x[:, 1:] * 0.5
    losses = net.fit(x, y, epochs=60, batch_size=32, rng=rng)
    assert losses[-1] < 0.01
    assert losses[-1] < losses[0]


def test_mlp_single_sample_shape(rng):
    net = MLP([3, 4, 2], rng)
    out = net(np.zeros(3))
    assert out.shape == (2,)
    batch = net(np.zeros((5, 3)))
    assert batch.shape == (5, 2)


def test_nan_masked_targets_train_only_their_head(rng):
    net = MLP([2, 8, 3], rng, learning_rate=1e-2)
    x = rng.normal(size=(16, 2))
    y = np.full((16, 3), np.nan)
    y[:, 1] = 1.0  # only head 1 has targets
    for _ in range(600):
        net.train_batch(x, y)
    after = np.asarray(net(x))
    assert np.allclose(after[:, 1], 1.0, atol=0.2)


def test_all_nan_targets_are_a_noop(rng):
    net = MLP([2, 8, 3], rng, learning_rate=1e-2)
    x = rng.normal(size=(8, 2))
    before = {k: v.copy() for k, v in net.get_weights().items()}
    loss = net.train_batch(x, np.full((8, 3), np.nan))
    assert loss == 0.0
    for k, v in net.get_weights().items():
        assert np.allclose(v, before[k])


def test_weight_roundtrip(rng):
    a = MLP([2, 4, 1], rng)
    b = MLP([2, 4, 1], rng)
    b.set_weights(a.get_weights())
    x = rng.normal(size=(6, 2))
    assert np.allclose(a(x), b(x))
    b.copy_from(a)
    assert np.allclose(a(x), b(x))


def test_weight_shape_mismatch(rng):
    a = MLP([2, 4, 1], rng)
    b = MLP([2, 5, 1], rng)
    with pytest.raises(ValueError):
        b.set_weights(a.get_weights())


def test_mlp_validation(rng):
    with pytest.raises(ValueError):
        MLP([3], rng)
    net = MLP([2, 2], rng)
    with pytest.raises(ValueError):
        net.train_batch(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        net.fit(np.zeros((2, 2)), np.zeros((2, 2)), epochs=0, batch_size=1, rng=rng)


def test_adam_validation():
    with pytest.raises(ValueError):
        Adam(np.zeros(2), learning_rate=0)
    with pytest.raises(ValueError):
        Adam(np.zeros((2, 2)))
    opt = Adam(np.zeros(2))
    with pytest.raises(ValueError):
        opt.step(np.zeros(4))


def test_adam_descends_quadratic():
    w = np.array([5.0, -3.0])
    opt = Adam(w, learning_rate=0.1)
    for _ in range(500):
        opt.step(2 * w)  # grad of ||w||^2
    assert np.linalg.norm(w) < 0.1


def test_flat_adam_matches_per_array_adam_bit_for_bit(rng):
    """One step over the concatenated vector is the per-array update,
    element for element."""
    shapes = [(3, 5), (5,), (5, 2), (2,)]
    arrays = [rng.normal(size=s) for s in shapes]
    flat = np.concatenate([a.ravel() for a in arrays])
    opt = Adam(flat, learning_rate=1e-2)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    ms = [np.zeros_like(a) for a in arrays]
    vs = [np.zeros_like(a) for a in arrays]
    for t in range(1, 40):
        grads = [rng.normal(size=s) for s in shapes]
        opt.step(np.concatenate([g.ravel() for g in grads]))
        b1t, b2t = 1.0 - b1**t, 1.0 - b2**t
        for p, g, m, v in zip(arrays, grads, ms, vs):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / b1t) / (np.sqrt(v / b2t) + eps)
    expected = np.concatenate([a.ravel() for a in arrays])
    assert flat.tobytes() == expected.tobytes()


def test_layer_parameters_are_views_of_the_flat_vector(rng):
    net = MLP([3, 5, 2], rng)
    flat = net.optimizer.parameters
    assert flat.ndim == 1
    assert flat.size == sum(layer.weight.size + layer.bias.size for layer in net.layers)
    for layer in net.layers:
        assert np.shares_memory(layer.weight, flat)
        assert np.shares_memory(layer.bias, flat)
    # A train step moves the weights the forward pass reads.
    x, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    before = net(x)
    net.train_batch(x, y)
    assert not np.array_equal(net(x), before)


@pytest.mark.parametrize(
    "clone", [lambda n: pickle.loads(pickle.dumps(n)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_mlp_copies_keep_training_their_own_live_weights(rng, clone):
    net = MLP([3, 6, 2], rng)
    x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
    net.train_batch(x, y)
    twin = clone(net)
    for layer in twin.layers:
        assert np.shares_memory(layer.weight, twin.optimizer.parameters)
        assert np.shares_memory(layer.bias, twin.optimizer.parameters)
        assert not np.shares_memory(layer.weight, net.optimizer.parameters)
    for _ in range(3):
        assert net.train_batch(x, y) == twin.train_batch(x, y)
        assert net.last_grad_norm == twin.last_grad_norm
    a, b = net.get_weights(), twin.get_weights()
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)
    assert np.array_equal(net(x), twin(x))
