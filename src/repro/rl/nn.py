"""A small, dependency-free neural-network library (the reproduction's
Keras).

Implements exactly what the paper's agents need: dense feed-forward
networks with ReLU/tanh hidden layers, mean-squared-error loss, and the
Adam optimizer, all in numpy with explicit seeding.  Networks are built
with :class:`MLP` and trained with :meth:`MLP.train_batch`; weights can
be exported/imported as plain dicts of arrays for checkpointing the
offline-trained agents.

An :class:`MLP` keeps all of its parameters in one contiguous vector:
each layer's ``weight`` and ``bias`` are reshaped views into it, and
backprop writes the gradients into a matching flat buffer, so one Adam
step is a handful of elementwise operations over one array.  The
arithmetic per element is the same as stepping each array on its own.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["Dense", "MLP", "Adam", "ACTIVATIONS"]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(x.dtype)


def _tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_grad(x: np.ndarray) -> np.ndarray:
    return 1.0 - np.tanh(x) ** 2


def _linear(x: np.ndarray) -> np.ndarray:
    return x


def _linear_grad(x: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sigmoid_grad(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return s * (1.0 - s)


#: name -> (activation, derivative w.r.t. pre-activation)
ACTIVATIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]] = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
    "linear": (_linear, _linear_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
}


def _as_batch(a: np.ndarray) -> np.ndarray:
    """``np.atleast_2d`` of the input as float64, without its call
    overhead on the usual 2-D input."""
    a = np.asarray(a, dtype=np.float64)
    return a if a.ndim == 2 else np.atleast_2d(a)


class Dense:
    """One fully connected layer with He/Xavier initialisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str,
        rng: np.random.Generator,
    ):
        if in_features < 1 or out_features < 1:
            raise ValueError("layer dimensions must be positive")
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; known: {sorted(ACTIVATIONS)}"
            )
        scale = np.sqrt(2.0 / in_features) if activation == "relu" else np.sqrt(
            1.0 / in_features
        )
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.activation = activation
        self._act, self._act_grad = ACTIVATIONS[activation]
        # forward cache
        self._x: np.ndarray | None = None
        self._z: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        self._z = x @ self.weight + self.bias
        return self._act(self._z)

    def backward(
        self,
        grad_out: np.ndarray,
        dw: np.ndarray | None = None,
        db: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Given dL/d(output), return (dL/d(input), dL/dW, dL/db).

        ``dw``/``db``, when given, receive the parameter gradients in
        place (:class:`MLP` passes views into its flat gradient buffer).
        """
        if self._x is None or self._z is None:
            raise RuntimeError("backward called before forward")
        # The linear derivative is all ones: skipping the multiply by it
        # gives the same bits.
        dz = grad_out if self._act is _linear else grad_out * self._act_grad(self._z)
        dw = np.matmul(self._x.T, dz, out=dw)
        db = np.add.reduce(dz, axis=0, out=db)
        dx = dz @ self.weight.T
        return dx, dw, db

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]


class Adam:
    """Adam optimizer over one flat parameter vector, updated in place."""

    def __init__(
        self,
        parameters: np.ndarray,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not isinstance(parameters, np.ndarray) or parameters.ndim != 1:
            raise ValueError("parameters must be one flat array")
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._m = np.zeros_like(parameters)
        self._v = np.zeros_like(parameters)
        self._t = 0

    def step(self, gradient: np.ndarray) -> None:
        if gradient.shape != self.parameters.shape:
            raise ValueError(
                f"gradient shape {gradient.shape} != parameter shape {self.parameters.shape}"
            )
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * gradient
        v *= self.beta2
        v += (1.0 - self.beta2) * gradient * gradient
        self.parameters -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + self.epsilon)


class MLP:
    """Feed-forward network trained with MSE + Adam.

    Parameters
    ----------
    layer_sizes:
        ``[in, hidden..., out]`` -- at least two entries.
    hidden_activation:
        Activation for all hidden layers.
    output_activation:
        Activation for the final layer ("linear" for Q-values and
        regression).
    rng:
        Seeded generator for weight initialisation.
    learning_rate:
        Adam step size.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        hidden_activation: str = "relu",
        output_activation: str = "linear",
        learning_rate: float = 1e-3,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layers: list[Dense] = []
        for i, (a, b) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            act = output_activation if i == len(layer_sizes) - 2 else hidden_activation
            self.layers.append(Dense(a, b, act, rng))
        # One flat parameter vector and a matching gradient buffer; the
        # layers' arrays become views into them (see ``_bind_views``).
        self._params = np.concatenate(
            [p.ravel() for layer in self.layers for p in layer.parameters]
        )
        self._grads = np.zeros_like(self._params)
        self._bind_views()
        self.optimizer = Adam(self._params, learning_rate=learning_rate)
        #: Telemetry from the most recent :meth:`train_batch` call, read
        #: by the guardrail monitors (pure observers -- recording them
        #: changes nothing about training); see also
        #: :attr:`last_grad_norm`.
        self.last_loss: float | None = None

    def _bind_views(self) -> None:
        """Make every layer's ``weight``/``bias`` a view of its slice of
        the flat parameter vector, and build the matching gradient views.
        The layout is ``w0, b0, w1, b1, ...``."""
        self._grad_views: list[tuple[np.ndarray, np.ndarray]] = []
        offset = 0
        for layer in self.layers:
            grads = []
            for name in ("weight", "bias"):
                shape = getattr(layer, name).shape
                segment = slice(offset, offset + int(np.prod(shape)))
                setattr(layer, name, self._params[segment].reshape(shape))
                grads.append(self._grads[segment].reshape(shape))
                offset = segment.stop
            self._grad_views.append((grads[0], grads[1]))

    def __setstate__(self, state: dict) -> None:
        # Pickle and deepcopy turn the layers' views into detached
        # copies; point them back into the (restored) flat vectors so
        # the optimizer and the forward pass share the same weights.
        self.__dict__.update(state)
        self._bind_views()

    # -- inference -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; accepts (n, in) or (in,) and preserves the
        input's batch shape on output."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        for layer in self.layers:
            x = layer.forward(x)
        return x[0] if single else x

    __call__ = forward

    # -- training --------------------------------------------------------------

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One MSE gradient step on a batch; returns the batch loss.

        ``y`` may contain NaN entries to mask outputs (used for Q-learning
        where only the taken action's value has a target).
        """
        x = _as_batch(x)
        y = _as_batch(y)
        pred = x
        for layer in self.layers:
            pred = layer.forward(pred)
        if pred.shape != y.shape:
            raise ValueError(f"target shape {y.shape} != prediction shape {pred.shape}")
        mask = ~np.isnan(y)
        n = max(1, np.count_nonzero(mask))
        diff = np.where(mask, pred - y, 0.0)
        loss = float((diff**2).sum() / n)
        grad = 2.0 * diff / n
        for layer, (dw, db) in zip(reversed(self.layers), reversed(self._grad_views)):
            grad, _, _ = layer.backward(grad, dw, db)
        self.optimizer.step(self._grads)
        self.last_loss = loss
        return loss

    @property
    def last_grad_norm(self) -> float | None:
        """L2 norm of the gradient of the most recent :meth:`train_batch`
        call (``None`` before the first), computed when read from the
        gradient buffer that call filled."""
        if self.last_loss is None:
            return None
        squares = (float((g * g).sum()) for grads in self._grad_views for g in grads)
        return float(np.sqrt(sum(squares)))

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
    ) -> list[float]:
        """Minibatch training; returns per-epoch mean loss."""
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        x = _as_batch(x)
        y = _as_batch(y)
        n = x.shape[0]
        losses: list[float] = []
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                epoch_losses.append(self.train_batch(x[idx], y[idx]))
            losses.append(float(np.mean(epoch_losses)))
        return losses

    # -- checkpointing ------------------------------------------------------------

    def get_weights(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            out[f"w{i}"] = layer.weight.copy()
            out[f"b{i}"] = layer.bias.copy()
        return out

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            w, b = weights[f"w{i}"], weights[f"b{i}"]
            if w.shape != layer.weight.shape or b.shape != layer.bias.shape:
                raise ValueError(f"weight shape mismatch at layer {i}")
            layer.weight[...] = w
            layer.bias[...] = b

    def copy_from(self, other: "MLP") -> None:
        """In-place weight copy (target-network sync)."""
        self.set_weights(other.get_weights())
