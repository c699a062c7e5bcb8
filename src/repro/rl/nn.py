"""A small, dependency-free neural-network library (the reproduction's
Keras).

Implements exactly what the paper's agents need: dense feed-forward
networks with ReLU hidden layers and a linear output layer,
mean-squared-error loss, and the Adam optimizer, all in numpy with
explicit seeding.  Networks are built
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

from typing import Sequence

import numpy as np

__all__ = ["Dense", "MLP", "Adam", "ACTIVATIONS"]

#: The layer activations: ReLU for every hidden layer, linear for the
#: output layer (Q-values and regression).
ACTIVATIONS = ("relu", "linear")
HIDDEN_ACTIVATION = "relu"
OUTPUT_ACTIVATION = "linear"

#: Adam's moment decay rates and the guard added to its denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _as_batch(a: np.ndarray) -> np.ndarray:
    """``np.atleast_2d`` of the input as float64, without its call
    overhead on the usual 2-D input."""
    a = np.asarray(a, dtype=np.float64)
    return a if a.ndim == 2 else np.atleast_2d(a)


class Dense:
    """One fully connected layer with He (ReLU) or Xavier (linear)
    initialisation."""

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
        self.activation = activation
        self._relu = activation == "relu"
        scale = np.sqrt((2.0 if self._relu else 1.0) / in_features)
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        # forward cache: the input and the output
        self._x: np.ndarray | None = None
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = np.dot(x, self.weight)
        out += self.bias
        if self._relu:
            # In place: ``out > 0`` then equals ``z > 0`` (NaN included),
            # so backward needs no copy of the pre-activation.
            np.maximum(out, 0.0, out=out)
        self._out = out
        return out

    def _parameter_gradients(
        self,
        grad_out: np.ndarray,
        dw: np.ndarray | None,
        db: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dL/dz, dL/dW, dL/db)`` for ``grad_out`` = dL/d(output)."""
        if self._x is None:
            raise RuntimeError("backward called before forward")
        # The linear derivative is all ones: skipping the multiply by it
        # gives the same bits, as does multiplying by the boolean ReLU
        # mask instead of its float copy.
        dz = grad_out * (self._out > 0.0) if self._relu else grad_out
        dw = np.matmul(self._x.T, dz, out=dw)
        db = np.add.reduce(dz, axis=0, out=db)
        return dz, dw, db

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
        dz, dw, db = self._parameter_gradients(grad_out, dw, db)
        return dz @ self.weight.T, dw, db

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]


class Adam:
    """Adam optimizer over one flat parameter vector, updated in place."""

    def __init__(self, parameters: np.ndarray, learning_rate: float = 1e-3):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not isinstance(parameters, np.ndarray) or parameters.ndim != 1:
            raise ValueError("parameters must be one flat array")
        self.parameters = parameters
        self.learning_rate = learning_rate
        self._m = np.zeros_like(parameters)
        self._v = np.zeros_like(parameters)
        # Scratch vectors, so a step allocates nothing.
        self._step = np.empty_like(parameters)
        self._scale = np.empty_like(parameters)
        self._t = 0

    def step(self, gradient: np.ndarray) -> None:
        if gradient.shape != self.parameters.shape:
            raise ValueError(
                f"gradient shape {gradient.shape} != parameter shape {self.parameters.shape}"
            )
        self._t += 1
        b1t = 1.0 - ADAM_BETA1**self._t
        b2t = 1.0 - ADAM_BETA2**self._t
        m, v, step, scale = self._m, self._v, self._step, self._scale
        # m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g
        m *= ADAM_BETA1
        np.multiply(gradient, 1.0 - ADAM_BETA1, out=step)
        m += step
        v *= ADAM_BETA2
        np.multiply(gradient, 1.0 - ADAM_BETA2, out=step)
        step *= gradient
        v += step
        # parameters -= lr*(m/b1t) / (sqrt(v/b2t) + eps)
        np.divide(m, b1t, out=step)
        step *= self.learning_rate
        np.divide(v, b2t, out=scale)
        np.sqrt(scale, out=scale)
        scale += ADAM_EPSILON
        step /= scale
        self.parameters -= step


class MLP:
    """Feed-forward network trained with MSE + Adam: ReLU hidden layers
    and a linear output layer.

    Parameters
    ----------
    layer_sizes:
        ``[in, hidden..., out]`` -- at least two entries.
    rng:
        Seeded generator for weight initialisation.
    learning_rate:
        Adam step size.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        learning_rate: float = 1e-3,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layers: list[Dense] = []
        for i, (a, b) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            act = OUTPUT_ACTIVATION if i == len(layer_sizes) - 2 else HIDDEN_ACTIVATION
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
        # Masked entries (NaN targets) contribute neither loss nor
        # gradient, and only the unmasked ones count towards the mean.
        masked = np.isnan(y)
        n = max(1, masked.size - np.count_nonzero(masked))
        diff = np.subtract(pred, y)
        diff[masked] = 0.0
        loss = float(np.add.reduce(diff * diff, axis=None) / n)
        grad = diff  # dL/d(pred) = 2 * diff / n, in place
        grad *= 2.0
        grad /= n
        layers, views = self.layers, self._grad_views
        for i in range(len(layers) - 1, 0, -1):
            grad, _, _ = layers[i].backward(grad, *views[i])
        # The input layer's input gradient would go unused.
        layers[0]._parameter_gradients(grad, *views[0])
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
