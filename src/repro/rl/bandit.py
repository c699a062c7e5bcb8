"""NN-based contextual bandit: the paper's "State Observer".

The Smart Configuration Generation agent feeds its raw inputs (the
parameter subset used and the best ``perf`` achieved with it) through a
neural contextual bandit whose job is to model how performance varies
with inputs in the tuning environment; its learned hidden representation
is the *state observation* handed to the Q-learning subset picker.

:class:`NeuralContextualBandit` is that component: a regression MLP
trained online (context -> observed normalised reward) whose penultimate
activations are exposed via :meth:`observe_state`.
"""

from __future__ import annotations

import numpy as np

from .nn import MLP

__all__ = ["NeuralContextualBandit"]

#: Hidden layer widths between the context and the state layer.
HIDDEN = (32,)


class NeuralContextualBandit:
    """Contextual bandit with an MLP reward model.

    Parameters
    ----------
    context_dim:
        Dimension of the raw context vector.
    state_dim:
        Dimension of the exposed state observation (the last hidden
        layer's width).
    rng:
        Seeded generator.
    """

    def __init__(
        self,
        context_dim: int,
        state_dim: int = 16,
        learning_rate: float = 1e-3,
        rng: np.random.Generator | None = None,
    ):
        if context_dim < 1 or state_dim < 1:
            raise ValueError("dimensions must be positive")
        self.context_dim = context_dim
        self.state_dim = state_dim
        self.model = MLP(
            [context_dim, *HIDDEN, state_dim, 1],
            rng if rng is not None else np.random.default_rng(),
            learning_rate=learning_rate,
        )

    # -- reward modelling ------------------------------------------------------

    def update(self, context: np.ndarray, reward: float) -> float:
        """One online regression step on an observed (context, reward)."""
        context = np.asarray(context, dtype=float)
        self._check_dim(np.atleast_2d(context))
        return self.model.train_batch(context[None, :], np.array([[reward]]))

    # -- the state observation --------------------------------------------------------

    def observe_state(self, context: np.ndarray) -> np.ndarray:
        """The learned state observation for a raw context: the
        activations of the last hidden layer (width ``state_dim``)."""
        x = np.atleast_2d(np.asarray(context, dtype=float))
        self._check_dim(x)
        for layer in self.model.layers[:-1]:
            x = layer.forward(x)
        return x[0]

    def _check_dim(self, contexts: np.ndarray) -> None:
        if contexts.shape[1] != self.context_dim:
            raise ValueError(
                f"context dim {contexts.shape[1]} != expected {self.context_dim}"
            )
