"""NN-based contextual bandit: the paper's "State Observer".

The Smart Configuration Generation agent feeds its raw inputs (the
parameter subset used and the best ``perf`` achieved with it) through a
neural contextual bandit whose job is to model how performance varies
with inputs in the tuning environment; its learned hidden representation
is the *state observation* handed to the Q-learning subset picker.

:class:`NeuralContextualBandit` is that component: a regression MLP
trained online (context -> observed normalised reward) whose penultimate
activations are exposed via :meth:`observe_state`.  It can also be used
as a plain bandit (pick the arm with the best predicted reward, with
epsilon exploration), which the offline trainer uses during sweeps.
"""

from __future__ import annotations

import numpy as np

from .nn import MLP

__all__ = ["NeuralContextualBandit"]


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
        hidden: tuple[int, ...] = (32,),
        learning_rate: float = 1e-3,
        epsilon: float = 0.1,
        rng: np.random.Generator | None = None,
    ):
        if context_dim < 1 or state_dim < 1:
            raise ValueError("dimensions must be positive")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.rng = rng if rng is not None else np.random.default_rng()
        self.context_dim = context_dim
        self.state_dim = state_dim
        self.epsilon = epsilon
        self.model = MLP(
            [context_dim, *hidden, state_dim, 1],
            self.rng,
            hidden_activation="relu",
            learning_rate=learning_rate,
        )

    # -- reward modelling ------------------------------------------------------

    def predict_reward(self, contexts: np.ndarray) -> np.ndarray:
        """Predicted reward for each context row."""
        contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
        self._check_dim(contexts)
        return np.asarray(self.model(contexts))[:, 0]

    def update(self, context: np.ndarray, reward: float) -> float:
        """One online regression step on an observed (context, reward)."""
        context = np.asarray(context, dtype=float)
        self._check_dim(np.atleast_2d(context))
        return self.model.train_batch(context[None, :], np.array([[reward]]))

    # -- arm selection -------------------------------------------------------------

    def select(self, candidate_contexts: np.ndarray) -> int:
        """Epsilon-greedy arm choice among candidate context rows."""
        candidate_contexts = np.atleast_2d(np.asarray(candidate_contexts, dtype=float))
        if self.rng.random() < self.epsilon:
            return int(self.rng.integers(candidate_contexts.shape[0]))
        return int(np.argmax(self.predict_reward(candidate_contexts)))

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
